// Streaming trace interface.
//
// Producers (today: sim::simulate) push one TraceEvent per send/receive as
// it happens, so a trace can be observed, counted, or serialized without
// buffering the whole run in memory.  The event fields are plain integers
// — obs stays independent of the graph and schedule types, and any
// subsystem can adopt the interface.
#pragma once

#include <cstdint>
#include <ostream>
#include <string_view>

#include "obs/json.h"

namespace mg::obs {

struct TraceEvent {
  /// Producer-defined kind.  sim::simulate emits "send" and "receive",
  /// plus one event per fault loss: "drop" (link drop suppressed the
  /// send), "crash" (sender dead), "skip" (sender never held the message)
  /// and "lost" (receiver dead at arrival).
  std::string_view kind;
  std::uint64_t time = 0;     ///< round / time unit
  std::uint64_t node = 0;     ///< acting processor
  std::uint64_t message = 0;  ///< message id
  std::uint64_t peer = 0;     ///< first receiver for sends; sender otherwise
  std::uint64_t fanout = 0;   ///< |D| for send-like kinds; 0 otherwise
  /// Causal stamps (0 = unstamped): `trace` is the logical transmission's
  /// process-unique id ("send") or the delivering transmission's id
  /// ("receive"); `cause` is the id of the transmission whose arrival made
  /// this send informative — the happens-before parent the causal tracer
  /// and `dist::critical_path` follow.
  std::uint64_t trace = 0;
  std::uint64_t cause = 0;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
};

/// Counts events per kind — the cheapest possible sink.
class CountingTraceSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override {
    ++total_;
    if (event.kind == "send") ++sends_;
    if (event.kind == "receive") ++receives_;
  }

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t sends() const { return sends_; }
  [[nodiscard]] std::uint64_t receives() const { return receives_; }

 private:
  std::uint64_t total_ = 0;
  std::uint64_t sends_ = 0;
  std::uint64_t receives_ = 0;
};

/// Serializes each event as one JSON object per line (JSONL), the standard
/// machine-readable trace format for offline analysis.
class JsonLinesTraceSink final : public TraceSink {
 public:
  explicit JsonLinesTraceSink(std::ostream& out) : out_(out) {}

  void on_event(const TraceEvent& event) override {
    JsonWriter w(out_, /*pretty=*/false);
    w.begin_object();
    w.field("kind", event.kind);
    w.field("time", event.time);
    w.field("node", event.node);
    w.field("message", event.message);
    w.field("peer", event.peer);
    if (event.fanout != 0) w.field("fanout", event.fanout);
    if (event.trace != 0) w.field("trace", event.trace);
    if (event.cause != 0) w.field("cause", event.cause);
    w.end_object();
    out_ << '\n';
  }

 private:
  std::ostream& out_;
};

}  // namespace mg::obs
