// Causal message tracing: happens-before edges between logical
// transmissions, recorded by producers (today: the `mg::dist` actor
// runtime) and exported as Chrome-trace *flow events* layered onto the
// span timeline (see trace_export.h).
//
// Each event is one logical transmission — a data multicast, a recovery
// digest fan-out, or a grant — identified by a process-unique trace id and
// pointing at its causal parent: the transmission whose arrival made this
// send informative (0 = a root cause, e.g. a message the sender held
// initially).  Fields are plain integers, like TraceEvent, so obs stays
// independent of the graph and schedule types.
//
// Events land in the same `obs::BoundedRing` as SpanTracer's spans:
// recording is one relaxed fetch_add to claim a slot, a plain write, and a
// release store to publish.  A full ring counts drops instead of blocking
// or reallocating, and the same two off switches apply: compile time
// (`MG_OBS_ENABLED=0` turns MG_OBS_CAUSAL into nothing) and run time
// (`CausalTracer::set_enabled(false)`, the default, reduces a record to a
// single relaxed load).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/bounded_ring.h"

namespace mg::obs {

class CausalTracer {
 public:
  /// Producer-defined kind codes.  The Chrome-trace exporter names the
  /// `mg::dist` encoding below; other producers may use their own codes.
  enum : std::uint32_t {
    kFlowData = 0,    ///< main-phase data multicast
    kFlowRepair = 1,  ///< recovery data round
    kFlowDigest = 2,  ///< recovery digest fan-out
    kFlowGrant = 3,   ///< recovery grant
  };

  /// One logical transmission and its happens-before edge.
  struct Event {
    std::uint64_t id = 0;      ///< process-unique trace id (1-based)
    std::uint64_t parent = 0;  ///< enabling transmission's id; 0 = root
    std::uint32_t kind = 0;    ///< producer-defined kind code
    std::uint64_t time = 0;    ///< producer timebase (rounds for mg::dist)
    std::uint64_t node = 0;    ///< sending processor
    std::uint64_t message = 0; ///< payload (data), requested id (grant)
    std::uint64_t fanout = 0;  ///< receiver count
  };

  explicit CausalTracer(std::size_t capacity = kDefaultCapacity);
  CausalTracer(const CausalTracer&) = delete;
  CausalTracer& operator=(const CausalTracer&) = delete;

  /// The process-wide tracer MG_OBS_CAUSAL reports into.  Disabled by
  /// default — causal tracing is opt-in per run, like span tracing.
  static CausalTracer& global();

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Publishes one event; lock-free, drops when the ring is full.  Safe to
  /// call concurrently with snapshot().
  void record(const Event& event) {
    ring_.record([&](Event& slot) { slot = event; });
  }

  /// record() only when enabled — the single-relaxed-load fast path the
  /// MG_OBS_CAUSAL macro compiles to.
  void try_record(const Event& event) {
    if (enabled()) record(event);
  }

  [[nodiscard]] std::size_t capacity() const { return ring_.capacity(); }

  /// Events accepted into the ring so far (<= capacity).
  [[nodiscard]] std::uint64_t recorded() const { return ring_.recorded(); }

  /// Events rejected because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const { return ring_.dropped(); }

  /// Copies every published event, sorted by (time, id).  Events still
  /// being written by a concurrent record() are skipped, never torn.
  [[nodiscard]] std::vector<Event> snapshot() const;

  /// Forgets every event.  Not safe concurrently with record() — quiesce
  /// (or disable) the tracer first.
  void clear() { ring_.clear(); }

 private:
  static constexpr std::size_t kDefaultCapacity = 1 << 15;  // 32768 events

  std::atomic<bool> enabled_{false};
  BoundedRing<Event> ring_;
};

}  // namespace mg::obs

// Compile-time switch; same default as registry.h / span.h.
#ifndef MG_OBS_ENABLED
#define MG_OBS_ENABLED 1
#endif

#if MG_OBS_ENABLED
/// Records one happens-before event into the global causal tracer (a
/// single relaxed load while the tracer is disabled, its default).
#define MG_OBS_CAUSAL(event) ::mg::obs::CausalTracer::global().try_record(event)
#else
#define MG_OBS_CAUSAL(event) ((void)0)
#endif
