// In-memory span recorder for traced runs.  Spans are recorded by the
// benchmark's own code around each public library call (never inside the
// library), kept in per-thread lanes, and written out once at the end as
// Chrome trace-event JSON, which Perfetto and chrome://tracing open.
//
// A span's layer is its name up to the first '.', e.g. "graph.find_center"
// belongs to `graph`.  The root span of an op is named "op.<workload>"; its
// self time is the benchmark's own time between library calls.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;  ///< 1-based index within the lane; 0 = root
  std::uint64_t op = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t lanes) : lanes_(lanes) {}

  struct Lane {
    std::vector<SpanRecord> spans;
    std::vector<std::uint32_t> open;  ///< stack of 1-based span indices
  };

  Lane& lane(std::size_t i) { return lanes_[i]; }

  /// Self time (span duration minus its children's) summed per layer, in
  /// ns, over every span; the "op" entry is the summed op-span duration.
  [[nodiscard]] std::map<std::string, double> self_ns_by_layer() const;

  /// Summed duration (ns) of every span named `name`.
  [[nodiscard]] double total_ns(const char* name) const;

  /// Writes every span as a Chrome trace "X" event; returns false on an
  /// I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<Lane> lanes_;
};

/// Sets trace.layer_cover (layer self time / op time) and
/// trace.overhead_pct, writes the trace file, and adds the per-layer
/// self-time split to the report's notes.
void finish_trace(const Tracer& tracer, const Phase& untraced,
                  const Phase& traced, const std::string& path,
                  Report& report);

/// RAII span.  A null tracer makes it a no-op, so the untraced op bodies
/// and the traced ones can share code where the calls are the same.
class Span {
 public:
  Span(Tracer* tracer, std::size_t lane, const char* name, std::uint64_t op);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::Lane* lane_ = nullptr;
  std::uint32_t index_ = 0;
};

}  // namespace perfbench
