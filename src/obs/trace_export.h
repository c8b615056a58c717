// Chrome trace-event export for SpanTracer.
//
// Writes the "JSON Object Format" of the Trace Event spec — a single
// object with a `traceEvents` array of complete ("ph":"X") events — which
// chrome://tracing and Perfetto (ui.perfetto.dev → "Open trace file") load
// directly.  Timestamps are microseconds (double) in the tracer's own
// monotonic timebase; every span carries its thread lane and nesting depth
// (as an arg), so the rendered timeline shows the same bracketing the
// ScopeSpan guards produced.
// Causal flow layering: the `write_chrome_trace` overload taking
// FlowEvents renders each logical transmission as a slice on its own
// process lane (pid 2, tid = sending node, ts = round in fake
// milliseconds) and each happens-before edge as a `ph:"s"` / `ph:"f"` flow
// pair binding the parent slice to the child slice — Perfetto draws the
// arrows the `mg::dist` critical path follows.  `dist::flow_events`
// converts a run's happens-before record into FlowEvents.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "obs/span.h"

namespace mg::obs {

/// One logical transmission and its happens-before edge.  Fields are plain
/// integers, like TraceEvent, so obs stays independent of the graph and
/// schedule types.
struct FlowEvent {
  /// Producer-defined kind codes.  The exporter names the `mg::dist`
  /// encoding below; other codes render as "flow".
  enum : std::uint32_t {
    kData = 0,    ///< main-phase data multicast
    kRepair = 1,  ///< recovery data round
    kDigest = 2,  ///< recovery digest fan-out
    kGrant = 3,   ///< recovery grant
  };

  std::uint64_t id = 0;      ///< trace id, unique within the record (1-based)
  std::uint64_t parent = 0;  ///< enabling transmission's id; 0 = root
  std::uint32_t kind = 0;    ///< producer-defined kind code
  std::uint64_t time = 0;    ///< producer timebase (rounds for mg::dist)
  std::uint64_t node = 0;    ///< sending processor
  /// Payload (data), announced offer (digest; 2^32 - 1 for none),
  /// requested id (grant).
  std::uint64_t message = 0;
  std::uint64_t fanout = 0;  ///< receiver count
};

/// Writes `spans` as one Chrome-trace JSON document.
void write_chrome_trace(std::ostream& out,
                        const std::vector<SpanTracer::Span>& spans,
                        bool pretty = true);

/// Snapshot + export shorthand for a whole tracer.
void write_chrome_trace(std::ostream& out, const SpanTracer& tracer,
                        bool pretty = true);

/// Writes `spans` (wall-clock lanes, pid 1) plus `flows` (causal lanes,
/// pid 2; one slice per logical transmission, one flow arrow per
/// happens-before edge).  Either vector may be empty.
void write_chrome_trace(std::ostream& out,
                        const std::vector<SpanTracer::Span>& spans,
                        const std::vector<FlowEvent>& flows,
                        bool pretty = true);

}  // namespace mg::obs
