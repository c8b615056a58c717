#include "obs/trace_export.h"

#include <ostream>
#include <string_view>
#include <unordered_map>

#include "obs/json.h"

namespace mg::obs {

namespace {

/// Names for the `mg::dist` kind encoding (see FlowEvent); unknown codes
/// render generically rather than failing the export.
std::string_view flow_kind_name(std::uint32_t kind) {
  switch (kind) {
    case FlowEvent::kData: return "data";
    case FlowEvent::kRepair: return "repair";
    case FlowEvent::kDigest: return "digest";
    case FlowEvent::kGrant: return "grant";
    default: return "flow";
  }
}

// One causal round renders as 1000 fake microseconds; slices occupy the
// first 800 so adjacent rounds stay visually separate, and flow endpoints
// sit mid-slice (+400) so both ends bind to their enclosing slice.
constexpr double kRoundUs = 1000.0;
constexpr double kSliceUs = 800.0;
constexpr double kAnchorUs = 400.0;

void write_span_events(JsonWriter& w,
                       const std::vector<SpanTracer::Span>& spans) {
  for (const SpanTracer::Span& span : spans) {
    w.begin_object();
    w.field("name", span.name);
    w.field("cat", "mg");
    w.field("ph", "X");  // complete event: ts + dur
    w.field("ts", static_cast<double>(span.start_ns) / 1e3);
    w.field("dur", static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    w.field("pid", 1);
    w.field("tid", static_cast<std::uint64_t>(span.thread));
    w.key("args").begin_object();
    w.field("depth", static_cast<std::uint64_t>(span.depth));
    w.end_object();
    w.end_object();
  }
}

void write_flow_events(JsonWriter& w,
                       const std::vector<FlowEvent>& flows) {
  std::unordered_map<std::uint64_t, const FlowEvent*> by_id;
  by_id.reserve(flows.size());
  for (const FlowEvent& e : flows) by_id.emplace(e.id, &e);

  for (const FlowEvent& e : flows) {
    w.begin_object();
    w.field("name", flow_kind_name(e.kind));
    w.field("cat", "mg.flow");
    w.field("ph", "X");
    w.field("ts", static_cast<double>(e.time) * kRoundUs);
    w.field("dur", kSliceUs);
    w.field("pid", 2);
    w.field("tid", e.node);
    w.key("args").begin_object();
    w.field("id", e.id);
    w.field("parent", e.parent);
    w.field("message", e.message);
    w.field("fanout", e.fanout);
    w.end_object();
    w.end_object();
  }

  // One flow arrow per happens-before edge: "s" anchored inside the parent
  // slice, "f" (bp:"e" — bind to enclosing slice) inside the child's.
  // Edges whose parent is not in `flows` are skipped, not invented.
  for (const FlowEvent& e : flows) {
    if (e.parent == 0) continue;
    const auto it = by_id.find(e.parent);
    if (it == by_id.end()) continue;
    const FlowEvent& parent = *it->second;
    w.begin_object();
    w.field("name", "cause");
    w.field("cat", "mg.flow");
    w.field("ph", "s");
    w.field("id", e.id);
    w.field("ts", static_cast<double>(parent.time) * kRoundUs + kAnchorUs);
    w.field("pid", 2);
    w.field("tid", parent.node);
    w.end_object();
    w.begin_object();
    w.field("name", "cause");
    w.field("cat", "mg.flow");
    w.field("ph", "f");
    w.field("bp", "e");
    w.field("id", e.id);
    w.field("ts", static_cast<double>(e.time) * kRoundUs + kAnchorUs);
    w.field("pid", 2);
    w.field("tid", e.node);
    w.end_object();
  }
}

void write_document(std::ostream& out,
                    const std::vector<SpanTracer::Span>& spans,
                    const std::vector<FlowEvent>& flows,
                    bool pretty) {
  JsonWriter w(out, pretty);
  w.begin_object();
  w.key("traceEvents").begin_array();
  write_span_events(w, spans);
  write_flow_events(w, flows);
  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.end_object();
  out << '\n';
}

}  // namespace

void write_chrome_trace(std::ostream& out,
                        const std::vector<SpanTracer::Span>& spans,
                        bool pretty) {
  write_document(out, spans, {}, pretty);
}

void write_chrome_trace(std::ostream& out, const SpanTracer& tracer,
                        bool pretty) {
  write_chrome_trace(out, tracer.snapshot(), pretty);
}

void write_chrome_trace(std::ostream& out,
                        const std::vector<SpanTracer::Span>& spans,
                        const std::vector<FlowEvent>& flows,
                        bool pretty) {
  write_document(out, spans, flows, pretty);
}

}  // namespace mg::obs
