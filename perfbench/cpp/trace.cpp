#include "trace.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "common.h"

namespace perfbench {

Span::Span(Tracer* tracer, std::size_t lane, const char* name,
           std::uint64_t op) {
  if (tracer == nullptr) return;
  lane_ = &tracer->lane(lane);
  SpanRecord record;
  record.name = name;
  record.parent = lane_->open.empty() ? 0 : lane_->open.back();
  record.op = op;
  lane_->spans.push_back(record);
  index_ = static_cast<std::uint32_t>(lane_->spans.size());
  lane_->open.push_back(index_);
  lane_->spans.back().start_ns = now_ns();
}

Span::~Span() {
  if (lane_ == nullptr) return;
  lane_->spans[index_ - 1].end_ns = now_ns();
  lane_->open.pop_back();
}

namespace {

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

}  // namespace

std::map<std::string, double> Tracer::self_ns_by_layer() const {
  std::map<std::string, double> out;
  for (const Lane& lane : lanes_) {
    std::vector<double> child_ns(lane.spans.size(), 0.0);
    for (const SpanRecord& s : lane.spans) {
      if (s.parent != 0) {
        child_ns[s.parent - 1] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = 0; i < lane.spans.size(); ++i) {
      const SpanRecord& s = lane.spans[i];
      const auto duration = static_cast<double>(s.end_ns - s.start_ns);
      const std::string layer = layer_of(s.name);
      // An op span contributes its whole duration under "op" (the base of
      // the coverage ratio) and its self time under "bench".
      if (layer == "op") {
        out["op"] += duration;
        out["bench"] += duration - child_ns[i];
      } else {
        out[layer] += duration - child_ns[i];
      }
    }
  }
  return out;
}

double Tracer::total_ns(const char* name) const {
  double total = 0.0;
  for (const Lane& lane : lanes_) {
    for (const SpanRecord& s : lane.spans) {
      if (std::strcmp(s.name, name) == 0) {
        total += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
  }
  return total;
}

void finish_trace(const Tracer& tracer, const Phase& untraced,
                  const Phase& traced, const std::string& path,
                  Report& report) {
  const std::map<std::string, double> self = tracer.self_ns_by_layer();
  const double op_ns = self.count("op") != 0 ? self.at("op") : 0.0;
  double layers_ns = 0.0;
  std::string line = "self time share by layer:";
  for (const auto& [layer, ns] : self) {
    if (layer == "op") continue;
    if (layer != "bench") layers_ns += ns;
    char part[64];
    std::snprintf(part, sizeof part, " %s %.1f%%", layer.c_str(),
                  100.0 * ratio(ns, op_ns));
    line += part;
  }
  report.notes.push_back(line);
  report.metrics["trace.layer_cover"] = ratio(layers_ns, op_ns);
  report.metrics["trace.overhead_pct"] = overhead_pct(untraced, traced);
  if (!path.empty()) {
    report.ledger.run_check(tracer.write_chrome_json(path),
                            "cannot write trace file " + path);
    report.notes.push_back("trace written to " + path);
  }
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t origin = INT64_MAX;
  for (const Lane& lane : lanes_) {
    if (!lane.spans.empty()) origin = std::min(origin, lane.spans[0].start_ns);
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[320];
  for (std::size_t tid = 0; tid < lanes_.size(); ++tid) {
    const Lane& lane = lanes_[tid];
    for (std::size_t i = 0; i < lane.spans.size(); ++i) {
      const SpanRecord& s = lane.spans[i];
      std::snprintf(
          buf, sizeof buf,
          "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
          "\"span\":%zu,\"parent\":%u}}",
          first ? "" : ",", s.name, layer_of(s.name).c_str(), tid,
          static_cast<double>(s.start_ns - origin) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3,
          static_cast<unsigned long long>(s.op), i + 1, s.parent);
      out << buf;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
