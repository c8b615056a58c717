#include "common.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"peak_rss_mb", "MB"},
    {"rounds_ratio", "1"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"graph.center_ms", "ms"},
    {"graph.center_bfs", "count"},
    {"tree.build_ms", "ms"},
    {"tree.retree_ms", "ms"},
    {"tree.path.noop", "1"},
    {"tree.path.parent_patch", "1"},
    {"tree.path.subtree_repair", "1"},
    {"tree.path.recenter", "1"},
    {"tree.path.full_rebuild", "1"},
    {"tree.bfs_per_event", "count"},
    {"gossip.synth_ms", "ms"},
    {"gossip.synth_ns_per_tx", "ns/tx"},
    {"gossip.tx", "count"},
    {"gossip.deliveries", "count"},
    {"gossip.repair_rounds", "count"},
    {"churn.reschedule_ms", "ms"},
    {"churn.patch_share", "1"},
    {"churn.resolve_share", "1"},
    {"model.validate_ms", "ms"},
    {"model.validate_ns_per_delivery", "ns/delivery"},
    {"model.schedule_bytes_per_tx", "B/tx"},
    {"sim.run_ms", "ms"},
    {"sim.ns_per_delivery", "ns/delivery"},
    {"engine.hit_ratio", "1"},
    {"engine.evictions", "count"},
    {"engine.coalesced", "count"},
    {"engine.fingerprint_us", "us"},
    {"engine.invalidations", "count"},
    {"dist.round_us", "us"},
    {"dist.recovery_rounds", "count"},
    {"dist.control_per_data", "1"},
    {"dist.coverage", "1"},
    {"fault.injected_drops", "count"},
    {"fault.crashed_sends", "count"},
    {"fault.skipped_sends", "count"},
    {"fault.lost_receives", "count"},
    {"trace.layer_cover", "1"},
    {"trace.overhead_pct", "%"},
};

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

void Ledger::op(const std::string& error) {
  ++attempted_;
  run_check(error.empty(), error);
}

void Ledger::run_check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed_;
  if (messages_.size() < 8) messages_.push_back(what);
}

void summarize(const Phase& phase, double tail_q, Report& report) {
  const auto ops = static_cast<double>(phase.latency_ms.size());
  report.metrics["ops_per_s"] = ratio(ops, phase.busy_s);
  report.metrics["latency_p50_ms"] = quantile(phase.latency_ms, 0.5);
  const double tail = quantile(phase.latency_ms, tail_q);
  report.metrics["latency_tail_ms"] = tail;
  report.metrics["rounds_ratio"] = ratio(phase.rounds_ratio_sum, ops);
  const auto beyond = static_cast<std::size_t>(
      std::count_if(phase.latency_ms.begin(), phase.latency_ms.end(),
                    [tail](double v) { return v > tail; }));
  char line[160];
  std::snprintf(line, sizeof line,
                "latency_tail_ms is p%g: %zu of %zu samples lie beyond it",
                tail_q * 100.0, beyond, phase.latency_ms.size());
  report.notes.emplace_back(line);
  report.ledger.run_check(beyond >= 10,
                          "fewer than 10 samples beyond the tail percentile");
}

void move_to_cpu(std::size_t i) {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) allowed.push_back(c);
      }
    }
    return allowed;
  }();
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[i % cpus.size()], &one);
  // Best effort: where the move is refused the op runs where it is.
  (void)sched_setaffinity(0, sizeof one, &one);
}

double overhead_pct(const Phase& untraced, const Phase& traced) {
  const double base =
      ratio(static_cast<double>(untraced.latency_ms.size()), untraced.busy_s);
  const double with =
      ratio(static_cast<double>(traced.latency_ms.size()), traced.busy_s);
  return ratio(base - with, base) * 100.0;
}

double median_setup_seconds(int repeats, const std::function<void()>& reset,
                            const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    if (i > 0) {
      reset();
      malloc_trim(0);
    }
    const std::int64_t start = now_ns();
    setup();
    seconds.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  return quantile(seconds, 0.5);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

std::uint32_t reference_radius(const mg::graph::Graph& g) {
  const mg::graph::Vertex n = g.vertex_count();
  std::vector<std::uint32_t> dist(n);
  std::vector<mg::graph::Vertex> queue(n);
  std::uint32_t best = UINT32_MAX;
  for (mg::graph::Vertex s = 0; s < n; ++s) {
    std::fill(dist.begin(), dist.end(), UINT32_MAX);
    dist[s] = 0;
    std::size_t head = 0, tail = 0;
    queue[tail++] = s;
    std::uint32_t ecc = 0;
    while (head < tail && ecc < best) {
      const mg::graph::Vertex u = queue[head++];
      ecc = dist[u];
      for (const mg::graph::Vertex v : g.neighbors(u)) {
        if (dist[v] == UINT32_MAX) {
          dist[v] = dist[u] + 1;
          queue[tail++] = v;
        }
      }
    }
    if (head == tail && tail == n) best = std::min(best, ecc);
  }
  return best;
}

std::size_t heap_in_use_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

double timer_ns(const mg::obs::Snapshot& snap, std::string_view name) {
  for (const auto& [timer, value] : snap.timers) {
    if (timer == name) return static_cast<double>(value.total_ns);
  }
  return 0.0;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace perfbench
