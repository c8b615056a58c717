// Shared plumbing of the benchmark program: command-line arguments, the
// metric tables, the closed loop, latency summaries and the failure ledger.
// Each workload (solve.cpp, serve.cpp, churn.cpp, heal.cpp) fills a
// `Report`; main.cpp prints it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "obs/registry.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace file written by traced runs
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every untraced run.  `error_rate` is
/// printed for people but travels in the result line as failed/attempted:
/// it reads 0 on every healthy run, so it cannot be a gated median.
extern const std::vector<MetricSpec> kEndToEnd;
/// Per-layer metrics, printed by every traced run.  A layer the workload
/// does not run reports 0.
extern const std::vector<MetricSpec> kPerLayer;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Value at quantile q (0..1) of `values` by the nearest-rank rule.
double quantile(std::vector<double> values, double q);

/// Counts attempted and failed operations; keeps the first few failure
/// messages for the log.
class Ledger {
 public:
  /// Records one attempted op; `error` is empty when its output checked
  /// out, else the first check it failed.
  void op(const std::string& error);
  /// Records a whole-run check (not an op); a failure counts as failed.
  void run_check(bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

struct Report {
  Ledger ledger;
  bool selftest_ok = false;
  std::string selftest_note;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  ///< extra human-readable lines
};

/// Closed-loop op latencies of one measured phase.
struct Phase {
  std::vector<double> latency_ms;
  double busy_s = 0.0;  ///< sum of op latencies (single caller) or wall time
  double rounds_ratio_sum = 0.0;
};

/// Fills the latency/throughput metrics of `report` from `phase`;
/// `tail_q` is the workload's fixed tail quantile.
void summarize(const Phase& phase, double tail_q, Report& report);

/// Moves the calling thread to the i-th CPU (cyclically) of those the
/// process may use.  On a shared host one vCPU can run 15-20% slower than
/// another for minutes; cycling the single caller through all of them
/// keeps a run from inheriting one vCPU's speed.
void move_to_cpu(std::size_t i);

/// One caller, closed loop: runs `op(i, rounds_ratio)` for i = 0, 1, ...
/// until `seconds` of wall time have passed and at least `min_ops` ops
/// ran, or `max_ops` ops ran.  It stops only after a whole number of
/// `batch`es, so every input of a batch is measured equally often.  `op`
/// times its own library calls and returns that latency in ms; checks it
/// makes after the clock stops are outside the measurement.
template <typename Op>
Phase closed_loop(double seconds, std::size_t min_ops, std::size_t max_ops,
                  std::size_t batch, Op&& op) {
  Phase phase;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < max_ops; ++i) {
    if (i >= min_ops && i % batch == 0 &&
        static_cast<double>(now_ns() - start) * 1e-9 >= seconds) {
      break;
    }
    move_to_cpu(i);
    double rounds_ratio = 0.0;
    const double ms = op(i, rounds_ratio);
    phase.latency_ms.push_back(ms);
    phase.busy_s += ms * 1e-3;
    phase.rounds_ratio_sum += rounds_ratio;
  }
  return phase;
}

/// Tracing overhead in percent of untraced throughput, from two phases
/// that ran the same ops.
double overhead_pct(const Phase& untraced, const Phase& traced);

/// Initial holdings rotated by one processor: a schedule run from them
/// sends messages its senders do not hold.  The checker self-tests use it
/// to build a deliberately broken output.
template <typename T>
std::vector<T> rotated(std::vector<T> values) {
  if (!values.empty()) {
    std::rotate(values.begin(), values.begin() + 1, values.end());
  }
  return values;
}

/// Runs `setup` `repeats` times and returns its median duration in seconds.
/// Before each run after the first, `reset` drops the previous set-up's
/// state, untimed, and the freed heap is handed back to the system, so the
/// peak RSS reflects one set-up.
double median_setup_seconds(int repeats, const std::function<void()>& reset,
                            const std::function<void()>& setup);

/// VmHWM of this process in MB.
double peak_rss_mb();

/// Exact radius (minimum eccentricity), by one BFS per vertex.  This is
/// the benchmark's own reference for Theorem 1's n + r; it shares no code
/// with the library's center search.
std::uint32_t reference_radius(const mg::graph::Graph& g);

/// Bytes the allocator currently has handed out (in-use heap + mmapped).
std::size_t heap_in_use_bytes();

/// Total ns of the registry timer `name` in `snap` (0 when absent).
double timer_ns(const mg::obs::Snapshot& snap, std::string_view name);

double ratio(double num, double den);

}  // namespace perfbench
