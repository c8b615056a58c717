// Churn benchmark — the machine-readable dynamic-topology artifact
// (BENCH_churn.json).
//
// One section, churn_rate_sweep: ChurnSolver end to end on a 32x32 grid,
// the same event budget over ~600 / ~150 / ~30 rounds (slow / moderate /
// violent churn).  Gate (the process exits nonzero on a violation): every
// event's schedule takes exactly n + r rounds (ConcurrentUpDown on the
// rebuilt minimum-depth tree, Theorem 1) and the final schedule validates.
//
//   churn_bench [--out FILE] [--seed N] [--quick]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "churn/feed.h"
#include "churn/solver.h"
#include "graph/generators.h"
#include "model/validator.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "support/stopwatch.h"

namespace {

using namespace mg;

int run(const std::string& out_path, std::uint64_t seed, bool quick) {
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "churn_bench: cannot open %s for writing\n",
                 out_path.c_str());
    return 2;
  }
  bool all_ok = true;

  obs::JsonWriter w(out);
  w.begin_object();
  w.field("schema_version", 1);
  w.field("suite", "churn");
  w.field("seed", static_cast<std::uint64_t>(seed));
  w.field("quick", quick);

  // --- churn_rate_sweep: the online solver across churn intensities ----
  w.key("churn_rate_sweep").begin_array();
  {
    const graph::Graph g0 = graph::grid(32, 32);
    const std::uint64_t horizons[] = {600, 150, 30};
    for (const std::uint64_t horizon : horizons) {
      churn::FeedOptions options;
      options.events = quick ? 16 : 32;
      options.seed = seed + horizon;
      options.horizon_rounds = horizon;
      const churn::ChurnFeed feed = churn::uniform_feed(g0, options);

      // Per-row latency quantiles: the solver's reschedule / retree
      // histograms start fresh for every sweep row (absent and all-zero
      // under -DMG_OBS=OFF or a runtime-null registry).
      obs::Registry::global().reset();
      churn::ChurnSolver solver(g0);
      bool exact = true;
      double worst_staleness = 0.0;
      Stopwatch watch;
      for (const auto& event : feed.events) {
        const churn::ApplyReport report = solver.apply(event);
        exact = exact && report.schedule_time == report.fresh_bound;
        const double staleness = static_cast<double>(report.schedule_time) /
                                 static_cast<double>(report.fresh_bound);
        worst_staleness = std::max(worst_staleness, staleness);
      }
      const double total_ms = watch.millis();
      const obs::Snapshot metrics = obs::Registry::global().snapshot();
      const obs::HistogramSnapshot reschedule_h =
          metrics.histogram("churn.patch_ns");
      const obs::HistogramSnapshot retree_h =
          metrics.histogram("churn.retree_ns");
      const auto validation = model::validate_schedule(
          solver.graph().snapshot(), solver.schedule(), solver.initial(), {});
      const bool ok = validation.ok && exact;
      all_ok = all_ok && ok;

      w.begin_object();
      w.field("family", "grid2d/32x32");
      w.field("n", static_cast<std::uint64_t>(g0.vertex_count()));
      w.field("events", static_cast<std::uint64_t>(feed.events.size()));
      w.field("horizon_rounds", horizon);
      w.field("resolves", solver.stats().resolves);
      w.field("mean_apply_ms",
              feed.events.empty()
                  ? 0.0
                  : total_ms / static_cast<double>(feed.events.size()));
      // patch_ns_* keep their names: the committed churn history rows
      // baseline them.
      w.field("patch_ns_p50", reschedule_h.p50);
      w.field("patch_ns_p99", reschedule_h.p99);
      w.field("retree_ns_p50", retree_h.p50);
      w.field("retree_ns_p99", retree_h.p99);
      w.field("worst_staleness", worst_staleness);
      w.field("ok", ok);
      w.end_object();
      std::printf(
          "rate sweep horizon=%-4llu events=%-3zu resolves=%-3llu "
          "staleness %.2f (gate: exactly n + r every event)  %s\n",
          static_cast<unsigned long long>(horizon), feed.events.size(),
          static_cast<unsigned long long>(solver.stats().resolves),
          worst_staleness, ok ? "ok" : "VIOLATION");
    }
  }
  w.end_array();

  w.end_object();
  out << '\n';
  std::printf("wrote %s\n", out_path.c_str());
  if (!all_ok) {
    std::fprintf(stderr,
                 "churn_bench: gate violation (a schedule off n + r or an "
                 "invalid final schedule)\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_churn.json";
  std::uint64_t seed = 42;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: churn_bench [--out FILE] [--seed N] [--quick]\n");
      return 2;
    }
  }
  return run(out_path, seed, quick);
}
