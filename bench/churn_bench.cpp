// Churn benchmark — the machine-readable dynamic-topology artifact
// (BENCH_churn.json).
//
// Measures the incremental pipeline of src/churn against its from-scratch
// counterpart.  Sections (the process exits nonzero on any gate violation):
//   * churn_rate_sweep — ChurnSolver end to end on a 32x32 grid: the same
//     event budget over ~600 / ~150 / ~30 rounds (slow / moderate /
//     violent churn).  Gate: every event's schedule takes exactly n + r
//     rounds (ConcurrentUpDown on the maintained minimum-depth tree,
//     Theorem 1) and the final schedule validates.
//   * tree_maintenance — IncrementalTree event latency vs one full
//     min_depth_spanning_tree, with the maintenance-path histogram.
//     Gate: mean event latency beats the rebuild.
//
//   churn_bench [--out FILE] [--seed N] [--quick]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "churn/feed.h"
#include "churn/solver.h"
#include "graph/dynamic.h"
#include "graph/generators.h"
#include "model/validator.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "support/rng.h"
#include "support/stopwatch.h"
#include "support/thread_pool.h"
#include "tree/incremental.h"
#include "tree/spanning_tree.h"

namespace {

using namespace mg;

int run(const std::string& out_path, std::uint64_t seed, bool quick) {
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "churn_bench: cannot open %s for writing\n",
                 out_path.c_str());
    return 2;
  }
  ThreadPool pool;
  bool all_ok = true;

  obs::JsonWriter w(out);
  w.begin_object();
  w.field("schema_version", 1);
  w.field("suite", "churn");
  w.field("seed", static_cast<std::uint64_t>(seed));
  w.field("quick", quick);
  w.field("threads", static_cast<std::uint64_t>(pool.thread_count()));

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

  // --- tree_maintenance: incremental events vs one full rebuild --------
  w.key("tree_maintenance").begin_array();
  {
    struct Spec {
      std::string family;
      graph::Graph g;
      // Expanders concentrate eccentricities into a 2-3 value band, which
      // defeats eccentricity-bound pruning exactly as it defeats the
      // hybrid center scan (see scale_bench): their rows report the
      // full-rebuild fallback honestly but are not gated.
      bool gated = true;
    };
    std::vector<Spec> specs;
    specs.push_back({"grid2d/32x32", graph::grid(32, 32)});
    specs.push_back({"grid2d/100x100", graph::grid(100, 100)});
    {
      Rng rng(seed + 2);
      specs.push_back({"random_regular/d=3/1e4",
                       graph::random_regular_configuration(10'000, 3, rng),
                       false});
    }
    if (!quick) specs.push_back({"grid2d/316x317", graph::grid(316, 317)});

    for (const Spec& spec : specs) {
      churn::FeedOptions options;
      options.events = quick ? 32 : 64;
      options.seed = seed + 3;
      const churn::ChurnFeed feed = churn::uniform_feed(spec.g, options);

      // Per event, time the incremental maintainer against a from-scratch
      // min_depth_spanning_tree of the *same* mutated topology — chords
      // accumulated by the feed change the rebuild cost too, so a
      // pristine-graph baseline would be unfair in either direction.
      graph::DynamicGraph d(spec.g);
      tree::IncrementalTree maintained(spec.g, &pool);
      Stopwatch watch;
      double incremental_total = 0.0;
      double rebuild_total = 0.0;
      for (const auto& event : feed.events) {
        const auto [u, v] = churn::apply_event(d, event);
        const graph::Graph& g = d.snapshot();
        watch.restart();
        switch (event.kind) {
          case churn::EventKind::kAddEdge:
            (void)maintained.on_edge_added(g, u, v);
            break;
          case churn::EventKind::kRemoveEdge:
            (void)maintained.on_edge_removed(g, u, v);
            break;
          default:
            (void)maintained.on_node_event(g);
            break;
        }
        incremental_total += watch.millis();
        watch.restart();
        [[maybe_unused]] const tree::RootedTree fresh =
            tree::min_depth_spanning_tree(g, &pool);
        rebuild_total += watch.millis();
      }
      const auto& stats = maintained.stats();
      const double events_n =
          feed.events.empty() ? 1.0
                              : static_cast<double>(feed.events.size());
      const double mean_ms = incremental_total / events_n;
      const double rebuild_ms = rebuild_total / events_n;
      const bool valid = maintained.tree().height() ==
                         static_cast<std::size_t>(maintained.radius());
      const bool ok = valid && (!spec.gated || mean_ms < rebuild_ms);
      all_ok = all_ok && ok;

      w.begin_object();
      w.field("family", spec.family);
      w.field("gated", spec.gated);
      w.field("n", static_cast<std::uint64_t>(spec.g.vertex_count()));
      w.field("events", stats.events);
      w.field("rebuild_ms", rebuild_ms);
      w.field("mean_event_ms", mean_ms);
      w.field("noop", stats.noop);
      w.field("parent_patch", stats.parent_patch);
      w.field("subtree_repair", stats.subtree_repair);
      w.field("recenter", stats.recenter);
      w.field("full_rebuild", stats.full_rebuild);
      w.field("bfs_runs", stats.bfs_runs);
      w.field("candidate_evals", stats.candidate_evals);
      w.field("ok", ok);
      w.end_object();
      std::printf(
          "tree maint %-22s n=%-7u mean %7.3f ms vs rebuild %8.1f ms "
          "(paths n/p/s/r/f %llu/%llu/%llu/%llu/%llu)  %s\n",
          spec.family.c_str(), spec.g.vertex_count(), mean_ms, rebuild_ms,
          static_cast<unsigned long long>(stats.noop),
          static_cast<unsigned long long>(stats.parent_patch),
          static_cast<unsigned long long>(stats.subtree_repair),
          static_cast<unsigned long long>(stats.recenter),
          static_cast<unsigned long long>(stats.full_rebuild),
          ok ? "ok" : "VIOLATION");
    }
  }
  w.end_array();

  w.end_object();
  out << '\n';
  std::printf("wrote %s\n", out_path.c_str());
  if (!all_ok) {
    std::fprintf(stderr,
                 "churn_bench: gate violation (a schedule off n + r, an "
                 "invalid final schedule, or maintenance slower than "
                 "rebuild)\n");
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
