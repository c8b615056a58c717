// Churn benchmark — the machine-readable dynamic-topology artifact
// (BENCH_churn.json).
//
// Measures the incremental pipeline of src/churn against its from-scratch
// counterpart and pins the ISSUE's acceptance gate: for single-edge deltas
// on n >= 1e4 graphs, patching the existing schedule must be >= 5x faster
// than a full re-solve (tree + schedule synthesis) on the mutated graph.
//
// Sections (the process exits nonzero on any gate violation):
//   * patch_vs_resolve — THE gate.  Broadcast schedules (one-message
//     universe, O(n) deliveries — full gossip is Theta(n^2) by counting
//     and does not fit at 1e5) on 2D grids at n = 1e4 and, without
//     --quick, n ~ 1e5.  Each trial removes one removable tree edge —
//     the worst case: the strike cascades through the detached subtree
//     and a repair must be spliced — then times
//     `patch_schedule_from_holds` against min_depth_spanning_tree +
//     multicast_broadcast.  Gate: every patch completes (independently
//     re-simulated) and mean speedup >= 5.
//   * gossip_patch_rows — full n + r gossip at the n^2 wall (n <= 2048,
//     matching scale_bench): patch a ConcurrentUpDown schedule after a
//     tree-edge removal, validate it on the mutated graph, and hold the
//     staleness contract total_time <= 2 * (n + r).  Speedup reported,
//     not gated (the 5x gate is the n >= 1e4 section).
//   * churn_rate_sweep — ChurnSolver end to end on a 32x32 grid: the same
//     event budget over ~600 / ~150 / ~30 rounds (slow / moderate /
//     violent churn).  Gate: every event's schedule stays within
//     stale_factor * (n + r) and the final schedule validates.
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
#include "gossip/broadcast.h"
#include "gossip/patch.h"
#include "gossip/solve.h"
#include "graph/dynamic.h"
#include "graph/generators.h"
#include "model/validator.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "sim/network_sim.h"
#include "support/bitset.h"
#include "support/rng.h"
#include "support/stopwatch.h"
#include "support/thread_pool.h"
#include "tree/incremental.h"
#include "tree/spanning_tree.h"

namespace {

using namespace mg;

/// Rewrites a broadcast schedule's message ids to 0 (one-message universe,
/// one bitset word per node) — same convention as scale_bench.
model::Schedule single_message(const model::Schedule& schedule) {
  model::ScheduleBuilder out;
  for (std::size_t t = 0; t < schedule.round_count(); ++t) {
    for (const model::Tx& tx : schedule.round(t)) {
      out.add(t, 0, tx.sender, schedule.receivers(tx));
    }
  }
  return out.build();
}

/// A random tree edge {v, parent(v)} whose removal keeps `g` connected, or
/// {kNoVertex, kNoVertex} when none is found within the attempt budget.
std::pair<graph::Vertex, graph::Vertex> removable_tree_edge(
    const graph::DynamicGraph& g, const tree::RootedTree& t, Rng& rng) {
  const graph::Vertex n = g.vertex_count();
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto v = static_cast<graph::Vertex>(rng.below(n));
    const graph::Vertex p = t.parent(v);
    if (p == graph::kNoVertex) continue;
    if (g.is_removable(v, p)) return {v, p};
  }
  return {graph::kNoVertex, graph::kNoVertex};
}

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

  // --- patch_vs_resolve: THE acceptance gate ---------------------------
  constexpr double kPatchGate = 5.0;
  w.key("patch_vs_resolve").begin_array();
  {
    struct Spec {
      const char* family;
      graph::Vertex rows, cols;
    };
    std::vector<Spec> specs{{"grid2d/100x100", 100, 100}};
    if (!quick) specs.push_back({"grid2d/316x317", 316, 317});
    const int trials = quick ? 3 : 5;

    for (const Spec& spec : specs) {
      const graph::Graph g0 = graph::grid(spec.rows, spec.cols);
      const graph::Vertex n = g0.vertex_count();
      Stopwatch watch;
      const tree::RootedTree t0 = tree::min_depth_spanning_tree(g0, &pool);
      const model::Schedule schedule0 =
          single_message(gossip::multicast_broadcast(g0, t0.root()));
      const double base_solve_ms = watch.millis();

      BitMatrix holds0(n, 1);
      holds0.set(t0.root(), 0);

      Rng rng(seed);
      double patch_total = 0.0;
      double resolve_total = 0.0;
      int completed = 0;
      int ran = 0;
      std::size_t dropped = 0;
      std::size_t repair_rounds = 0;
      for (int trial = 0; trial < trials; ++trial) {
        graph::DynamicGraph d(g0);
        const auto [v, p] = removable_tree_edge(d, t0, rng);
        if (v == graph::kNoVertex) continue;
        d.remove_edge(v, p);
        const graph::Graph g2 = d.snapshot();
        ++ran;

        watch.restart();
        const tree::RootedTree t2 = tree::min_depth_spanning_tree(g2, &pool);
        const model::Schedule fresh =
            single_message(gossip::multicast_broadcast(g2, t2.root()));
        resolve_total += watch.millis();

        watch.restart();
        const gossip::PatchResult patched =
            gossip::patch_schedule_from_holds(g2, schedule0, holds0);
        patch_total += watch.millis();
        dropped += patched.dropped_transmissions;
        repair_rounds += patched.repair_rounds;

        const sim::SimResult check =
            sim::simulate_from_holds(g2, patched.schedule, holds0);
        if (patched.complete && check.completed &&
            fresh.total_time() == t2.height()) {
          ++completed;
        }
      }
      const double patch_ms = ran > 0 ? patch_total / ran : 0.0;
      const double resolve_ms = ran > 0 ? resolve_total / ran : 0.0;
      const double speedup = patch_ms > 0.0 ? resolve_ms / patch_ms : 0.0;
      const bool ok = ran > 0 && completed == ran && speedup >= kPatchGate;
      all_ok = all_ok && ok;

      w.begin_object();
      w.field("family", std::string(spec.family));
      w.field("n", static_cast<std::uint64_t>(n));
      w.field("delta", "remove_tree_edge");
      w.field("trials", static_cast<std::uint64_t>(ran));
      w.field("base_solve_ms", base_solve_ms);
      w.field("patch_ms", patch_ms);
      w.field("resolve_ms", resolve_ms);
      w.field("speedup", speedup);
      w.field("speedup_gate", kPatchGate);
      w.field("dropped_transmissions", static_cast<std::uint64_t>(dropped));
      w.field("repair_rounds", static_cast<std::uint64_t>(repair_rounds));
      w.field("ok", ok);
      w.end_object();
      std::printf(
          "patch A/B %-18s n=%-7u patch %7.2f ms  resolve %8.1f ms  "
          "%6.1fx (gate %.0fx) %s\n",
          spec.family, n, patch_ms, resolve_ms, speedup, kPatchGate,
          ok ? "ok" : "VIOLATION");
    }
  }
  w.end_array();

  // --- gossip_patch_rows: full gossip at the n^2 wall ------------------
  w.key("gossip_patch_rows").begin_array();
  {
    std::vector<graph::Vertex> sizes{512};
    if (!quick) sizes.push_back(2048);
    for (const graph::Vertex n : sizes) {
      Rng rng(seed + 1);
      const graph::Graph g0 = graph::random_regular_configuration(n, 3, rng);
      const gossip::Solution base =
          gossip::solve_gossip(g0, gossip::Algorithm::kConcurrentUpDown,
                               &pool);

      graph::DynamicGraph d(g0);
      const auto [v, p] =
          removable_tree_edge(d, base.instance.tree(), rng);
      bool ok = v != graph::kNoVertex && base.report.ok;
      double patch_ms = 0.0;
      double resolve_ms = 0.0;
      std::size_t total_time = 0;
      std::size_t fresh_bound = 0;
      if (ok) {
        d.remove_edge(v, p);
        const graph::Graph g2 = d.snapshot();

        Stopwatch watch;
        const gossip::Solution fresh = gossip::solve_gossip(
            g2, gossip::Algorithm::kConcurrentUpDown, &pool);
        resolve_ms = watch.millis();
        fresh_bound = n + fresh.instance.tree().height();

        watch.restart();
        const gossip::PatchResult patched =
            gossip::patch_schedule(g2, base.schedule,
                                   base.instance.initial());
        patch_ms = watch.millis();
        total_time = patched.schedule.total_time();

        const auto validation = model::validate_schedule(
            g2, patched.schedule, base.instance.initial(), {});
        ok = fresh.report.ok && patched.complete && validation.ok &&
             total_time <= 2 * fresh_bound;
      }
      all_ok = all_ok && ok;
      const double speedup = patch_ms > 0.0 ? resolve_ms / patch_ms : 0.0;

      w.begin_object();
      w.field("family", "random_regular/d=3");
      w.field("algorithm", "concurrent_updown");
      w.field("n", static_cast<std::uint64_t>(n));
      w.field("delta", "remove_tree_edge");
      w.field("patch_ms", patch_ms);
      w.field("resolve_ms", resolve_ms);
      w.field("speedup", speedup);
      w.field("total_time", static_cast<std::uint64_t>(total_time));
      w.field("staleness_budget", static_cast<std::uint64_t>(2 * fresh_bound));
      w.field("ok", ok);
      w.end_object();
      std::printf(
          "gossip patch n=%-5u patch %7.2f ms  resolve %8.1f ms  %6.1fx  "
          "%zu rounds vs budget %zu  %s\n",
          n, patch_ms, resolve_ms, speedup, total_time, 2 * fresh_bound,
          ok ? "ok" : "VIOLATION");
    }
  }
  w.end_array();

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

      // Per-row latency quantiles: the solver's patch / retree histograms
      // start fresh for every sweep row (absent and all-zero under
      // -DMG_OBS=OFF or a runtime-null registry).
      obs::Registry::global().reset();
      churn::ChurnSolver solver(g0);
      double worst_staleness = 0.0;
      Stopwatch watch;
      for (const auto& event : feed.events) {
        const churn::ApplyReport report = solver.apply(event);
        const double staleness = static_cast<double>(report.schedule_time) /
                                 static_cast<double>(report.fresh_bound);
        worst_staleness = std::max(worst_staleness, staleness);
      }
      const double total_ms = watch.millis();
      const obs::Snapshot metrics = obs::Registry::global().snapshot();
      const obs::HistogramSnapshot patch_h =
          metrics.histogram("churn.patch_ns");
      const obs::HistogramSnapshot retree_h =
          metrics.histogram("churn.retree_ns");
      const auto validation = model::validate_schedule(
          solver.graph().snapshot(), solver.schedule(), solver.initial(), {});
      const bool ok = validation.ok && worst_staleness <= 2.0;
      all_ok = all_ok && ok;

      w.begin_object();
      w.field("family", "grid2d/32x32");
      w.field("n", static_cast<std::uint64_t>(g0.vertex_count()));
      w.field("events", static_cast<std::uint64_t>(feed.events.size()));
      w.field("horizon_rounds", horizon);
      w.field("patches", solver.stats().patches);
      w.field("resolves", solver.stats().resolves);
      w.field("mean_apply_ms",
              feed.events.empty()
                  ? 0.0
                  : total_ms / static_cast<double>(feed.events.size()));
      w.field("patch_ns_p50", patch_h.p50);
      w.field("patch_ns_p99", patch_h.p99);
      w.field("retree_ns_p50", retree_h.p50);
      w.field("retree_ns_p99", retree_h.p99);
      w.field("worst_staleness", worst_staleness);
      w.field("staleness_gate", 2.0);
      w.field("ok", ok);
      w.end_object();
      std::printf(
          "rate sweep horizon=%-4llu events=%-3zu patches=%-3llu "
          "resolves=%-3llu staleness %.2f  %s\n",
          static_cast<unsigned long long>(horizon), feed.events.size(),
          static_cast<unsigned long long>(solver.stats().patches),
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
      tree::IncrementalTree maintained(spec.g, {}, &pool);
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
                 "churn_bench: gate violation (patch speedup under %.0fx, "
                 "incomplete patch, staleness over budget, or maintenance "
                 "slower than rebuild)\n",
                 kPatchGate);
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
