// Scale benchmark — the machine-readable large-n artifact (BENCH_scale.json).
//
// Measures the million-node pipeline end to end: graph construction,
// minimum-depth spanning tree (hybrid center finding at scale), broadcast
// schedule synthesis, and word-parallel simulation, over the standard
// interconnect families (2D/3D torus, hypercube, 2D grid, random
// d-regular) at n in {1e4, 1e5, 1e6}.  Full gossip is Theta(n^2) deliveries by counting
// (every processor must receive n-1 messages), so the large-n rows run the
// O(n)-schedule broadcast collective with a one-message universe; full
// n + r gossip (Theorem 1) is exercised on dedicated small-n rows.
//
// Gated sections (the process exits nonzero on violation):
//   * center A/B — hybrid `find_center` vs the exhaustive n-BFS sweep on a
//     2D grid, the distance-spread case the pruned scan is built for; both
//     must agree on the radius and the hybrid must be >= 10x faster
//     (n ~ 1e5, or 1e4 under --quick).
//   * family rows — every row must simulate to completion with
//     total_time == height (broadcast from the tree root finishes in
//     exactly ecc(root) rounds; height == radius when center-rooted).
//   * gossip rows — ConcurrentUpDown must validate, complete, and meet the
//     Theorem 1 budget total_time <= n + r.
//   * thread scaling — exhaustive center over pools of 1/2/4/8 workers;
//     the 4-thread sweep must be >= 1.5x the serial one (only asserted
//     when the spin calibration run right before it reads >= 3x on 4
//     threads, see spin_calibration.h).
//
// Each timed center search records `lane_batches`, the number of
// 64-source BFS batches it ran: 0 means one scalar BFS per source (the
// grid A/B, whose ecc(0) exceeds 64), ceil(n/64) the word-parallel sweep.
//   * peak RSS — VmHWM must stay under 2048 MB (Linux; skipped elsewhere).
//
// Where each family's tree root comes from (see docs/SCALING.md §2):
//   * tori and hypercubes are vertex-transitive — every vertex is a center,
//     so their rows root at vertex 0 analytically (center_mode
//     "transitive"); no exact certificate-based scan can beat Theta(n)
//     BFSes when all eccentricities are equal.
//   * random regular graphs concentrate eccentricities into a 2-3 value
//     band (expander-like), which defeats bound pruning the same way —
//     their rows also root at vertex 0 (center_mode "root0") and the
//     height gate pins ecc(0) instead of the radius.
//   * 2D grids spread eccentricities by a factor of 2, the hybrid's
//     favorable case — their rows pay for an exact center (center_mode
//     "hybrid") and report the scan's BFS/pruned counters.
//
//   scale_bench [--out FILE] [--seed N] [--quick]
//
// --out     output path (default BENCH_scale.json)
// --seed    random-regular generator seed (default 42)
// --quick   1e4-tier rows only, smaller A/B and scaling sweeps (CI smoke)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gossip/broadcast.h"
#include "gossip/solve.h"
#include "graph/center.h"
#include "graph/generators.h"
#include "obs/json.h"
#include "sim/network_sim.h"
#include "spin_calibration.h"
#include "support/bitset.h"
#include "support/rng.h"
#include "support/stopwatch.h"
#include "support/thread_pool.h"
#include "tree/spanning_tree.h"

namespace {

using namespace mg;

/// Peak resident set size in MB from /proc/self/status (VmHWM); 0.0 when
/// the platform has no procfs.
double peak_rss_mb() {
#ifdef __linux__
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
#endif
  return 0.0;
}

/// The broadcast schedule carries the source vertex as its message id; the
/// simulation rows run a one-message universe (message_count == 1, one
/// word per node), so the id is rewritten to 0.  Round structure, senders
/// and receiver sets are untouched.
model::Schedule single_message(const model::Schedule& schedule) {
  model::ScheduleBuilder out;
  for (model::RoundCursor round(schedule); round.next();) {
    for (const model::Tx& tx : round.txs()) {
      out.add(round.index(), 0, tx.sender, schedule.receivers(tx));
    }
  }
  return out.build();
}

struct FamilyRow {
  std::string family;
  std::string center_mode;  // "transitive", "root0" or "hybrid"
  std::uint64_t n = 0;
  std::uint64_t edges = 0;
  std::uint64_t height = 0;         // tree height == ecc(root); == radius
                                    // when the tree is center-rooted
  std::uint64_t center_bfs = 0;     // BFS sweeps spent locating the center
  std::uint64_t center_pruned = 0;  // candidates eliminated by bounds
  double gen_ms = 0.0;
  double tree_ms = 0.0;
  double solve_ms = 0.0;
  double sim_ms = 0.0;
  bool ok = false;
};

/// One end-to-end pipeline run: build the graph, root a minimum-height
/// tree, synthesize the broadcast schedule, execute it on the word core.
/// center_mode "hybrid" locates an exact center with the pruned scan;
/// anything else roots at vertex 0 (see the header comment).
template <typename MakeGraph>
FamilyRow run_family_row(const std::string& family,
                         const std::string& center_mode, ThreadPool& pool,
                         MakeGraph make) {
  FamilyRow row;
  row.family = family;
  row.center_mode = center_mode;

  Stopwatch watch;
  const graph::Graph g = make();
  row.gen_ms = watch.millis();
  row.n = g.vertex_count();
  row.edges = g.edge_count();

  watch.restart();
  tree::RootedTree t = [&] {
    if (center_mode != "hybrid") return tree::bfs_tree(g, 0);
    graph::CenterOptions options;
    options.mode = graph::CenterMode::kHybrid;
    const graph::CenterResult found = graph::find_center(g, &pool, options);
    row.center_bfs = found.bfs_runs;
    row.center_pruned = found.pruned;
    return tree::bfs_tree(g, found.center);
  }();
  row.tree_ms = watch.millis();
  row.height = t.height();

  watch.restart();
  const model::Schedule schedule =
      single_message(gossip::multicast_broadcast(g, t.root()));
  row.solve_ms = watch.millis();

  BitMatrix holds(g.vertex_count(), 1);
  holds.set(t.root(), 0);
  watch.restart();
  const sim::SimResult result =
      sim::simulate_from_holds(g, schedule, std::move(holds));
  row.sim_ms = watch.millis();

  // Broadcast from the root completes in exactly ecc(root) = height
  // rounds — processor v receives at time dist(root, v).
  row.ok = result.completed && result.total_time == row.height;
  return row;
}

int run(const std::string& out_path, std::uint64_t seed, bool quick) {
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "scale_bench: cannot open %s for writing\n",
                 out_path.c_str());
    return 2;
  }
  ThreadPool pool;
  bool all_ok = true;

  obs::JsonWriter w(out);
  w.begin_object();
  w.field("schema_version", 1);
  w.field("suite", "scale");
  w.field("seed", static_cast<std::uint64_t>(seed));
  w.field("quick", quick);
  w.field("threads", static_cast<std::uint64_t>(pool.thread_count()));

  // --- Center A/B: hybrid vs exhaustive on a 2D grid ------------------
  // The grid is the pruned scan's favorable (and honest) case: corner
  // eccentricities are twice the center's, so the double-sweep bounds
  // certify most of the graph away.  Families without distance spread
  // (tori, hypercubes, random regular) cannot be pruned exactly and are
  // rooted analytically instead — see the header comment.
  {
    const graph::Vertex rows_dim = quick ? 100 : 316;
    const graph::Vertex cols_dim = quick ? 100 : 317;
    const graph::Graph g = graph::grid(rows_dim, cols_dim);
    const graph::Vertex n = g.vertex_count();

    graph::CenterOptions exhaustive;
    exhaustive.mode = graph::CenterMode::kExhaustive;
    Stopwatch watch;
    const graph::CenterResult full = graph::find_center(g, &pool, exhaustive);
    const double exhaustive_ms = watch.millis();

    graph::CenterOptions hybrid;
    hybrid.mode = graph::CenterMode::kHybrid;
    watch.restart();
    const graph::CenterResult fast = graph::find_center(g, &pool, hybrid);
    const double hybrid_ms = watch.millis();

    constexpr double kCenterGate = 10.0;
    const double speedup = hybrid_ms > 0.0 ? exhaustive_ms / hybrid_ms : 0.0;
    const bool ok =
        full.radius == fast.radius && speedup >= kCenterGate;
    all_ok = all_ok && ok;

    w.key("center_ab").begin_object();
    w.field("family", std::string("grid2d/") + std::to_string(rows_dim) +
                          "x" + std::to_string(cols_dim));
    w.field("n", static_cast<std::uint64_t>(n));
    w.field("exhaustive_ms", exhaustive_ms);
    w.field("exhaustive_bfs", full.bfs_runs);
    w.field("exhaustive_lane_batches", full.lane_batches);
    w.field("hybrid_ms", hybrid_ms);
    w.field("hybrid_bfs", fast.bfs_runs);
    w.field("hybrid_pruned", fast.pruned);
    w.field("hybrid_lane_batches", fast.lane_batches);
    w.field("radius", static_cast<std::uint64_t>(full.radius));
    w.field("radius_agree", full.radius == fast.radius);
    w.field("speedup", speedup);
    w.field("speedup_gate", kCenterGate);
    w.field("ok", ok);
    w.end_object();
    std::printf(
        "center A/B n=%u: exhaustive %.0f ms (%llu BFS), hybrid %.1f ms "
        "(%llu BFS), %.1fx %s\n",
        n, exhaustive_ms, static_cast<unsigned long long>(full.bfs_runs),
        hybrid_ms, static_cast<unsigned long long>(fast.bfs_runs), speedup,
        ok ? "ok" : "VIOLATION");
  }

  // --- Family rows: the end-to-end pipeline at scale -------------------
  w.key("rows").begin_array();
  std::vector<FamilyRow> rows;
  const auto emit = [&](FamilyRow row) {
    w.begin_object();
    w.field("family", row.family);
    w.field("center_mode", row.center_mode);
    w.field("n", row.n);
    w.field("edges", row.edges);
    w.field("height", row.height);
    if (row.center_mode == "hybrid") {
      w.field("center_bfs", row.center_bfs);
      w.field("center_pruned", row.center_pruned);
    }
    w.field("gen_ms", row.gen_ms);
    w.field("tree_ms", row.tree_ms);
    w.field("solve_ms", row.solve_ms);
    w.field("sim_ms", row.sim_ms);
    w.field("ok", row.ok);
    w.end_object();
    std::printf(
        "%-22s n=%-8llu h=%-5llu gen %8.1f  tree %8.1f  solve %8.1f  "
        "sim %8.1f ms  %s\n",
        row.family.c_str(), static_cast<unsigned long long>(row.n),
        static_cast<unsigned long long>(row.height), row.gen_ms, row.tree_ms,
        row.solve_ms, row.sim_ms, row.ok ? "ok" : "VIOLATION");
    all_ok = all_ok && row.ok;
    rows.push_back(std::move(row));
  };

  emit(run_family_row("torus2d/100x100", "transitive", pool,
                      [] { return graph::torus(100, 100); }));
  emit(run_family_row("torus3d/22^3", "transitive", pool,
                      [] { return graph::torus3d(22, 22, 22); }));
  emit(run_family_row("hypercube/d=13", "transitive", pool,
                      [] { return graph::hypercube(13); }));
  emit(run_family_row("grid2d/100x100", "hybrid", pool,
                      [] { return graph::grid(100, 100); }));
  emit(run_family_row("random_regular/d=3/1e4", "root0", pool, [&] {
    Rng rng(seed + 1);
    return graph::random_regular_configuration(10'000, 3, rng);
  }));
  if (!quick) {
    emit(run_family_row("torus2d/316x317", "transitive", pool,
                        [] { return graph::torus(316, 317); }));
    emit(run_family_row("torus3d/46^3", "transitive", pool,
                        [] { return graph::torus3d(46, 46, 46); }));
    emit(run_family_row("hypercube/d=17", "transitive", pool,
                        [] { return graph::hypercube(17); }));
    emit(run_family_row("grid2d/316x317", "hybrid", pool,
                        [] { return graph::grid(316, 317); }));
    emit(run_family_row("random_regular/d=3/1e5", "root0", pool, [&] {
      Rng rng(seed + 2);
      return graph::random_regular_configuration(100'000, 3, rng);
    }));
    emit(run_family_row("torus2d/1000x1000", "transitive", pool,
                        [] { return graph::torus(1000, 1000); }));
    emit(run_family_row("torus3d/100^3", "transitive", pool,
                        [] { return graph::torus3d(100, 100, 100); }));
    emit(run_family_row("hypercube/d=20", "transitive", pool,
                        [] { return graph::hypercube(20); }));
    emit(run_family_row("grid2d/1000x1000", "hybrid", pool,
                        [] { return graph::grid(1000, 1000); }));
    emit(run_family_row("random_regular/d=3/1e6", "root0", pool, [&] {
      Rng rng(seed + 3);
      return graph::random_regular_configuration(1'000'000, 3, rng);
    }));
  }
  w.end_array();

  // --- Small-n full gossip: Theorem 1 at the n^2 wall ------------------
  // Full gossip needs n(n-1) deliveries no matter the schedule.  The
  // schedule itself is stored as runs (16 B per run plus 4 B per receiver
  // entry; see docs/SCALING.md), a few MB at n = 8192, so what bites at
  // these sizes is validation and simulation, which still visit every
  // delivery.  The point here is that ConcurrentUpDown still validates and
  // meets n + r end to end.
  w.key("gossip_rows").begin_array();
  {
    std::vector<graph::Vertex> sizes{512};
    if (!quick) {
      sizes.push_back(2048);
      sizes.push_back(8192);
    }
    for (const graph::Vertex n : sizes) {
      Rng rng(seed + 4);
      Stopwatch watch;
      const graph::Graph g = graph::random_regular_configuration(n, 3, rng);
      const gossip::Solution solution =
          gossip::solve_gossip(g, gossip::Algorithm::kConcurrentUpDown, &pool);
      const double solve_ms = watch.millis();
      const std::size_t radius = solution.instance.tree().height();
      const graph::Graph tree = solution.instance.tree().as_graph();
      watch.restart();
      const sim::SimResult result =
          sim::simulate(tree, solution.schedule, solution.instance.initial());
      const double sim_ms = watch.millis();
      const bool ok = solution.report.ok && result.completed &&
                      result.total_time <= n + radius;
      all_ok = all_ok && ok;
      w.begin_object();
      w.field("family", "random_regular/d=3");
      w.field("algorithm", "concurrent_updown");
      w.field("n", static_cast<std::uint64_t>(n));
      w.field("radius", static_cast<std::uint64_t>(radius));
      w.field("total_time", static_cast<std::uint64_t>(result.total_time));
      w.field("budget_n_plus_r", static_cast<std::uint64_t>(n + radius));
      w.field("transmissions", solution.schedule.transmission_count());
      w.field("runs",
              static_cast<std::uint64_t>(solution.schedule.run_count()));
      w.field("schedule_bytes",
              static_cast<std::uint64_t>(solution.schedule.stored_bytes()));
      w.field("solve_ms", solve_ms);
      w.field("sim_ms", sim_ms);
      w.field("ok", ok);
      w.end_object();
      std::printf("gossip n=%u: %zu rounds vs n+r=%zu, %zu runs in %.2f MB, "
                  "solve %.1f  sim %.1f ms  %s\n",
                  n, result.total_time, n + radius,
                  solution.schedule.run_count(),
                  static_cast<double>(solution.schedule.stored_bytes()) / 1e6,
                  solve_ms, sim_ms, ok ? "ok" : "VIOLATION");
    }
  }
  w.end_array();

  // --- Thread scaling: exhaustive center over growing pools ------------
  {
    const graph::Vertex n = quick ? 10'000 : 30'000;
    Rng rng(seed + 5);
    const graph::Graph g = graph::random_regular_configuration(n, 3, rng);
    graph::CenterOptions exhaustive;
    exhaustive.mode = graph::CenterMode::kExhaustive;

    const unsigned hw = std::thread::hardware_concurrency();
    double serial_ms = 0.0;
    double four_ms = 0.0;
    double spin_speedup = 0.0;
    w.key("thread_scaling").begin_object();
    w.field("n", static_cast<std::uint64_t>(n));
    w.field("hardware_concurrency", static_cast<std::uint64_t>(hw));
    w.key("sweep").begin_array();
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      if (threads == 4) spin_speedup = bench::spin_calibration();
      ThreadPool scoped(threads);
      Stopwatch watch;
      const graph::CenterResult found =
          graph::find_center(g, &scoped, exhaustive);
      const double ms = watch.millis();
      if (threads == 1) serial_ms = ms;
      if (threads == 4) four_ms = ms;
      w.begin_object();
      w.field("threads", static_cast<std::uint64_t>(threads));
      w.field("ms", ms);
      w.field("speedup", ms > 0.0 ? serial_ms / ms : 0.0);
      w.field("radius", static_cast<std::uint64_t>(found.radius));
      w.field("lane_batches", found.lane_batches);
      w.end_object();
    }
    w.end_array();
    constexpr double kScalingGate = 1.5;
    const double speedup4 = four_ms > 0.0 ? serial_ms / four_ms : 0.0;
    // A host that gives no parallelism cannot scale by fiat.
    const bool gated = spin_speedup >= bench::kMinSpinSpeedup;
    const bool ok = !gated || speedup4 >= kScalingGate;
    all_ok = all_ok && ok;
    w.field("speedup_at_4", speedup4);
    w.field("speedup_gate", kScalingGate);
    w.field("spin_calibration", spin_speedup);
    w.field("gate_applied", gated);
    w.field("ok", ok);
    w.end_object();
    std::printf("thread scaling n=%u: 4-thread speedup %.2fx (gate >= "
                "%.1fx, %s) %s\n",
                n, speedup4, kScalingGate,
                bench::spin_gate_note(spin_speedup).c_str(),
                ok ? "ok" : "VIOLATION");
  }

  // --- Peak RSS --------------------------------------------------------
  {
    constexpr double kRssBudgetMb = 2048.0;
    const double rss = peak_rss_mb();
    const bool measured = rss > 0.0;
    const bool ok = !measured || rss <= kRssBudgetMb;
    all_ok = all_ok && ok;
    w.key("peak_rss").begin_object();
    w.field("mb", rss);
    w.field("budget_mb", kRssBudgetMb);
    w.field("measured", measured);
    w.field("ok", ok);
    w.end_object();
    std::printf("peak RSS %.0f MB (budget %.0f) %s\n", rss, kRssBudgetMb,
                ok ? "ok" : "VIOLATION");
  }

  w.end_object();
  out << '\n';
  std::printf("wrote %s (%zu rows)\n", out_path.c_str(), rows.size());
  if (!all_ok) {
    std::fprintf(stderr,
                 "scale_bench: gate violation (incomplete broadcast, radius "
                 "mismatch, speedup under gate, or RSS over budget)\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_scale.json";
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
                   "usage: scale_bench [--out FILE] [--seed N] [--quick]\n");
      return 2;
    }
  }
  return run(out_path, seed, quick);
}
