// Unified, machine-readable benchmark runner — the entry point for the
// perf trajectory.  Runs a curated suite of networks (cycle, Petersen,
// grids, hypercubes, seeded random connected graphs at n in {64, 256,
// 1024}) through all four gossip algorithms and writes one JSON row per
// (network, algorithm) pair:
//
//   {name, algorithm, n, m, r, rounds, bound, paper_bound, valid, wall_ns,
//    counters}
//
// `rounds <= bound` must hold on every row: n + r for ConcurrentUpDown
// (Theorem 1), 2n + r - 3 for Simple (Lemma 1), and the trivial
// serialization ceiling n(n-1) for the UpDown reconstruction and the
// Telephone baseline (see bound_for).  The process exits nonzero if any
// row violates its bound or fails validation, so the runner doubles as a
// regression gate.
//
//   bench_main [--out FILE] [--quick] [--sanity]
//
// --out     output path (default BENCH_gossip.json)
// --quick   drop the n = 1024 tier (CI-friendly)
// --sanity  instead of the suite, verify the observability layer's cost
//           model: every metric record lands when obs is compiled in and
//           none lands when it is compiled out, a solve with span tracing
//           off (its default) records no span, and the per-call cost of
//           each instrument is reported.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "gossip/bounds.h"
#include "gossip/simple.h"
#include "gossip/solve.h"
#include "gossip/updown.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace {

using namespace mg;

struct BenchCase {
  std::string name;
  graph::Graph graph;
};

std::vector<BenchCase> build_suite(bool quick) {
  std::vector<BenchCase> suite;
  const std::vector<graph::Vertex> sizes =
      quick ? std::vector<graph::Vertex>{64, 256}
            : std::vector<graph::Vertex>{64, 256, 1024};

  suite.push_back({"petersen", graph::petersen()});
  for (const graph::Vertex n : sizes) {
    suite.push_back({"cycle/n=" + std::to_string(n), graph::cycle(n)});
  }
  for (const graph::Vertex side : {8u, 16u, 32u}) {
    const graph::Vertex n = side * side;
    if (quick && n > 256) continue;
    suite.push_back({"grid/n=" + std::to_string(n), graph::grid(side, side)});
  }
  for (const unsigned dim : {6u, 8u, 10u}) {
    const graph::Vertex n = graph::Vertex{1} << dim;
    if (quick && n > 256) continue;
    suite.push_back(
        {"hypercube/n=" + std::to_string(n), graph::hypercube(dim)});
  }
  for (const graph::Vertex n : sizes) {
    Rng rng(0xbe7cULL + n);  // fixed seed: rows are reproducible
    suite.push_back(
        {"random_gnp/n=" + std::to_string(n),
         graph::random_connected_gnp(n, 3.0 / static_cast<double>(n), rng)});
  }
  return suite;
}

/// Guaranteed per-row ceiling: `rounds <= bound` must hold on every run.
/// Simple and ConcurrentUpDown carry exact theorems (Lemma 1, Theorem 1).
/// UpDown's greedy reconstruction only meets the paper's two-phase formula
/// on structured families (it exceeds n + 3r - 2 on dense random graphs),
/// and Telephone has no theorem in scope, so both fall back to the trivial
/// serialization ceiling n(n - 1); the formula value is still emitted as
/// the informational `paper_bound` column.
std::uint64_t bound_for(gossip::Algorithm algorithm, std::size_t n,
                        std::size_t r) {
  switch (algorithm) {
    case gossip::Algorithm::kSimple:
      return 2 * n + r - 3;  // Lemma 1 (all suite sizes have n >= 2)
    case gossip::Algorithm::kUpDown:
    case gossip::Algorithm::kTelephone:
      return n * (n - 1);
    case gossip::Algorithm::kConcurrentUpDown:
      return gossip::concurrent_updown_time(n, r);  // Theorem 1: n + r
  }
  return 0;
}

/// The closed-form bound discussed in the paper for this algorithm, even
/// where our reconstruction does not guarantee it (0 = no formula).
std::uint64_t paper_bound_for(gossip::Algorithm algorithm, std::size_t n,
                              std::size_t r) {
  switch (algorithm) {
    case gossip::Algorithm::kSimple:
      return 2 * n + r - 3;
    case gossip::Algorithm::kUpDown:
      return gossip::updown_time_bound(n, r);
    case gossip::Algorithm::kConcurrentUpDown:
      return gossip::concurrent_updown_time(n, r);
    case gossip::Algorithm::kTelephone:
      return 0;
  }
  return 0;
}

int run_suite(const std::string& out_path, bool quick) {
  const auto suite = build_suite(quick);
  constexpr gossip::Algorithm kAlgorithms[] = {
      gossip::Algorithm::kSimple, gossip::Algorithm::kUpDown,
      gossip::Algorithm::kConcurrentUpDown, gossip::Algorithm::kTelephone};

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_main: cannot open %s for writing\n",
                 out_path.c_str());
    return 2;
  }

  obs::Registry& registry = obs::Registry::global();

  obs::JsonWriter w(out);
  w.begin_object();
  w.field("schema_version", 1);
  w.field("suite", "gossip");
  w.field("quick", quick);
  w.key("rows").begin_array();

  bool all_ok = true;
  for (const auto& c : suite) {
    for (const gossip::Algorithm algorithm : kAlgorithms) {
      registry.reset();
      Stopwatch watch;
      const gossip::Solution sol = gossip::solve_gossip(c.graph, algorithm);
      const auto wall_ns = static_cast<std::uint64_t>(watch.seconds() * 1e9);

      const std::size_t n = sol.instance.vertex_count();
      const std::size_t r = sol.instance.radius();
      const std::uint64_t rounds = sol.schedule.total_time();
      const std::uint64_t bound = bound_for(algorithm, n, r);
      const bool row_ok = sol.report.ok && rounds <= bound;
      all_ok = all_ok && row_ok;

      w.begin_object();
      w.field("name", c.name);
      w.field("algorithm", gossip::algorithm_name(algorithm));
      w.field("n", static_cast<std::uint64_t>(n));
      w.field("m", static_cast<std::uint64_t>(c.graph.edge_count()));
      w.field("r", static_cast<std::uint64_t>(r));
      w.field("rounds", rounds);
      w.field("bound", bound);
      w.field("paper_bound", paper_bound_for(algorithm, n, r));
      w.field("valid", sol.report.ok);
      w.field("runs", static_cast<std::uint64_t>(sol.schedule.run_count()));
      w.field("schedule_bytes",
              static_cast<std::uint64_t>(sol.schedule.stored_bytes()));
      w.field("wall_ns", wall_ns);
      w.key("counters").begin_object();
      for (const auto& [counter_name, value] : registry.snapshot().counters) {
        // reset() keeps names registered; skip metrics this row never hit.
        if (value != 0) w.field(counter_name, value);
      }
      w.end_object();
      w.end_object();

      std::printf("%-22s %-18s n=%5zu r=%3zu rounds=%6llu bound=%7llu %s\n",
                  c.name.c_str(),
                  gossip::algorithm_name(algorithm).c_str(), n, r,
                  static_cast<unsigned long long>(rounds),
                  static_cast<unsigned long long>(bound),
                  row_ok ? "ok" : "VIOLATION");
    }
  }

  w.end_array();
  w.end_object();
  out << '\n';

  std::printf("wrote %s (%zu rows)\n", out_path.c_str(),
              suite.size() * std::size(kAlgorithms));
  if (!all_ok) {
    std::fprintf(stderr, "bench_main: bound violation or invalid schedule\n");
    return 1;
  }
  return 0;
}

/// Verifies the cost model of obs/registry.h and obs/span.h.
int run_sanity() {
  const bool compiled_in = MG_OBS_ENABLED != 0;

  // 1. A solve with span tracing off (its default) records no span.
  const obs::SpanTracer& tracer = obs::SpanTracer::global();
  const auto sol =
      gossip::solve_gossip(graph::cycle(64), gossip::Algorithm::kSimple);
  if (!sol.report.ok || tracer.enabled() || tracer.recorded() != 0) {
    std::fprintf(stderr,
                 "sanity FAILED: solve ok = %d, span tracer enabled = %d, "
                 "%llu spans recorded\n",
                 sol.report.ok ? 1 : 0, tracer.enabled() ? 1 : 0,
                 static_cast<unsigned long long>(tracer.recorded()));
    return 1;
  }

  // 2. Cost per call, and every counter increment and histogram record
  // lands — or, compiled out, none does.
  const auto per_call_ns = [](std::uint64_t iters, const auto& body) {
    Stopwatch watch;
    for (std::uint64_t i = 0; i < iters; ++i) body(i);
    return watch.seconds() * 1e9 / static_cast<double>(iters);
  };
  constexpr std::uint64_t kIters = 1'000'000;
  const double add_ns = per_call_ns(
      kIters, [](std::uint64_t) { MG_OBS_ADD("sanity.increments", 1); });
  const double hist_ns =
      per_call_ns(kIters, []([[maybe_unused]] std::uint64_t i) {
        MG_OBS_HIST("sanity.hist", i & 0xffff);
      });
  const double span_ns = per_call_ns(
      200'000, [](std::uint64_t) { MG_OBS_SPAN(sanity_span, "sanity.span"); });
  std::printf(
      "obs sanity: compiled_in=%d  counter=%.1f ns/inc  histogram=%.1f "
      "ns/rec  span(tracing off)=%.1f ns\n",
      compiled_in ? 1 : 0, add_ns, hist_ns, span_ns);

  const obs::Snapshot snap = obs::Registry::global().snapshot();
  const std::uint64_t expected = compiled_in ? kIters : 0;
  const std::uint64_t increments = snap.counter("sanity.increments");
  const std::uint64_t records = snap.histogram("sanity.hist").count;
  if (increments != expected || records != expected) {
    std::fprintf(stderr,
                 "sanity FAILED: %llu increments and %llu histogram records "
                 "landed, expected %llu of each\n",
                 static_cast<unsigned long long>(increments),
                 static_cast<unsigned long long>(records),
                 static_cast<unsigned long long>(expected));
    return 1;
  }
  if (tracer.recorded() != 0) {
    std::fprintf(stderr,
                 "sanity FAILED: spans recorded while tracing was off\n");
    return 1;
  }

  std::printf("obs sanity: ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_gossip.json";
  bool quick = false;
  bool sanity = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--sanity") == 0) {
      sanity = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_main [--out FILE] [--quick] [--sanity]\n");
      return 2;
    }
  }
  return sanity ? run_sanity() : run_suite(out_path, quick);
}
