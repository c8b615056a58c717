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
//           model: a run against the disabled (null) registry must leave
//           no named metrics behind, and the per-increment overhead of the
//           disabled path is reported next to the enabled path.
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
#include "obs/causal.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/sampler.h"
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
  registry.set_enabled(true);

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

/// Verifies the two off switches described in obs/registry.h.
int run_sanity() {
  obs::Registry& registry = obs::Registry::global();

  // 1. Null-registry behaviour: a disabled run must register nothing —
  // counters, timers or histograms — and the span tracer (disabled by
  // default) must keep zero spans.
  registry.set_enabled(false);
  const auto sol =
      gossip::solve_gossip(graph::cycle(64), gossip::Algorithm::kSimple);
  const obs::Snapshot disabled_snap = registry.snapshot();
  if (!sol.report.ok || !disabled_snap.counters.empty() ||
      !disabled_snap.timers.empty() || !disabled_snap.histograms.empty()) {
    std::fprintf(stderr,
                 "sanity FAILED: disabled registry accumulated %zu counters, "
                 "%zu timers, %zu histograms\n",
                 disabled_snap.counters.size(), disabled_snap.timers.size(),
                 disabled_snap.histograms.size());
    return 1;
  }
  const obs::SpanTracer& tracer = obs::SpanTracer::global();
  if (tracer.enabled() || tracer.recorded() != 0) {
    std::fprintf(stderr,
                 "sanity FAILED: disabled span tracer recorded %llu spans\n",
                 static_cast<unsigned long long>(tracer.recorded()));
    return 1;
  }

  // 2. Cost model: ns per counter increment, disabled vs enabled.
  constexpr std::uint64_t kIters = 1'000'000;
  const auto measure = [&] {
    Stopwatch watch;
    for (std::uint64_t i = 0; i < kIters; ++i) {
      MG_OBS_ADD("sanity.increments", 1);
    }
    return watch.seconds() * 1e9 / static_cast<double>(kIters);
  };
  const double disabled_ns = measure();
  registry.set_enabled(true);
  const double enabled_ns = measure();
  const bool compiled_in = MG_OBS_ENABLED != 0;
  std::printf(
      "obs sanity: compiled_in=%d  disabled=%.1f ns/inc  enabled=%.1f "
      "ns/inc\n",
      compiled_in ? 1 : 0, disabled_ns, enabled_ns);

  const std::uint64_t recorded =
      registry.snapshot().counter("sanity.increments");
  if (compiled_in && recorded != kIters) {
    std::fprintf(stderr, "sanity FAILED: enabled run recorded %llu of %llu\n",
                 static_cast<unsigned long long>(recorded),
                 static_cast<unsigned long long>(kIters));
    return 1;
  }

  // 3. Same cost model for the v2 instruments: histogram record and span.
  constexpr std::uint64_t kHistIters = 1'000'000;
  const auto measure_hist = [&] {
    Stopwatch watch;
    for (std::uint64_t i = 0; i < kHistIters; ++i) {
      MG_OBS_HIST("sanity.hist", i & 0xffff);
    }
    return watch.seconds() * 1e9 / static_cast<double>(kHistIters);
  };
  registry.set_enabled(false);
  const double hist_disabled_ns = measure_hist();
  registry.set_enabled(true);
  const double hist_enabled_ns = measure_hist();
  if (compiled_in &&
      registry.snapshot().histogram("sanity.hist").count != kHistIters) {
    std::fprintf(stderr, "sanity FAILED: histogram lost records\n");
    return 1;
  }

  constexpr std::uint64_t kSpanIters = 200'000;
  const auto measure_span = [&] {
    Stopwatch watch;
    for (std::uint64_t i = 0; i < kSpanIters; ++i) {
      MG_OBS_SPAN(sanity_span, "sanity.span");
    }
    return watch.seconds() * 1e9 / static_cast<double>(kSpanIters);
  };
  const double span_disabled_ns = measure_span();  // tracer off by default
  std::printf(
      "obs sanity: histogram disabled=%.1f ns/rec  enabled=%.1f ns/rec  "
      "span(tracing off)=%.1f ns\n",
      hist_disabled_ns, hist_enabled_ns, span_disabled_ns);
  if (tracer.recorded() != 0) {
    std::fprintf(stderr,
                 "sanity FAILED: spans recorded while tracing was off\n");
    return 1;
  }

  // 4. Causal ring: while disabled (the default) a record reduces to one
  // relaxed load and the ring stays empty; enabled, the same event lands.
  obs::CausalTracer& causal = obs::CausalTracer::global();
  if (causal.enabled()) {
    std::fprintf(stderr, "sanity FAILED: causal tracer enabled by default\n");
    return 1;
  }
  [[maybe_unused]] const obs::CausalTracer::Event probe{
      1, 0, obs::CausalTracer::kFlowData, 0, 0, 0, 1};
  MG_OBS_CAUSAL(probe);
  if (causal.recorded() != 0) {
    std::fprintf(stderr,
                 "sanity FAILED: disabled causal ring accepted an event\n");
    return 1;
  }
  if (compiled_in) {
    causal.set_enabled(true);
    MG_OBS_CAUSAL(probe);
    causal.set_enabled(false);
    if (causal.recorded() != 1) {
      std::fprintf(stderr,
                   "sanity FAILED: enabled causal ring recorded %llu of 1\n",
                   static_cast<unsigned long long>(causal.recorded()));
      return 1;
    }
    causal.clear();
  }

  // 5. Sampler: runtime-null observes nothing — a disabled registry keeps
  // earlier names registered (reset() semantics) but every sampled value
  // and delta must stay zero — and with observability compiled out start()
  // stays inert.  Steady-state overhead = the hot loop's ns/inc while a
  // 1 ms sampler runs beside it, next to the sampler-free enabled cost
  // above — the sampler reads the same relaxed atomics off-thread, so the
  // delta should be noise (documented in docs/OBSERVABILITY.md).
  registry.reset();
  registry.set_enabled(false);
  {
    obs::Sampler null_sampler(registry, {std::chrono::milliseconds(1), 16});
    null_sampler.sample_now();
    MG_OBS_ADD("sanity.null_sampler", 1);
    null_sampler.sample_now();
    for (const obs::Sample& s : null_sampler.series()) {
      for (const auto& [counter_name, value] : s.snapshot.counters) {
        if (value != 0) {
          std::fprintf(stderr,
                       "sanity FAILED: runtime-null sampler observed %s=%llu\n",
                       counter_name.c_str(),
                       static_cast<unsigned long long>(value));
          return 1;
        }
      }
      for (const auto& [counter_name, delta] : s.counter_deltas) {
        if (delta != 0) {
          std::fprintf(stderr,
                       "sanity FAILED: runtime-null sampler saw a delta "
                       "%s=+%llu\n",
                       counter_name.c_str(),
                       static_cast<unsigned long long>(delta));
          return 1;
        }
      }
    }
  }
  registry.set_enabled(true);
  double sampled_ns = 0.0;
  std::uint64_t samples_taken = 0;
  {
    obs::Sampler sampler(registry, {std::chrono::milliseconds(1), 64});
    const bool started = sampler.start();
    if (started != compiled_in) {
      std::fprintf(stderr,
                   "sanity FAILED: sampler.start() = %d, compiled_in = %d\n",
                   started ? 1 : 0, compiled_in ? 1 : 0);
      return 1;
    }
    sampled_ns = measure();
    sampler.stop();
    samples_taken = sampler.samples_taken();
    if (compiled_in && samples_taken == 0) {
      std::fprintf(stderr, "sanity FAILED: running sampler took no samples\n");
      return 1;
    }
    if (!compiled_in && samples_taken != 0) {
      std::fprintf(stderr,
                   "sanity FAILED: compiled-out sampler took %llu samples\n",
                   static_cast<unsigned long long>(samples_taken));
      return 1;
    }
  }
  std::printf(
      "obs sanity: causal(off)=inert  sampler: null=empty  "
      "enabled+1ms-cadence=%.1f ns/inc (vs %.1f alone, %llu samples)\n",
      sampled_ns, enabled_ns,
      static_cast<unsigned long long>(samples_taken));

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
