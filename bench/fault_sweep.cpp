// Fault sweep — the machine-readable robustness benchmark (BENCH_fault.json).
//
// Sweeps seeded probabilistic drop rates over the named graphs (cycle,
// Petersen, grid, hypercube) x all four gossip algorithms, self-healing
// every faulty run with gossip::solve_with_recovery, and writes one JSON
// row per (network, algorithm, drop_rate) triple recording the recovery
// overhead against the fault-free n + r baseline (Theorem 1).  The process
// exits nonzero when any row fails to reach full completion, produces an
// invalid repair, or spends more recovery rounds than the budget allows
// (extra_rounds / (n + r) <= budget) — so the sweep doubles as a
// regression gate for the fault/recovery subsystem.
//
//   fault_sweep [--out FILE] [--budget X] [--seed N] [--quick]
//
// --out     output path (default BENCH_fault.json)
// --budget  max allowed recovery overhead extra_rounds / (n + r) (default 2)
// --seed    fault-plan seed (default 42); rows are reproducible per seed
// --quick   drop rates {0, 0.1} only (CI-friendly)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "gossip/recovery.h"
#include "gossip/solve.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "support/stopwatch.h"

namespace {

using namespace mg;

int run(const std::string& out_path, double budget, std::uint64_t seed,
        bool quick) {
  const std::vector<std::pair<std::string, graph::Graph>> graphs = {
      {"cycle/n=16", graph::cycle(16)},
      {"petersen", graph::petersen()},
      {"grid/5x5", graph::grid(5, 5)},
      {"hypercube/d=4", graph::hypercube(4)},
  };
  const std::vector<double> rates =
      quick ? std::vector<double>{0.0, 0.10}
            : std::vector<double>{0.0, 0.05, 0.10, 0.20};
  constexpr gossip::Algorithm kAlgorithms[] = {
      gossip::Algorithm::kSimple, gossip::Algorithm::kUpDown,
      gossip::Algorithm::kConcurrentUpDown, gossip::Algorithm::kTelephone};

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "fault_sweep: cannot open %s for writing\n",
                 out_path.c_str());
    return 2;
  }

  obs::Registry& registry = obs::Registry::global();

  obs::JsonWriter w(out);
  w.begin_object();
  w.field("schema_version", 1);
  w.field("suite", "fault");
  w.field("seed", static_cast<std::uint64_t>(seed));
  w.field("budget", budget);
  w.field("quick", quick);
  w.key("rows").begin_array();

  bool all_ok = true;
  std::size_t row_count = 0;
  for (const auto& [name, g] : graphs) {
    for (const gossip::Algorithm algorithm : kAlgorithms) {
      for (const double rate : rates) {
        registry.reset();
        fault::FaultPlan plan;
        plan.drop_rate(rate).seed(seed);
        gossip::RecoveryOptions options;
        options.algorithm = algorithm;
        options.max_attempts = 8;

        Stopwatch watch;
        const gossip::RecoveryOutcome outcome =
            gossip::solve_with_recovery(g, plan, options);
        const auto wall_ns =
            static_cast<std::uint64_t>(watch.seconds() * 1e9);

        const std::size_t n = outcome.base.instance.vertex_count();
        const std::size_t r = outcome.base.instance.radius();
        const std::size_t baseline = n + r;  // Theorem 1, fault-free
        const std::size_t base_rounds = outcome.base.schedule.total_time();
        const std::size_t total_rounds = base_rounds + outcome.extra_rounds;
        const double denominator =
            static_cast<double>(baseline == 0 ? 1 : baseline);
        const double overhead =
            static_cast<double>(total_rounds) / denominator;
        const double recovery_overhead =
            static_cast<double>(outcome.extra_rounds) / denominator;

        // Gate: drops never partition the survivor graph, so every row
        // must heal to full completion with valid repairs, spending at
        // most budget * (n + r) recovery rounds.  `overhead` (total
        // rounds vs the baseline) stays informational: slow algorithms
        // like Telephone exceed n + r before any fault is injected.
        const bool row_ok = outcome.base.report.ok && outcome.complete &&
                            outcome.recovered && outcome.repairs_valid &&
                            recovery_overhead <= budget;
        all_ok = all_ok && row_ok;
        ++row_count;

        const obs::Snapshot snap = registry.snapshot();
        w.begin_object();
        w.field("name", name);
        w.field("algorithm", gossip::algorithm_name(algorithm));
        w.field("n", static_cast<std::uint64_t>(n));
        w.field("r", static_cast<std::uint64_t>(r));
        w.field("drop_rate", rate);
        w.field("baseline", static_cast<std::uint64_t>(baseline));
        w.field("base_rounds", static_cast<std::uint64_t>(base_rounds));
        w.field("injected_drops",
                static_cast<std::uint64_t>(outcome.faulty_run.injected_drops));
        w.field("missing_after_fault",
                [&] {
                  std::uint64_t pairs = 0;
                  for (const auto m : outcome.faulty_run.missing) pairs += m;
                  return pairs;
                }());
        w.field("attempts", static_cast<std::uint64_t>(outcome.attempts));
        w.field("extra_rounds",
                static_cast<std::uint64_t>(outcome.extra_rounds));
        w.field("total_rounds", static_cast<std::uint64_t>(total_rounds));
        w.field("overhead", overhead);
        w.field("recovery_overhead", recovery_overhead);
        w.field("recovery_invocations", snap.counter("recovery.invocations"));
        w.field("complete", outcome.complete);
        w.field("recovered", outcome.recovered);
        w.field("repairs_valid", outcome.repairs_valid);
        w.field("wall_ns", wall_ns);
        // Per-row quantiles from the registry histograms (reset per row):
        // simulation latency over the base run + every recovery replay.
        const obs::HistogramSnapshot sim_hist = snap.histogram("sim.run_ns");
        w.field("sim_runs", sim_hist.count);
        w.field("sim_ns_p50", sim_hist.p50);
        w.field("sim_ns_p99", sim_hist.p99);
        w.end_object();

        std::printf(
            "%-14s %-18s p=%.2f rounds=%3zu+%-3zu extra/(n+r)=%4.2f "
            "attempts=%zu %s\n",
            name.c_str(), gossip::algorithm_name(algorithm).c_str(), rate,
            base_rounds, outcome.extra_rounds, recovery_overhead,
            outcome.attempts,
            row_ok ? "ok" : "VIOLATION");
      }
    }
  }

  w.end_array();
  w.end_object();
  out << '\n';

  std::printf("wrote %s (%zu rows)\n", out_path.c_str(), row_count);
  if (!all_ok) {
    std::fprintf(stderr,
                 "fault_sweep: incomplete recovery, invalid repair, or "
                 "overhead over budget\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_fault.json";
  double budget = 2.0;
  std::uint64_t seed = 42;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
      budget = std::stod(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::stoull(argv[++i]);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: fault_sweep [--out FILE] [--budget X] [--seed N] "
                   "[--quick]\n");
      return 2;
    }
  }
  return run(out_path, budget, seed, quick);
}
