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
// Also reports the drop-lookup microbenchmark backing the O(1) DropSet
// design: ns per (round, sender) membership query, hash set vs the linear
// vector scan sim::simulate used before ISSUE 3.
//
//   fault_sweep [--out FILE] [--budget X] [--seed N] [--quick]
//
// --out     output path (default BENCH_fault.json)
// --budget  max allowed recovery overhead extra_rounds / (n + r) (default 2)
// --seed    fault-plan seed (default 42); rows are reproducible per seed
// --quick   drop rates {0, 0.1} only (CI-friendly)
#include <algorithm>
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
#include "sim/network_sim.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace {

using namespace mg;

struct LookupBench {
  double hash_ns = 0.0;
  double scan_ns = 0.0;
};

/// ns per (round, sender) membership query: DropSet vs the std::find scan
/// over a vector that sim::simulate used before the hash set.
LookupBench bench_drop_lookup() {
  constexpr std::size_t kDrops = 1024;
  constexpr std::size_t kQueries = 200'000;
  Rng rng(7);
  std::vector<std::pair<std::size_t, graph::Vertex>> list;
  fault::DropSet set;
  for (std::size_t i = 0; i < kDrops; ++i) {
    const auto round = static_cast<std::size_t>(rng.below(512));
    const auto sender = static_cast<graph::Vertex>(rng.below(1024));
    list.emplace_back(round, sender);
    set.insert(round, sender);
  }
  std::vector<std::pair<std::size_t, graph::Vertex>> queries;
  queries.reserve(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    queries.emplace_back(static_cast<std::size_t>(rng.below(512)),
                         static_cast<graph::Vertex>(rng.below(1024)));
  }

  LookupBench result;
  std::size_t hits_hash = 0;
  std::size_t hits_scan = 0;
  {
    Stopwatch watch;
    for (const auto& [round, sender] : queries) {
      hits_hash += set.contains(round, sender) ? 1u : 0u;
    }
    result.hash_ns = watch.seconds() * 1e9 / kQueries;
  }
  {
    Stopwatch watch;
    for (const auto& q : queries) {
      hits_scan +=
          std::find(list.begin(), list.end(), q) != list.end() ? 1u : 0u;
    }
    result.scan_ns = watch.seconds() * 1e9 / kQueries;
  }
  if (hits_hash != hits_scan) {
    std::fprintf(stderr, "fault_sweep: lookup disagreement (%zu vs %zu)\n",
                 hits_hash, hits_scan);
  }
  return result;
}

struct CorePair {
  std::string name;
  std::string algorithm;
  double bit_ns_p50 = 0.0;
  double word_ns_p50 = 0.0;
  double speedup = 0.0;
};

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t k = xs.size();
  return k == 0 ? 0.0
                : (k % 2 == 1 ? xs[k / 2]
                              : 0.5 * (xs[k / 2 - 1] + xs[k / 2]));
}

/// A/B of the two simulator cores on the sweep's own workload: per (graph,
/// algorithm) the gossip schedule is solved once, then executed `reps`
/// times per core — the bit core exactly as `sim::simulate` ran before
/// this optimization, the word core as the repeated runner drives it
/// (`simulate_from_holds`, final holds not materialized).  Result
/// agreement, final holds included, is checked on the untimed warm-up
/// reps.  The fleet-wide figure is the median per-pair p50 speedup, gated
/// at >= 2x by the caller.
std::vector<CorePair> bench_sim_cores(
    const std::vector<std::pair<std::string, graph::Graph>>& graphs,
    std::size_t reps) {
  constexpr gossip::Algorithm kAlgorithms[] = {
      gossip::Algorithm::kSimple, gossip::Algorithm::kUpDown,
      gossip::Algorithm::kConcurrentUpDown, gossip::Algorithm::kTelephone};
  std::vector<CorePair> pairs;
  // Null-registry mode (see obs/registry.h): the A/B measures the cores,
  // not the metric plumbing both of them share; re-enabled on return.
  obs::Registry& registry = obs::Registry::global();
  const bool obs_was_enabled = registry.enabled();
  registry.set_enabled(false);
  for (const auto& [name, g] : graphs) {
    for (const gossip::Algorithm algorithm : kAlgorithms) {
      const gossip::Solution solution = gossip::solve_gossip(g, algorithm);
      const graph::Graph tree = solution.instance.tree().as_graph();
      const std::vector<model::Message> initial = solution.instance.initial();
      const graph::Vertex n = g.vertex_count();
      std::vector<DynamicBitset> initial_holds(n, DynamicBitset(n));
      for (graph::Vertex v = 0; v < n; ++v) initial_holds[v].set(initial[v]);

      sim::SimOptions bit_options;
      bit_options.core = sim::SimCore::kBitwise;
      sim::SimOptions word_options;
      word_options.keep_final_holds = false;
      std::vector<double> bit_ns;
      std::vector<double> word_ns;
      bit_ns.reserve(reps);
      word_ns.reserve(reps);
      bool agree = true;
      for (std::size_t rep = 0; rep < reps + 4; ++rep) {
        Stopwatch bit_watch;
        const sim::SimResult bit =
            sim::simulate(tree, solution.schedule, initial, bit_options);
        const double bit_elapsed = bit_watch.seconds() * 1e9;
        if (rep < 4) {  // warm-up reps double as the equivalence check
          const sim::SimResult word = sim::simulate_from_holds(
              tree, solution.schedule, initial_holds);
          agree = agree && bit.completed == word.completed &&
                  bit.total_time == word.total_time &&
                  bit.knowledge == word.knowledge &&
                  bit.final_holds == word.final_holds;
          continue;
        }
        Stopwatch word_watch;
        const sim::SimResult word = sim::simulate_from_holds(
            tree, solution.schedule, initial_holds, word_options);
        const double word_elapsed = word_watch.seconds() * 1e9;
        bit_ns.push_back(bit_elapsed);
        word_ns.push_back(word_elapsed);
        agree = agree && bit.completed == word.completed &&
                bit.total_time == word.total_time;
      }
      if (!agree) {
        std::fprintf(stderr,
                     "fault_sweep: sim core disagreement on %s/%s\n",
                     name.c_str(), gossip::algorithm_name(algorithm).c_str());
      }
      CorePair pair;
      pair.name = name;
      pair.algorithm = gossip::algorithm_name(algorithm);
      pair.bit_ns_p50 = median(bit_ns);
      pair.word_ns_p50 = median(word_ns);
      pair.speedup =
          pair.word_ns_p50 > 0.0 ? pair.bit_ns_p50 / pair.word_ns_p50 : 0.0;
      pairs.push_back(std::move(pair));
    }
  }
  registry.set_enabled(obs_was_enabled);
  return pairs;
}

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
  registry.set_enabled(true);

  obs::JsonWriter w(out);
  w.begin_object();
  w.field("schema_version", 1);
  w.field("suite", "fault");
  w.field("seed", static_cast<std::uint64_t>(seed));
  w.field("budget", budget);
  const LookupBench lookup = bench_drop_lookup();
  w.key("drop_lookup").begin_object();
  w.field("entries", static_cast<std::uint64_t>(1024));
  w.field("hash_ns_per_query", lookup.hash_ns);
  w.field("scan_ns_per_query", lookup.scan_ns);
  w.end_object();

  // Word-parallel vs bitwise simulator core A/B (gated at >= 2x).
  constexpr double kSimCoreGate = 2.0;
  const std::vector<CorePair> core_pairs =
      bench_sim_cores(graphs, quick ? 32 : 96);
  std::vector<double> speedups;
  speedups.reserve(core_pairs.size());
  for (const auto& pair : core_pairs) speedups.push_back(pair.speedup);
  const double core_speedup_p50 = median(speedups);
  const bool core_ok = core_speedup_p50 >= kSimCoreGate;
  w.key("sim_core").begin_object();
  w.field("reps", static_cast<std::uint64_t>(quick ? 32 : 96));
  w.field("speedup_gate", kSimCoreGate);
  w.field("speedup_p50", core_speedup_p50);
  w.field("ok", core_ok);
  w.key("pairs").begin_array();
  for (const auto& pair : core_pairs) {
    w.begin_object();
    w.field("name", pair.name);
    w.field("algorithm", pair.algorithm);
    w.field("bit_ns_p50", pair.bit_ns_p50);
    w.field("word_ns_p50", pair.word_ns_p50);
    w.field("speedup", pair.speedup);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::printf("sim core A/B: median p50 speedup %.2fx (gate %.1fx) %s\n",
              core_speedup_p50, kSimCoreGate, core_ok ? "ok" : "VIOLATION");

  w.key("rows").begin_array();

  bool all_ok = core_ok;
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

  std::printf("wrote %s (%zu rows)  drop lookup: hash %.1f ns, scan %.1f "
              "ns per query\n",
              out_path.c_str(), row_count, lookup.hash_ns, lookup.scan_ns);
  if (!all_ok) {
    std::fprintf(stderr,
                 "fault_sweep: incomplete recovery, invalid repair, sim core "
                 "speedup under gate, or overhead over budget\n");
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
