// Distributed-runtime benchmark — the machine-readable actor-overhead
// artifact (BENCH_dist.json).
//
// For every named graph x all four gossip algorithms the bench executes the
// same schedule two ways:
//   central  — `sim::simulate` replaying the centrally computed schedule
//              (one loop, no actors, no mailboxes), and
//   dist     — the `mg::dist` actor runtime: n processor actors deciding
//              from local state behind a round-synchronized mailbox bus,
//              serially and on a worker pool.
// Each row records the wall time of all three executions, the emergent
// round count, and the per-round latency quantiles of the actor runtime
// from the `dist.round_ns` observability histogram — the honest price of
// decentralization relative to the flat replay loop.
//
// The bench doubles as a regression gate: a row fails (process exits
// nonzero) when the emergent schedule diverges from the central one, the
// run does not complete, or a fault-free ConcurrentUpDown execution does
// not span exactly n + r rounds (Theorem 1).
//
// The `recovery` section runs the decentralized recovery plane: the online
// rule on random geometric networks under 1% drops plus a crash of the
// tree root at mid-horizon, serially and on the pool.  It records both
// wall times, the recovery cycles, the rounds the central planner
// (`gossip::partial_completion_schedule`) needs on the same end-of-main-
// phase holds, control messages per data message and the per-cycle
// latency quantiles of `dist.recovery_round_ns`, and gates on `recovered`,
// on serial == threaded (equivalent emergent and repair schedules, equal
// RunReport counters) and on recovery cycles <= 1.25x the central rounds
// — never on time.
//
//   dist_bench [--out FILE] [--threads N] [--quick]
//
// --out      output path (default BENCH_dist.json)
// --threads  worker count for the threaded rows (default 4)
// --quick    cycle + Petersen only, recovery at n = 64 (CI-friendly)
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "dist/runtime.h"
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

/// Equal RunReport counters and equivalent schedules: what a threaded run
/// must reproduce of the serial one.
bool same_execution(const dist::RunReport& a, const dist::RunReport& b) {
  return model::equivalent(a.emergent, b.emergent) &&
         model::equivalent(a.repair, b.repair) && a.horizon == b.horizon &&
         a.recovery_rounds == b.recovery_rounds && a.messages == b.messages &&
         a.deliveries == b.deliveries &&
         a.control_messages == b.control_messages &&
         a.injected_drops == b.injected_drops &&
         a.crashed_sends == b.crashed_sends &&
         a.skipped_sends == b.skipped_sends &&
         a.lost_receives == b.lost_receives && a.complete == b.complete &&
         a.recovered == b.recovered && a.coverage == b.coverage &&
         a.crashed == b.crashed && a.missing == b.missing &&
         a.causal.size() == b.causal.size();
}

/// Writes the `recovery` section's rows; false when any row fails its gate.
bool run_recovery(obs::JsonWriter& w, std::size_t threads, bool quick) {
  const graph::Vertex n = quick ? 64 : 256;
  constexpr std::size_t kNetworks = 2;
  obs::Registry& registry = obs::Registry::global();
  bool all_ok = true;
  w.key("recovery").begin_array();
  for (std::size_t k = 0; k < kNetworks; ++k) {
    registry.reset();
    // Connectivity radius sqrt(2 ln n / (pi n)), as in the heal workload.
    const double nd = static_cast<double>(n);
    Rng rng(0x4ea1ULL + k);
    const graph::Graph g = graph::random_geometric(
        n, std::sqrt(2.0 * std::log(nd) / (3.14159265358979 * nd)), rng);
    const gossip::Instance instance = gossip::Instance::from_network(g);
    const std::size_t horizon = n + instance.radius();
    fault::FaultPlan plan;
    plan.drop_rate(0.01).seed(0xd20bULL + k).crash(instance.tree().root(),
                                                    horizon / 2);

    const auto run_dist = [&](std::size_t workers) {
      dist::RuntimeOptions options;
      options.faults = &plan;
      options.threads = workers;
      dist::ActorRuntime runtime(instance, g, options);
      runtime.use_online_rule();
      Stopwatch watch;
      dist::RunReport run = runtime.run(horizon);
      return std::make_pair(
          static_cast<std::uint64_t>(watch.seconds() * 1e9), std::move(run));
    };
    const auto [serial_ns, serial_run] = run_dist(0);
    const auto [threaded_ns, threaded_run] = run_dist(threads);
    const bool equivalent = same_execution(serial_run, threaded_run);
    // The central planner on the same holds and survivors.
    const std::size_t central_rounds =
        gossip::partial_completion_schedule(g, serial_run.main_holds,
                                            plan.alive_at(horizon, n))
            .round_count();
    const bool near_central =
        4 * serial_run.recovery_rounds <= 5 * central_rounds;
    const bool row_ok = serial_run.recovered && equivalent && near_central;
    all_ok = all_ok && row_ok;

    const obs::HistogramSnapshot cycle_hist =
        registry.snapshot().histogram("dist.recovery_round_ns");
    const std::string name = "geometric/n=" + std::to_string(n) + "/" +
                             std::to_string(k);
    w.begin_object();
    w.field("name", name);
    w.field("n", static_cast<std::uint64_t>(n));
    w.field("r", static_cast<std::uint64_t>(instance.radius()));
    w.field("horizon", static_cast<std::uint64_t>(horizon));
    w.field("drop_rate", 0.01);
    w.field("crashed_root", static_cast<std::uint64_t>(instance.tree().root()));
    w.field("dist_serial_ns", serial_ns);
    w.field("dist_threaded_ns", threaded_ns);
    w.field("recovery_rounds",
            static_cast<std::uint64_t>(serial_run.recovery_rounds));
    w.field("central_rounds", static_cast<std::uint64_t>(central_rounds));
    w.field("messages", static_cast<std::uint64_t>(serial_run.messages));
    w.field("control_messages",
            static_cast<std::uint64_t>(serial_run.control_messages));
    w.field("control_per_data",
            serial_run.messages == 0
                ? 0.0
                : static_cast<double>(serial_run.control_messages) /
                      static_cast<double>(serial_run.messages));
    // Both executions feed the per-cycle histogram.
    w.field("recovery_round_samples", cycle_hist.count);
    w.field("recovery_round_ns_p50", cycle_hist.p50);
    w.field("recovery_round_ns_p99", cycle_hist.p99);
    w.field("coverage", serial_run.coverage);
    w.field("recovered", serial_run.recovered);
    w.field("serial_equals_threaded", equivalent);
    w.end_object();

    std::printf("recovery %-20s cycles=%3zu central=%3zu (%.2fx, gate 1.25x) "
                "serial=%10llu ns threaded=%10llu ns %s\n",
                name.c_str(), serial_run.recovery_rounds, central_rounds,
                central_rounds == 0
                    ? 1.0
                    : static_cast<double>(serial_run.recovery_rounds) /
                          static_cast<double>(central_rounds),
                static_cast<unsigned long long>(serial_ns),
                static_cast<unsigned long long>(threaded_ns),
                row_ok ? "ok" : "VIOLATION");
  }
  w.end_array();
  return all_ok;
}

int run(const std::string& out_path, std::size_t threads, bool quick) {
  std::vector<std::pair<std::string, graph::Graph>> graphs = {
      {"cycle/n=16", graph::cycle(16)},
      {"petersen", graph::petersen()},
  };
  if (!quick) {
    graphs.emplace_back("grid/5x5", graph::grid(5, 5));
    graphs.emplace_back("hypercube/d=4", graph::hypercube(4));
    graphs.emplace_back("grid/8x8", graph::grid(8, 8));
  }
  constexpr gossip::Algorithm kAlgorithms[] = {
      gossip::Algorithm::kSimple, gossip::Algorithm::kUpDown,
      gossip::Algorithm::kConcurrentUpDown, gossip::Algorithm::kTelephone};

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "dist_bench: cannot open %s for writing\n",
                 out_path.c_str());
    return 2;
  }

  obs::Registry& registry = obs::Registry::global();

  obs::JsonWriter w(out);
  w.begin_object();
  w.field("schema_version", 1);
  w.field("suite", "dist");
  w.field("quick", quick);
  w.field("threads", static_cast<std::uint64_t>(threads));
  w.key("rows").begin_array();

  bool all_ok = true;
  std::size_t row_count = 0;
  for (const auto& [name, g] : graphs) {
    for (const gossip::Algorithm algorithm : kAlgorithms) {
      registry.reset();
      const gossip::Solution central = gossip::solve_gossip(g, algorithm);
      const graph::Vertex n = central.instance.vertex_count();
      const std::uint32_t r = central.instance.radius();
      const std::size_t horizon = central.schedule.round_count();

      // Central replay: one flat loop over the precomputed schedule.
      Stopwatch central_watch;
      const sim::SimResult replay =
          sim::simulate(central.instance.tree().as_graph(), central.schedule,
                        central.instance.initial());
      const auto central_ns =
          static_cast<std::uint64_t>(central_watch.seconds() * 1e9);

      const auto run_dist = [&](std::size_t workers) {
        dist::RuntimeOptions options;
        options.threads = workers;
        dist::ActorRuntime runtime(central.instance, g, options);
        if (algorithm == gossip::Algorithm::kConcurrentUpDown) {
          runtime.use_online_rule();
        } else {
          runtime.use_timetable(central.schedule);
        }
        Stopwatch watch;
        dist::RunReport run = runtime.run(horizon);
        return std::make_pair(
            static_cast<std::uint64_t>(watch.seconds() * 1e9),
            std::move(run));
      };
      const auto [serial_ns, serial_run] = run_dist(0);
      const auto [threaded_ns, threaded_run] = run_dist(threads);

      const dist::VerifyReport verify = dist::verify_against_schedule(
          central.schedule, serial_run.emergent, n, r);
      const bool n_plus_r_ok =
          algorithm != gossip::Algorithm::kConcurrentUpDown ||
          verify.n_plus_r_ok;
      const bool row_ok = central.report.ok && replay.completed &&
                          verify.match && serial_run.complete &&
                          threaded_run.complete && n_plus_r_ok;
      all_ok = all_ok && row_ok;
      ++row_count;

      const obs::Snapshot snap = registry.snapshot();
      const obs::HistogramSnapshot round_hist =
          snap.histogram("dist.round_ns");
      w.begin_object();
      w.field("name", name);
      w.field("algorithm", gossip::algorithm_name(algorithm));
      w.field("n", static_cast<std::uint64_t>(n));
      w.field("r", static_cast<std::uint64_t>(r));
      w.field("rounds", static_cast<std::uint64_t>(horizon));
      w.field("messages", static_cast<std::uint64_t>(serial_run.messages));
      w.field("deliveries",
              static_cast<std::uint64_t>(serial_run.deliveries));
      w.field("central_ns", central_ns);
      w.field("dist_serial_ns", serial_ns);
      w.field("dist_threaded_ns", threaded_ns);
      w.field("actor_overhead",
              central_ns == 0
                  ? 0.0
                  : static_cast<double>(serial_ns) /
                        static_cast<double>(central_ns));
      // Both dist executions feed the per-round histogram.
      w.field("round_samples", round_hist.count);
      w.field("round_ns_p50", round_hist.p50);
      w.field("round_ns_p99", round_hist.p99);
      w.field("match", verify.match);
      w.field("n_plus_r_ok", n_plus_r_ok);
      w.field("complete", serial_run.complete);
      w.end_object();

      std::printf("%-14s %-18s rounds=%3zu central=%8llu ns serial=%8llu ns "
                  "threaded=%8llu ns %s\n",
                  name.c_str(), gossip::algorithm_name(algorithm).c_str(),
                  horizon, static_cast<unsigned long long>(central_ns),
                  static_cast<unsigned long long>(serial_ns),
                  static_cast<unsigned long long>(threaded_ns),
                  row_ok ? "ok" : "VIOLATION");
    }
  }

  w.end_array();
  const bool recovery_ok = run_recovery(w, threads, quick);
  w.end_object();
  out << '\n';

  std::printf("wrote %s (%zu rows)\n", out_path.c_str(), row_count);
  if (!all_ok) {
    std::fprintf(stderr,
                 "dist_bench: emergent schedule diverged, run incomplete, "
                 "or n + r violated\n");
  }
  if (!recovery_ok) {
    std::fprintf(stderr,
                 "dist_bench: a recovery row did not recover, its "
                 "threaded run differs from the serial one, or it needed "
                 "more than 1.25x the central planner's rounds\n");
  }
  return all_ok && recovery_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_dist.json";
  std::size_t threads = 4;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::stoul(argv[++i]);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: dist_bench [--out FILE] [--threads N] [--quick]\n");
      return 2;
    }
  }
  return run(out_path, threads, quick);
}
