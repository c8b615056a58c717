// `solve`: the paper's pipeline at the n^2 wall.  One caller solves one
// network with ConcurrentUpDown and runs the schedule fault-free, over a
// fixed seeded set of 20 networks with n = 1024 from four families that
// vary the radius r and the multicast share (grids unicast almost every
// send, hypercube trees multicast to two).  Runs measure whole passes over
// the set.
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gossip/instance.h"
#include "gossip/solve.h"
#include "graph/center.h"
#include "inputs.h"
#include "model/schedule.h"
#include "model/validator.h"
#include "sim/network_sim.h"
#include "trace.h"
#include "tree/spanning_tree.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace mg;

constexpr double kTailQuantile = 0.75;
constexpr std::size_t kMinOps = 40;  // >= 10 samples beyond p75

std::vector<Network> make_networks(std::uint64_t seed) {
  Rand rand(derive_seed(seed, "solve"));
  std::vector<Network> nets;
  // n = 1024 throughout, so the seed changes structure and labels but not
  // the n^2 work; families interleave so every prefix is balanced.
  for (int i = 0; i < 5; ++i) {
    nets.push_back({"grid", relabel(grid(32, 32), rand)});
    nets.push_back({"regular3", random_regular3(1024, rand)});
    nets.push_back({"geometric", random_geometric(1024, 0.06, rand)});
    nets.push_back({"hypercube", relabel(hypercube(10), rand)});
  }
  for (Network& net : nets) net.radius = reference_radius(net.g);
  return nets;
}

/// What the checker reads from one op.
struct Output {
  bool report_ok = false;
  std::size_t total_time = 0;
  bool sim_completed = false;
  std::size_t sim_time = 0;
};

/// Theorem 1: a validated schedule of exactly n + r rounds whose fault-free
/// run completes at n + r, with r the benchmark's own radius.
std::string check(const Network& net, const Output& out) {
  const std::size_t bound = net.g.vertex_count() + net.radius;
  if (!out.report_ok) return net.family + ": validation report not ok";
  if (out.total_time != bound) {
    return net.family + ": total_time " + std::to_string(out.total_time) +
           " != n + r = " + std::to_string(bound);
  }
  if (!out.sim_completed || out.sim_time != bound) {
    return net.family + ": simulation did not complete at n + r";
  }
  return {};
}

Output solve_and_run(const graph::Graph& g, gossip::Algorithm algorithm,
                     bool rotate_initial) {
  const gossip::Solution sol = gossip::solve_gossip(g, algorithm);
  std::vector<model::Message> initial = sol.instance.initial();
  if (rotate_initial) initial = rotated(std::move(initial));
  const sim::SimResult run = sim::simulate(g, sol.schedule, initial);
  return {sol.report.ok, sol.schedule.total_time(), run.completed,
          run.total_time};
}

/// The checker must pass a correct output and count each broken one: a
/// Simple schedule (2n + r - 3 rounds) passed off as ConcurrentUpDown, and
/// a ConcurrentUpDown schedule run from the wrong initial holdings.
bool selftest(std::string& note) {
  Network net{"grid", grid(6, 7)};
  net.radius = reference_radius(net.g);
  const bool good = check(net, solve_and_run(net.g,
                                             gossip::Algorithm::kConcurrentUpDown,
                                             false))
                        .empty();
  const bool slow_caught =
      !check(net, solve_and_run(net.g, gossip::Algorithm::kSimple, false))
           .empty();
  const bool rotated_caught =
      !check(net, solve_and_run(net.g, gossip::Algorithm::kConcurrentUpDown,
                                true))
           .empty();
  note = std::string("solve checker: correct output ") +
         (good ? "passes" : "FAILS") + ", Simple schedule " +
         (slow_caught ? "counted" : "MISSED") + ", wrong initial holdings " +
         (rotated_caught ? "counted" : "MISSED");
  return good && slow_caught && rotated_caught;
}

/// Sums of what the traced ops saw, for the per-layer metrics.
struct LayerCounts {
  double center_bfs = 0.0;
  double tx = 0.0;
  double deliveries = 0.0;
  double schedule_bytes = 0.0;
};

}  // namespace

void run_solve(const Args& args, Report& report) {
  report.selftest_ok = selftest(report.selftest_note);

  std::vector<Network> nets;
  report.metrics["setup_s"] = median_setup_seconds(
      3, [&] { nets.clear(); }, [&] { nets = make_networks(args.seed); });

  Ledger& ledger = report.ledger;
  std::map<std::string, std::vector<double>> family_ms;
  const auto untraced_op = [&](std::size_t i, double& rounds_ratio) {
    const Network& net = nets[i % nets.size()];
    const std::int64_t start = now_ns();
    const Output out = solve_and_run(net.g,
                                     gossip::Algorithm::kConcurrentUpDown,
                                     false);
    const double ms = static_cast<double>(now_ns() - start) * 1e-6;
    ledger.op(check(net, out));
    rounds_ratio = ratio(static_cast<double>(out.total_time),
                         net.g.vertex_count() + net.radius);
    family_ms[net.family].push_back(ms);
    return ms;
  };

  if (!args.trace) {
    summarize(closed_loop(args.seconds, kMinOps, SIZE_MAX, nets.size(),
                          untraced_op),
              kTailQuantile, report);
    std::ostringstream families;
    families << "p50 ms by family:";
    for (const auto& [family, ms] : family_ms) {
      families << ' ' << family << ' ' << quantile(ms, 0.5);
    }
    report.notes.push_back(families.str());
    return;
  }

  // Traced: the same networks again, calling solve_gossip's parts one by
  // one so each layer gets its own span.
  Tracer tracer(1);
  LayerCounts counts;
  const auto traced_op = [&](std::size_t i, double& rounds_ratio) {
    const Network& net = nets[i % nets.size()];
    Tracer* t = &tracer;
    const std::int64_t start = now_ns();
    Output out;
    {
      Span op(t, 0, "op.solve", i);
      const graph::CenterResult center = [&] {
        Span s(t, 0, "graph.find_center", i);
        return graph::find_center(net.g);
      }();
      tree::RootedTree rooted = [&] {
        Span s(t, 0, "tree.bfs_tree", i);
        return tree::bfs_tree(net.g, center.center);
      }();
      const gossip::Instance instance = [&] {
        Span s(t, 0, "tree.instance", i);
        return gossip::Instance(std::move(rooted));
      }();
      const std::size_t heap_before = heap_in_use_bytes();
      model::Schedule schedule = [&] {
        Span s(t, 0, "gossip.run_algorithm", i);
        return gossip::run_algorithm(instance,
                                     gossip::Algorithm::kConcurrentUpDown);
      }();
      counts.schedule_bytes +=
          static_cast<double>(heap_in_use_bytes()) -
          static_cast<double>(heap_before);
      const model::ValidationReport validation = [&] {
        Span s(t, 0, "model.validate_schedule", i);
        return model::validate_schedule(instance.tree().as_graph(), schedule,
                                        instance.initial());
      }();
      sim::SimResult run = [&] {
        Span s(t, 0, "sim.simulate", i);
        return sim::simulate(net.g, schedule, instance.initial());
      }();
      out = {validation.ok, schedule.total_time(), run.completed,
             run.total_time};
      counts.center_bfs += static_cast<double>(center.bfs_runs);
      counts.tx += static_cast<double>(schedule.transmission_count());
      counts.deliveries += static_cast<double>(schedule.delivery_count());
      {
        Span s(t, 0, "model.release_schedule", i);
        const model::Schedule released = std::move(schedule);
      }
      {
        Span s(t, 0, "sim.release_result", i);
        const sim::SimResult released = std::move(run);
      }
    }
    const double ms = static_cast<double>(now_ns() - start) * 1e-6;
    ledger.op(check(net, out));
    rounds_ratio = ratio(static_cast<double>(out.total_time),
                         net.g.vertex_count() + net.radius);
    return ms;
  };

  const Phase untraced = closed_loop(args.seconds / 2, 1, SIZE_MAX,
                                     nets.size(), untraced_op);
  const std::size_t ops = untraced.latency_ms.size();
  const Phase traced = closed_loop(0.0, ops, ops, 1, traced_op);

  const auto per_op_ms = [&](const char* name) {
    return tracer.total_ns(name) * 1e-6 / static_cast<double>(ops);
  };
  const double synth_ns = tracer.total_ns("gossip.run_algorithm");
  const double validate_ns = tracer.total_ns("model.validate_schedule");
  const double sim_ns = tracer.total_ns("sim.simulate");
  auto& m = report.metrics;
  m["graph.center_ms"] = per_op_ms("graph.find_center");
  m["graph.center_bfs"] = counts.center_bfs / static_cast<double>(ops);
  m["tree.build_ms"] = per_op_ms("tree.bfs_tree") + per_op_ms("tree.instance");
  m["gossip.synth_ms"] = synth_ns * 1e-6 / static_cast<double>(ops);
  m["gossip.synth_ns_per_tx"] = ratio(synth_ns, counts.tx);
  m["gossip.tx"] = counts.tx / static_cast<double>(ops);
  m["gossip.deliveries"] = counts.deliveries / static_cast<double>(ops);
  m["model.validate_ms"] = validate_ns * 1e-6 / static_cast<double>(ops);
  m["model.validate_ns_per_delivery"] = ratio(validate_ns, counts.deliveries);
  m["model.schedule_bytes_per_tx"] = ratio(counts.schedule_bytes, counts.tx);
  m["sim.run_ms"] = sim_ns * 1e-6 / static_cast<double>(ops);
  m["sim.ns_per_delivery"] = ratio(sim_ns, counts.deliveries);
  finish_trace(tracer, untraced, traced, args.trace_out, report);
}

}  // namespace perfbench
