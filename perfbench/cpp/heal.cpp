// `heal`: one caller runs the §4 online rule on dist::ActorRuntime (serial,
// recovery on) over seeded random geometric networks with n = 256, each
// run under its own FaultPlan: 1% i.i.d. drops plus a crash-stop of the
// tree root at mid-horizon.  The only workload that runs the `dist` and `fault` layers;
// an op is one run to component closure.
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/runtime.h"
#include "fault/fault.h"
#include "gossip/instance.h"
#include "gossip/solve.h"
#include "inputs.h"
#include "obs/registry.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace mg;

constexpr graph::Vertex kN = 256;
constexpr std::size_t kNetworks = 20;
constexpr std::size_t kPlansPerNetwork = 2;
constexpr double kDropRate = 0.01;
constexpr double kTailQuantile = 0.75;
// Runs measure whole cycles over every (network, plan) pair: 40 ops, so
// 10 lie beyond p75.
constexpr std::size_t kCycle = kNetworks * kPlansPerNetwork;

/// One network with its tree and fault plans.
struct Target {
  Network net;
  std::unique_ptr<gossip::Instance> instance;  ///< the §3.1 tree
  std::size_t horizon = 0;                     ///< n + r
  std::vector<fault::FaultPlan> plans;
};

/// Many networks, because one network's structure moves every figure by
/// tens of percent: averaging over twenty keeps seeds comparable.
std::vector<Target> make_targets(std::uint64_t seed) {
  Rand rand(derive_seed(seed, "heal"));
  const double log_n = std::log(static_cast<double>(kN));
  std::vector<Target> targets(kNetworks);
  for (Target& t : targets) {
    t.net = {"geometric",
             random_geometric(kN, std::sqrt(2.0 * log_n / (3.14159 * kN)),
                              rand)};
    t.net.radius = reference_radius(t.net.g);
    t.instance = std::make_unique<gossip::Instance>(
        gossip::solve_gossip(t.net.g).instance);
    t.horizon = kN + t.net.radius;
    // Every plan crashes the tree root, which every message passes
    // through, and differs only in its drops.  A random victim would make
    // the work, and with it the peak memory, hinge on how close to the root
    // the draw lands.
    for (std::size_t p = 0; p < kPlansPerNetwork; ++p) {
      fault::FaultPlan plan;
      plan.drop_rate(kDropRate)
          .seed(rand.next())
          .crash(t.instance->tree().root(), t.horizon / 2);
      t.plans.push_back(std::move(plan));
    }
  }
  return targets;
}

/// What one run reports, copied out before the report is released.
struct Output {
  bool recovered = false;
  std::size_t recovery_rounds = 0;
  std::size_t messages = 0;
  std::size_t control_messages = 0;
  double coverage = 0.0;
  std::size_t injected_drops = 0;
  std::size_t crashed_sends = 0;
  std::size_t skipped_sends = 0;
  std::size_t lost_receives = 0;
};

Output run_once(const Target& target, const fault::FaultPlan& plan, bool recover,
                Tracer* tracer, std::uint64_t op) {
  Span span(tracer, 0, "op.heal", op);
  dist::RuntimeOptions options;
  options.faults = &plan;
  options.recover = recover;
  auto runtime = [&] {
    Span s(tracer, 0, "dist.setup", op);
    auto rt = std::make_unique<dist::ActorRuntime>(*target.instance,
                                                   target.net.g, options);
    rt->use_online_rule();
    return rt;
  }();
  Output out;
  {
    Span s(tracer, 0, "dist.run", op);
    const dist::RunReport r = runtime->run(target.horizon);
    out = {r.recovered,        r.recovery_rounds, r.messages,
           r.control_messages, r.coverage,        r.injected_drops,
           r.crashed_sends,    r.skipped_sends,   r.lost_receives};
  }
  {
    Span s(tracer, 0, "dist.release", op);
    runtime.reset();
  }
  return out;
}

std::string check(const Output& out) {
  return out.recovered ? std::string()
                       : "heal: live actors did not reach component closure";
}

bool selftest(const Target& target, std::string& note) {
  const fault::FaultPlan& plan = target.plans[0];
  const bool good = check(run_once(target, plan, true, nullptr, 0)).empty();
  const bool caught =
      !check(run_once(target, plan, false, nullptr, 0)).empty();
  note = std::string("heal checker: recovered run ") +
         (good ? "passes" : "FAILS") + ", run without recovery " +
         (caught ? "counted" : "MISSED");
  return good && caught;
}

}  // namespace

void run_heal(const Args& args, Report& report) {
  std::vector<Target> targets;
  report.metrics["setup_s"] = median_setup_seconds(
      3, [&] { targets.clear(); }, [&] { targets = make_targets(args.seed); });
  report.selftest_ok = selftest(targets[0], report.selftest_note);

  Ledger& ledger = report.ledger;
  Tracer* tracer = nullptr;
  Output sum;
  const auto op = [&](std::size_t i, double& rounds_ratio) {
    const Target& t = targets[i % kNetworks];
    const fault::FaultPlan& plan = t.plans[(i / kNetworks) % kPlansPerNetwork];
    const std::int64_t start = now_ns();
    const Output out = run_once(t, plan, true, tracer, i);
    const double ms = static_cast<double>(now_ns() - start) * 1e-6;
    ledger.op(check(out));
    rounds_ratio = ratio(static_cast<double>(t.horizon + out.recovery_rounds),
                         static_cast<double>(t.horizon));
    sum.recovery_rounds += out.recovery_rounds;
    sum.messages += out.messages;
    sum.control_messages += out.control_messages;
    sum.coverage += out.coverage;
    sum.injected_drops += out.injected_drops;
    sum.crashed_sends += out.crashed_sends;
    sum.skipped_sends += out.skipped_sends;
    sum.lost_receives += out.lost_receives;
    return ms;
  };

  if (!args.trace) {
    summarize(closed_loop(args.seconds, kCycle, SIZE_MAX, kCycle, op),
              kTailQuantile, report);
    return;
  }

  const Phase untraced =
      closed_loop(args.seconds / 2, kNetworks, SIZE_MAX, kNetworks, op);
  const std::size_t ops = untraced.latency_ms.size();
  Tracer trace_store(1);
  tracer = &trace_store;
  sum = Output{};
  obs::Registry& registry = obs::Registry::global();
  registry.reset();
  const Phase traced = closed_loop(0.0, ops, ops, 1, op);
  const obs::HistogramSnapshot rounds =
      registry.snapshot().histogram("dist.round_ns");

  const auto runs = static_cast<double>(ops);
  auto& m = report.metrics;
  m["dist.round_us"] =
      ratio(static_cast<double>(rounds.sum) * 1e-3,
            static_cast<double>(rounds.count));
  m["dist.recovery_rounds"] = static_cast<double>(sum.recovery_rounds) / runs;
  m["dist.control_per_data"] =
      ratio(static_cast<double>(sum.control_messages),
            static_cast<double>(sum.messages));
  m["dist.coverage"] = sum.coverage / runs;
  m["fault.injected_drops"] = static_cast<double>(sum.injected_drops) / runs;
  m["fault.crashed_sends"] = static_cast<double>(sum.crashed_sends) / runs;
  m["fault.skipped_sends"] = static_cast<double>(sum.skipped_sends) / runs;
  m["fault.lost_receives"] = static_cast<double>(sum.lost_receives) / runs;
  finish_trace(trace_store, untraced, traced, args.trace_out, report);
}

}  // namespace perfbench
