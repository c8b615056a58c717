// Adversarial tests for the mg::fault layer: DropSet semantics, FaultPlan
// reproducibility, and the simulator's behaviour under deterministic drops,
// seeded probabilistic drops, crash-stop processors, and per-edge delivery
// delays — including the observability counters the fault path feeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "gossip/solve.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/network_sim.h"

namespace mg {
namespace {

/// Convenience: ConcurrentUpDown solution + tree network + initial labels.
struct SolvedRun {
  gossip::Solution sol;
  graph::Graph tree;
  std::vector<model::Message> initial;
};

/// Keeps the "send" and "receive" events a simulation streams.
struct RecordingSink final : obs::TraceSink {
  struct Event {
    std::string kind;
    std::uint64_t time = 0;
    std::uint64_t node = 0;
  };
  std::vector<Event> events;

  void on_event(const obs::TraceEvent& event) override {
    if (event.kind == "send" || event.kind == "receive") {
      events.push_back({std::string(event.kind), event.time, event.node});
    }
  }
};

SolvedRun make_run(const graph::Graph& g) {
  gossip::Solution sol = gossip::solve_gossip(g);
  graph::Graph tree = sol.instance.tree().as_graph();
  std::vector<model::Message> initial = sol.instance.initial();
  return {std::move(sol), std::move(tree), std::move(initial)};
}

TEST(DropSet, MembershipIsExact) {
  fault::DropSet set;
  EXPECT_TRUE(set.empty());
  set.insert(3, 7);
  set.insert(3, 7);  // duplicate collapses
  set.insert(0, 0);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(3, 7));
  EXPECT_TRUE(set.contains(0, 0));
  EXPECT_FALSE(set.contains(7, 3));  // round/sender are not interchangeable
  EXPECT_FALSE(set.contains(3, 8));
  EXPECT_FALSE(set.contains(4, 7));
}

TEST(FaultPlan, EmptyPlanPerturbsNothing) {
  const fault::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.drops(0, 0));
  EXPECT_EQ(plan.crash_round(5), fault::kNever);
  EXPECT_EQ(plan.extra_delay(1, 2), 0u);

  const SolvedRun run = make_run(graph::petersen());
  sim::SimOptions options;
  options.faults = &plan;
  const auto faulty = sim::simulate(run.tree, run.sol.schedule, run.initial,
                                    options);
  const auto clean = sim::simulate(run.tree, run.sol.schedule, run.initial);
  EXPECT_TRUE(faulty.completed);
  EXPECT_EQ(faulty.total_time, clean.total_time);
  EXPECT_EQ(faulty.knowledge, clean.knowledge);
  EXPECT_EQ(faulty.injected_drops, 0u);
}

TEST(FaultPlan, DeterministicDropsDegradeASimulation) {
  // Two (round, sender) drops on the paper's Fig. 4 network: both
  // transmissions are suppressed, their cascade skips later relays, and the
  // run cannot complete.
  const SolvedRun run = make_run(graph::fig4_network());
  const graph::Vertex root = run.sol.instance.tree().root();
  fault::FaultPlan plan;
  plan.drop(5, root).drop(7, 4);
  sim::SimOptions options;
  options.faults = &plan;
  const auto faulty =
      sim::simulate(run.tree, run.sol.schedule, run.initial, options);

  EXPECT_FALSE(faulty.completed);
  EXPECT_EQ(faulty.injected_drops, 2u);
  EXPECT_GT(faulty.skipped_sends, 0u);
}

TEST(FaultPlan, ProbabilisticDropsAreReproducibleAndSeedSensitive) {
  fault::FaultPlan a;
  a.drop_rate(0.3).seed(1);
  fault::FaultPlan b;
  b.drop_rate(0.3).seed(1);
  fault::FaultPlan c;
  c.drop_rate(0.3).seed(2);

  std::size_t dropped_a = 0;
  std::size_t dropped_b = 0;
  std::size_t dropped_c = 0;
  for (std::size_t round = 0; round < 200; ++round) {
    for (graph::Vertex sender = 0; sender < 50; ++sender) {
      // The verdict is a pure function of (seed, round, sender): asking
      // twice gives the same answer (no hidden stream state).
      EXPECT_EQ(a.drops(round, sender), a.drops(round, sender));
      dropped_a += a.drops(round, sender) ? 1u : 0u;
      dropped_b += b.drops(round, sender) ? 1u : 0u;
      dropped_c += c.drops(round, sender) ? 1u : 0u;
    }
  }
  EXPECT_EQ(dropped_a, dropped_b);
  EXPECT_NE(dropped_a, dropped_c);
  // 10000 coins at p = 0.3: the count concentrates near 3000.
  EXPECT_GT(dropped_a, 2500u);
  EXPECT_LT(dropped_a, 3500u);
}

TEST(FaultPlan, ProbabilisticDropsDegradeASimulation) {
  const SolvedRun run = make_run(graph::grid(5, 5));
  fault::FaultPlan plan;
  plan.drop_rate(0.25).seed(9);
  sim::SimOptions options;
  options.faults = &plan;
  const auto faulty =
      sim::simulate(run.tree, run.sol.schedule, run.initial, options);
  EXPECT_GT(faulty.injected_drops, 0u);
  EXPECT_FALSE(faulty.completed);

  // Same plan, same schedule: bit-identical degradation.
  const auto again =
      sim::simulate(run.tree, run.sol.schedule, run.initial, options);
  EXPECT_EQ(faulty.injected_drops, again.injected_drops);
  EXPECT_EQ(faulty.final_holds, again.final_holds);
}

TEST(FaultPlan, RoundOffsetShiftsTheCoinSequence) {
  // The same schedule replayed at a later absolute offset must see the
  // fabric's later coins, not a replay of round 0's.
  const SolvedRun run = make_run(graph::cycle(12));
  fault::FaultPlan plan;
  plan.drop_rate(0.3).seed(4);
  sim::SimOptions at_zero;
  at_zero.faults = &plan;
  sim::SimOptions at_hundred = at_zero;
  at_hundred.fault_round_offset = 100;
  const auto first =
      sim::simulate(run.tree, run.sol.schedule, run.initial, at_zero);
  const auto later =
      sim::simulate(run.tree, run.sol.schedule, run.initial, at_hundred);
  EXPECT_NE(first.final_holds, later.final_holds);
}

TEST(FaultPlan, CrashStopSilencesAProcessor) {
  const SolvedRun run = make_run(graph::fig4_network());
  const graph::Vertex root = run.sol.instance.tree().root();
  fault::FaultPlan plan;
  plan.crash(root, 3);

  RecordingSink events;
  sim::SimOptions options;
  options.faults = &plan;
  options.sink = &events;
  const auto faulty =
      sim::simulate(run.tree, run.sol.schedule, run.initial, options);

  EXPECT_FALSE(faulty.completed);
  EXPECT_GT(faulty.crashed_sends, 0u);
  EXPECT_FALSE(events.events.empty());
  for (const RecordingSink::Event& event : events.events) {
    EXPECT_TRUE(event.node != root || event.time < 3)
        << "crashed processor " << event.kind << " at t=" << event.time;
  }
  // The paper's schedules funnel everything through the root: killing it
  // early starves every other processor of remote messages.
  std::size_t starved = 0;
  for (const auto missing : faulty.missing) starved += missing > 0 ? 1u : 0u;
  EXPECT_GT(starved, 1u);
}

TEST(FaultPlan, AliveAtTracksCrashRounds) {
  fault::FaultPlan plan;
  plan.crash(2, 5).crash(4, 0);
  EXPECT_EQ(plan.crashes_before(1), 1u);
  EXPECT_EQ(plan.crashes_before(6), 2u);
  const auto at4 = plan.alive_at(4, 6);
  EXPECT_EQ(at4, (std::vector<char>{1, 1, 1, 1, 0, 1}));
  const auto at5 = plan.alive_at(5, 6);
  EXPECT_EQ(at5, (std::vector<char>{1, 1, 0, 1, 0, 1}));
}

TEST(FaultPlan, PerEdgeDelayPostponesDelivery) {
  // Two processors exchanging their messages: no forwarding depends on
  // the late arrivals, so a pure delay loses nothing — the run completes,
  // exactly `extra` time units later, and the knowledge curve keeps one
  // entry per time unit through the drain past the schedule's horizon.
  const SolvedRun run = make_run(graph::path(2));
  const auto clean = sim::simulate(run.tree, run.sol.schedule, run.initial);
  ASSERT_TRUE(clean.completed);

  fault::FaultPlan plan;
  plan.delay(0, 1, 3);
  EXPECT_EQ(plan.extra_delay(1, 0), 3u);  // undirected
  sim::SimOptions options;
  options.faults = &plan;
  const auto slow =
      sim::simulate(run.tree, run.sol.schedule, run.initial, options);

  EXPECT_TRUE(slow.completed);
  EXPECT_EQ(slow.total_time, clean.total_time + 3);
  EXPECT_EQ(slow.knowledge.size(), slow.total_time + 1);
  EXPECT_EQ(slow.knowledge.back(), clean.knowledge.back());
}

TEST(FaultPlan, DelayedForwardingCascades) {
  // On a line everything is store-and-forward: delaying the first hop of
  // the chain makes the downstream forwarder send before its input
  // arrives, which the simulator counts as a skipped send.
  const SolvedRun run = make_run(graph::path(5));
  fault::FaultPlan plan;
  plan.delay(0, 1, 6);
  sim::SimOptions options;
  options.faults = &plan;
  const auto slow =
      sim::simulate(run.tree, run.sol.schedule, run.initial, options);
  EXPECT_FALSE(slow.completed);
  EXPECT_GT(slow.skipped_sends, 0u);
}

#if MG_OBS_ENABLED
TEST(FaultPlan, ObservabilityCountersTrackFaults) {
  obs::Registry& registry = obs::Registry::global();
  registry.reset();

  const SolvedRun run = make_run(graph::petersen());
  fault::FaultPlan plan;
  plan.drop_rate(0.3).seed(11).crash(0, 4);
  sim::SimOptions options;
  options.faults = &plan;
  const auto faulty =
      sim::simulate(run.tree, run.sol.schedule, run.initial, options);

  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("fault.injected_drops"), faulty.injected_drops);
  EXPECT_GT(faulty.injected_drops, 0u);
  EXPECT_EQ(snap.counter("fault.crashes"), 1u);
  EXPECT_EQ(snap.counter("sim.dropped_transmissions"),
            faulty.injected_drops);
}
#endif  // MG_OBS_ENABLED

TEST(FaultPlan, CombinedModelsCompose) {
  // Drops + a crash + a delay in one plan: the simulator applies all
  // three without tripping contracts, and the loss accounting is disjoint
  // (a transmission is counted once: crash beats drop beats cascade).
  const SolvedRun run = make_run(graph::grid(4, 4));
  fault::FaultPlan plan;
  plan.drop_rate(0.15).seed(3).crash(1, 6).delay(0, 1, 2).delay(4, 5, 1);
  sim::SimOptions options;
  options.faults = &plan;
  const auto faulty =
      sim::simulate(run.tree, run.sol.schedule, run.initial, options);
  EXPECT_FALSE(faulty.completed);
  const std::size_t accounted = faulty.injected_drops +
                                faulty.crashed_sends + faulty.skipped_sends;
  EXPECT_LE(accounted, run.sol.schedule.transmission_count());
  EXPECT_GT(accounted, 0u);
}

}  // namespace
}  // namespace mg
