// Tests for gossip completion / fault recovery: greedy set-gossip from
// arbitrary hold states, including states produced by faulty simulations.
#include <gtest/gtest.h>

#include "fault/fault.h"
#include "gossip/recovery.h"
#include "gossip/solve.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "model/validator.h"
#include "sim/network_sim.h"
#include "support/contracts.h"

namespace mg::gossip {
namespace {

std::vector<DynamicBitset> identity_holds(graph::Vertex n) {
  std::vector<DynamicBitset> holds(n, DynamicBitset(n));
  for (graph::Vertex v = 0; v < n; ++v) holds[v].set(v);
  return holds;
}

model::ValidationReport validate_completion(
    const graph::Graph& g, const std::vector<DynamicBitset>& holds,
    const model::Schedule& schedule) {
  return model::validate_schedule_general(
      g, schedule, holds_to_initial_sets(holds),
      holds.empty() ? 0 : holds[0].size());
}

TEST(Recovery, FromScratchIsAFullGossip) {
  // Starting from the identity hold state, greedy completion is itself a
  // (heuristic) gossip algorithm on the full network.
  for (const auto& g : {graph::petersen(), graph::grid(4, 4),
                        graph::cycle(9), graph::star(8)}) {
    const auto holds = identity_holds(g.vertex_count());
    const auto schedule = greedy_completion_schedule(g, holds);
    const auto report = validate_completion(g, holds, schedule);
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_GE(schedule.total_time(), g.vertex_count() - 1u);
  }
}

TEST(Recovery, AlmostCompleteStateFinishesFast) {
  // One processor missing one message: a single round fixes it.
  const auto g = graph::cycle(6);
  std::vector<DynamicBitset> holds(6, DynamicBitset(6));
  for (graph::Vertex v = 0; v < 6; ++v) {
    for (model::Message m = 0; m < 6; ++m) holds[v].set(m);
  }
  holds[3].reset(0);
  const auto schedule = greedy_completion_schedule(g, holds);
  EXPECT_TRUE(validate_completion(g, holds, schedule).ok);
  EXPECT_EQ(schedule.total_time(), 1u);
  EXPECT_EQ(schedule.transmission_count(), 1u);
}

TEST(Recovery, CompleteStateNeedsNothing) {
  const auto g = graph::path(4);
  std::vector<DynamicBitset> holds(4, DynamicBitset(4));
  for (graph::Vertex v = 0; v < 4; ++v) {
    for (model::Message m = 0; m < 4; ++m) holds[v].set(m);
  }
  EXPECT_EQ(greedy_completion_schedule(g, holds).total_time(), 0u);
}

TEST(Recovery, RepairsAFaultySimulation) {
  // End-to-end: run ConcurrentUpDown with an injected drop, then repair
  // from the degraded hold state on the ORIGINAL network.
  const auto g = graph::fig4_network();
  const auto sol = solve_gossip(g);
  fault::FaultPlan plan;
  plan.drop(5, sol.instance.tree().root()).drop(7, 4);
  sim::SimOptions faults;
  faults.faults = &plan;
  const auto run = sim::simulate(sol.instance.tree().as_graph(),
                                 sol.schedule, sol.instance.initial(),
                                 faults);
  ASSERT_FALSE(run.completed);

  const auto repair = greedy_completion_schedule(g, run.final_holds);
  const auto report = validate_completion(g, run.final_holds, repair);
  ASSERT_TRUE(report.ok) << report.error;
  // The repair is short compared to a full re-gossip.
  EXPECT_LT(repair.total_time(), sol.schedule.total_time());
}

TEST(Recovery, RepairUsesCrossEdgesOfTheNetwork) {
  // The repair runs on the original graph, so it may route around the
  // tree: from a state where only tree-leaf 3 misses message 15, the
  // repair takes a single round iff a neighbor of 3 knows message 15.
  const auto g = graph::fig4_network();
  std::vector<DynamicBitset> holds(16, DynamicBitset(16));
  for (graph::Vertex v = 0; v < 16; ++v) {
    for (model::Message m = 0; m < 16; ++m) holds[v].set(m);
  }
  holds[3].reset(15);
  const auto schedule = greedy_completion_schedule(g, holds);
  EXPECT_EQ(schedule.total_time(), 1u);
}

TEST(Recovery, UnknownMessageRejected) {
  const auto g = graph::path(3);
  std::vector<DynamicBitset> holds(3, DynamicBitset(3));
  holds[0].set(0);
  holds[1].set(1);  // message 2 known nowhere
  holds[2].set(1);
  EXPECT_THROW((void)greedy_completion_schedule(g, holds),
               ContractViolation);
}

TEST(Recovery, HoldsToInitialSetsRoundTrip) {
  std::vector<DynamicBitset> holds(2, DynamicBitset(3));
  holds[0].set(0);
  holds[0].set(2);
  holds[1].set(1);
  const auto sets = holds_to_initial_sets(holds);
  EXPECT_EQ(sets[0], (std::vector<model::Message>{0, 2}));
  EXPECT_EQ(sets[1], (std::vector<model::Message>{1}));
}

}  // namespace
}  // namespace mg::gossip
