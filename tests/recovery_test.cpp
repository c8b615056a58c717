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

BitMatrix identity_holds(graph::Vertex n) {
  BitMatrix holds(n, n);
  for (graph::Vertex v = 0; v < n; ++v) holds.set(v, v);
  return holds;
}

/// Every processor holds every one of n messages.
BitMatrix full_holds(graph::Vertex n) {
  BitMatrix holds(n, n);
  for (graph::Vertex v = 0; v < n; ++v) {
    for (model::Message m = 0; m < n; ++m) holds.set(v, m);
  }
  return holds;
}

model::ValidationReport validate_completion(const graph::Graph& g,
                                            const BitMatrix& holds,
                                            const model::Schedule& schedule) {
  return model::validate_schedule_general(
      g, schedule, holds_to_initial_sets(holds), holds.bits());
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
  BitMatrix holds = full_holds(6);
  holds.reset(3, 0);
  const auto schedule = greedy_completion_schedule(g, holds);
  EXPECT_TRUE(validate_completion(g, holds, schedule).ok);
  EXPECT_EQ(schedule.total_time(), 1u);
  EXPECT_EQ(schedule.transmission_count(), 1u);
}

TEST(Recovery, CompleteStateNeedsNothing) {
  const auto g = graph::path(4);
  EXPECT_EQ(greedy_completion_schedule(g, full_holds(4)).total_time(), 0u);
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
  BitMatrix holds = full_holds(16);
  holds.reset(3, 15);
  const auto schedule = greedy_completion_schedule(g, holds);
  EXPECT_EQ(schedule.total_time(), 1u);
}

TEST(Recovery, UnknownMessageRejected) {
  const auto g = graph::path(3);
  BitMatrix holds(3, 3);
  holds.set(0, 0);
  holds.set(1, 1);  // message 2 known nowhere
  holds.set(2, 1);
  EXPECT_THROW((void)greedy_completion_schedule(g, holds),
               ContractViolation);
}

TEST(Recovery, HoldsToInitialSetsRoundTrip) {
  BitMatrix holds(2, 3);
  holds.set(0, 0);
  holds.set(0, 2);
  holds.set(1, 1);
  const auto sets = holds_to_initial_sets(holds);
  EXPECT_EQ(sets[0], (std::vector<model::Message>{0, 2}));
  EXPECT_EQ(sets[1], (std::vector<model::Message>{1}));
}

TEST(Recovery, HoldMatricesNeedOneRowPerVertex) {
  const auto g = graph::cycle(5);
  const BitMatrix short_holds = identity_holds(4);
  const model::Schedule empty;
  EXPECT_THROW((void)sim::simulate_from_holds(g, empty, short_holds),
               ContractViolation);
  EXPECT_THROW((void)partial_completion_schedule(g, short_holds),
               ContractViolation);
}

TEST(Recovery, NoSurvivorIsNeitherCompleteNorCovered) {
  // Every processor of a 3x3 grid crashes at round 0: nothing is live, so
  // the run is not complete and covers nothing, while every (absent)
  // survivor trivially holds its component's closure.
  const auto g = graph::grid(3, 3);
  fault::FaultPlan plan;
  for (graph::Vertex v = 0; v < 9; ++v) plan.crash(v, 0);
  const RecoveryOutcome outcome = solve_with_recovery(g, plan);
  EXPECT_FALSE(outcome.complete);
  EXPECT_TRUE(outcome.recovered);
  EXPECT_EQ(outcome.coverage, 0.0);
  EXPECT_EQ(outcome.crashed.size(), 9u);
}

}  // namespace
}  // namespace mg::gossip
