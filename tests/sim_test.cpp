// Tests for the network simulator: execution, knowledge curves, traces and
// fault injection.
#include <gtest/gtest.h>

#include "fault/fault.h"
#include "gossip/concurrent_updown.h"
#include "gossip/solve.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "obs/trace.h"
#include "sim/network_sim.h"

namespace mg::sim {
namespace {

gossip::Solution solved_fig4() {
  return gossip::solve_gossip(graph::fig4_network());
}

TEST(Sim, ExecutesValidScheduleToCompletion) {
  const auto sol = solved_fig4();
  const auto result = simulate(sol.instance.tree().as_graph(), sol.schedule,
                               sol.instance.initial());
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.total_time, 19u);
  for (const auto m : result.missing) EXPECT_EQ(m, 0u);
}

TEST(Sim, CompletionTimesMatchValidator) {
  const auto sol = solved_fig4();
  const auto result = simulate(sol.instance.tree().as_graph(), sol.schedule,
                               sol.instance.initial());
  ASSERT_TRUE(sol.report.ok);
  EXPECT_EQ(result.completion_time, sol.report.completion_time);
}

TEST(Sim, KnowledgeCurveIsMonotoneAndSaturates) {
  const auto sol = solved_fig4();
  const auto result = simulate(sol.instance.tree().as_graph(), sol.schedule,
                               sol.instance.initial());
  ASSERT_FALSE(result.knowledge.empty());
  EXPECT_EQ(result.knowledge.front(), 16u);        // n pairs at time 0
  EXPECT_EQ(result.knowledge.back(), 16u * 16u);   // n^2 on completion
  for (std::size_t t = 1; t < result.knowledge.size(); ++t) {
    EXPECT_GE(result.knowledge[t], result.knowledge[t - 1]);
  }
}

TEST(Sim, TraceRecordsSendsAndReceives) {
  const auto sol = solved_fig4();
  obs::CountingTraceSink events;
  SimOptions options;
  options.sink = &events;
  const auto result = simulate(sol.instance.tree().as_graph(), sol.schedule,
                               sol.instance.initial(), options);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(events.sends(), sol.schedule.transmission_count());
  EXPECT_EQ(events.receives(), sol.schedule.delivery_count());
  EXPECT_EQ(events.total(), events.sends() + events.receives());
}

TEST(Sim, DroppedTransmissionBreaksCompletion) {
  const auto sol = solved_fig4();
  // Drop the root's very first downward relay: the network can no longer
  // complete (no retransmission in a fixed schedule).
  fault::FaultPlan plan;
  plan.drop(1, sol.instance.tree().root());
  SimOptions options;
  options.faults = &plan;
  const auto result = simulate(sol.instance.tree().as_graph(), sol.schedule,
                               sol.instance.initial(), options);
  EXPECT_FALSE(result.completed);
  std::size_t total_missing = 0;
  for (const auto m : result.missing) total_missing += m;
  EXPECT_GT(total_missing, 0u);
}

TEST(Sim, DropOfLeafUpSendStarvesEveryoneElse) {
  // Dropping a leaf's only up transmission leaves exactly its message
  // missing everywhere else.
  const auto g = graph::path(5);
  const auto sol = gossip::solve_gossip(g);
  const auto& labels = sol.instance.labels();
  // Find a leaf with lip (sends at t=0).
  graph::Vertex leaf = graph::kNoVertex;
  for (graph::Vertex v = 0; v < 5; ++v) {
    if (sol.instance.tree().is_leaf(v) && labels.lip_count(v) == 1) leaf = v;
  }
  ASSERT_NE(leaf, graph::kNoVertex);
  fault::FaultPlan plan;
  plan.drop(0, leaf);
  SimOptions options;
  options.faults = &plan;
  const auto result = simulate(sol.instance.tree().as_graph(), sol.schedule,
                               sol.instance.initial(), options);
  EXPECT_FALSE(result.completed);
  for (graph::Vertex v = 0; v < 5; ++v) {
    if (v == leaf) {
      EXPECT_EQ(result.missing[v], 0u);  // the leaf itself still learns all
    } else {
      EXPECT_GE(result.missing[v], 1u);  // others never see its message
    }
  }
}

TEST(Sim, EmptyScheduleOnSingleton) {
  const auto result = simulate(graph::Graph(1), model::Schedule());
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.total_time, 0u);
}

TEST(Sim, CustomInitialAssignment) {
  model::ScheduleBuilder s;
  s.add(0, {1, 0, {1}});
  s.add(0, {0, 1, {0}});
  const auto result = simulate(graph::path(2), s.build(), {1, 0});
  EXPECT_TRUE(result.completed);
}

}  // namespace
}  // namespace mg::sim
