// Tests for schedule-anatomy statistics.
#include <gtest/gtest.h>

#include "gossip/concurrent_updown.h"
#include "gossip/solve.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "model/stats.h"

namespace mg::model {
namespace {

TEST(Stats, EmptySchedule) {
  const auto stats = compute_stats(5, Schedule());
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(stats.transmissions, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_fanout, 0.0);
  EXPECT_DOUBLE_EQ(stats.receive_utilization, 0.0);
}

TEST(Stats, HandBuiltCounts) {
  ScheduleBuilder s;
  s.add(0, {0, 0, {1, 2}});
  s.add(1, {1, 1, {0}});
  const auto stats = compute_stats(3, s.build());
  EXPECT_EQ(stats.rounds, 2u);
  EXPECT_EQ(stats.transmissions, 2u);
  EXPECT_EQ(stats.deliveries, 3u);
  EXPECT_EQ(stats.max_fanout, 2u);
  EXPECT_DOUBLE_EQ(stats.mean_fanout, 1.5);
  EXPECT_EQ(stats.sends_per_processor, (std::vector<std::size_t>{1, 1, 0}));
  EXPECT_EQ(stats.receives_per_processor,
            (std::vector<std::size_t>{1, 1, 1}));
  ASSERT_EQ(stats.per_round.size(), 2u);
  EXPECT_EQ(stats.per_round[0].senders, 1u);
  EXPECT_EQ(stats.per_round[0].deliveries, 2u);
  // Utilization: 3 deliveries / (3 processors * 2 rounds).
  EXPECT_DOUBLE_EQ(stats.receive_utilization, 0.5);
  ASSERT_GE(stats.fanout_histogram.size(), 3u);
  EXPECT_EQ(stats.fanout_histogram[1], 1u);
  EXPECT_EQ(stats.fanout_histogram[2], 1u);
}

TEST(Stats, GossipReceiveCountsAreExact) {
  // In a complete gossip every processor receives exactly n - 1 NEW
  // messages; ConcurrentUpDown delivers no duplicates to a vertex except
  // b-messages going down (skipped), so receive counts equal n - 1.
  const auto sol = gossip::solve_gossip(graph::fig4_network());
  const auto stats =
      compute_stats(sol.instance.vertex_count(), sol.schedule);
  for (graph::Vertex v = 0; v < 16; ++v) {
    EXPECT_EQ(stats.receives_per_processor[v], 15u) << v;
  }
}

TEST(Stats, ReceiveUtilizationBelowOne) {
  const auto sol = gossip::solve_gossip(graph::grid(4, 5));
  const auto stats =
      compute_stats(sol.instance.vertex_count(), sol.schedule);
  EXPECT_GT(stats.receive_utilization, 0.0);
  EXPECT_LE(stats.receive_utilization, 1.0);
  EXPECT_LE(stats.send_utilization, 1.0);
}

TEST(Stats, StarGossipFanout) {
  const auto sol = gossip::solve_gossip(graph::star(9));
  const auto stats = compute_stats(9, sol.schedule);
  EXPECT_EQ(stats.max_fanout, 8u);
  // The root's multicasts dominate: mean fanout well above 1.
  EXPECT_GT(stats.mean_fanout, 2.0);
}

TEST(Stats, PerRoundRowsCoverEveryRound) {
  const auto sol = gossip::solve_gossip(graph::path(9));
  const auto stats = compute_stats(9, sol.schedule);
  EXPECT_EQ(stats.per_round.size(), sol.schedule.round_count());
  std::size_t total = 0;
  for (const auto& round : stats.per_round) total += round.deliveries;
  EXPECT_EQ(total, stats.deliveries);
}

}  // namespace
}  // namespace mg::model
