// Tests for procedure Simple (Lemma 1): feasibility, completion and the
// exact 2n + r - 3 total communication time.
#include <gtest/gtest.h>

#include "gossip/simple.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "support/bitset.h"
#include "support/rng.h"
#include "test_util.h"
#include "tree/spanning_tree.h"

namespace mg::gossip {
namespace {

TEST(Simple, Fig4ExactTime) {
  const auto instance = Instance::from_network(graph::fig4_network());
  const auto schedule = simple_gossip(instance);
  test::expect_valid_gossip(instance, schedule);
  EXPECT_EQ(schedule.total_time(), 2u * 16 + 3 - 3);
}

TEST(Simple, RootReceivesMessageMAtTimeM) {
  // "message i >= 1 is received by the root at time i."
  const auto instance = Instance::from_network(graph::fig4_network());
  const auto schedule = simple_gossip(instance);
  const auto root = instance.tree().root();
  std::vector<std::size_t> arrival(16, 0);
  for (model::RoundCursor round(schedule); round.next();) {
    const std::size_t t = round.index();
    for (const auto& tx : round.txs()) {
      for (graph::Vertex r : schedule.receivers(tx)) {
        if (r == root && arrival[tx.message] == 0) {
          arrival[tx.message] = t + 1;
        }
      }
    }
  }
  for (model::Message m = 1; m < 16; ++m) EXPECT_EQ(arrival[m], m) << m;
}

TEST(Simple, DownPhaseStartsAtNMinusTwo) {
  // "At time n-2, message 0 is sent from the root to all its children."
  const auto instance = Instance::from_network(graph::fig4_network());
  const auto schedule = simple_gossip(instance);
  const auto root = instance.tree().root();
  bool found = false;
  const auto rounds = test::rounds_of(schedule);
  for (const auto& tx : rounds.at(14)) {  // n - 2 == 14
    if (tx.sender == root && tx.message == 0) {
      found = true;
      EXPECT_EQ(tx.count, instance.tree().children(root).size());
    }
  }
  EXPECT_TRUE(found);
}

TEST(Simple, LemmaOneTimeAcrossFamilies) {
  for (const auto& family : test::families()) {
    for (graph::Vertex knob : {3u, 5u, 9u}) {
      const auto g = family.make(knob);
      const auto instance = Instance::from_network(g);
      const auto schedule = simple_gossip(instance);
      const auto report = test::expect_valid_gossip(instance, schedule);
      ASSERT_TRUE(report.ok) << family.name;
      EXPECT_EQ(schedule.total_time(),
                simple_total_time(g.vertex_count(), instance.radius()))
          << family.name << " knob=" << knob;
    }
  }
}

TEST(Simple, TrivialSizes) {
  EXPECT_EQ(simple_gossip(Instance(tree::RootedTree::from_parents(
                              0, {graph::kNoVertex})))
                .total_time(),
            0u);
  const auto two = Instance(
      tree::RootedTree::from_parents(0, {graph::kNoVertex, 0}));
  const auto schedule = simple_gossip(two);
  EXPECT_EQ(schedule.total_time(), 2u);  // 2n + r - 3 = 2
  test::expect_valid_gossip(two, schedule);
}

TEST(Simple, ClosedFormHelper) {
  EXPECT_EQ(simple_total_time(1, 0), 0u);
  EXPECT_EQ(simple_total_time(16, 3), 32u);
  EXPECT_EQ(simple_total_time(7, 3), 14u);
}

TEST(Simple, WorksOnDeepChain) {
  const auto instance =
      Instance(tree::root_tree_graph(graph::path(31), 0));  // height 30
  const auto schedule = simple_gossip(instance);
  test::expect_valid_gossip(instance, schedule);
  EXPECT_EQ(schedule.total_time(), 2u * 31 + 30 - 3);
}

TEST(Simple, RedundantFinalSlotTrimsAway) {
  // Regression pin for the PR 1 differential-test finding: Simple's down
  // phase runs on fixed slots through 2n + r - 3 by definition, so when
  // the unique deepest leaf carries the last DFS label the final slot
  // re-delivers a message its receiver already holds.  On this seeded
  // tree the redundancy is real: every final-round transmission is
  // removable, Schedule::trim() then drops the emptied round, and the
  // shorter schedule still completes — strictly under the Lemma 1 time.
  Rng rng(0xd1ffULL * 45);
  const auto g = graph::random_tree(5, rng);
  const auto instance = Instance::from_network(g);
  const auto schedule = simple_gossip(instance);
  const std::size_t makespan = schedule.total_time();
  const std::size_t n = instance.vertex_count();
  ASSERT_EQ(makespan, simple_total_time(n, instance.radius()));
  ASSERT_GE(makespan, 1u);

  // Replay knowledge through the next-to-last round.
  const auto initial = instance.initial();
  BitMatrix holds(n, n);
  for (graph::Vertex v = 0; v < n; ++v) holds.set(v, initial[v]);
  const auto rounds = test::rounds_of(schedule);
  for (std::size_t t = 0; t + 1 < makespan; ++t) {
    for (const auto& tx : rounds[t]) {
      for (const graph::Vertex r : schedule.receivers(tx)) {
        holds.set(r, tx.message);
      }
    }
  }

  // The pinned finding: the whole final round is redundant.
  for (const auto& tx : rounds[makespan - 1]) {
    for (const graph::Vertex r : schedule.receivers(tx)) {
      EXPECT_TRUE(holds.test(r, tx.message))
          << "final slot delivers something new; pin is stale";
    }
  }

  // Rebuild without it: one round shorter, and still valid.
  model::ScheduleBuilder builder;
  for (std::size_t t = 0; t + 1 < makespan; ++t) {
    for (const auto& tx : rounds[t]) {
      builder.add(t, tx.message, tx.sender, schedule.receivers(tx));
    }
  }
  const model::Schedule trimmed = builder.build();
  EXPECT_EQ(trimmed.round_count(), makespan - 1);
  EXPECT_LT(trimmed.total_time(), makespan);
  EXPECT_LE(trimmed.total_time(), simple_total_time(n, instance.radius()));
  test::expect_valid_gossip(instance, trimmed);
}

TEST(Simple, UnicastUpMulticastDown) {
  const auto instance = Instance::from_network(graph::star(8));
  const auto schedule = simple_gossip(instance);
  EXPECT_EQ(schedule.max_fanout(), 7u);  // root multicasts to all children
}

}  // namespace
}  // namespace mg::gossip
