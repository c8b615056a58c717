// Tests for the telephone (unicast) baseline: validity under the
// restricted model and the multicast advantage it demonstrates (§2).
#include <gtest/gtest.h>

#include "gossip/concurrent_updown.h"
#include "gossip/telephone.h"
#include "graph/generators.h"
#include "test_util.h"
#include "tree/spanning_tree.h"

namespace mg::gossip {
namespace {

TEST(Telephone, ScheduleIsUnicastAndValid) {
  const auto instance = Instance::from_network(graph::fig4_network());
  const auto schedule = telephone_gossip(instance);
  EXPECT_TRUE(schedule.is_telephone());
  test::expect_valid_gossip(instance, schedule, model::telephone_model());
}

TEST(Telephone, ValidAcrossFamilies) {
  for (const auto& family : test::families()) {
    for (graph::Vertex knob : {3u, 6u, 10u}) {
      const auto instance = Instance::from_network(family.make(knob));
      const auto schedule = telephone_gossip(instance);
      const auto report = test::expect_valid_gossip(instance, schedule,
                                                    model::telephone_model());
      ASSERT_TRUE(report.ok) << family.name << " knob=" << knob;
    }
  }
}

TEST(Telephone, MulticastBeatsTelephoneOnStars) {
  // On a star the hub must serve each leaf separately under the telephone
  // model: Theta(n^2) vs n + 1 for multicast.
  const auto instance = Instance::from_network(graph::star(12));
  const auto phone = telephone_gossip(instance).total_time();
  const auto multi = concurrent_updown(instance).total_time();
  EXPECT_EQ(multi, 13u);  // n + r = 12 + 1
  EXPECT_GE(phone, 2u * multi);
}

TEST(Telephone, AtLeastLoadBound) {
  for (const auto& family : test::families()) {
    const auto instance = Instance::from_network(family.make(8));
    EXPECT_GE(telephone_gossip(instance).total_time(),
              telephone_tree_load_bound(instance))
        << family.name;
  }
}

TEST(Telephone, OnAPathTelephoneIsCompetitive) {
  // Degree <= 2 means multicast buys little: the telephone time stays
  // within a small constant of n + r.
  const auto instance = Instance::from_network(graph::path(21));
  const auto phone = telephone_gossip(instance).total_time();
  EXPECT_LE(phone, 3 * (21 + instance.radius()));
}

TEST(Telephone, LoadBoundStar) {
  const auto instance = Instance::from_network(graph::star(10));
  // Hub owes each of 9 children the 9 messages outside their subtree:
  EXPECT_EQ(telephone_tree_load_bound(instance), 81u);
}

TEST(Telephone, TrivialSizes) {
  const auto one =
      Instance(tree::RootedTree::from_parents(0, {graph::kNoVertex}));
  EXPECT_EQ(telephone_gossip(one).total_time(), 0u);
}

}  // namespace
}  // namespace mg::gossip
