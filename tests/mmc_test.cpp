// Tests for the MultiMessage Multicasting substrate.
#include <gtest/gtest.h>

#include "mmc/greedy.h"
#include "mmc/problem.h"
#include "support/contracts.h"
#include "support/rng.h"

namespace mg::mmc {
namespace {

MmcInstance random_instance(graph::Vertex n, std::size_t messages,
                            std::size_t max_fanout, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<MmcMessage> list;
  for (std::size_t id = 0; id < messages; ++id) {
    MmcMessage message;
    message.id = static_cast<model::Message>(id);
    message.source = static_cast<graph::Vertex>(rng.below(n));
    const std::size_t fanout = 1 + rng.below(max_fanout);
    std::vector<graph::Vertex> all;
    for (graph::Vertex v = 0; v < n; ++v) {
      if (v != message.source) all.push_back(v);
    }
    rng.shuffle(all);
    message.destinations.assign(all.begin(),
                                all.begin() + static_cast<std::ptrdiff_t>(
                                                  std::min(fanout,
                                                           all.size())));
    std::sort(message.destinations.begin(), message.destinations.end());
    list.push_back(std::move(message));
  }
  return MmcInstance(n, std::move(list));
}

TEST(Mmc, DegreeComputation) {
  // Two messages from processor 0, one reception each at 1 and 2; and 2
  // receptions at processor 1 overall.
  std::vector<MmcMessage> messages;
  messages.push_back({0, 0, {1, 2}});
  messages.push_back({1, 0, {1}});
  const MmcInstance instance(3, std::move(messages));
  EXPECT_EQ(instance.degree(), 2u);  // 0 sends 2; 1 receives 2
}

TEST(Mmc, GossipRestrictionDegree) {
  const auto instance = MmcInstance::gossip_restriction(8);
  EXPECT_EQ(instance.degree(), 7u);
  EXPECT_EQ(instance.message_count(), 8u);
}

TEST(Mmc, InstanceValidation) {
  std::vector<MmcMessage> self;
  self.push_back({0, 1, {1}});
  EXPECT_THROW((void)MmcInstance(3, std::move(self)), ContractViolation);

  std::vector<MmcMessage> sparse_ids;
  sparse_ids.push_back({5, 0, {1}});
  EXPECT_THROW((void)MmcInstance(3, std::move(sparse_ids)),
               ContractViolation);
}

TEST(Mmc, GreedySolvesGossipRestrictionAtTheDegreeBound) {
  for (graph::Vertex n : {3u, 5u, 9u, 16u}) {
    const auto instance = MmcInstance::gossip_restriction(n);
    const auto schedule = greedy_mmc_schedule(instance);
    EXPECT_EQ(instance.check(schedule), "");
    EXPECT_EQ(schedule.total_time(), instance.degree()) << "n=" << n;
  }
}

TEST(Mmc, GreedySolvesRandomInstancesNearTheBound) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const auto instance = random_instance(10, 25, 6, seed);
    const auto schedule = greedy_mmc_schedule(instance);
    ASSERT_EQ(instance.check(schedule), "") << "seed=" << seed;
    EXPECT_GE(schedule.total_time(), instance.degree());
    EXPECT_LE(schedule.total_time(), 3 * instance.degree() + 2)
        << "seed=" << seed;
  }
}

TEST(Mmc, SingleMessageSingleRound) {
  std::vector<MmcMessage> messages;
  messages.push_back({0, 2, {0, 1, 3}});
  const MmcInstance instance(4, std::move(messages));
  const auto schedule = greedy_mmc_schedule(instance);
  EXPECT_EQ(instance.check(schedule), "");
  EXPECT_EQ(schedule.total_time(), 1u);
  EXPECT_EQ(schedule.transmission_count(), 1u);
}

TEST(Mmc, CheckCatchesMissingCoverage) {
  const auto instance = MmcInstance::gossip_restriction(4);
  model::ScheduleBuilder partial;
  partial.add(0, {0, 0, {1, 2, 3}});  // only message 0 delivered
  EXPECT_NE(instance.check(partial.build()), "");
}

TEST(Mmc, CheckCatchesRuleViolations) {
  const auto instance = MmcInstance::gossip_restriction(4);
  model::ScheduleBuilder bad;
  bad.add(0, {0, 0, {1}});
  bad.add(0, {1, 1, {2}});
  bad.add(0, {2, 2, {1}});  // processor 1 receives twice in round 0
  EXPECT_NE(instance.check(bad.build()).find("receives two"),
            std::string::npos);
}

TEST(Mmc, HeavyHubInstance) {
  // One processor originates many messages: the degree bound is its send
  // count; greedy must stay close.
  std::vector<MmcMessage> messages;
  for (std::size_t id = 0; id < 10; ++id) {
    messages.push_back({static_cast<model::Message>(id), 0,
                        {static_cast<graph::Vertex>(1 + id % 5)}});
  }
  const MmcInstance instance(6, std::move(messages));
  EXPECT_EQ(instance.degree(), 10u);
  const auto schedule = greedy_mmc_schedule(instance);
  EXPECT_EQ(instance.check(schedule), "");
  EXPECT_EQ(schedule.total_time(), 10u);  // the hub sends one per round
}

}  // namespace
}  // namespace mg::mmc
