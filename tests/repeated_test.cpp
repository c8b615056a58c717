// Tests for repeated/pipelined gossiping (§4's many-gossips motivation).
#include <gtest/gtest.h>

#include "gossip/concurrent_updown.h"
#include "gossip/repeated.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "support/contracts.h"
#include "test_util.h"

namespace mg::gossip {
namespace {

model::ValidationReport validate_repeated(const Instance& instance,
                                          const RepeatedGossipResult& r) {
  return model::validate_schedule_general(
      instance.tree().as_graph(), r.schedule, r.initial_sets,
      r.message_count);
}

TEST(Repeated, SingleCopyMatchesPlainGossip) {
  const auto instance = Instance::from_network(graph::fig4_network());
  const auto result = repeated_gossip(instance, 1, /*pipelined=*/false);
  EXPECT_EQ(result.total_time, 19u);
  EXPECT_TRUE(validate_repeated(instance, result).ok);
}

TEST(Repeated, BackToBackCopiesAreValid) {
  const auto instance = Instance::from_network(graph::grid(3, 4));
  const auto result = repeated_gossip(instance, 4, /*pipelined=*/false);
  const auto report = validate_repeated(instance, result);
  EXPECT_TRUE(report.ok) << report.error;
  const std::size_t single = 12u + instance.radius();
  EXPECT_EQ(result.period, single);
  EXPECT_EQ(result.total_time, 3 * single + single);
}

TEST(Repeated, PipelinedCopiesAreValidAndFaster) {
  for (const auto& family : test::families()) {
    const auto instance = Instance::from_network(family.make(7));
    const auto plain = repeated_gossip(instance, 5, false);
    const auto packed = repeated_gossip(instance, 5, true);
    const auto report = validate_repeated(instance, packed);
    ASSERT_TRUE(report.ok) << family.name << ": " << report.error;
    EXPECT_LE(packed.period, plain.period) << family.name;
    EXPECT_LE(packed.total_time, plain.total_time) << family.name;
    EXPECT_LT(packed.amortized_time,
              static_cast<double>(plain.period) + 1.0)
        << family.name;
  }
}

TEST(Repeated, PipelinePeriodLowerBound) {
  // Every processor must receive n - 1 messages per gossip, so no period
  // can be below n - 1.
  const auto instance = Instance::from_network(graph::path(9));
  const auto base = concurrent_updown(instance);
  EXPECT_GE(pipeline_period(9, base), 8u);
}

TEST(Repeated, PeriodOfEmptySchedule) {
  EXPECT_EQ(pipeline_period(3, model::Schedule()), 1u);
}

TEST(Repeated, AmortizedTimeApproachesPeriod) {
  const auto instance = Instance::from_network(graph::star(10));
  const auto result = repeated_gossip(instance, 20, true);
  EXPECT_TRUE(validate_repeated(instance, result).ok);
  // total = (copies-1)*period + full length; amortized -> period.
  EXPECT_NEAR(result.amortized_time, static_cast<double>(result.period),
              static_cast<double>(11 + instance.radius()) / 20.0 + 1.0);
}

TEST(Repeated, MessageIdsPartitionPerCopy) {
  const auto instance = Instance::from_network(graph::path(5));
  const auto result = repeated_gossip(instance, 3, true);
  std::vector<char> seen(result.message_count, 0);
  for (model::RoundCursor round(result.schedule); round.next();) {
    for (const auto& tx : round.txs()) {
      ASSERT_LT(tx.message, result.message_count);
      seen[tx.message] = 1;
    }
  }
  // Every copy's non-root messages circulate (all n messages appear since
  // n >= 2 means every message must move at least once).
  for (std::size_t m = 0; m < result.message_count; ++m) {
    EXPECT_TRUE(seen[m]) << m;
  }
}

TEST(Repeated, RejectsZeroCopies) {
  const auto instance = Instance::from_network(graph::path(3));
  EXPECT_THROW((void)repeated_gossip(instance, 0, true), ContractViolation);
}

}  // namespace
}  // namespace mg::gossip
