// Tests for the communication-schedule data type (§1's formalism): the flat
// round-offset layout and the builder every schedule comes out of.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "model/schedule.h"
#include "support/contracts.h"

namespace mg::model {
namespace {

std::vector<Vertex> receivers_of(const Schedule& s, const Tx& tx) {
  const auto d = s.receivers(tx);
  return {d.begin(), d.end()};
}

/// Builds a schedule from (round, tuple) pairs in the given order.
Schedule build(const std::vector<std::pair<std::size_t, Transmission>>& adds) {
  ScheduleBuilder builder;
  for (const auto& [t, tx] : adds) builder.add(t, tx);
  return builder.build();
}

TEST(Schedule, EmptyScheduleBasics) {
  Schedule s;
  EXPECT_EQ(s.round_count(), 0u);
  EXPECT_EQ(s.total_time(), 0u);
  EXPECT_EQ(s.transmission_count(), 0u);
  EXPECT_EQ(s.delivery_count(), 0u);
  EXPECT_EQ(s.max_fanout(), 0u);
  EXPECT_TRUE(s.is_telephone());
  EXPECT_EQ(ScheduleBuilder{}.build().round_count(), 0u);
}

TEST(ScheduleBuilder, ShuffledRoundsLandInRoundOrder) {
  // Rounds arrive out of order; inside each round the insertion order is
  // kept, and every tuple keeps its own receiver run.
  const Schedule s = build({{3, {7, 1, {2, 5}}},
                            {0, {4, 0, {1, 2, 3}}},
                            {3, {8, 6, {0}}},
                            {0, {5, 9, {4}}},
                            {1, {6, 2, {0, 3}}},
                            {3, {9, 3, {4, 7, 8}}}});
  ASSERT_EQ(s.round_count(), 4u);
  EXPECT_EQ(s.total_time(), 4u);  // last sent at 3, received at 4
  EXPECT_EQ(s.transmission_count(), 6u);
  EXPECT_EQ(s.delivery_count(), 12u);
  EXPECT_TRUE(s.round(2).empty());

  ASSERT_EQ(s.round(0).size(), 2u);
  EXPECT_EQ(s.round(0)[0].sender, 0u);
  EXPECT_EQ(receivers_of(s, s.round(0)[0]), (std::vector<Vertex>{1, 2, 3}));
  EXPECT_EQ(s.round(0)[1].sender, 9u);
  EXPECT_EQ(receivers_of(s, s.round(0)[1]), (std::vector<Vertex>{4}));

  ASSERT_EQ(s.round(1).size(), 1u);
  EXPECT_EQ(s.round(1)[0].message, 6u);
  EXPECT_EQ(receivers_of(s, s.round(1)[0]), (std::vector<Vertex>{0, 3}));

  ASSERT_EQ(s.round(3).size(), 3u);
  EXPECT_EQ(s.round(3)[0].sender, 1u);
  EXPECT_EQ(s.round(3)[1].sender, 6u);
  EXPECT_EQ(s.round(3)[2].sender, 3u);
  EXPECT_EQ(receivers_of(s, s.round(3)[0]), (std::vector<Vertex>{2, 5}));
  EXPECT_EQ(receivers_of(s, s.round(3)[2]), (std::vector<Vertex>{4, 7, 8}));
}

TEST(ScheduleBuilder, ReceiverSetMustBeSortedUniqueNonEmpty) {
  ScheduleBuilder staged;
  EXPECT_THROW(staged.add(0, {0, 0, {}}), ContractViolation);
  EXPECT_THROW(staged.add(0, {0, 0, {3, 1}}), ContractViolation);
  EXPECT_THROW(staged.add(0, {0, 0, {1, 1}}), ContractViolation);

  ScheduleBuilder sized;
  sized.count(0, 2);
  sized.allocate();
  EXPECT_THROW(sized.add(0, {0, 0, {3, 1}}), ContractViolation);
  EXPECT_THROW(sized.add(0, {0, 0, {1, 1}}), ContractViolation);
}

TEST(ScheduleBuilder, RoundIndexMustFitInThirtyTwoBits) {
  ScheduleBuilder builder;
  EXPECT_THROW(builder.add(std::size_t{1} << 32, {0, 0, {1}}),
               ContractViolation);
  EXPECT_THROW(builder.count(std::size_t{1} << 32, 1), ContractViolation);
}

TEST(ScheduleBuilder, SizedUseMatchesStagedUse) {
  const std::vector<std::pair<std::size_t, Transmission>> adds = {
      {2, {0, 4, {1, 3}}}, {0, {1, 0, {2}}}, {2, {2, 5, {6}}},
      {0, {3, 1, {0, 4, 5}}}};
  ScheduleBuilder sized;
  for (const auto& [t, tx] : adds) sized.count(t, tx.receivers.size());
  sized.allocate();
  for (const auto& [t, tx] : adds) sized.add(t, tx);
  const Schedule a = sized.build();
  const Schedule b = build(adds);
  ASSERT_EQ(a.round_count(), b.round_count());
  EXPECT_EQ(a.to_string(), b.to_string());  // same tuples, same order
  EXPECT_EQ(a.delivery_count(), 7u);
}

TEST(ScheduleBuilder, SizedUseRejectsUncountedTuples) {
  ScheduleBuilder extra;
  extra.count(0, 1);
  extra.allocate();
  extra.add(0, {0, 0, {1}});
  EXPECT_THROW(extra.add(0, {1, 1, {0}}), ContractViolation);  // 2nd tuple
  EXPECT_THROW(extra.add(1, {1, 1, {0}}), ContractViolation);  // new round

  ScheduleBuilder wide;
  wide.count(0, 1);
  wide.allocate();
  EXPECT_THROW(wide.add(0, {0, 0, {1, 2}}), ContractViolation);

  ScheduleBuilder missing;
  missing.count(0, 1);
  missing.count(1, 1);
  missing.allocate();
  missing.add(1, {0, 0, {1}});
  EXPECT_THROW((void)missing.build(), ContractViolation);
}

TEST(Schedule, AppendAtOverlappingOffset) {
  // The tail's round t lands at offset + t after the tuples already there.
  Schedule s = build({{0, {0, 0, {1}}}, {1, {1, 1, {0, 2}}}});
  const Schedule tail = build({{0, {2, 2, {1}}}, {1, {0, 1, {2}}},
                               {2, {1, 2, {1}}}});
  s.append(tail, 1);
  ASSERT_EQ(s.round_count(), 4u);
  EXPECT_EQ(s.transmission_count(), 5u);
  EXPECT_EQ(s.delivery_count(), 6u);
  ASSERT_EQ(s.round(1).size(), 2u);
  EXPECT_EQ(s.round(1)[0].sender, 1u);  // base tuple first
  EXPECT_EQ(receivers_of(s, s.round(1)[0]), (std::vector<Vertex>{0, 2}));
  EXPECT_EQ(s.round(1)[1].sender, 2u);
  EXPECT_EQ(receivers_of(s, s.round(1)[1]), (std::vector<Vertex>{1}));
  ASSERT_EQ(s.round(2).size(), 1u);
  EXPECT_EQ(receivers_of(s, s.round(2)[0]), (std::vector<Vertex>{2}));
  ASSERT_EQ(s.round(3).size(), 1u);
  EXPECT_EQ(s.round(3)[0].message, 1u);
  EXPECT_THROW(s.append(s, 0), ContractViolation);
}

TEST(Schedule, AppendPastTheEndPadsEmptyRounds) {
  Schedule s = build({{0, {0, 0, {1}}}});
  s.append(build({{1, {1, 1, {0}}}}), 3);
  ASSERT_EQ(s.round_count(), 5u);
  EXPECT_TRUE(s.round(1).empty());
  EXPECT_TRUE(s.round(3).empty());
  ASSERT_EQ(s.round(4).size(), 1u);
  EXPECT_EQ(receivers_of(s, s.round(4)[0]), (std::vector<Vertex>{0}));
  EXPECT_EQ(s.total_time(), 5u);
}

TEST(Schedule, TrimDropsEmptyTrailingRounds) {
  Schedule s = build({{2, {0, 0, {1}}}});
  s.append(Schedule{}, 10);  // pads to 10 rounds
  EXPECT_EQ(s.round_count(), 10u);
  EXPECT_EQ(s.total_time(), 3u);
  s.trim();
  EXPECT_EQ(s.round_count(), 3u);
  EXPECT_EQ(s.transmission_count(), 1u);

  Schedule empty;
  empty.append(Schedule{}, 4);
  EXPECT_EQ(empty.round_count(), 4u);
  empty.trim();
  EXPECT_EQ(empty.round_count(), 0u);
}

TEST(Schedule, CountsAndFanout) {
  const Schedule s = build(
      {{0, {0, 0, {1, 2, 3}}}, {0, {1, 4, {5}}}, {1, {2, 1, {0, 2}}}});
  EXPECT_EQ(s.transmission_count(), 3u);
  EXPECT_EQ(s.delivery_count(), 6u);
  EXPECT_EQ(s.max_fanout(), 3u);
  EXPECT_FALSE(s.is_telephone());
}

TEST(Schedule, TelephoneDetection) {
  EXPECT_TRUE(build({{0, {0, 0, {1}}}, {1, {1, 1, {0}}}}).is_telephone());
  EXPECT_FALSE(build({{0, {0, 0, {1}}}, {2, {0, 0, {1, 2}}}}).is_telephone());
}

TEST(Schedule, ToStringMentionsTuples) {
  const std::string out = build({{2, {5, 3, {1, 4}}}}).to_string();
  EXPECT_NE(out.find("t=2"), std::string::npos);
  EXPECT_NE(out.find("msg 5"), std::string::npos);
  EXPECT_NE(out.find("3 -> {1, 4}"), std::string::npos);
}

TEST(Schedule, EquivalentUnderPermutationWithinRound) {
  const Schedule a = build({{0, {0, 0, {1}}},
                            {0, {1, 2, {3, 4}}},
                            {0, {5, 5, {6}}},
                            {1, {3, 3, {2}}},
                            {1, {4, 4, {5, 7}}}});
  const Schedule b = build({{1, {4, 4, {5, 7}}},
                            {0, {5, 5, {6}}},
                            {0, {0, 0, {1}}},
                            {1, {3, 3, {2}}},
                            {0, {1, 2, {3, 4}}}});
  EXPECT_TRUE(equivalent(a, b));
  EXPECT_TRUE(equivalent(b, a));
  const auto canonical = canonical_round(b, 0);
  ASSERT_EQ(canonical.size(), 3u);
  EXPECT_EQ(canonical[0].sender, 0u);
  EXPECT_EQ(canonical[1].sender, 2u);
  EXPECT_EQ(canonical[2].sender, 5u);
  EXPECT_TRUE(canonical_round(b, 7).empty());
}

TEST(Schedule, EquivalentDetectsTimeShift) {
  EXPECT_FALSE(equivalent(build({{0, {0, 0, {1}}}}),
                          build({{1, {0, 0, {1}}}})));
}

TEST(Schedule, EquivalentDetectsReceiverDifference) {
  EXPECT_FALSE(equivalent(build({{0, {0, 0, {1, 2}}}}),
                          build({{0, {0, 0, {1}}}})));
  EXPECT_FALSE(equivalent(build({{0, {0, 0, {1}}}}),
                          build({{0, {0, 0, {2}}}})));
}

TEST(Schedule, EquivalentToleratesTrailingEmptyRounds) {
  const Schedule a = build({{0, {0, 0, {1}}}});
  Schedule b = build({{0, {0, 0, {1}}}});
  b.append(Schedule{}, 5);
  EXPECT_EQ(b.round_count(), 5u);
  EXPECT_TRUE(equivalent(a, b));
}

}  // namespace
}  // namespace mg::model
