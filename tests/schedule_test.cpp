// Tests for the communication-schedule data type (§1's formalism): the flat
// round-offset layout and the builder every schedule comes out of.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
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

/// Every stored field: round offsets, each tuple's message, sender, receiver
/// index and count, and its receivers.
std::string stored(const Schedule& s) {
  std::string out = std::to_string(s.round_count()) + ":";
  for (std::size_t t = 0; t < s.round_count(); ++t) {
    out += " |" + std::to_string(s.round(t).size());
    for (const Tx& tx : s.round(t)) {
      out += " " + std::to_string(tx.message) + "," +
             std::to_string(tx.sender) + "," + std::to_string(tx.first) +
             "," + std::to_string(tx.count) + "[";
      for (const Vertex r : s.receivers(tx)) out += std::to_string(r) + " ";
      out += "]";
    }
  }
  return out;
}

TEST(ScheduleBuilder, ReceiverSetMustBeSortedUniqueNonEmpty) {
  ScheduleBuilder in_order;
  EXPECT_THROW(in_order.add(0, {0, 0, {}}), ContractViolation);
  EXPECT_THROW(in_order.add(0, {0, 0, {3, 1}}), ContractViolation);
  EXPECT_THROW(in_order.add(0, {0, 0, {1, 1}}), ContractViolation);

  ScheduleBuilder staged;  // an add to an earlier round switches to staging
  staged.add(2, {0, 0, {1}});
  staged.add(1, {0, 0, {1}});
  EXPECT_THROW(staged.add(0, {0, 0, {}}), ContractViolation);
  EXPECT_THROW(staged.add(0, {0, 0, {3, 1}}), ContractViolation);
  EXPECT_THROW(staged.add(3, {0, 0, {1, 1}}), ContractViolation);
  EXPECT_EQ(staged.build().transmission_count(), 2u);  // rejected adds left
}

TEST(ScheduleBuilder, RoundIndexMustFitInThirtyTwoBits) {
  ScheduleBuilder builder;
  EXPECT_THROW(builder.add(std::size_t{1} << 32, {0, 0, {1}}),
               ContractViolation);
  builder.add(3, {0, 0, {1}});
  builder.add(0, {0, 0, {1}});
  EXPECT_THROW(builder.add(std::size_t{1} << 32, {0, 0, {1}}),
               ContractViolation);
}

TEST(ScheduleBuilder, InOrderShuffledAndLateAddsStoreTheSameArrays) {
  // The same tuples, each round's in the same relative order; rounds 2 and
  // 5 stay empty.
  const std::vector<std::pair<std::size_t, Transmission>> in_order = {
      {0, {1, 0, {2}}},    {0, {3, 1, {0, 4, 5}}}, {1, {0, 4, {1, 3}}},
      {1, {2, 5, {6}}},    {1, {4, 2, {0, 1}}},    {3, {5, 1, {2, 7}}},
      {4, {6, 3, {0}}},    {4, {7, 0, {1, 2, 3}}}, {6, {8, 6, {5}}}};
  // Rounds interleaved differently.
  const std::vector<std::pair<std::size_t, Transmission>> shuffled = {
      in_order[6], in_order[2], in_order[8], in_order[0], in_order[3],
      in_order[5], in_order[1], in_order[7], in_order[4]};
  // In order, except round 1's last tuple, which comes after round 4's first.
  const std::vector<std::pair<std::size_t, Transmission>> late = {
      in_order[0], in_order[1], in_order[2], in_order[3], in_order[5],
      in_order[6], in_order[4], in_order[7], in_order[8]};
  const Schedule a = build(in_order);
  const Schedule b = build(shuffled);
  const Schedule c = build(late);
  ASSERT_EQ(a.round_count(), 7u);
  EXPECT_TRUE(a.round(2).empty());
  EXPECT_TRUE(a.round(5).empty());
  EXPECT_EQ(a.transmission_count(), 9u);
  EXPECT_EQ(a.delivery_count(), 16u);
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_EQ(a.to_string(), c.to_string());
  EXPECT_EQ(stored(a), stored(b));
  EXPECT_EQ(stored(a), stored(c));
}

TEST(ScheduleBuilder, ReserveChangesNoOutput) {
  using Adds = std::vector<std::pair<std::size_t, Transmission>>;
  const Adds in_order = {{0, {1, 0, {2}}},
                         {1, {2, 5, {6}}},
                         {2, {0, 4, {1, 3}}},
                         {2, {3, 1, {0, 4, 5}}}};
  const Adds shuffled = {in_order[2], in_order[0], in_order[3], in_order[1]};
  for (const Adds* adds : {&in_order, &shuffled}) {
    for (const std::size_t room : {0u, 2u, 64u}) {
      ScheduleBuilder builder;
      builder.reserve(room, room, room);
      for (const auto& [t, tx] : *adds) builder.add(t, tx);
      EXPECT_EQ(stored(builder.build()), stored(build(*adds))) << room;
    }
  }
  ScheduleBuilder builder;
  EXPECT_THROW(builder.reserve(std::size_t{1} << 32, 0, 0),
               ContractViolation);
  EXPECT_THROW(builder.reserve(0, std::size_t{1} << 32, 0),
               ContractViolation);
  EXPECT_THROW(builder.reserve(0, 0, std::size_t{1} << 32),
               ContractViolation);
  EXPECT_EQ(builder.build().round_count(), 0u);
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

TEST(Schedule, AppendRejectsAnOffsetThatWouldWrap) {
  // offset + tail.round_count() wraps to 0: the check must not form it.
  Schedule s = build({{0, {0, 0, {1}}}});
  const Schedule tail = build({{0, {1, 1, {0}}}});
  EXPECT_THROW(s.append(tail, SIZE_MAX), ContractViolation);
  EXPECT_THROW(s.append(Schedule{}, SIZE_MAX), ContractViolation);
  EXPECT_EQ(s.round_count(), 1u);
  EXPECT_EQ(s.transmission_count(), 1u);
  EXPECT_EQ(s.delivery_count(), 1u);
}

TEST(Schedule, AppendRejectsRoundsPastThirtyTwoBitsBeforeAllocating) {
  // The tail's round would land at index 2^32 - 1, which
  // ScheduleBuilder::add refuses too; failing after allocating the
  // 2^32 + 1 offsets would take 16 GB first.
  Schedule s = build({{0, {0, 0, {1}}}});
  const Schedule tail = build({{0, {1, 1, {0}}}});
  EXPECT_THROW(s.append(tail, std::size_t{0xffffffff}), ContractViolation);
  EXPECT_THROW(s.append(Schedule{}, std::size_t{1} << 32), ContractViolation);
  EXPECT_EQ(s.round_count(), 1u);
  EXPECT_EQ(s.transmission_count(), 1u);
  EXPECT_EQ(s.delivery_count(), 1u);
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
