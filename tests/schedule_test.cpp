// Tests for the communication-schedule data type (§1's formalism): the
// builder every schedule comes out of, read back through the round cursor.
// tests/schedule_runs_test.cpp holds the run battery against the
// stored-order oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "model/schedule.h"
#include "reference_schedule.h"
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
  const auto rounds = test::rounds_of(s);
  ASSERT_EQ(rounds.size(), 4u);
  EXPECT_TRUE(rounds[2].empty());

  ASSERT_EQ(rounds[0].size(), 2u);
  EXPECT_EQ(rounds[0][0].sender, 0u);
  EXPECT_EQ(receivers_of(s, rounds[0][0]), (std::vector<Vertex>{1, 2, 3}));
  EXPECT_EQ(rounds[0][1].sender, 9u);
  EXPECT_EQ(receivers_of(s, rounds[0][1]), (std::vector<Vertex>{4}));

  ASSERT_EQ(rounds[1].size(), 1u);
  EXPECT_EQ(rounds[1][0].message, 6u);
  EXPECT_EQ(receivers_of(s, rounds[1][0]), (std::vector<Vertex>{0, 3}));

  ASSERT_EQ(rounds[3].size(), 3u);
  EXPECT_EQ(rounds[3][0].sender, 1u);
  EXPECT_EQ(rounds[3][1].sender, 6u);
  EXPECT_EQ(rounds[3][2].sender, 3u);
  EXPECT_EQ(receivers_of(s, rounds[3][0]), (std::vector<Vertex>{2, 5}));
  EXPECT_EQ(receivers_of(s, rounds[3][2]), (std::vector<Vertex>{4, 7, 8}));
}

/// Every round as the cursor yields it: each tuple's message, sender,
/// receiver index and count, and its receivers.
std::string stored(const Schedule& s) {
  std::string out = std::to_string(s.round_count()) + ":";
  for (RoundCursor round(s); round.next();) {
    out += " |" + std::to_string(round.txs().size());
    for (const Tx& tx : round.txs()) {
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

  ScheduleBuilder staged;  // adds out of round order
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
  const auto rounds = test::rounds_of(a);
  EXPECT_TRUE(rounds[2].empty());
  EXPECT_TRUE(rounds[5].empty());
  EXPECT_EQ(a.transmission_count(), 9u);
  EXPECT_EQ(a.delivery_count(), 16u);
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_EQ(a.to_string(), c.to_string());
  EXPECT_EQ(stored(a), stored(b));
  EXPECT_EQ(stored(a), stored(c));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
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
      builder.reserve(room, room);
      for (const auto& [t, tx] : *adds) builder.add(t, tx);
      EXPECT_EQ(stored(builder.build()), stored(build(*adds))) << room;
    }
  }
  ScheduleBuilder builder;
  EXPECT_THROW(builder.reserve(std::size_t{1} << 32, 0), ContractViolation);
  EXPECT_THROW(builder.reserve(0, std::size_t{1} << 32), ContractViolation);
  EXPECT_EQ(builder.build().round_count(), 0u);
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
  const auto canonical = canonical_round(b, test::rounds_of(b).at(0));
  ASSERT_EQ(canonical.size(), 3u);
  EXPECT_EQ(canonical[0].sender, 0u);
  EXPECT_EQ(canonical[1].sender, 2u);
  EXPECT_EQ(canonical[2].sender, 5u);
  EXPECT_TRUE(canonical_round(b, {}).empty());
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

}  // namespace
}  // namespace mg::model
