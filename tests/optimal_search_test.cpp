// Tests for the exact schedule search and the Fig. 2 / Fig. 3 claims it
// certifies: multicast gossip in n - 1 rounds exists on the N3 witness and
// on the Petersen graph, while the telephone model provably cannot match it
// on the witness.
#include <gtest/gtest.h>

#include "gossip/optimal_search.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "support/contracts.h"

namespace mg::gossip {
namespace {

using graph::SearchStatus;

ExactSearchOptions telephone_options() {
  ExactSearchOptions options;
  options.telephone = true;
  return options;
}

TEST(ExactSearch, TriangleInTwoRounds) {
  const auto result = exact_gossip_search(graph::complete(3), 2);
  ASSERT_EQ(result.status, SearchStatus::kFound);
  EXPECT_TRUE(model::validate_schedule(graph::complete(3), result.schedule).ok);
  EXPECT_LE(result.schedule.total_time(), 2u);
}

TEST(ExactSearch, NothingBelowTrivialBound) {
  EXPECT_EQ(exact_gossip_search(graph::complete(3), 1).status,
            SearchStatus::kExhausted);
  EXPECT_EQ(exact_gossip_search(graph::complete(4), 2).status,
            SearchStatus::kExhausted);
}

TEST(ExactSearch, PathOfThreeNeedsNPlusRMinusOne) {
  // §1's introduction example: the 3-line cannot finish in 2 rounds but can
  // in 3 = n + r - 1.
  EXPECT_EQ(exact_gossip_search(graph::path(3), 2).status,
            SearchStatus::kExhausted);
  const auto result = exact_gossip_search(graph::path(3), 3);
  ASSERT_EQ(result.status, SearchStatus::kFound);
  EXPECT_TRUE(model::validate_schedule(graph::path(3), result.schedule).ok);
}

TEST(ExactSearch, CycleAchievesTrivialBound) {
  const auto result = exact_gossip_search(graph::cycle(5), 4);
  ASSERT_EQ(result.status, SearchStatus::kFound);
  EXPECT_TRUE(model::validate_schedule(graph::cycle(5), result.schedule).ok);
}

TEST(ExactSearch, N3WitnessMulticastInNMinusOne) {
  // Fig. 3's claim, on our witness: gossiping completes in n - 1 = 4
  // rounds under the multicast model...
  const auto g = graph::n3_witness();
  const auto result = exact_gossip_search(g, 4);
  ASSERT_EQ(result.status, SearchStatus::kFound);
  const auto report = model::validate_schedule(g, result.schedule);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(result.schedule.total_time(), 4u);
}

TEST(ExactSearch, N3WitnessTelephoneCannot) {
  // ...but not under the telephone model (pigeonhole on the bipartition).
  const auto g = graph::n3_witness();
  const auto result = exact_gossip_search(g, 4, telephone_options());
  EXPECT_EQ(result.status, SearchStatus::kExhausted);
}

TEST(ExactSearch, N3WitnessCertificateSchedule) {
  // The hand-built 4-round multicast certificate from DESIGN.md, verified
  // against the independent validator.  Parts {0,1} and {2,3,4}.
  const auto g = graph::n3_witness();
  model::ScheduleBuilder builder;
  builder.add(0, {2, 2, {0}});
  builder.add(0, {3, 3, {1}});
  builder.add(0, {0, 0, {3, 4}});
  builder.add(0, {1, 1, {2}});
  builder.add(1, {4, 4, {0, 1}});
  builder.add(1, {0, 0, {2}});
  builder.add(1, {1, 1, {3, 4}});
  builder.add(2, {2, 2, {1}});
  builder.add(2, {3, 3, {0}});
  builder.add(2, {4, 0, {2, 3}});
  builder.add(2, {3, 1, {4}});
  builder.add(3, {1, 2, {0}});
  builder.add(3, {0, 3, {1}});
  builder.add(3, {3, 0, {2}});
  builder.add(3, {2, 1, {3, 4}});
  const model::Schedule s = builder.build();
  const auto report = model::validate_schedule(g, s);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(s.total_time(), 4u);
}

TEST(ExactSearch, StarCannotReachTrivialBound) {
  // A degree-1 vertex forces > n - 1 (its neighbor cannot feed it a new
  // message every round *and* export its message in time).
  EXPECT_EQ(exact_gossip_search(graph::star(4), 3).status,
            SearchStatus::kExhausted);
}

TEST(ExactSearch, PetersenNMinusOneMulticast) {
  // Fig. 2's claim: the Petersen graph gossips in n - 1 = 9 rounds.
  const auto g = graph::petersen();
  const auto result = exact_gossip_search(g, 9);
  ASSERT_EQ(result.status, SearchStatus::kFound);
  const auto report = model::validate_schedule(g, result.schedule);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(result.schedule.total_time(), 9u);
}

TEST(ExactSearch, PetersenNMinusOneTelephone) {
  // The stronger published claim: 9 rounds even under the telephone model.
  const auto g = graph::petersen();
  const auto result = exact_gossip_search(g, 9, telephone_options());
  ASSERT_EQ(result.status, SearchStatus::kFound);
  EXPECT_TRUE(result.schedule.is_telephone());
  model::ValidatorOptions vopts;
  vopts.model = &model::telephone_model();
  EXPECT_TRUE(model::validate_schedule(g, result.schedule, {}, vopts).ok);
}

TEST(ExactSearch, EvenLinesBeatTheOddLineBoundPattern) {
  // Beyond the paper (it only analyzes odd lines): on even lines the
  // optimum is n + r - 2, one below the odd-line n + r - 1 pattern --
  // the two near-center vertices share the gathering role.
  EXPECT_EQ(exact_gossip_search(graph::path(4), 3).status,
            SearchStatus::kExhausted);
  EXPECT_EQ(exact_gossip_search(graph::path(4), 4).status,
            SearchStatus::kFound);  // n + r - 2 = 4
  ExactSearchOptions options;
  options.node_budget = 30'000'000;
  EXPECT_EQ(exact_gossip_search(graph::path(6), 6, options).status,
            SearchStatus::kExhausted);
  EXPECT_EQ(exact_gossip_search(graph::path(6), 7, options).status,
            SearchStatus::kFound);  // n + r - 2 = 7
}

TEST(ExactSearch, BudgetCapReported) {
  ExactSearchOptions options;
  options.node_budget = 5;
  const auto result = exact_gossip_search(graph::petersen(), 9, options);
  EXPECT_EQ(result.status, SearchStatus::kBudget);
}

TEST(ExactSearch, FoundSchedulesAlwaysValidate) {
  for (graph::Vertex n : {4u, 5u, 6u}) {
    const auto g = graph::complete(n);
    const auto result = exact_gossip_search(g, n - 1);
    ASSERT_EQ(result.status, SearchStatus::kFound) << n;
    const auto report = model::validate_schedule(g, result.schedule);
    EXPECT_TRUE(report.ok) << report.error;
  }
}

TEST(ExactSearch, SizePreconditions) {
  EXPECT_THROW((void)exact_gossip_search(graph::Graph(1), 1),
               ContractViolation);
}

}  // namespace
}  // namespace mg::gossip
