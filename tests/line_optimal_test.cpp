// Tests for the reconstructed §4 line-optimal protocol: validity,
// completion and exact optimality (n + r - 1) on odd lines.
#include <gtest/gtest.h>

#include "gossip/bounds.h"
#include "gossip/line_optimal.h"
#include "gossip/optimal_search.h"
#include "gossip/solve.h"
#include "graph/generators.h"
#include "model/validator.h"
#include "support/contracts.h"

namespace mg::gossip {
namespace {

TEST(LineOptimal, ValidAndOptimalForEveryM) {
  for (std::uint32_t m = 1; m <= 60; ++m) {
    const graph::Vertex n = 2 * m + 1;
    const auto schedule = line_optimal_gossip(m);
    const auto report = model::validate_schedule(graph::path(n), schedule);
    ASSERT_TRUE(report.ok) << "m=" << m << ": " << report.error;
    EXPECT_EQ(schedule.total_time(), odd_line_lower_bound(n)) << "m=" << m;
    EXPECT_EQ(schedule.total_time(), line_optimal_time(m));
  }
}

TEST(LineOptimal, BeatsConcurrentUpDownByExactlyOne) {
  for (std::uint32_t m : {1u, 4u, 10u, 25u}) {
    const graph::Vertex n = 2 * m + 1;
    const auto uniform = solve_gossip(graph::path(n));
    ASSERT_TRUE(uniform.report.ok);
    EXPECT_EQ(uniform.schedule.total_time() -
                  line_optimal_gossip(m).total_time(),
              1u)
        << "m=" << m;
  }
}

TEST(LineOptimal, MatchesExactSearchOptimumOnSmallLines) {
  // The exact search certifies no schedule beats 3m for m = 1, 2; the
  // construction attains it.
  for (std::uint32_t m : {1u, 2u}) {
    const graph::Vertex n = 2 * m + 1;
    EXPECT_EQ(
        exact_gossip_search(graph::path(n), line_optimal_time(m) - 1).status,
        graph::SearchStatus::kExhausted)
        << "m=" << m;
    EXPECT_EQ(line_optimal_gossip(m).total_time(), line_optimal_time(m));
  }
}

TEST(LineOptimal, CenterReceivesAlternatingArms) {
  // The §4 hint realized: "one needs to alternate the delivery of messages
  // from different subtrees" -- mu(-q) at odd time 2q-1, mu(+q) at 2q.
  const std::uint32_t m = 6;
  const auto schedule = line_optimal_gossip(m);
  const graph::Vertex center = m;
  std::vector<std::size_t> arrival(2 * m + 1, 0);
  for (model::RoundCursor round(schedule); round.next();) {
    const std::size_t t = round.index();
    for (const auto& tx : round.txs()) {
      for (graph::Vertex r : schedule.receivers(tx)) {
        if (r == center) arrival[tx.message] = t + 1;
      }
    }
  }
  for (std::uint32_t q = 1; q <= m; ++q) {
    EXPECT_EQ(arrival[m - q], 2u * q - 1) << "left q=" << q;
    EXPECT_EQ(arrival[m + q], 2u * q) << "right q=" << q;
  }
}

TEST(LineOptimal, EndsFinishExactlyAtTheBound) {
  // The binding constraints: the left end receives mu(+m) at 3m and the
  // right end receives the center's message at 3m.
  const std::uint32_t m = 8;
  const auto schedule = line_optimal_gossip(m);
  const auto report =
      model::validate_schedule(graph::path(2 * m + 1), schedule);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.completion_time[0], 3u * m);
  EXPECT_EQ(report.completion_time[2 * m], 3u * m);
}

TEST(LineOptimal, ProtocolIsNonUniform) {
  // §4: "the protocol for each processor will not be uniform" -- mirror
  // positions behave differently.  Position +1 sends its own message
  // twice (outward at 0 and inward at 1) while -1 multicasts once at 0.
  const std::uint32_t m = 3;
  const auto schedule = line_optimal_gossip(m);
  const graph::Vertex left1 = m - 1;
  const graph::Vertex right1 = m + 1;
  std::size_t left_own_sends = 0;
  std::size_t right_own_sends = 0;
  for (model::RoundCursor round(schedule); round.next();) {
    for (const auto& tx : round.txs()) {
      if (tx.sender == left1 && tx.message == left1) ++left_own_sends;
      if (tx.sender == right1 && tx.message == right1) ++right_own_sends;
    }
  }
  EXPECT_EQ(left_own_sends, 1u);   // one multicast, both directions
  EXPECT_EQ(right_own_sends, 2u);  // separate outward + inward sends
}

TEST(LineOptimal, RejectsZeroM) {
  EXPECT_THROW((void)line_optimal_gossip(0), ContractViolation);
  EXPECT_THROW((void)even_line_gossip(0), ContractViolation);
}

TEST(EvenLine, ValidAndAtTheEvenOptimumForEveryM) {
  for (std::uint32_t m = 1; m <= 50; ++m) {
    const graph::Vertex n = 2 * m;
    const auto schedule = even_line_gossip(m);
    const auto report = model::validate_schedule(graph::path(n), schedule);
    ASSERT_TRUE(report.ok) << "m=" << m << ": " << report.error;
    EXPECT_EQ(schedule.total_time(), even_line_time(m)) << "m=" << m;
  }
}

TEST(EvenLine, MatchesExactSearchOptimum) {
  // Exhaustive certification for m = 1..3: 3m - 2 is attainable and
  // 3m - 3 is not (for m >= 2).
  for (std::uint32_t m : {2u, 3u}) {
    const graph::Vertex n = 2 * m;
    ExactSearchOptions options;
    options.node_budget = 40'000'000;
    EXPECT_EQ(
        exact_gossip_search(graph::path(n), even_line_time(m) - 1, options)
            .status,
        graph::SearchStatus::kExhausted)
        << "m=" << m;
  }
  EXPECT_EQ(even_line_gossip(1).total_time(), 1u);
}

TEST(EvenLine, OneBelowTheOddLinePattern) {
  // n + r - 2 for even n, vs n + r - 1 for odd n: the shared gathering
  // role of the two near-center processors is worth one round.
  for (std::uint32_t m : {2u, 5u, 12u}) {
    const graph::Vertex n = 2 * m;
    const auto instance = Instance::from_network(graph::path(n));
    EXPECT_EQ(even_line_gossip(m).total_time() + 2,
              static_cast<std::size_t>(n) + instance.radius())
        << "m=" << m;
  }
}

TEST(EvenLine, BothCentersFinishGatheringSimultaneously) {
  // Each center has all n messages by time 2m - 1.
  const std::uint32_t m = 7;
  const auto schedule = even_line_gossip(m);
  const auto report = model::validate_schedule(graph::path(2 * m), schedule);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.completion_time[m - 1], 2u * m - 1);
  EXPECT_EQ(report.completion_time[m], 2u * m - 1);
}

}  // namespace
}  // namespace mg::gossip
