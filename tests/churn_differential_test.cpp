// Differential churn battery: replay seeded churn streams — 4 graph
// families x 8 seeds x 3 churn rates, rotating the three feed generators —
// and after *every* event cross-check the incremental pipeline against the
// from-scratch one:
//
//   * the maintained `IncrementalTree` is byte-identical (root, parent
//     array, levels, height) to a fresh `min_depth_spanning_tree` of the
//     mutated graph.  All battery sizes sit far below
//     `CenterOptions::exhaustive_threshold`, so the from-scratch center is
//     the smallest-id minimum-eccentricity vertex and identity is exact;
//   * the solver's schedule is the from-scratch one: `solve_gossip` of the
//     mutated graph stores the same tuples in the same order, with the same
//     initial holds, and takes exactly the Theorem 1 bound n + r;
//   * that schedule passes the independent model validator (completion
//     required) and the word-parallel simulator.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "churn/feed.h"
#include "churn/solver.h"
#include "gossip/solve.h"
#include "model/validator.h"
#include "sim/network_sim.h"
#include "test_util.h"
#include "tree/spanning_tree.h"

namespace mg {
namespace {

using churn::ChurnFeed;
using churn::FeedOptions;
using graph::Graph;
using graph::Vertex;

void expect_tree_identical(const Graph& g, const tree::RootedTree& got) {
  const tree::RootedTree want = tree::min_depth_spanning_tree(g);
  ASSERT_EQ(want.vertex_count(), got.vertex_count());
  ASSERT_EQ(want.root(), got.root());
  ASSERT_EQ(want.height(), got.height());
  for (Vertex v = 0; v < want.vertex_count(); ++v) {
    ASSERT_EQ(want.parent(v), got.parent(v)) << "parent of " << v;
    ASSERT_EQ(want.level(v), got.level(v)) << "level of " << v;
  }
}

void expect_schedule_from_scratch(const Graph& g,
                                  const churn::ChurnSolver& solver,
                                  const churn::ApplyReport& report) {
  const model::Schedule& schedule = solver.schedule();
  // fresh_bound is the Theorem 1 bound n + r for the *current* topology.
  ASSERT_EQ(schedule.total_time(), report.fresh_bound);
  ASSERT_EQ(report.schedule_time, report.fresh_bound);

  const gossip::Solution fresh = gossip::solve_gossip(g);
  ASSERT_EQ(fresh.instance.initial(), solver.initial());
  test::expect_same_stored(fresh.schedule, schedule);

  const auto validation =
      model::validate_schedule(g, schedule, solver.initial(), {});
  ASSERT_TRUE(validation.ok) << validation.error;

  const auto run = sim::simulate(g, schedule, solver.initial());
  ASSERT_TRUE(run.completed);
  ASSERT_EQ(run.total_time, schedule.total_time());
}

ChurnFeed make_feed(const Graph& g0, std::size_t shape,
                    const FeedOptions& options) {
  switch (shape % 3) {
    case 0:
      return churn::uniform_feed(g0, options);
    case 1:
      return churn::hotspot_feed(g0, options);
    default:
      return churn::partition_heal_feed(g0, options);
  }
}

void run_stream(const std::string& family, Vertex knob, std::uint64_t seed,
                std::uint64_t horizon, std::size_t shape) {
  Graph g0;
  for (const auto& f : test::families()) {
    if (f.name == family) g0 = f.make(knob);
  }
  ASSERT_GE(g0.vertex_count(), 4u);

  FeedOptions options;
  options.events = 32;
  options.seed = seed;
  options.horizon_rounds = horizon;
  options.allow_node_events = (shape % 3) == 0;  // uniform feeds only
  const ChurnFeed feed = make_feed(g0, shape, options);
  ASSERT_FALSE(feed.events.empty());

  churn::ChurnSolver solver(g0);
  for (std::size_t i = 0; i < feed.events.size(); ++i) {
    const churn::ChurnEvent& event = feed.events[i];
    SCOPED_TRACE(family + " seed=" + std::to_string(seed) +
                 " horizon=" + std::to_string(horizon) + " event#" +
                 std::to_string(i) + " " +
                 churn::event_kind_name(event.kind) + "(" +
                 std::to_string(event.u) + "," + std::to_string(event.v) +
                 ")");
    const churn::ApplyReport report = solver.apply(event);
    const Graph& g = solver.graph().snapshot();
    expect_tree_identical(g, solver.tree().tree());
    expect_schedule_from_scratch(g, solver, report);
    if (::testing::Test::HasFailure()) return;
  }
}

class ChurnDifferential
    : public ::testing::TestWithParam<std::tuple<const char*, std::uint64_t>> {
};

TEST_P(ChurnDifferential, TreeAndScheduleMatchFromScratchAfterEveryEvent) {
  const auto [family, seed] = GetParam();
  Vertex knob = 48;
  if (std::string(family) == "grid") knob = 7;  // 7x7 = 49 vertices
  // Three churn rates: the same event budget spread over ~600, ~150 and
  // ~30 rounds (slow / moderate / violent churn), rotating the generator
  // shape so every family meets every feed kind.
  const std::uint64_t horizons[] = {600, 150, 30};
  for (std::size_t rate = 0; rate < 3; ++rate) {
    run_stream(family, knob, seed * 3 + rate, horizons[rate],
               static_cast<std::size_t>(seed + rate));
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Battery, ChurnDifferential,
    ::testing::Combine(::testing::Values("cycle", "grid", "random_gnp",
                                         "random_geometric"),
                       ::testing::Range<std::uint64_t>(0, 8)),
    [](const auto& param_info) {
      return std::string(std::get<0>(param_info.param)) + "_seed" +
             std::to_string(std::get<1>(param_info.param));
    });

// The maintainer's stats must show the incremental paths actually firing —
// a battery that silently full-rebuilds every event would still pass the
// identity checks but prove nothing about incrementality.
TEST(ChurnDifferential, IncrementalPathsActuallyFire) {
  const Graph g0 = graph::grid(9, 9);
  FeedOptions options;
  options.events = 64;
  options.seed = 7;
  const ChurnFeed feed = churn::uniform_feed(g0, options);
  churn::ChurnSolver solver(g0);
  for (const auto& event : feed.events) {
    const churn::ApplyReport report = solver.apply(event);
    expect_schedule_from_scratch(solver.graph().snapshot(), solver, report);
    if (::testing::Test::HasFailure()) return;
  }
  const auto& stats = solver.tree().stats();
  EXPECT_EQ(stats.events, feed.events.size());
  EXPECT_GT(stats.noop + stats.parent_patch + stats.subtree_repair +
                stats.recenter,
            stats.full_rebuild)
      << "incremental paths should dominate full rebuilds under uniform "
         "edge churn";
}

}  // namespace
}  // namespace mg
