// Differential churn battery: replay seeded churn streams — 4 graph
// families x 8 seeds x 3 churn rates, rotating the three feed generators,
// plus one stream above `CenterOptions::exhaustive_threshold`, where the
// center comes from the hybrid scan — and after *every* event cross-check
// the churn solver against the from-scratch pipeline:
//
//   * the solver's schedule is the from-scratch one: `solve_gossip` of the
//     mutated graph stores the same tuples in the same order, with the same
//     initial holds, and takes exactly the Theorem 1 bound n + r.
//     ConcurrentUpDown sends along every tree edge and no other, so this
//     also pins the tree;
//   * that schedule passes the independent model validator (completion
//     required) and the word-parallel simulator.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "churn/feed.h"
#include "churn/solver.h"
#include "gossip/solve.h"
#include "graph/center.h"
#include "graph/generators.h"
#include "model/validator.h"
#include "sim/network_sim.h"
#include "test_util.h"

namespace mg {
namespace {

using churn::ChurnFeed;
using churn::FeedOptions;
using graph::Graph;
using graph::Vertex;

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

/// Replays `feed` on a `ChurnSolver` over `g0`, checking every event's
/// schedule against the from-scratch pipeline.
void replay(const Graph& g0, const ChurnFeed& feed, const std::string& what) {
  churn::ChurnSolver solver(g0);
  for (std::size_t i = 0; i < feed.events.size(); ++i) {
    const churn::ChurnEvent& event = feed.events[i];
    SCOPED_TRACE(what + " event#" + std::to_string(i) + " " +
                 churn::event_kind_name(event.kind) + "(" +
                 std::to_string(event.u) + "," + std::to_string(event.v) +
                 ")");
    const churn::ApplyReport report = solver.apply(event);
    expect_schedule_from_scratch(solver.graph().snapshot(), solver, report);
    if (::testing::Test::HasFailure()) return;
  }
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
  replay(g0, feed,
         family + " seed=" + std::to_string(seed) +
             " horizon=" + std::to_string(horizon));
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

// Above the exhaustive threshold (46 x 46 = 2116 vertices) the center comes
// from the hybrid scan, whose tie-break depends on evaluation order; the
// churn schedule must still be the from-scratch one after every event.
TEST(ChurnDifferential, ScheduleMatchesFromScratchAboveExhaustiveThreshold) {
  const Graph g0 = graph::grid(46, 46);
  ASSERT_GT(g0.vertex_count(), graph::CenterOptions{}.exhaustive_threshold);
  FeedOptions options;
  options.events = 4;
  const ChurnFeed feed = churn::uniform_feed(g0, options);
  ASSERT_EQ(feed.events.size(), 4u);
  replay(g0, feed, "grid 46x46");
}

}  // namespace
}  // namespace mg
