// The shrinker (shrinker.h) on churn streams, with each stream's legality
// folded into its predicate, and the churn regression snippet.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "churn/feed.h"
#include "churn/solver.h"
#include "gossip/solve.h"
#include "graph/dynamic.h"
#include "graph/generators.h"
#include "shrinker.h"
#include "support/contracts.h"

namespace mg {
namespace {

using churn::ChurnEvent;
using churn::EventKind;
using graph::Graph;
using Events = std::vector<ChurnEvent>;

/// True when every event's precondition holds at its position in the stream
/// (edges added only where absent, removed only where present...).  An
/// illegal stream reproduces nothing, so every churn predicate checks this
/// first (`ContractViolation` means "keep the event it needed").
bool stream_legal(const Graph& g0, const Events& events) {
  graph::DynamicGraph g(g0);
  try {
    for (const auto& event : events) (void)churn::apply_event(g, event);
  } catch (const ContractViolation&) {
    return false;
  }
  return true;
}

/// True when, after some event, the `ChurnSolver`'s schedule or initial
/// holds differ from a from-scratch `solve_gossip` of the mutated graph.
bool solver_diverges(const Graph& g0, const Events& events) {
  if (!stream_legal(g0, events)) return false;
  churn::ChurnSolver solver(g0);
  for (const auto& event : events) {
    (void)solver.apply(event);
    const gossip::Solution fresh =
        gossip::solve_gossip(solver.graph().snapshot());
    if (!(fresh.schedule == solver.schedule()) ||
        fresh.instance.initial() != solver.initial()) {
      return true;
    }
  }
  return false;
}

/// Renders a shrunk stream as a paste-able C++ regression case.
std::string regression_snippet(const test::Shrunk<ChurnEvent>& shrunk,
                               const std::string& graph_expr) {
  std::ostringstream out;
  out << "// shrunk churn regression: " << shrunk.items.size() << " of "
      << shrunk.original_size << " events\n";
  out << "const graph::Graph g0 = " << graph_expr << ";\n";
  out << "const std::vector<churn::ChurnEvent> stream = {\n";
  for (const auto& event : shrunk.items) {
    out << "    {churn::EventKind::k";
    switch (event.kind) {
      case EventKind::kAddEdge:
        out << "AddEdge";
        break;
      case EventKind::kRemoveEdge:
        out << "RemoveEdge";
        break;
      case EventKind::kAddNode:
        out << "AddNode";
        break;
      case EventKind::kRemoveNode:
        out << "RemoveNode";
        break;
    }
    out << ", " << event.u << ", " << event.v << ", " << event.time
        << "},\n";
  }
  out << "};\n";
  return out.str();
}

// Plant a stream whose failure is "edge {2, 5} ever present", bury the
// trigger among unrelated events, and check the shrinker reduces to exactly
// the planted prefix and elides the noise.
TEST(ChurnShrinker, BisectsToMinimalReproducingPrefix) {
  const Graph g0 = graph::grid(4, 4);
  const Events stream = {
      {EventKind::kAddEdge, 0, 5, 0},   // noise
      {EventKind::kAddEdge, 1, 6, 1},   // noise
      {EventKind::kAddEdge, 2, 5, 2},   // trigger
      {EventKind::kAddEdge, 3, 6, 3},   // never reached by the shrink
      {EventKind::kRemoveEdge, 0, 5, 4},
  };
  const auto planted = [&g0](const Events& events) {
    if (!stream_legal(g0, events)) return false;
    graph::DynamicGraph g(g0);
    for (const auto& event : events) (void)churn::apply_event(g, event);
    return g.has_edge(2, 5);
  };

  const test::Shrunk<ChurnEvent> shrunk = test::shrink(stream, planted);
  ASSERT_TRUE(shrunk.reproduced);
  ASSERT_EQ(shrunk.items.size(), 1u) << "noise events must be elided";
  EXPECT_EQ(shrunk.items[0].kind, EventKind::kAddEdge);
  EXPECT_EQ(shrunk.items[0].u, 2u);
  EXPECT_EQ(shrunk.items[0].v, 5u);

  const std::string snippet = regression_snippet(shrunk, "graph::grid(4, 4)");
  EXPECT_NE(snippet.find("kAddEdge, 2, 5"), std::string::npos) << snippet;
  EXPECT_NE(snippet.find("1 of 5 events"), std::string::npos) << snippet;
}

// Elision must respect legality: a removal depending on an earlier
// insertion cannot lose that insertion, even though the rest of the
// predicate would still "fail" on the illegal stream.
TEST(ChurnShrinker, ElisionKeepsDependentEventsLegal) {
  const Graph g0 = graph::grid(4, 4);
  const Events stream = {
      {EventKind::kAddEdge, 0, 5, 0},
      {EventKind::kRemoveEdge, 0, 5, 1},  // depends on the insertion
  };
  const auto planted = [&g0](const Events& events) {
    return stream_legal(g0, events) && !events.empty() &&
           events.back().kind == EventKind::kRemoveEdge;
  };
  const test::Shrunk<ChurnEvent> shrunk = test::shrink(stream, planted);
  ASSERT_TRUE(shrunk.reproduced);
  EXPECT_EQ(shrunk.items.size(), 2u)
      << "the insertion is load-bearing and must survive";
}

// A stream that never fails reports reproduced == false.
TEST(ChurnShrinker, NonFailingStreamIsReportedAsSuch) {
  const Graph g0 = graph::grid(4, 4);
  churn::FeedOptions options;
  options.events = 12;
  options.seed = 3;
  const auto feed = churn::uniform_feed(g0, options);
  const test::Shrunk<ChurnEvent> shrunk =
      test::shrink(feed.events, [&g0](const Events& events) {
        return solver_diverges(g0, events);
      });
  EXPECT_FALSE(shrunk.reproduced)
      << "differential battery is green: the shrinker has nothing to do";
  EXPECT_TRUE(shrunk.items.empty());
}

}  // namespace
}  // namespace mg
