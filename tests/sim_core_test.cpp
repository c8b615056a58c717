// Differential test for the simulator: the word-parallel core (flat uint64
// hold matrix, CSR schedule walk, single-word ORs) must be event-for-event
// identical to the per-bit reference executor in reference_sim.h — same
// completion, timing, knowledge curves, fault and collision counters,
// final holds and streamed sink events — across the seeded random sweep x
// all four gossip algorithms x fault plans (probabilistic and deterministic
// drops, crash-stop, per-edge delay), under the multicast, radio and beep
// models, with and without a sink.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "gossip/solve.h"
#include "graph/generators.h"
#include "model/comm_model.h"
#include "model/legalize.h"
#include "obs/trace.h"
#include "reference_sim.h"
#include "sim/network_sim.h"
#include "support/rng.h"

namespace mg {
namespace {

constexpr gossip::Algorithm kAlgorithms[] = {
    gossip::Algorithm::kSimple, gossip::Algorithm::kUpDown,
    gossip::Algorithm::kConcurrentUpDown, gossip::Algorithm::kTelephone};

graph::Graph make_graph(std::uint64_t seed) {
  Rng rng(0xd1ffULL * (seed + 1));
  const auto n = static_cast<graph::Vertex>(5 + (seed * 7) % 44);
  switch (seed % 4) {
    case 0:
      return graph::random_connected_gnp(n, 3.0 / static_cast<double>(n),
                                         rng);
    case 1:
      return graph::random_tree(n, rng);
    case 2:
      return graph::random_geometric(n, 0.3, rng);
    default:
      return graph::random_connected_gnp(n, 0.5, rng);
  }
}

/// A fault plan keyed off the seed: fault-free, probabilistic plus
/// deterministic drops, or the full mix of drops + a crash + per-edge
/// delays.
fault::FaultPlan make_plan(std::uint64_t seed, const graph::Graph& g) {
  fault::FaultPlan plan;
  const graph::Vertex n = g.vertex_count();
  switch (seed % 3) {
    case 0:
      break;  // fault-free
    case 1:
      plan.drop_rate(0.15).seed(seed * 77 + 1);
      plan.drop(0, 0).drop(2, n - 1);
      break;
    default:
      plan.drop_rate(0.05).seed(seed * 77 + 1);
      plan.crash(n / 2, 3);
      plan.delay(0, g.neighbors(0).front(), 2);
      plan.delay(n - 1, g.neighbors(n - 1).front(), 1);
      break;
  }
  return plan;
}

/// Full structural equality of two SimResults.
void expect_equal(const sim::SimResult& want, const sim::SimResult& got) {
  EXPECT_EQ(want.completed, got.completed);
  EXPECT_EQ(want.total_time, got.total_time);
  EXPECT_EQ(want.completion_time, got.completion_time);
  EXPECT_EQ(want.knowledge, got.knowledge);
  EXPECT_EQ(want.missing, got.missing);
  EXPECT_EQ(want.skipped_sends, got.skipped_sends);
  EXPECT_EQ(want.injected_drops, got.injected_drops);
  EXPECT_EQ(want.crashed_sends, got.crashed_sends);
  EXPECT_EQ(want.lost_receives, got.lost_receives);
  EXPECT_EQ(want.collided_receives, got.collided_receives);
  EXPECT_EQ(want.final_holds, got.final_holds);
}

/// Runs `schedule` from `holds` through the reference and through `run`
/// (the simulator under test, called with the options to use), both
/// streaming JSONL, then once more through `run` without a sink (the
/// fault-free case takes the fast path).  Every result field and the JSONL
/// byte stream must match.
template <typename Run>
void expect_matches_reference(const graph::Graph& g,
                              const model::Schedule& schedule,
                              const BitMatrix& holds, sim::SimOptions options,
                              const Run& run) {
  std::ostringstream want_jsonl;
  obs::JsonLinesTraceSink want_sink(want_jsonl);
  options.sink = &want_sink;
  const sim::SimResult want =
      test::reference_simulate_from_holds(g, schedule, holds, options);

  std::ostringstream got_jsonl;
  obs::JsonLinesTraceSink got_sink(got_jsonl);
  options.sink = &got_sink;
  expect_equal(want, run(options));
  EXPECT_EQ(want_jsonl.str(), got_jsonl.str());

  options.sink = nullptr;
  expect_equal(want, run(options));
}

/// The time-0 hold sets `sim::simulate` starts from: v holds message
/// initial[v] of n.
BitMatrix identity_holds(const std::vector<model::Message>& initial) {
  BitMatrix holds(initial.size(), initial.size());
  for (std::size_t v = 0; v < initial.size(); ++v) holds.set(v, initial[v]);
  return holds;
}

TEST(SimReference, MatchesReferenceAcrossSweep) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const graph::Graph g = make_graph(seed);
    const fault::FaultPlan plan = make_plan(seed, g);
    for (const gossip::Algorithm algorithm : kAlgorithms) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " n=" +
                   std::to_string(g.vertex_count()) + " " +
                   gossip::algorithm_name(algorithm));
      const gossip::Solution sol = gossip::solve_gossip(g, algorithm);
      const graph::Graph tree = sol.instance.tree().as_graph();
      const std::vector<model::Message> initial = sol.instance.initial();
      sim::SimOptions options;
      options.faults = plan.empty() ? nullptr : &plan;
      expect_matches_reference(
          tree, sol.schedule, identity_holds(initial), options,
          [&](const sim::SimOptions& o) {
            return sim::simulate(tree, sol.schedule, initial, o);
          });
    }
  }
}

TEST(SimReference, CollisionModelsMatchReference) {
  // ConcurrentUpDown legalized for the collision-loss models: the channel
  // pre-pass must skip crashed, dropped and empty-handed senders exactly as
  // the reference does.
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const graph::Graph g = make_graph(seed);
    const fault::FaultPlan plan = make_plan(seed, g);
    const gossip::Solution sol =
        gossip::solve_gossip(g, gossip::Algorithm::kConcurrentUpDown);
    const graph::Graph tree = sol.instance.tree().as_graph();
    const std::vector<model::Message> initial = sol.instance.initial();
    for (const model::CommModel* m :
         {&model::radio_model(), &model::beep_model()}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " n=" +
                   std::to_string(g.vertex_count()) + " model=" + m->name());
      const model::AdaptResult adapted =
          model::adapt_schedule(tree, sol.schedule, *m);
      sim::SimOptions options;
      options.faults = plan.empty() ? nullptr : &plan;
      options.comm = m;
      expect_matches_reference(
          tree, adapted.schedule, identity_holds(initial), options,
          [&](const sim::SimOptions& o) {
            return sim::simulate(tree, adapted.schedule, initial, o);
          });
    }
  }
}

TEST(SimReference, FromHoldsMatchesReference) {
  // Degraded-start runs (the recovery path): the simulator resumes from
  // partial hold sets and must land in the reference's state.
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const graph::Graph g = make_graph(seed);
    const graph::Vertex n = g.vertex_count();
    const gossip::Solution sol =
        gossip::solve_gossip(g, gossip::Algorithm::kConcurrentUpDown);
    const graph::Graph tree = sol.instance.tree().as_graph();

    // Partial knowledge: node v starts holding the messages with
    // id <= v (a deterministic ragged start).
    BitMatrix holds(n, n);
    for (graph::Vertex v = 0; v < n; ++v) {
      for (graph::Vertex m = 0; m <= v; ++m) holds.set(v, m);
    }
    const fault::FaultPlan plan = make_plan(seed + 100, g);

    sim::SimOptions options;
    options.faults = plan.empty() ? nullptr : &plan;
    expect_matches_reference(
        tree, sol.schedule, holds, options, [&](const sim::SimOptions& o) {
          return sim::simulate_from_holds(tree, sol.schedule, holds, o);
        });
  }
}

}  // namespace
}  // namespace mg
