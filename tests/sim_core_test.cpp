// Differential test for the two simulator cores: the word-parallel core
// (flat uint64 hold matrix, CSR schedule walk, single-word ORs) must be
// event-for-event identical to the legacy bitwise core — same completion,
// timing, knowledge curves, fault counters, final holds, buffered trace
// and streamed sink events — across the seeded random sweep x all four
// gossip algorithms x fault plans (probabilistic drops, crash-stop,
// per-edge delay).  The bitwise core is the oracle: it is the pre-existing
// implementation the library's results were pinned against.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fault/fault.h"
#include "gossip/solve.h"
#include "graph/generators.h"
#include "obs/trace.h"
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

/// A fault plan keyed off the seed: fault-free, drops only, or the full
/// mix of drops + a crash + per-edge delays.
fault::FaultPlan make_plan(std::uint64_t seed, const graph::Graph& g) {
  fault::FaultPlan plan;
  const graph::Vertex n = g.vertex_count();
  switch (seed % 3) {
    case 0:
      break;  // fault-free
    case 1:
      plan.drop_rate(0.15).seed(seed * 77 + 1);
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

/// Full structural equality of two SimResults, trace included.
void expect_equal(const sim::SimResult& bit, const sim::SimResult& word) {
  EXPECT_EQ(bit.completed, word.completed);
  EXPECT_EQ(bit.total_time, word.total_time);
  EXPECT_EQ(bit.completion_time, word.completion_time);
  EXPECT_EQ(bit.knowledge, word.knowledge);
  EXPECT_EQ(bit.missing, word.missing);
  EXPECT_EQ(bit.skipped_sends, word.skipped_sends);
  EXPECT_EQ(bit.injected_drops, word.injected_drops);
  EXPECT_EQ(bit.crashed_sends, word.crashed_sends);
  EXPECT_EQ(bit.lost_receives, word.lost_receives);
  EXPECT_EQ(bit.final_holds, word.final_holds);
  ASSERT_EQ(bit.trace.size(), word.trace.size());
  for (std::size_t i = 0; i < bit.trace.size(); ++i) {
    EXPECT_EQ(bit.trace[i].kind, word.trace[i].kind) << "event " << i;
    EXPECT_EQ(bit.trace[i].time, word.trace[i].time) << "event " << i;
    EXPECT_EQ(bit.trace[i].node, word.trace[i].node) << "event " << i;
    EXPECT_EQ(bit.trace[i].message, word.trace[i].message) << "event " << i;
    EXPECT_EQ(bit.trace[i].peer, word.trace[i].peer) << "event " << i;
  }
}

TEST(SimCore, WordMatchesBitwiseAcrossSweep) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const graph::Graph g = make_graph(seed);
    const fault::FaultPlan plan = make_plan(seed, g);
    for (const gossip::Algorithm algorithm : kAlgorithms) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " n=" +
                   std::to_string(g.vertex_count()) + " " +
                   gossip::algorithm_name(algorithm));
      const gossip::Solution sol = gossip::solve_gossip(g, algorithm);
      const graph::Graph tree = sol.instance.tree().as_graph();

      std::ostringstream bit_jsonl;
      std::ostringstream word_jsonl;
      obs::JsonLinesTraceSink bit_sink(bit_jsonl);
      obs::JsonLinesTraceSink word_sink(word_jsonl);

      sim::SimOptions bit_options;
      bit_options.core = sim::SimCore::kBitwise;
      bit_options.record_trace = true;
      bit_options.faults = plan.empty() ? nullptr : &plan;
      bit_options.sink = &bit_sink;
      const sim::SimResult bit =
          sim::simulate(tree, sol.schedule, sol.instance.initial(),
                        bit_options);

      sim::SimOptions word_options = bit_options;
      word_options.core = sim::SimCore::kWordParallel;
      word_options.sink = &word_sink;
      const sim::SimResult word =
          sim::simulate(tree, sol.schedule, sol.instance.initial(),
                        word_options);

      expect_equal(bit, word);
      // Streamed sinks see byte-identical JSONL, fault events included.
      EXPECT_EQ(bit_jsonl.str(), word_jsonl.str());
    }
  }
}

TEST(SimCore, FromHoldsMatchesBitwise) {
  // Degraded-start runs (the recovery path): both cores resume from the
  // same partial hold sets and must land in the same state.
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const graph::Graph g = make_graph(seed);
    const graph::Vertex n = g.vertex_count();
    const gossip::Solution sol =
        gossip::solve_gossip(g, gossip::Algorithm::kConcurrentUpDown);
    const graph::Graph tree = sol.instance.tree().as_graph();

    // Partial knowledge: node v starts holding the messages with
    // id <= v (a deterministic ragged start).
    std::vector<DynamicBitset> holds(n, DynamicBitset(n));
    for (graph::Vertex v = 0; v < n; ++v) {
      for (graph::Vertex m = 0; m <= v; ++m) holds[v].set(m);
    }
    const fault::FaultPlan plan = make_plan(seed + 100, g);

    sim::SimOptions bit_options;
    bit_options.core = sim::SimCore::kBitwise;
    bit_options.faults = plan.empty() ? nullptr : &plan;
    const sim::SimResult bit =
        sim::simulate_from_holds(tree, sol.schedule, holds, bit_options);

    sim::SimOptions word_options = bit_options;
    word_options.core = sim::SimCore::kWordParallel;
    const sim::SimResult word =
        sim::simulate_from_holds(tree, sol.schedule, holds, word_options);
    expect_equal(bit, word);
  }
}

TEST(SimCore, KeepFinalHoldsOff) {
  // Both cores honor keep_final_holds = false by leaving final_holds
  // empty while everything else is unchanged.
  const graph::Graph g = make_graph(5);
  const gossip::Solution sol =
      gossip::solve_gossip(g, gossip::Algorithm::kSimple);
  const graph::Graph tree = sol.instance.tree().as_graph();
  for (const sim::SimCore core :
       {sim::SimCore::kBitwise, sim::SimCore::kWordParallel}) {
    sim::SimOptions options;
    options.core = core;
    options.keep_final_holds = false;
    const sim::SimResult result =
        sim::simulate(tree, sol.schedule, sol.instance.initial(), options);
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(result.final_holds.empty());
  }
}

TEST(SimCore, LegacyDropListMatches) {
  // The legacy SimOptions::drop list (round, sender) must suppress the
  // same transmissions on both cores.
  const graph::Graph g = make_graph(7);
  const gossip::Solution sol =
      gossip::solve_gossip(g, gossip::Algorithm::kConcurrentUpDown);
  const graph::Graph tree = sol.instance.tree().as_graph();

  // Drop the first and last rounds' first transmissions — pairs that are
  // guaranteed to match real sends.
  sim::SimOptions bit_options;
  bit_options.core = sim::SimCore::kBitwise;
  const std::size_t last = sol.schedule.round_count() - 1;
  ASSERT_FALSE(sol.schedule.round(0).empty());
  ASSERT_FALSE(sol.schedule.round(last).empty());
  bit_options.drop = {{0, sol.schedule.round(0).front().sender},
                      {last, sol.schedule.round(last).front().sender}};
  const sim::SimResult bit =
      sim::simulate(tree, sol.schedule, sol.instance.initial(), bit_options);

  sim::SimOptions word_options = bit_options;
  word_options.core = sim::SimCore::kWordParallel;
  const sim::SimResult word =
      sim::simulate(tree, sol.schedule, sol.instance.initial(), word_options);
  expect_equal(bit, word);
  EXPECT_GT(bit.injected_drops, 0u);
}

}  // namespace
}  // namespace mg
