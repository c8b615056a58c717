// RoundTimeline tests: the round-level gossip profiler must reproduce the
// paper's accounting on a fault-free ConcurrentUpDown run (exactly n + r
// send rounds — Theorem 1 — with every send classified into the §3.2
// taxonomy and every delivery given an up/down direction), attribute fault
// losses to their rounds, and export a timeline JSON that round-trips
// through the repo's JSON reader.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "fault/fault.h"
#include "gossip/solve.h"
#include "gossip/timeline.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "reference_schedule.h"
#include "sim/network_sim.h"
#include "support/json_read.h"

namespace mg::gossip {
namespace {

using support::JsonValue;
using support::parse_json;

/// Solve + simulate with the timeline attached; returns the sim result.
sim::SimResult run_with_timeline(const Solution& sol, RoundTimeline& timeline,
                                 const sim::SimOptions& base = {}) {
  sim::SimOptions options = base;
  options.sink = &timeline;
  return sim::simulate(sol.instance.tree().as_graph(), sol.schedule,
                       sol.instance.initial(), options);
}

TEST(Timeline, PetersenConcurrentUpDownMatchesTheorem1) {
  const auto sol =
      solve_gossip(graph::petersen(), Algorithm::kConcurrentUpDown);
  ASSERT_TRUE(sol.report.ok);
  RoundTimeline timeline(sol.instance);
  const sim::SimResult run = run_with_timeline(sol, timeline);
  EXPECT_TRUE(run.completed);

  const std::size_t n = sol.instance.vertex_count();
  const std::size_t r = sol.instance.radius();
  EXPECT_EQ(timeline.send_rounds(), n + r);  // Theorem 1: exactly n + r

  RoundTally totals;
  for (const RoundTally& tally : timeline.rounds()) {
    totals.sends += tally.sends;
    totals.receives += tally.receives;
    totals.s_sends += tally.s_sends;
    totals.l_sends += tally.l_sends;
    totals.r_sends += tally.r_sends;
    totals.o_sends += tally.o_sends;
    totals.up += tally.up;
    totals.down += tally.down;
    totals.drops += tally.drops + tally.crashed + tally.skipped + tally.lost;
  }
  // Fault-free: every scheduled transmission is sent and delivered.
  EXPECT_EQ(totals.sends, sol.schedule.transmission_count());
  EXPECT_EQ(totals.receives, sol.schedule.delivery_count());
  EXPECT_EQ(totals.drops, 0u);
  // The s/l/r/o classes partition the sends (§3.2).
  EXPECT_EQ(totals.s_sends + totals.l_sends + totals.r_sends + totals.o_sends,
            totals.sends);
  EXPECT_GT(totals.s_sends, 0u);
  // On a tree, every delivery moves up or down.
  EXPECT_EQ(totals.up + totals.down, totals.receives);
  EXPECT_GT(totals.up, 0u);
  EXPECT_GT(totals.down, 0u);

  // The whole point of ConcurrentUpDown: up and down phases overlap.
  const RoundTimeline::PhaseOverlap overlap = timeline.phase_overlap();
  EXPECT_GT(overlap.overlap_rounds, 0u);
  EXPECT_LE(overlap.overlap_rounds, overlap.up_rounds);
  EXPECT_LE(overlap.overlap_rounds, overlap.down_rounds);
  EXPECT_LE(overlap.total_rounds, timeline.rounds().size());

  // Activity grid: a send round flags at least one sender cell.
  bool any_send_cell = false;
  for (Vertex v = 0; v < timeline.processor_count(); ++v) {
    any_send_cell = any_send_cell ||
                    (timeline.activity(0, v) & kActivitySend) != 0;
  }
  EXPECT_TRUE(any_send_cell);
  EXPECT_EQ(timeline.activity(10'000, 0), 0u);  // out of range reads as idle
}

TEST(Timeline, InjectedDropIsAttributedToItsRound) {
  const auto sol = solve_gossip(graph::cycle(8), Algorithm::kConcurrentUpDown);
  ASSERT_TRUE(sol.report.ok);

  // Find a transmission to kill: round 1's first sender.
  const auto rounds = test::rounds_of(sol.schedule);
  const auto& round1 = rounds.at(1);
  ASSERT_FALSE(round1.empty());
  const Vertex victim = round1.front().sender;

  RoundTimeline timeline(sol.instance);
  fault::FaultPlan plan;
  plan.drop(1, victim);
  sim::SimOptions options;
  options.faults = &plan;
  const sim::SimResult run = run_with_timeline(sol, timeline, options);
  EXPECT_GE(run.injected_drops, 1u);

  std::uint64_t drops = 0;
  for (const RoundTally& tally : timeline.rounds()) drops += tally.drops;
  EXPECT_EQ(drops, run.injected_drops);
  EXPECT_GE(timeline.rounds()[1].drops, 1u);
  EXPECT_NE(timeline.activity(1, victim) & kActivityFault, 0);
  // The cascade (skipped sends downstream of the drop) is tallied too.
  std::uint64_t skipped = 0;
  for (const RoundTally& tally : timeline.rounds()) skipped += tally.skipped;
  EXPECT_EQ(skipped, run.skipped_sends);
  // Suppressed transmissions still count toward the round span.
  EXPECT_EQ(timeline.send_rounds(),
            sol.instance.vertex_count() + sol.instance.radius());
}

TEST(Timeline, JsonExportRoundTrips) {
  const auto sol =
      solve_gossip(graph::petersen(), Algorithm::kConcurrentUpDown);
  ASSERT_TRUE(sol.report.ok);
  RoundTimeline timeline(sol.instance);
  (void)run_with_timeline(sol, timeline);

  std::ostringstream out;
  timeline.write_json(out);
  const JsonValue doc = parse_json(out.str());
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(doc.at("schema_version").as_u64(), 1u);
  EXPECT_EQ(doc.at("n").as_u64(), sol.instance.vertex_count());
  EXPECT_EQ(doc.at("send_rounds").as_u64(),
            sol.instance.vertex_count() + sol.instance.radius());
  EXPECT_EQ(doc.at("totals").at("sends").as_u64(),
            sol.schedule.transmission_count());
  EXPECT_EQ(doc.at("totals").at("receives").as_u64(),
            sol.schedule.delivery_count());
  EXPECT_EQ(doc.at("totals").at("drops").as_u64(), 0u);
  EXPECT_GT(doc.at("overlap").at("overlap_rounds").as_u64(), 0u);

  const JsonValue& rounds = doc.at("rounds");
  ASSERT_EQ(rounds.kind, JsonValue::Kind::kArray);
  ASSERT_EQ(rounds.array.size(), doc.at("time_units").as_u64());
  std::uint64_t sends = 0;
  for (std::size_t t = 0; t < rounds.array.size(); ++t) {
    const JsonValue& row = rounds.array[t];
    EXPECT_EQ(row.at("t").as_u64(), t);
    const JsonValue& classes = row.at("classes");
    EXPECT_EQ(classes.at("s").as_u64() + classes.at("l").as_u64() +
                  classes.at("r").as_u64() + classes.at("o").as_u64(),
              row.at("sends").as_u64());
    EXPECT_EQ(row.at("up").as_u64() + row.at("down").as_u64(),
              row.at("receives").as_u64());
    EXPECT_EQ(row.at("faults").at("drops").as_u64(), 0u);
    sends += row.at("sends").as_u64();
  }
  EXPECT_EQ(sends, doc.at("totals").at("sends").as_u64());
}

TEST(Timeline, LipRipPartitionBodySends) {
  // lip/rip classify a non-root sender's own-subtree (body) messages; the
  // two kinds never exceed the body sends and at least one lip send must
  // exist in any multi-vertex run (every non-root start message is one).
  const auto sol = solve_gossip(graph::grid(3, 3),
                                Algorithm::kConcurrentUpDown);
  ASSERT_TRUE(sol.report.ok);
  RoundTimeline timeline(sol.instance);
  (void)run_with_timeline(sol, timeline);

  std::uint64_t lip = 0;
  std::uint64_t rip = 0;
  std::uint64_t own = 0;
  for (const RoundTally& tally : timeline.rounds()) {
    lip += tally.lip_sends;
    rip += tally.rip_sends;
    own += tally.s_sends + tally.l_sends + tally.r_sends;
  }
  EXPECT_GT(lip, 0u);
  EXPECT_LE(lip + rip, own);
}

}  // namespace
}  // namespace mg::gossip
