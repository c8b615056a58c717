// Differential battery for the distributed actor runtime (ISSUE 6): on
// fault-free runs, the schedule that *emerges* from n independent actors —
// each deciding from purely local information, exchanging real messages
// through the round-synchronized bus — must equal the centrally computed
// `solve_gossip` schedule round-for-round, for the full named-graph suite
// x all four algorithms.  ConcurrentUpDown runs the true §4 online rule
// (nothing but (i, j, k, n) is ever shipped to an actor); the other three
// run per-actor timetable slices, which still exercises the entire bus /
// causality / capture machinery end to end.  Theorem 1's n + r is checked
// on the emergent timeline, not the central plan.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "dist/runtime.h"
#include "gossip/timeline.h"
#include "graph/named.h"
#include "model/validator.h"
#include "sim/network_sim.h"
#include "test_util.h"

namespace mg::dist {
namespace {

constexpr gossip::Algorithm kAlgorithms[] = {
    gossip::Algorithm::kSimple, gossip::Algorithm::kUpDown,
    gossip::Algorithm::kConcurrentUpDown, gossip::Algorithm::kTelephone};

TEST(DistDifferential, EmergentMatchesCentralAcrossFamilies) {
  for (const auto& family : test::families()) {
    for (graph::Vertex knob : {3u, 5u, 8u}) {
      const graph::Graph g = family.make(knob);
      for (const gossip::Algorithm algorithm : kAlgorithms) {
        SCOPED_TRACE(family.name + " knob=" + std::to_string(knob) + " " +
                     gossip::algorithm_name(algorithm));
        const DistOutcome outcome = run_distributed(g, algorithm);
        ASSERT_TRUE(outcome.central.report.ok)
            << outcome.central.report.error;
        EXPECT_TRUE(outcome.verify.match) << outcome.verify.detail;
        EXPECT_TRUE(outcome.run.complete);
        EXPECT_EQ(outcome.run.recovery_rounds, 0u);
        EXPECT_EQ(outcome.run.skipped_sends, 0u);
        if (algorithm == gossip::Algorithm::kConcurrentUpDown) {
          EXPECT_TRUE(outcome.verify.n_plus_r_ok)
              << "emergent rounds " << outcome.verify.emergent_rounds;
        }
      }
    }
  }
}

TEST(DistDifferential, NamedPaperNetworks) {
  const std::pair<std::string, graph::Graph> graphs[] = {
      {"n1_cycle", graph::n1_cycle()},
      {"petersen", graph::petersen()},
      {"n3_witness", graph::n3_witness()},
      {"fig4", graph::fig4_network()},
  };
  for (const auto& [name, g] : graphs) {
    for (const gossip::Algorithm algorithm : kAlgorithms) {
      SCOPED_TRACE(name + "/" + gossip::algorithm_name(algorithm));
      const DistOutcome outcome = run_distributed(g, algorithm);
      EXPECT_TRUE(outcome.verify.match) << outcome.verify.detail;
      EXPECT_TRUE(outcome.run.complete);
    }
  }
}

TEST(DistDifferential, OnlineRuleNeverSeesTheCentralSchedule) {
  // Build the runtime by hand with the online rule only — no schedule is
  // passed anywhere — and compare against an independently computed
  // central solution.  This is the §4 claim in its strongest form.
  const graph::Graph g = graph::fig4_network();
  const gossip::Solution central =
      gossip::solve_gossip(g, gossip::Algorithm::kConcurrentUpDown);
  ASSERT_TRUE(central.report.ok);

  RuntimeOptions options;
  ActorRuntime runtime(central.instance, g, options);
  runtime.use_online_rule();
  const RunReport run = runtime.run(
      static_cast<std::size_t>(central.instance.vertex_count()) +
      central.instance.radius());

  const VerifyReport verdict = verify_against_schedule(
      central.schedule, run.emergent, central.instance.vertex_count(),
      central.instance.radius());
  EXPECT_TRUE(verdict.match) << verdict.detail;
  EXPECT_TRUE(verdict.n_plus_r_ok);
  EXPECT_TRUE(run.complete);
}

TEST(DistDifferential, EmergentScheduleIsIndependentlyValid) {
  // The emergent schedule is re-checked by the model validator, which
  // shares no code with the actors or the bus.
  for (const gossip::Algorithm algorithm : kAlgorithms) {
    SCOPED_TRACE(gossip::algorithm_name(algorithm));
    const DistOutcome outcome =
        run_distributed(graph::petersen(), algorithm);
    ASSERT_TRUE(outcome.verify.match) << outcome.verify.detail;
    const auto report = model::validate_schedule(
        outcome.central.instance.tree().as_graph(), outcome.run.emergent,
        outcome.central.instance.initial(),
        {.model = algorithm == gossip::Algorithm::kTelephone
                      ? &model::telephone_model()
                      : nullptr});
    EXPECT_TRUE(report.ok) << report.error;
  }
}

TEST(DistDifferential, TimelineMatchesCentralSimulation) {
  // Capture the emergent run through RoundTimeline and compare tallies
  // round-for-round with the central schedule simulated under the same
  // sink — the timeline view of the differential gate.
  const graph::Graph g = graph::petersen();
  const gossip::Solution central =
      gossip::solve_gossip(g, gossip::Algorithm::kConcurrentUpDown);
  ASSERT_TRUE(central.report.ok);

  gossip::RoundTimeline central_timeline(central.instance);
  sim::SimOptions sim_options;
  sim_options.sink = &central_timeline;
  const sim::SimResult central_run =
      sim::simulate(central.instance.tree().as_graph(), central.schedule,
                    central.instance.initial(), sim_options);
  ASSERT_TRUE(central_run.completed);

  gossip::RoundTimeline dist_timeline(central.instance);
  RuntimeOptions options;
  options.sink = &dist_timeline;
  const DistOutcome outcome =
      run_distributed(g, gossip::Algorithm::kConcurrentUpDown, options);
  ASSERT_TRUE(outcome.verify.match) << outcome.verify.detail;

  ASSERT_EQ(dist_timeline.rounds().size(), central_timeline.rounds().size());
  for (std::size_t t = 0; t < dist_timeline.rounds().size(); ++t) {
    SCOPED_TRACE("t=" + std::to_string(t));
    const auto& a = central_timeline.rounds()[t];
    const auto& b = dist_timeline.rounds()[t];
    EXPECT_EQ(a.sends, b.sends);
    EXPECT_EQ(a.receives, b.receives);
    EXPECT_EQ(a.s_sends, b.s_sends);
    EXPECT_EQ(a.l_sends, b.l_sends);
    EXPECT_EQ(a.r_sends, b.r_sends);
    EXPECT_EQ(a.o_sends, b.o_sends);
    EXPECT_EQ(a.up, b.up);
    EXPECT_EQ(a.down, b.down);
  }
  EXPECT_EQ(dist_timeline.send_rounds(),
            static_cast<std::size_t>(central.instance.vertex_count()) +
                central.instance.radius());
}

TEST(DistDifferential, ThreadedExecutionIsIdenticalToSerial) {
  // The worker pool must not change the emergent behaviour: same graph,
  // same seed, 0 vs 4 threads, bit-identical schedules.
  const graph::Graph g = graph::grid(4, 5);
  for (const gossip::Algorithm algorithm : kAlgorithms) {
    SCOPED_TRACE(gossip::algorithm_name(algorithm));
    RuntimeOptions serial;
    serial.threads = 0;
    RuntimeOptions threaded;
    threaded.threads = 4;
    const DistOutcome a = run_distributed(g, algorithm, serial);
    const DistOutcome b = run_distributed(g, algorithm, threaded);
    EXPECT_TRUE(model::equivalent(a.run.emergent, b.run.emergent));
    EXPECT_TRUE(a.verify.match) << a.verify.detail;
    EXPECT_TRUE(b.verify.match) << b.verify.detail;
  }
}

TEST(DistDifferential, DeliveryOrderShuffleDoesNotChangeBehaviour) {
  // Actors may not depend on the order envelopes land in their inbox: the
  // emergent schedule is invariant across bus shuffle seeds.
  const graph::Graph g = graph::fig4_network();
  model::Schedule reference;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    RuntimeOptions options;
    options.seed = seed;
    const DistOutcome outcome =
        run_distributed(g, gossip::Algorithm::kConcurrentUpDown, options);
    EXPECT_TRUE(outcome.verify.match)
        << "seed " << seed << ": " << outcome.verify.detail;
    if (seed == 0) {
      reference = outcome.run.emergent;
    } else {
      EXPECT_TRUE(model::equivalent(reference, outcome.run.emergent))
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace mg::dist
