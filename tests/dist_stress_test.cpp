// Concurrency stress battery for the `mg::dist` runtime — the test the TSAN
// CI leg hammers.  Many actors step on a real worker pool, reading their
// inboxes concurrently, between the serial capture phases that alone post
// to the mailbox bus; the assertions are
// (1) accounting identities: the RunReport tallies equal both the emergent
//     schedule's own arithmetic and the `dist.*` observability counters,
// (2) determinism: for a fixed seed the emergent execution is bit-identical
//     across reruns and across worker counts,
// (3) the recovery control plane stays race-free under threads + live
//     faults.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <string>
#include <utility>

#include "dist/runtime.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "model/schedule.h"
#include "obs/registry.h"

namespace mg::dist {
namespace {

/// Sum of transmissions / point-to-point deliveries a schedule implies.
struct ScheduleTally {
  std::size_t sends = 0;
  std::size_t deliveries = 0;
};

ScheduleTally tally(const model::Schedule& schedule) {
  return {schedule.transmission_count(), schedule.delivery_count()};
}

TEST(DistStress, ManyActorsManyThreadsAccountingIdentities) {
  const graph::Graph g = graph::grid(8, 8);  // 64 actors
  RuntimeOptions options;
  options.threads = 8;

#if MG_OBS_ENABLED
  const obs::Snapshot before = obs::Registry::global().snapshot();
#endif
  const DistOutcome outcome =
      run_distributed(g, gossip::Algorithm::kConcurrentUpDown, options);
  ASSERT_TRUE(outcome.verify.match) << outcome.verify.detail;
  ASSERT_TRUE(outcome.run.complete);

  // (1a) RunReport tallies == the emergent schedule's own arithmetic.
  const ScheduleTally emergent = tally(outcome.run.emergent);
  EXPECT_EQ(outcome.run.messages, emergent.sends);
  EXPECT_EQ(outcome.run.deliveries, emergent.deliveries);
  EXPECT_EQ(outcome.run.repair.round_count(), 0u);

#if MG_OBS_ENABLED
  // (1b) RunReport tallies == the dist.* counter deltas this run added.
  const obs::Snapshot after = obs::Registry::global().snapshot();
  const auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };
  EXPECT_EQ(delta("dist.runs"), 1u);
  EXPECT_EQ(delta("dist.rounds"), outcome.run.horizon);
  EXPECT_EQ(delta("dist.messages"), outcome.run.messages);
  EXPECT_EQ(delta("dist.deliveries"), outcome.run.deliveries);
  EXPECT_EQ(delta("dist.control_messages"), 0u);
  EXPECT_EQ(delta("dist.injected_drops"), 0u);
  EXPECT_EQ(delta("dist.crashed_sends"), 0u);
#endif
}

TEST(DistStress, BitIdenticalRerunsForFixedSeed) {
  const graph::Graph g = graph::grid(6, 8);
  fault::FaultPlan plan;
  plan.drop_rate(0.15).seed(21).crash(17, 10);
  for (const std::uint64_t seed : {1ull, 7ull, 99ull}) {
    SCOPED_TRACE("bus seed " + std::to_string(seed));
    RuntimeOptions options;
    options.faults = &plan;
    options.threads = 8;
    options.seed = seed;
    const DistOutcome a =
        run_distributed(g, gossip::Algorithm::kConcurrentUpDown, options);
    const DistOutcome b =
        run_distributed(g, gossip::Algorithm::kConcurrentUpDown, options);
    EXPECT_TRUE(model::equivalent(a.run.emergent, b.run.emergent));
    EXPECT_TRUE(model::equivalent(a.run.repair, b.run.repair));
    EXPECT_EQ(a.run.messages, b.run.messages);
    EXPECT_EQ(a.run.deliveries, b.run.deliveries);
    EXPECT_EQ(a.run.control_messages, b.run.control_messages);
    EXPECT_EQ(a.run.recovery_rounds, b.run.recovery_rounds);
    EXPECT_EQ(a.run.injected_drops, b.run.injected_drops);
    EXPECT_DOUBLE_EQ(a.run.coverage, b.run.coverage);
  }
}

TEST(DistStress, WorkerCountNeverChangesTheExecution) {
  const graph::Graph g = graph::cycle(48);
  fault::FaultPlan plan;
  plan.drop_rate(0.1).seed(5);
  std::optional<DistOutcome> reference;
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2},
                                    std::size_t{8}, std::size_t{16}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    RuntimeOptions options;
    options.faults = &plan;
    options.threads = threads;
#if MG_OBS_ENABLED
    const std::uint64_t samples_before = obs::Registry::global()
                                             .snapshot()
                                             .histogram("dist.recovery_round_ns")
                                             .count;
#endif
    DistOutcome outcome =
        run_distributed(g, gossip::Algorithm::kUpDown, options);
    EXPECT_TRUE(outcome.run.complete);
#if MG_OBS_ENABLED
    // Drops only: recovery ends on completion, after its last data cycle;
    // the cycle that finds everyone complete is not sampled.
    EXPECT_EQ(obs::Registry::global()
                      .snapshot()
                      .histogram("dist.recovery_round_ns")
                      .count -
                  samples_before,
              outcome.run.recovery_rounds);
#endif
    if (!reference.has_value()) {
      reference.emplace(std::move(outcome));
    } else {
      EXPECT_TRUE(
          model::equivalent(reference->run.emergent, outcome.run.emergent));
      EXPECT_TRUE(
          model::equivalent(reference->run.repair, outcome.run.repair));
      EXPECT_EQ(reference->run.recovery_rounds, outcome.run.recovery_rounds);
      EXPECT_EQ(reference->run.control_messages,
                outcome.run.control_messages);
    }
  }
}

TEST(DistStress, RecoveryControlPlaneUnderThreadsAndLiveFaults) {
  // Crash + heavy drops force many digest/grant/data cycles; 8 workers
  // write their own snapshot rows in the digest phase and read their
  // neighbors' rows in the grant phase, while only the serial capture
  // phases write the bus.
  const graph::Graph g = graph::grid(7, 7);
  fault::FaultPlan plan;
  plan.drop_rate(0.25).seed(13).crash(24, 8);

#if MG_OBS_ENABLED
  const obs::Snapshot before = obs::Registry::global().snapshot();
#endif
  RuntimeOptions options;
  options.faults = &plan;
  options.threads = 8;
  const DistOutcome outcome =
      run_distributed(g, gossip::Algorithm::kConcurrentUpDown, options);
  // Grid minus one interior vertex stays connected: full closure.
  EXPECT_TRUE(outcome.run.recovered);
  EXPECT_GT(outcome.run.recovery_rounds, 0u);
  EXPECT_GT(outcome.run.control_messages, 0u);

  const ScheduleTally main_tally = tally(outcome.run.emergent);
  const ScheduleTally repair_tally = tally(outcome.run.repair);
  EXPECT_EQ(outcome.run.messages, main_tally.sends + repair_tally.sends);

#if MG_OBS_ENABLED
  const obs::Snapshot after = obs::Registry::global().snapshot();
  const auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };
  EXPECT_EQ(delta("dist.messages"), outcome.run.messages);
  EXPECT_EQ(delta("dist.deliveries"), outcome.run.deliveries);
  EXPECT_EQ(delta("dist.control_messages"), outcome.run.control_messages);
  EXPECT_EQ(delta("dist.recovery.rounds"), outcome.run.recovery_rounds);
  // One recovery-cycle latency sample per completed digest/grant/data cycle.
  EXPECT_EQ(after.histogram("dist.recovery_round_ns").count -
                before.histogram("dist.recovery_round_ns").count,
            outcome.run.recovery_rounds);
  EXPECT_EQ(delta("dist.injected_drops"), outcome.run.injected_drops);
  EXPECT_EQ(delta("dist.crashed_sends"), outcome.run.crashed_sends);
  EXPECT_EQ(delta("dist.lost_receives"), outcome.run.lost_receives);
#endif
}

TEST(DistStress, RepeatedThreadedRunsShareNothing) {
  // Back-to-back threaded runs on one graph must not leak state between
  // runtimes (each builds its own bus, pool, and actors).
  const graph::Graph g = graph::grid(5, 6);
  model::Schedule reference;
  for (int iteration = 0; iteration < 6; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    RuntimeOptions options;
    options.threads = 8;
    const DistOutcome outcome =
        run_distributed(g, gossip::Algorithm::kTelephone, options);
    ASSERT_TRUE(outcome.verify.match) << outcome.verify.detail;
    if (iteration == 0) {
      reference = outcome.run.emergent;
    } else {
      EXPECT_TRUE(model::equivalent(reference, outcome.run.emergent));
    }
  }
}

}  // namespace
}  // namespace mg::dist
