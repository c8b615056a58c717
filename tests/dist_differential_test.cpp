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

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "dist/mailbox.h"
#include "dist/runtime.h"
#include "gossip/timeline.h"
#include "graph/named.h"
#include "model/validator.h"
#include "sim/network_sim.h"
#include "support/contracts.h"
#include "support/fingerprint.h"
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

// --- delivery order, pinned at the bus ----------------------------------------
//
// Whole runs cannot pin the order the bus delivers in: without per-edge
// delays an inbox holds at most one data envelope, and nothing an actor
// decides depends on the order of the rest.  So the order is pinned here,
// on a bus driven directly.

constexpr graph::Vertex kProbeBoxes = 6;
constexpr std::size_t kProbeMaxDelay = 2;
constexpr std::size_t kProbeFlips = 4;
constexpr graph::Vertex kProbeSenders = 12;

struct Post {
  graph::Vertex to = 0;
  std::size_t delay = 0;
  Envelope envelope;
};

/// What the probe posts right before flip `step`: every one of twelve
/// senders (ids are labels to the bus) sends two data envelopes with
/// delays 0-2, every third sender fans a digest out to three mailboxes and
/// every fourth grants one.  Each arrives by the last flip, and no mailbox
/// sees one (kind, sender, message) key twice at one flip.
std::vector<Post> probe_posts(
    std::size_t step, const std::vector<std::vector<std::uint64_t>>& rows) {
  std::vector<Post> posts;
  std::uint64_t trace = 100 * (step + 1);
  for (graph::Vertex s = 0; s < kProbeSenders; ++s) {
    for (graph::Vertex k = 0; k < 2; ++k) {
      Envelope e;
      e.sender = s;
      e.message = static_cast<model::Message>(step * 32 + s * 2 + k);
      e.from_parent = (s + k) % 2 == 0;
      e.trace = ++trace;
      const std::size_t delay = std::min<std::size_t>(
          (s + k + step) % (kProbeMaxDelay + 1), kProbeFlips - 1 - step);
      posts.push_back({(s + 3 * k) % kProbeBoxes, delay, e});
    }
    if (s % 3 == 0) {
      Envelope digest;
      digest.kind = Envelope::Kind::kDigest;
      digest.sender = s;
      digest.trace = ++trace;
      digest.digest = rows[s];
      for (const graph::Vertex hop : {1u, 2u, 4u}) {
        posts.push_back({(s + hop) % kProbeBoxes, 0, digest});
      }
    }
    if (s % 4 == 1) {
      Envelope grant;
      grant.kind = Envelope::Kind::kGrant;
      grant.sender = s;
      grant.message = static_cast<model::Message>(step * 32 + s);
      grant.trace = ++trace;
      posts.push_back({(s + 5) % kProbeBoxes, 0, grant});
    }
  }
  return posts;
}

/// Digest rows of the probe's senders: two words each.
std::vector<std::vector<std::uint64_t>> probe_rows() {
  std::vector<std::vector<std::uint64_t>> rows;
  for (std::uint64_t s = 0; s < kProbeSenders; ++s) {
    rows.push_back({s * 0x0101010101010101ULL, ~s});
  }
  return rows;
}

/// Runs the probe on a bus seeded with `seed`, posting each step's batch
/// forward or reversed; returns every inbox, flip-major.
std::vector<std::vector<Envelope>> run_probe(
    std::uint64_t seed, bool reversed,
    const std::vector<std::vector<std::uint64_t>>& rows) {
  MailboxBus bus(kProbeBoxes, seed, kProbeMaxDelay);
  std::vector<std::vector<Envelope>> inboxes;
  for (std::size_t step = 0; step < kProbeFlips; ++step) {
    std::vector<Post> posts = probe_posts(step, rows);
    if (reversed) std::reverse(posts.begin(), posts.end());
    for (const Post& p : posts) bus.post(p.to, p.delay, p.envelope);
    bus.flip(step);
    for (graph::Vertex v = 0; v < kProbeBoxes; ++v) {
      inboxes.push_back(bus.inbox(v));
    }
  }
  return inboxes;
}

std::uint64_t fingerprint(const std::vector<std::vector<Envelope>>& inboxes) {
  Fingerprint64 fp;
  for (const std::vector<Envelope>& inbox : inboxes) {
    fp.update(inbox.size());
    for (const Envelope& e : inbox) {
      fp.update(static_cast<std::uint64_t>(e.kind));
      fp.update(e.sender);
      fp.update(e.message);
      fp.update(e.from_parent ? 1 : 0);
      fp.update(e.trace);
      fp.update(e.digest.size());
      for (const std::uint64_t word : e.digest) fp.update(word);
    }
  }
  return fp.digest();
}

bool same_sequence(const std::vector<Envelope>& a,
                   const std::vector<Envelope>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Envelope& x, const Envelope& y) {
                      return x.kind == y.kind && x.sender == y.sender &&
                             x.message == y.message &&
                             x.from_parent == y.from_parent &&
                             x.trace == y.trace &&
                             x.digest.data() == y.digest.data() &&
                             x.digest.size() == y.digest.size();
                    });
}

TEST(DistBusOrder, PostingOrderNeverChangesDelivery) {
  const auto rows = probe_rows();
  const auto forward = run_probe(0x5eed, false, rows);
  const auto reversed = run_probe(0x5eed, true, rows);
  ASSERT_EQ(forward.size(), kProbeBoxes * kProbeFlips);
  ASSERT_EQ(reversed.size(), forward.size());
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < forward.size(); ++i) {
    SCOPED_TRACE("flip " + std::to_string(i / kProbeBoxes) + " mailbox " +
                 std::to_string(i % kProbeBoxes));
    EXPECT_TRUE(same_sequence(forward[i], reversed[i]));
    delivered += forward[i].size();
  }
  // 24 data, 12 digests and 3 grants per step.
  EXPECT_EQ(delivered, kProbeFlips * (2 * kProbeSenders + 12 + 3));
}

TEST(DistBusOrder, DeliveryOrderIsPinned) {
  // The canonical (kind, sender, message) sort followed by the shuffle
  // seeded from (seed, round, receiver), byte for byte.  Recorded on the
  // commit before the capture phases posted straight into the bus.
  const auto rows = probe_rows();
  EXPECT_EQ(fingerprint(run_probe(0x5eed, false, rows)),
            0xf5f2a1d774dbbe0cULL);
}

TEST(DistBusOrder, BusSeedReordersButKeepsEveryInbox) {
  const auto rows = probe_rows();
  const auto a = run_probe(0x5eed, false, rows);
  const auto b = run_probe(0x5eed + 1, false, rows);
  ASSERT_EQ(a.size(), b.size());
  std::size_t reordered = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_sequence(a[i], b[i])) ++reordered;
    std::vector<Envelope> sa = a[i];
    std::vector<Envelope> sb = b[i];
    std::sort(sa.begin(), sa.end(), envelope_less);
    std::sort(sb.begin(), sb.end(), envelope_less);
    EXPECT_TRUE(same_sequence(sa, sb)) << "inbox " << i;
  }
  EXPECT_GT(reordered, 0u);
}

TEST(DistBusOrder, ControlEnvelopesTravelWithZeroDelay) {
  MailboxBus bus(kProbeBoxes, 1, kProbeMaxDelay);
  for (const Envelope::Kind kind :
       {Envelope::Kind::kDigest, Envelope::Kind::kGrant}) {
    Envelope e;
    e.kind = kind;
    for (std::size_t delay = 1; delay <= kProbeMaxDelay; ++delay) {
      EXPECT_THROW(bus.post(0, delay, e), ContractViolation);
    }
    EXPECT_NO_THROW(bus.post(0, 0, e));
  }
  Envelope data;
  EXPECT_NO_THROW(bus.post(1, kProbeMaxDelay, data));
}

}  // namespace
}  // namespace mg::dist
