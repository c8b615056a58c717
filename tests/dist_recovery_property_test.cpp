// Adversarial property battery for the decentralized recovery protocol of
// the `mg::dist` actor runtime (ISSUE 6): live faults hit the fabric while
// the actors run, and after the planned horizon the survivors must re-derive
// what is missing purely from digest / grant / data exchanges with their
// neighbors — no coordinator ever inspects global state.  The sweep asserts
//   (a) connected survivors reach their achievable closure (full gossip
//       when nothing crashed),
//   (b) every emergent repair schedule passes the independent model
//       validator seeded with the end-of-main-phase hold sets,
//   (c) crash partitions degrade to an honest partial-coverage report,
//   (d) a too-small extra-round budget truncates honestly instead of
//       looping or lying.
//
// Per-edge delay plans are only paired with timetable rules: the strict §4
// online rule is defined for the synchronous unit-delay model, and a delayed
// o-stream arrival can make its relay plan locally inconsistent (see
// docs/DISTRIBUTED.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "dist/actor.h"
#include "dist/runtime.h"
#include "fault/fault.h"
#include "gossip/instance.h"
#include "gossip/recovery.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/named.h"
#include "model/validator.h"
#include "support/rng.h"

namespace mg::dist {
namespace {

/// Connectivity of the subgraph induced by the non-crashed processors.
bool survivors_connected(const graph::Graph& g,
                         const std::vector<graph::Vertex>& crashed) {
  const graph::Vertex n = g.vertex_count();
  std::vector<char> dead(n, 0);
  for (const graph::Vertex v : crashed) dead[v] = 1;
  graph::Vertex start = graph::kNoVertex;
  graph::Vertex live = 0;
  for (graph::Vertex v = 0; v < n; ++v) {
    if (!dead[v]) {
      if (start == graph::kNoVertex) start = v;
      ++live;
    }
  }
  if (live == 0) return true;  // vacuously
  std::vector<char> seen(n, 0);
  std::vector<graph::Vertex> queue{start};
  seen[start] = 1;
  graph::Vertex reached = 1;
  while (!queue.empty()) {
    const graph::Vertex v = queue.back();
    queue.pop_back();
    for (const graph::Vertex u : g.neighbors(v)) {
      if (!dead[u] && !seen[u]) {
        seen[u] = 1;
        ++reached;
        queue.push_back(u);
      }
    }
  }
  return reached == live;
}

graph::Graph sweep_graph(std::uint64_t seed) {
  Rng rng(0xd157ULL * (seed + 1));
  const auto n = static_cast<graph::Vertex>(8 + (seed * 5) % 18);
  switch (seed % 5) {
    case 0:
      return graph::cycle(n);
    case 1:
      return graph::grid(3, 3 + static_cast<graph::Vertex>(seed % 4));
    case 2:
      return graph::random_connected_gnp(n, 4.0 / static_cast<double>(n),
                                         rng);
    case 3:
      return graph::random_geometric(n, 0.35, rng);
    default:
      return graph::hypercube(3 + static_cast<unsigned>(seed % 2));
  }
}

fault::FaultPlan sweep_plan(std::uint64_t seed, const graph::Graph& g,
                            gossip::Algorithm algorithm) {
  const double rates[] = {0.05, 0.1, 0.2, 0.3};
  fault::FaultPlan plan;
  plan.drop_rate(rates[seed % 4]).seed(0xdeadULL + seed);
  if (seed % 3 == 1) {
    const auto victim =
        static_cast<graph::Vertex>((seed * 7) % g.vertex_count());
    plan.crash(victim, 2 + seed % 9);
  }
  if (seed % 4 == 2 &&
      algorithm != gossip::Algorithm::kConcurrentUpDown) {
    const auto edges = g.edges();
    const auto& e = edges[seed % edges.size()];
    plan.delay(e.first, e.second, 1 + seed % 3);
  }
  return plan;
}

TEST(DistRecoveryProperty, SeededLiveFaultSweep48) {
  constexpr std::uint64_t kCombos = 48;
  for (std::uint64_t seed = 0; seed < kCombos; ++seed) {
    const graph::Graph g = sweep_graph(seed);
    const auto algorithm = static_cast<gossip::Algorithm>(seed % 4);
    const fault::FaultPlan plan = sweep_plan(seed, g, algorithm);
    SCOPED_TRACE("seed " + std::to_string(seed) + " n=" +
                 std::to_string(g.vertex_count()) + " " +
                 gossip::algorithm_name(algorithm));

    RuntimeOptions options;
    options.faults = &plan;
    options.seed = seed;
    const DistOutcome outcome = run_distributed(g, algorithm, options);
    const RunReport& run = outcome.run;
    ASSERT_TRUE(outcome.central.report.ok) << outcome.central.report.error;

    // (b) The emergent repair is independently model-valid against the
    // hold sets the main phase actually produced.
    const auto repair_report = model::validate_schedule_general(
        g, run.repair, gossip::holds_to_initial_sets(run.main_holds),
        static_cast<std::size_t>(g.vertex_count()),
        {.require_completion = false});
    EXPECT_TRUE(repair_report.ok) << repair_report.error;

    // (a) connected survivors => closure; no crashes at all => full gossip.
    if (survivors_connected(g, run.crashed)) {
      EXPECT_TRUE(run.recovered);
      if (run.crashed.empty()) {
        EXPECT_TRUE(run.complete);
        EXPECT_DOUBLE_EQ(run.coverage, 1.0);
        for (const auto missing : run.missing) EXPECT_EQ(missing, 0u);
      }
    }

    // (c) the coverage report is plain arithmetic over `missing`.
    const auto n = static_cast<std::size_t>(g.vertex_count());
    std::vector<char> dead(n, 0);
    for (const graph::Vertex v : run.crashed) dead[v] = 1;
    std::size_t live = 0;
    std::size_t held = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (dead[v]) continue;
      ++live;
      held += n - run.missing[v];
    }
    if (live > 0) {
      EXPECT_DOUBLE_EQ(run.coverage,
                       static_cast<double>(held) /
                           (static_cast<double>(live) *
                            static_cast<double>(n)));
    }
    // Completion is exactly "no live actor misses anything".
    bool none_missing = true;
    for (std::size_t v = 0; v < n; ++v) {
      if (!dead[v] && run.missing[v] != 0) none_missing = false;
    }
    EXPECT_EQ(run.complete, none_missing);
  }
}

TEST(DistRecoveryProperty, DropsOnNamedGraphsRecoverFully) {
  // Drop-only plans never destroy information, just deliveries: every
  // algorithm on every named graph must close the gaps decentralized.
  const std::pair<std::string, graph::Graph> graphs[] = {
      {"cycle", graph::cycle(16)},
      {"petersen", graph::petersen()},
      {"grid", graph::grid(5, 5)},
      {"hypercube", graph::hypercube(4)},
  };
  for (const auto& [name, g] : graphs) {
    for (const gossip::Algorithm algorithm :
         {gossip::Algorithm::kSimple, gossip::Algorithm::kUpDown,
          gossip::Algorithm::kConcurrentUpDown,
          gossip::Algorithm::kTelephone}) {
      SCOPED_TRACE(name + "/" + gossip::algorithm_name(algorithm));
      fault::FaultPlan plan;
      plan.drop_rate(0.10).seed(42);
      RuntimeOptions options;
      options.faults = &plan;
      const DistOutcome outcome = run_distributed(g, algorithm, options);
      EXPECT_TRUE(outcome.run.complete);
      EXPECT_TRUE(outcome.run.recovered);
      EXPECT_DOUBLE_EQ(outcome.run.coverage, 1.0);
      EXPECT_TRUE(outcome.run.crashed.empty());
      EXPECT_GT(outcome.run.injected_drops, 0u);
    }
  }
}

TEST(DistRecoveryProperty, CrashPartitionDegradesGracefully) {
  // Crashing the center of a path partitions the survivors: each shore
  // floods to its own closure and the report stays honest.
  const auto g = graph::path(9);
  fault::FaultPlan plan;
  plan.crash(4, 2);
  RuntimeOptions options;
  options.faults = &plan;
  const DistOutcome outcome =
      run_distributed(g, gossip::Algorithm::kConcurrentUpDown, options);
  const RunReport& run = outcome.run;
  EXPECT_FALSE(run.complete);
  EXPECT_TRUE(run.recovered);  // each shore reached its closure
  ASSERT_EQ(run.crashed, std::vector<graph::Vertex>{4});
  EXPECT_FALSE(survivors_connected(g, run.crashed));
  EXPECT_LT(run.coverage, 1.0);
  EXPECT_GT(run.coverage, 0.0);
  // Both shores miss at least the far shore's four messages.
  for (graph::Vertex v = 0; v < 9; ++v) {
    if (v == 4) continue;
    EXPECT_GE(run.missing[v], 4u) << "v=" << v;
  }
}

TEST(DistRecoveryProperty, NoSurvivorAgreesWithCentralRecovery) {
  // Every processor of a 3x3 grid crashes at round 0.  Both drivers give
  // the one verdict: not complete, trivially recovered, nothing covered.
  const auto g = graph::grid(3, 3);
  fault::FaultPlan plan;
  for (graph::Vertex v = 0; v < 9; ++v) plan.crash(v, 0);
  RuntimeOptions options;
  options.faults = &plan;
  const RunReport run =
      run_distributed(g, gossip::Algorithm::kConcurrentUpDown, options).run;
  const gossip::RecoveryOutcome central = gossip::solve_with_recovery(g, plan);
  EXPECT_FALSE(run.complete);
  EXPECT_TRUE(run.recovered);
  EXPECT_EQ(run.coverage, 0.0);
  EXPECT_EQ(run.complete, central.complete);
  EXPECT_EQ(run.recovered, central.recovered);
  EXPECT_EQ(run.coverage, central.coverage);
  EXPECT_EQ(run.crashed, central.crashed);
  EXPECT_EQ(run.missing, central.missing);
}

TEST(DistRecoveryProperty, RoundBudgetTruncatesHonestly) {
  const auto g = graph::grid(5, 5);
  fault::FaultPlan plan;
  plan.drop_rate(0.35).seed(7);
  RuntimeOptions options;
  options.faults = &plan;
  options.extra_round_budget = 1;
  const DistOutcome outcome =
      run_distributed(g, gossip::Algorithm::kUpDown, options);
  EXPECT_LE(outcome.run.recovery_rounds, 1u);
  // One data round cannot close a 35%-drop run on a 25-node grid; the
  // report must say so rather than pretend.
  EXPECT_FALSE(outcome.run.complete);
  EXPECT_LT(outcome.run.coverage, 1.0);
  // The truncated repair is still model-valid as far as it got.
  const auto report = model::validate_schedule_general(
      g, outcome.run.repair,
      gossip::holds_to_initial_sets(outcome.run.main_holds), 25,
      {.require_completion = false});
  EXPECT_TRUE(report.ok) << report.error;
}

TEST(DistRecoveryProperty, RecoveryDisabledReportsRawMainPhase) {
  const auto g = graph::petersen();
  fault::FaultPlan plan;
  plan.drop_rate(0.25).seed(3);
  RuntimeOptions options;
  options.faults = &plan;
  options.recover = false;
  const DistOutcome outcome =
      run_distributed(g, gossip::Algorithm::kSimple, options);
  EXPECT_EQ(outcome.run.recovery_rounds, 0u);
  EXPECT_EQ(outcome.run.repair.round_count(), 0u);
  EXPECT_EQ(outcome.run.control_messages, 0u);
  EXPECT_FALSE(outcome.run.complete);
  // final holds == main-phase holds when no recovery ran.
  EXPECT_EQ(outcome.run.main_holds, outcome.run.final_holds);
}

TEST(DistRecoveryProperty, DeadActorsNeverAppearInRepairs) {
  const auto g = graph::cycle(8);
  fault::FaultPlan plan;
  plan.drop_rate(0.2).seed(11).crash(3, 4);
  RuntimeOptions options;
  options.faults = &plan;
  const DistOutcome outcome =
      run_distributed(g, gossip::Algorithm::kConcurrentUpDown, options);
  for (model::RoundCursor round(outcome.run.repair); round.next();) {
    for (const auto& tx : round.txs()) {
      EXPECT_NE(tx.sender, 3u);
      for (const graph::Vertex r : outcome.run.repair.receivers(tx)) {
        EXPECT_NE(r, 3u);
      }
    }
  }
  // Cycle minus one vertex is a path — still connected, so closure holds.
  EXPECT_TRUE(outcome.run.recovered);
}

TEST(DistRecoveryProperty, DeterministicUnderSeedAndThreads) {
  // Same plan + same bus seed => bit-identical emergent and repair
  // schedules, serial or threaded.
  const auto g = graph::grid(4, 4);
  fault::FaultPlan plan;
  plan.drop_rate(0.15).seed(9).crash(5, 6);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    RuntimeOptions options;
    options.faults = &plan;
    options.threads = threads;
    const DistOutcome a =
        run_distributed(g, gossip::Algorithm::kConcurrentUpDown, options);
    const DistOutcome b =
        run_distributed(g, gossip::Algorithm::kConcurrentUpDown, options);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_TRUE(model::equivalent(a.run.emergent, b.run.emergent));
    EXPECT_TRUE(model::equivalent(a.run.repair, b.run.repair));
    EXPECT_EQ(a.run.recovery_rounds, b.run.recovery_rounds);
    EXPECT_DOUBLE_EQ(a.run.coverage, b.run.coverage);
  }
}

/// Hold words for a 130-message digest with exactly `messages` set.
std::vector<std::uint64_t> digest_words(
    std::initializer_list<model::Message> messages) {
  std::vector<std::uint64_t> words(3, 0);
  for (const model::Message m : messages) {
    words[m / 64] |= std::uint64_t{1} << (m % 64);
  }
  return words;
}

Envelope digest_from(graph::Vertex sender,
                     const std::vector<std::uint64_t>& words,
                     std::uint64_t trace,
                     model::Message offer = kNoOffer) {
  Envelope e;
  e.kind = Envelope::Kind::kDigest;
  e.sender = sender;
  e.message = offer;
  e.trace = trace;
  e.digest = words;
  return e;
}

Envelope grant_from(graph::Vertex sender, model::Message request) {
  Envelope e;
  e.kind = Envelope::Kind::kGrant;
  e.sender = sender;
  e.message = request;
  return e;
}

Envelope data_of(model::Message message) {
  Envelope e;
  e.message = message;
  return e;
}

/// Actor 5 of 130, holding only its own message 5 (digests arrive from
/// whoever the test says; neighbors only matter for step_digest).
ProcessorActor grant_actor() {
  return ProcessorActor(5, 130, 5, {},
                        std::make_unique<TimetableRule>(5));
}

/// The one grant `out` carries: (granted sender, requested message).
std::pair<graph::Vertex, model::Message> only_grant(const Outbox& out) {
  EXPECT_TRUE(out.control.has_value());
  EXPECT_EQ(out.control_to.size(), 1u);
  if (!out.control.has_value() || out.control_to.size() != 1) return {};
  EXPECT_EQ(out.control->kind, Envelope::Kind::kGrant);
  EXPECT_EQ(out.control->sender, 5u);
  return {out.control_to[0], out.control->message};
}

TEST(DistRecoveryProperty, GrantRequestsLowestOfferedAcrossWordEdges) {
  // One offered message at a time, on both sides of each word boundary
  // and at the last valid bit.
  for (const model::Message m : {0u, 63u, 64u, 127u, 128u, 129u}) {
    SCOPED_TRACE("offer " + std::to_string(m));
    ProcessorActor actor = grant_actor();
    const auto words = digest_words({5, m});
    const Outbox out = actor.step_grant({digest_from(9, words, 77)});
    EXPECT_FALSE(actor.quiescent());
    EXPECT_EQ(only_grant(out), std::make_pair(graph::Vertex{9}, m));
    EXPECT_EQ(out.control_cause, 77u);
  }
  // Several offers spanning all three words: the lowest is requested.
  ProcessorActor actor = grant_actor();
  const auto words = digest_words({129, 64, 63});
  EXPECT_EQ(only_grant(actor.step_grant({digest_from(2, words, 1)})),
            std::make_pair(graph::Vertex{2}, model::Message{63}));
}

TEST(DistRecoveryProperty, GrantPicksTheLargestOfferThenTheLowestSender) {
  // Sender 11 offers three messages, sender 3 two, sender 8 one: the
  // count decides, not the id.
  {
    ProcessorActor actor = grant_actor();
    const auto a = digest_words({64, 100, 129});
    const auto b = digest_words({1, 2});
    const auto c = digest_words({0});
    const Outbox out = actor.step_grant(
        {digest_from(3, b, 1), digest_from(11, a, 2), digest_from(8, c, 3)});
    EXPECT_EQ(only_grant(out),
              std::make_pair(graph::Vertex{11}, model::Message{64}));
    EXPECT_EQ(out.control_cause, 2u);
  }
  // Senders 9 and 4 offer two messages each: the lower sender wins with
  // its lowest offered message, whatever order the inbox holds them in.
  const auto high = digest_words({5, 10, 100});
  const auto low = digest_words({70, 129});
  for (const bool low_first : {false, true}) {
    SCOPED_TRACE(low_first ? "low sender first" : "high sender first");
    ProcessorActor actor = grant_actor();
    std::vector<Envelope> inbox = {digest_from(9, high, 1),
                                   digest_from(4, low, 2)};
    if (low_first) std::swap(inbox[0], inbox[1]);
    const Outbox out = actor.step_grant(inbox);
    EXPECT_EQ(only_grant(out),
              std::make_pair(graph::Vertex{4}, model::Message{70}));
    EXPECT_EQ(out.control_cause, 2u);
  }
}

TEST(DistRecoveryProperty, DigestOfferingNothingLeavesTheActorQuiescent) {
  ProcessorActor actor = grant_actor();
  // Offers only what the actor already holds, plus bits past message 129
  // that no 130-message hold set can contain.
  auto words = digest_words({5});
  words[2] |= ~std::uint64_t{0} << 2;
  const Outbox out = actor.step_grant({digest_from(1, words, 4)});
  EXPECT_FALSE(out.control.has_value());
  EXPECT_TRUE(out.control_to.empty());
  EXPECT_TRUE(actor.quiescent());
}

TEST(DistRecoveryProperty, GrantPrefersAnAnnouncedOfferItLacks) {
  // Sender 11 offers three messages and announces nothing; sender 3 offers
  // two and announces 2, which the actor lacks: 3 wins, and the grant
  // requests the announced message, not the lowest offered.
  const auto large = digest_words({64, 100, 129});
  const auto small = digest_words({1, 2});
  {
    ProcessorActor actor = grant_actor();
    const Outbox out = actor.step_grant(
        {digest_from(11, large, 1), digest_from(3, small, 2, 2)});
    EXPECT_EQ(only_grant(out),
              std::make_pair(graph::Vertex{3}, model::Message{2}));
    EXPECT_EQ(out.control_cause, 2u);
  }
  // An announcement the actor already holds (its own message 5), one the
  // announcing digest does not hold, and no announcement all fall back to
  // the largest offer and its lowest offered message.
  for (const model::Message offer : {model::Message{5}, model::Message{50},
                                     kNoOffer}) {
    SCOPED_TRACE("sender 3 announces " + std::to_string(offer));
    ProcessorActor actor = grant_actor();
    const Outbox out = actor.step_grant(
        {digest_from(11, large, 1), digest_from(3, small, 2, offer)});
    EXPECT_EQ(only_grant(out),
              std::make_pair(graph::Vertex{11}, model::Message{64}));
    EXPECT_EQ(out.control_cause, 1u);
  }
  // Among announcing senders the largest offer wins, then the lowest id.
  {
    ProcessorActor actor = grant_actor();
    const Outbox out = actor.step_grant(
        {digest_from(11, large, 1, 100), digest_from(3, small, 2, 2)});
    EXPECT_EQ(only_grant(out),
              std::make_pair(graph::Vertex{11}, model::Message{100}));
  }
  {
    ProcessorActor actor = grant_actor();
    const auto high = digest_words({10, 20});
    const auto low = digest_words({70, 129});
    const Outbox out = actor.step_grant(
        {digest_from(9, high, 1, 20), digest_from(4, low, 2, 129)});
    EXPECT_EQ(only_grant(out),
              std::make_pair(graph::Vertex{4}, model::Message{129}));
  }
}

/// Actor 5 of 130 with neighbors 1..4, holding 5, 10, 20, 30 and 100.
ProcessorActor serving_actor() {
  ProcessorActor actor(5, 130, 5, {1, 2, 3, 4},
                       std::make_unique<TimetableRule>(5));
  actor.learn({data_of(10), data_of(20), data_of(30), data_of(100)});
  return actor;
}

TEST(DistRecoveryProperty, DataServesWhatMostGrantersLack) {
  // Each granter requests the lowest message the sender offers it (10, 20
  // and 30), but all three digests lack 100: one multicast of 100 serves
  // all three, whatever order the grants arrive in.
  const auto g1 = digest_words({1, 5, 20, 30});
  const auto g2 = digest_words({2, 5, 10, 30});
  const auto g3 = digest_words({3, 5, 10, 20});
  for (const bool reversed : {false, true}) {
    SCOPED_TRACE(reversed ? "grants reversed" : "grants in order");
    ProcessorActor actor = serving_actor();
    (void)actor.step_grant({digest_from(2, g2, 1), digest_from(3, g3, 2),
                            digest_from(1, g1, 3)});
    std::vector<Envelope> grants = {grant_from(1, 10), grant_from(2, 20),
                                    grant_from(3, 30)};
    if (reversed) std::reverse(grants.begin(), grants.end());
    const Outbox out = actor.step_data(grants);
    ASSERT_TRUE(out.data.has_value());
    EXPECT_EQ(out.data->sender, 5u);
    EXPECT_EQ(out.data->message, 100u);
    EXPECT_EQ(out.data->receivers, (std::vector<graph::Vertex>{1, 2, 3}));
  }
  // A message only some granters lack goes to exactly those granters.
  ProcessorActor actor = serving_actor();
  const auto h1 = digest_words({1, 5, 10, 20, 30});
  const auto h2 = digest_words({2, 5, 20, 30, 100});
  const auto h3 = digest_words({3, 5, 20, 30});
  (void)actor.step_grant({digest_from(1, h1, 1), digest_from(2, h2, 2),
                          digest_from(3, h3, 3)});
  const Outbox out = actor.step_data(
      {grant_from(1, 100), grant_from(2, 10), grant_from(3, 10)});
  ASSERT_TRUE(out.data.has_value());
  EXPECT_EQ(out.data->message, 10u);
  EXPECT_EQ(out.data->receivers, (std::vector<graph::Vertex>{2, 3}));
}

TEST(DistRecoveryProperty, DigestAnnouncesWhatMostNeighborsLackedLessServed) {
  ProcessorActor actor = serving_actor();
  std::vector<std::uint64_t> row(3, 0);
  // Nothing is announced before the first data step.
  ASSERT_TRUE(actor.step_digest(row).control.has_value());
  EXPECT_EQ(actor.step_digest(row).control->message, kNoOffer);
  // Neighbors lack 5 three times, 10 and 20 twice each and 30 and 100
  // once each.  Granters 1 and 2 are served 5, which leaves 10 and 20 the
  // most lacked: the lower, 10, is announced.
  const auto n1 = digest_words({1, 20, 30, 100});
  const auto n2 = digest_words({2, 30, 100});
  const auto n3 = digest_words({3, 10, 20, 30});
  const auto n4 = digest_words({4, 5, 10, 20, 100});
  (void)actor.step_grant({digest_from(1, n1, 1), digest_from(2, n2, 2),
                          digest_from(3, n3, 3), digest_from(4, n4, 4)});
  const Outbox served =
      actor.step_data({grant_from(1, 5), grant_from(2, 5)});
  ASSERT_TRUE(served.data.has_value());
  EXPECT_EQ(served.data->message, 5u);
  EXPECT_EQ(served.data->receivers, (std::vector<graph::Vertex>{1, 2}));
  EXPECT_EQ(actor.step_digest(row).control->message, 10u);
  // A cycle in which every neighbor digest shows nothing lacking plans no
  // offer.
  const auto all = digest_words({1, 2, 3, 4, 5, 10, 20, 30, 100});
  (void)actor.step_grant({digest_from(1, all, 5), digest_from(4, all, 6)});
  EXPECT_FALSE(actor.step_data({}).data.has_value());
  EXPECT_EQ(actor.step_digest(row).control->message, kNoOffer);
}

TEST(DistRecoveryProperty, RecoveryStaysNearTheCentralPlanner) {
  // The online rule on seeded geometric networks under 1% drops and a
  // crash of the tree root at mid-horizon.  The decentralized repair needs
  // at most 1.25x the rounds the central planner needs on the same
  // end-of-main-phase holds, and at least one round per message any actor
  // gained (one receive per round).
  constexpr graph::Vertex kN = 64;
  const double nd = kN;
  const double radius = std::sqrt(2.0 * std::log(nd) / (3.14159265358979 * nd));
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(0x9ea7ULL + seed);
    const graph::Graph g = graph::random_geometric(kN, radius, rng);
    const gossip::Instance instance = gossip::Instance::from_network(g);
    const std::size_t horizon = kN + instance.radius();
    fault::FaultPlan plan;
    plan.drop_rate(0.01).seed(0x51deULL + seed).crash(instance.tree().root(),
                                                       horizon / 2);
    RuntimeOptions options;
    options.faults = &plan;
    ActorRuntime runtime(instance, g, options);
    runtime.use_online_rule();
    const RunReport run = runtime.run(horizon);
    ASSERT_TRUE(run.recovered);

    const std::size_t central =
        gossip::partial_completion_schedule(g, run.main_holds,
                                            plan.alive_at(horizon, kN))
            .round_count();
    EXPECT_LE(4 * run.recovery_rounds, 5 * central)
        << run.recovery_rounds << " recovery rounds, central " << central;
    std::size_t most_gained = 0;
    for (graph::Vertex v = 0; v < kN; ++v) {
      most_gained = std::max(most_gained, run.final_holds.count(v) -
                                              run.main_holds.count(v));
    }
    EXPECT_GE(run.recovery_rounds, most_gained);
    EXPECT_GT(most_gained, 0u);
  }
}

TEST(DistRecoveryProperty, DigestSnapshotIsACopyOfTheHoldWords) {
  // step_digest writes the hold words into the caller's row once, and the
  // one envelope every neighbor receives views that row.
  ProcessorActor actor(5, 130, 5, {1, 2, 3},
                       std::make_unique<TimetableRule>(5));
  std::vector<std::uint64_t> row(3, ~std::uint64_t{0});
  const Outbox out = actor.step_digest(row);
  EXPECT_TRUE(std::ranges::equal(row, actor.holds().row(0)));
  ASSERT_TRUE(out.control.has_value());
  EXPECT_EQ(std::vector<graph::Vertex>(out.control_to.begin(),
                                       out.control_to.end()),
            (std::vector<graph::Vertex>{1, 2, 3}));
  EXPECT_EQ(out.control->kind, Envelope::Kind::kDigest);
  EXPECT_EQ(out.control->sender, 5u);
  EXPECT_EQ(out.control->digest.data(), row.data());
  EXPECT_EQ(out.control->digest.size(), row.size());
  // Learning afterwards changes the actor, not the snapshot it sent.
  Envelope data;
  data.message = 99;
  actor.learn({data});
  EXPECT_TRUE(actor.holds().test(0, 99));
  EXPECT_EQ(row, digest_words({5}));
}

}  // namespace
}  // namespace mg::dist
