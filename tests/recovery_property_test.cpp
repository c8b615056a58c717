// Adversarial property battery for the self-healing driver
// `gossip::solve_with_recovery` (ISSUE 3): a seeded sweep over >= 64
// (graph, fault-plan) combinations asserting that
//   (a) recovery completes whenever the surviving graph is connected
//       (full completion when nothing crashed; achievable closure when
//       crashes ate messages),
//   (b) every healed/repair schedule passes the independent model
//       validator,
//   (c) crash-partitioned runs degrade to an accurate partial-coverage
//       report instead of an assertion.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "fault/fault.h"
#include "gossip/recovery.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/named.h"
#include "model/validator.h"
#include "support/contracts.h"
#include "support/rng.h"

namespace mg::gossip {
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
  Rng rng(0xfa17ULL * (seed + 1));
  const auto n = static_cast<graph::Vertex>(8 + (seed * 5) % 24);
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

fault::FaultPlan sweep_plan(std::uint64_t seed, const graph::Graph& g) {
  const double rates[] = {0.05, 0.1, 0.2, 0.3};
  fault::FaultPlan plan;
  plan.drop_rate(rates[seed % 4]).seed(0xbadULL + seed);
  if (seed % 3 == 1) {
    // Crash a mid-schedule processor; which one rotates with the seed.
    const auto victim =
        static_cast<graph::Vertex>((seed * 7) % g.vertex_count());
    plan.crash(victim, 2 + seed % 9);
  }
  if (seed % 4 == 2) {
    const auto edges = g.edges();
    const auto& e = edges[seed % edges.size()];
    plan.delay(e.first, e.second, 1 + seed % 3);
  }
  return plan;
}

TEST(RecoveryProperty, SeededSweep64) {
  constexpr std::uint64_t kCombos = 64;
  for (std::uint64_t seed = 0; seed < kCombos; ++seed) {
    const graph::Graph g = sweep_graph(seed);
    const fault::FaultPlan plan = sweep_plan(seed, g);
    SCOPED_TRACE("seed " + std::to_string(seed) + " n=" +
                 std::to_string(g.vertex_count()));

    RecoveryOptions options;
    options.algorithm = static_cast<Algorithm>(seed % 4);
    // Faults keep firing during recovery, so a 30% drop rate can need
    // well over the default 4 attempts before a repair lands cleanly.
    options.max_attempts = 24;
    const RecoveryOutcome outcome = solve_with_recovery(g, plan, options);

    // The base schedule itself is always sound (faults hit the run, not
    // the plan construction).
    ASSERT_TRUE(outcome.base.report.ok) << outcome.base.report.error;
    // (b) every repair passed the independent validator.
    EXPECT_TRUE(outcome.repairs_valid);

    // (a) connected survivors => the driver reaches the achievable
    // closure; with no crashes at all that closure is full gossip.
    if (survivors_connected(g, outcome.crashed)) {
      EXPECT_TRUE(outcome.recovered);
      if (outcome.crashed.empty()) {
        EXPECT_TRUE(outcome.complete);
        EXPECT_DOUBLE_EQ(outcome.coverage, 1.0);
        for (const auto missing : outcome.missing) EXPECT_EQ(missing, 0u);
      }
    }

    // (c) the coverage report is arithmetic over `missing`, crash or not.
    const auto n = static_cast<std::size_t>(g.vertex_count());
    std::vector<char> dead(n, 0);
    for (const graph::Vertex v : outcome.crashed) dead[v] = 1;
    std::size_t live = 0;
    std::size_t held = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (dead[v]) continue;
      ++live;
      held += n - outcome.missing[v];
    }
    if (live > 0) {
      EXPECT_DOUBLE_EQ(outcome.coverage,
                       static_cast<double>(held) /
                           (static_cast<double>(live) *
                            static_cast<double>(n)));
    }
    // Bookkeeping invariants: the repairs on record sum to extra_rounds,
    // and attempts never exceed the configured ceiling.
    EXPECT_LE(outcome.attempts, options.max_attempts);
    EXPECT_EQ(outcome.repairs.size(), outcome.attempts);
    std::size_t repair_rounds = 0;
    for (const auto& repair : outcome.repairs) {
      repair_rounds += repair.round_count();
    }
    EXPECT_EQ(repair_rounds, outcome.extra_rounds);
  }
}

TEST(RecoveryProperty, AcceptanceTenPercentDropsOnNamedGraphs) {
  // ISSUE 3 acceptance: seeded 10% drop plan, every named graph, full
  // completion, healed run valid, for every algorithm's base schedule.
  const std::pair<std::string, graph::Graph> graphs[] = {
      {"cycle", graph::cycle(16)},
      {"petersen", graph::petersen()},
      {"grid", graph::grid(5, 5)},
      {"hypercube", graph::hypercube(4)},
  };
  for (const auto& [name, g] : graphs) {
    for (const Algorithm algorithm :
         {Algorithm::kSimple, Algorithm::kUpDown,
          Algorithm::kConcurrentUpDown, Algorithm::kTelephone}) {
      SCOPED_TRACE(name + "/" + algorithm_name(algorithm));
      fault::FaultPlan plan;
      plan.drop_rate(0.10).seed(42);
      RecoveryOptions options;
      options.algorithm = algorithm;
      options.max_attempts = 8;
      const RecoveryOutcome outcome = solve_with_recovery(g, plan, options);
      EXPECT_TRUE(outcome.complete);
      EXPECT_TRUE(outcome.recovered);
      EXPECT_TRUE(outcome.repairs_valid);
      EXPECT_DOUBLE_EQ(outcome.coverage, 1.0);
      EXPECT_TRUE(outcome.crashed.empty());
    }
  }
}

TEST(RecoveryProperty, CrashPartitionDegradesGracefully) {
  // Cutting a path at its center partitions the survivors; the driver
  // must report partial coverage accurately instead of asserting.
  const auto g = graph::path(9);
  fault::FaultPlan plan;
  plan.crash(4, 2);
  const RecoveryOutcome outcome = solve_with_recovery(g, plan);
  EXPECT_FALSE(outcome.complete);
  EXPECT_TRUE(outcome.recovered);  // each side reached its closure
  ASSERT_EQ(outcome.crashed, std::vector<graph::Vertex>{4});
  EXPECT_FALSE(survivors_connected(g, outcome.crashed));
  EXPECT_LT(outcome.coverage, 1.0);
  EXPECT_GT(outcome.coverage, 0.0);
  // Both shores miss at least the far side's messages.
  for (graph::Vertex v = 0; v < 9; ++v) {
    if (v == 4) continue;
    EXPECT_GE(outcome.missing[v], 4u) << "v=" << v;
  }
}

TEST(RecoveryProperty, RoundBudgetTruncatesRepairs) {
  const auto g = graph::grid(5, 5);
  fault::FaultPlan plan;
  plan.drop_rate(0.2).seed(7);
  RecoveryOptions options;
  options.extra_round_budget = 3;
  options.max_attempts = 8;
  const RecoveryOutcome outcome = solve_with_recovery(g, plan, options);
  EXPECT_LE(outcome.extra_rounds, 3u);
  EXPECT_TRUE(outcome.repairs_valid);
  // The budget is far too small for a 20% drop rate: the driver reports
  // honest incompleteness instead of pretending.
  EXPECT_FALSE(outcome.complete);
}

TEST(RecoveryProperty, HealedFabricNeedsOneAttempt) {
  // faults_during_recovery = false: the repair executes on a clean
  // fabric, so a single greedy completion flood always suffices for
  // drop-only plans.
  const auto g = graph::hypercube(4);
  fault::FaultPlan plan;
  plan.drop_rate(0.2).seed(5);
  RecoveryOptions options;
  options.faults_during_recovery = false;
  const RecoveryOutcome outcome = solve_with_recovery(g, plan, options);
  EXPECT_TRUE(outcome.complete);
  EXPECT_LE(outcome.attempts, 1u);
}

TEST(RecoveryProperty, PartialCompletionFloodsEachComponentToItsClosure) {
  // Two disconnected edges; each component can only ever learn its own
  // pair of messages.  The strict builder refuses; the partial builder
  // heals to the closure.
  graph::GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(2, 3);
  const auto g = builder.build();
  std::vector<DynamicBitset> holds(4, DynamicBitset(4));
  for (graph::Vertex v = 0; v < 4; ++v) holds[v].set(v);

  EXPECT_THROW((void)greedy_completion_schedule(g, holds),
               ContractViolation);

  const auto schedule = partial_completion_schedule(g, holds);
  const auto report = model::validate_schedule_general(
      g, schedule, holds_to_initial_sets(holds), 4,
      {.variant = model::ModelVariant::kMulticast,
       .require_completion = false});
  EXPECT_TRUE(report.ok) << report.error;
  // Replaying the schedule by hand: everyone ends with their component's
  // two messages and nothing else.
  std::vector<DynamicBitset> state = holds;
  for (std::size_t t = 0; t < schedule.round_count(); ++t) {
    for (const auto& tx : schedule.round(t)) {
      for (const graph::Vertex r : schedule.receivers(tx)) {
        state[r].set(tx.message);
      }
    }
  }
  for (graph::Vertex v = 0; v < 4; ++v) {
    EXPECT_EQ(state[v].count(), 2u) << "v=" << v;
  }
}

TEST(RecoveryProperty, DeadProcessorsAreExcludedFromRepairs) {
  const auto g = graph::cycle(6);
  std::vector<DynamicBitset> holds(6, DynamicBitset(6));
  for (graph::Vertex v = 0; v < 6; ++v) holds[v].set(v);
  const std::vector<char> alive = {1, 1, 1, 0, 1, 1};
  const auto schedule = partial_completion_schedule(g, holds, alive);
  for (std::size_t t = 0; t < schedule.round_count(); ++t) {
    for (const auto& tx : schedule.round(t)) {
      EXPECT_NE(tx.sender, 3u);
      const auto receivers = schedule.receivers(tx);
      EXPECT_EQ(std::find(receivers.begin(), receivers.end(), graph::Vertex{3}),
                receivers.end());
    }
  }
  // The survivors form a path 4-5-0-1-2: closure is everything they
  // jointly know (all messages but 3's).
  std::vector<DynamicBitset> state = holds;
  for (std::size_t t = 0; t < schedule.round_count(); ++t) {
    for (const auto& tx : schedule.round(t)) {
      for (const graph::Vertex r : schedule.receivers(tx)) {
        state[r].set(tx.message);
      }
    }
  }
  for (graph::Vertex v = 0; v < 6; ++v) {
    if (v == 3) continue;
    EXPECT_EQ(state[v].count(), 5u) << "v=" << v;
    EXPECT_FALSE(state[v].test(3));
  }
}

}  // namespace
}  // namespace mg::gossip
