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
// It also keeps the per-bit greedy completion planner as a test-only
// reference and checks the word-parallel `partial_completion_schedule`
// against it tuple for tuple, in stored order.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "gossip/recovery.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/named.h"
#include "graph/properties.h"
#include "model/validator.h"
#include "sim/network_sim.h"
#include "support/contracts.h"
#include "support/rng.h"
#include "test_util.h"

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


/// The greedy completion flood tested one hold bit at a time: each round,
/// every live sender v in id order collects the messages it holds that a
/// free live neighbor lacks, and sends the one most such neighbors lack
/// (smallest id on ties) to exactly those neighbors.  Stops at the first
/// round in which nobody sends, which is exactly when every live processor
/// holds its component's closure.
model::Schedule reference_completion(const graph::Graph& g, BitMatrix state,
                                     std::vector<char> live) {
  const graph::Vertex n = g.vertex_count();
  const std::size_t message_count = state.bits();
  if (live.empty()) live.assign(n, 1);
  model::ScheduleBuilder schedule;
  std::vector<char> receiving(n, 0);
  std::vector<std::pair<graph::Vertex, model::Message>> arrivals;
  for (std::size_t t = 0;; ++t) {
    std::fill(receiving.begin(), receiving.end(), 0);
    arrivals.clear();
    for (graph::Vertex v = 0; v < n; ++v) {
      if (!live[v]) continue;
      std::vector<model::Message> candidates;
      for (const graph::Vertex u : g.neighbors(v)) {
        if (!live[u] || receiving[u]) continue;
        for (std::size_t m = 0; m < message_count; ++m) {
          if (state.test(v, m) && !state.test(u, m)) {
            candidates.push_back(static_cast<model::Message>(m));
          }
        }
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
      model::Message best_message = 0;
      std::vector<graph::Vertex> best_receivers;
      for (const model::Message m : candidates) {
        std::vector<graph::Vertex> receivers;
        for (const graph::Vertex u : g.neighbors(v)) {
          if (live[u] && !receiving[u] && !state.test(u, m)) {
            receivers.push_back(u);
          }
        }
        if (receivers.size() > best_receivers.size()) {
          best_receivers = std::move(receivers);
          best_message = m;
        }
      }
      if (best_receivers.empty()) continue;
      for (const graph::Vertex u : best_receivers) {
        receiving[u] = 1;
        arrivals.emplace_back(u, best_message);
      }
      schedule.add(t, best_message, v, best_receivers);
    }
    if (arrivals.empty()) break;
    for (const auto& [u, m] : arrivals) state.set(u, m);
  }
  return schedule.build();
}

/// One seeded degraded state for the stored-order comparison.
struct PlannerCase {
  graph::Graph g;
  BitMatrix holds;
  std::vector<char> alive;  ///< empty = everyone alive
};

PlannerCase planner_case(std::uint64_t seed) {
  Rng rng(0x91a2ULL * (seed + 1));
  const auto n = static_cast<graph::Vertex>(8 + rng.below(60));
  PlannerCase c;
  graph::Vertex grid_cols = 0;
  switch (seed % 5) {
    case 0:
      grid_cols = static_cast<graph::Vertex>(3 + rng.below(10));
      c.g = graph::grid(static_cast<graph::Vertex>(4 + rng.below(4)),
                        grid_cols);
      break;
    case 1:
      c.g = graph::random_geometric(n, 0.15 + 0.1 * rng.uniform01(), rng);
      break;
    case 2:
      c.g = graph::random_connected_gnp(n, 3.0 / static_cast<double>(n),
                                        rng);
      break;
    case 3:
      c.g = graph::random_regular(n + n % 2, seed % 2 == 0 ? 3 : 4, rng);
      break;
    default:
      // Maximum degree >= 16: five or more counter planes.
      c.g = seed % 2 == 0
                ? graph::random_connected_gnp(std::max<graph::Vertex>(n, 40),
                                              0.4, rng)
                : graph::star(static_cast<graph::Vertex>(17 + n % 20));
      break;
  }
  const graph::Vertex order = c.g.vertex_count();
  // Every third case carries up to 69 more messages than processors.
  const std::size_t messages =
      order + (seed % 3 == 2 ? 1 + rng.below(69) : 0);
  if (seed % 4 == 3 && messages == order) {
    // What a faulty ConcurrentUpDown run on the tree leaves behind.
    const gossip::Solution sol = gossip::solve_gossip(c.g);
    fault::FaultPlan plan;
    plan.drop_rate(0.1 + 0.3 * rng.uniform01()).seed(rng());
    sim::SimOptions options;
    options.faults = &plan;
    c.holds = sim::simulate(sol.instance.tree().as_graph(), sol.schedule,
                            sol.instance.initial(), options)
                  .final_holds;
  } else {
    // Densities 0, 0.1, ..., 0.6; half the cases also hold their own id.
    const double density = 0.1 * static_cast<double>(seed % 7);
    c.holds = BitMatrix(order, messages);
    for (graph::Vertex v = 0; v < order; ++v) {
      if (seed % 2 == 0) c.holds.set(v, v);
      for (std::size_t m = 0; m < messages; ++m) {
        if (rng.chance(density)) c.holds.set(v, m);
      }
    }
  }
  if (seed % 2 == 1) {
    c.alive.assign(order, 1);
    if (grid_cols > 2 && seed % 4 == 1) {
      // A dead middle column splits the grid's survivors in two.
      for (graph::Vertex v = grid_cols / 2; v < order; v += grid_cols) {
        c.alive[v] = 0;
      }
    } else {
      for (auto& a : c.alive) a = rng.below(100) >= 15;
    }
  }
  return c;
}

TEST(RecoveryProperty, PlannerMatchesPerBitReferenceInStoredOrder) {
  constexpr std::uint64_t kCases = 520;
  std::size_t rounds = 0;
  std::size_t multi_word = 0;
  std::size_t partial_word = 0;
  std::size_t high_degree = 0;
  std::size_t with_dead = 0;
  for (std::uint64_t seed = 0; seed < kCases; ++seed) {
    const PlannerCase c = planner_case(seed);
    SCOPED_TRACE("seed " + std::to_string(seed) + " n=" +
                 std::to_string(c.g.vertex_count()));
    const model::Schedule expected =
        reference_completion(c.g, c.holds, c.alive);
    const model::Schedule actual =
        partial_completion_schedule(c.g, c.holds, c.alive);
    rounds += test::expect_same_stored(expected, actual);
    const std::size_t messages = c.holds.bits();
    multi_word += messages > 64;
    partial_word += messages % 64 != 0 && messages > 64;
    high_degree += graph::degree_stats(c.g).max >= 16;
    with_dead += !c.alive.empty();
  }
  // The sweep covers what it claims to cover.
  EXPECT_GT(rounds, 5000u);
  EXPECT_GT(multi_word, 100u);
  EXPECT_GT(partial_word, 100u);
  EXPECT_GT(high_degree, 50u);
  EXPECT_GT(with_dead, 200u);
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
  BitMatrix holds(4, 4);
  for (graph::Vertex v = 0; v < 4; ++v) holds.set(v, v);

  EXPECT_THROW((void)greedy_completion_schedule(g, holds),
               ContractViolation);

  const auto schedule = partial_completion_schedule(g, holds);
  const auto report = model::validate_schedule_general(
      g, schedule, holds_to_initial_sets(holds), 4,
      {.require_completion = false});
  EXPECT_TRUE(report.ok) << report.error;
  // Everyone ends with their component's two messages and nothing else.
  const BitMatrix state =
      sim::simulate_from_holds(g, schedule, holds).final_holds;
  for (graph::Vertex v = 0; v < 4; ++v) {
    EXPECT_EQ(state.count(v), 2u) << "v=" << v;
  }
}

TEST(RecoveryProperty, DeadProcessorsAreExcludedFromRepairs) {
  const auto g = graph::cycle(6);
  BitMatrix holds(6, 6);
  for (graph::Vertex v = 0; v < 6; ++v) holds.set(v, v);
  const std::vector<char> alive = {1, 1, 1, 0, 1, 1};
  const auto schedule = partial_completion_schedule(g, holds, alive);
  for (model::RoundCursor round(schedule); round.next();) {
    for (const auto& tx : round.txs()) {
      EXPECT_NE(tx.sender, 3u);
      const auto receivers = schedule.receivers(tx);
      EXPECT_EQ(std::find(receivers.begin(), receivers.end(), graph::Vertex{3}),
                receivers.end());
    }
  }
  // The survivors form a path 4-5-0-1-2: closure is everything they
  // jointly know (all messages but 3's).
  const BitMatrix state =
      sim::simulate_from_holds(g, schedule, holds).final_holds;
  for (graph::Vertex v = 0; v < 6; ++v) {
    if (v == 3) continue;
    EXPECT_EQ(state.count(v), 5u) << "v=" << v;
    EXPECT_FALSE(state.test(v, 3));
  }
}

}  // namespace
}  // namespace mg::gossip
