// Cross-model property sweep over seeded random networks:
//
//  * dominance invariants that hold *by construction* of the legalizing
//    adapters (each source round expands to >= 1 model sub-round):
//    direct == multicast <= telephone, multicast <= radio (structural),
//    radio == beep structurally with beep paying a ceil(log2 n) + 1
//    per-round serialization factor in model time;
//  * fault-plan composability: a faulted default-model run is identical
//    before and after the CommModel refactor (implicit vs explicit model);
//  * Theorem 1 survives the refactor: ConcurrentUpDown's n + r round count
//    is unchanged under the explicit default model;
//  * native-scheduler bounds: the direct-addressing ring is exactly the
//    information-theoretic optimum n - 1, and every model needs at least
//    n - 1 rounds (each processor decodes at most one message per round).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "fault/fault.h"
#include "gossip/bounds.h"
#include "gossip/solve.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "model/comm_model.h"
#include "model/legalize.h"
#include "model/validator.h"
#include "sim/network_sim.h"
#include "support/rng.h"

namespace mg {
namespace {

constexpr gossip::Algorithm kAlgorithms[] = {
    gossip::Algorithm::kSimple, gossip::Algorithm::kUpDown,
    gossip::Algorithm::kConcurrentUpDown, gossip::Algorithm::kTelephone};

graph::Graph make_graph(std::uint64_t seed) {
  Rng rng(0x30de1ULL * (seed + 1));
  const auto n = static_cast<graph::Vertex>(5 + (seed * 7) % 40);
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

TEST(ModelProperty, DominanceInvariantsBySeededSweep) {
  constexpr std::uint64_t kGraphs = 40;
  for (std::uint64_t seed = 0; seed < kGraphs; ++seed) {
    const graph::Graph g = make_graph(seed);
    ASSERT_TRUE(graph::is_connected(g));
    for (const gossip::Algorithm algorithm : kAlgorithms) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " n=" +
                   std::to_string(g.vertex_count()) + " " +
                   gossip::algorithm_name(algorithm));
      const gossip::Solution sol = gossip::solve_gossip(g, algorithm);
      ASSERT_TRUE(sol.report.ok) << sol.report.error;
      const graph::Graph tree = sol.instance.tree().as_graph();
      const graph::Vertex n = tree.vertex_count();
      const std::size_t base = sol.schedule.total_time();

      const auto direct =
          model::adapt_schedule(tree, sol.schedule, model::direct_model());
      const auto telephone =
          model::adapt_schedule(tree, sol.schedule, model::telephone_model());
      const auto radio =
          model::adapt_schedule(tree, sol.schedule, model::radio_model());
      const auto beep =
          model::adapt_schedule(tree, sol.schedule, model::beep_model());

      // direct <= multicast <= {telephone, radio} <= beep (model time).
      EXPECT_TRUE(model::equivalent(direct.schedule, sol.schedule));
      EXPECT_EQ(direct.structural_rounds, base);
      EXPECT_GE(telephone.structural_rounds, base);
      EXPECT_GE(radio.structural_rounds, base);
      EXPECT_EQ(beep.structural_rounds, radio.structural_rounds);
      EXPECT_GE(beep.model_rounds, radio.model_rounds);
      EXPECT_EQ(radio.model_rounds, radio.structural_rounds);
      EXPECT_EQ(beep.model_rounds,
                beep.structural_rounds *
                    model::beep_model().round_cost(n));
      EXPECT_EQ(telephone.stretch,
                telephone.structural_rounds - base);

      // Every adapted schedule is legal and completing under its model.
      const struct {
        const model::CommModel* m;
        const model::Schedule* s;
      } rows[] = {{&model::direct_model(), &direct.schedule},
                  {&model::telephone_model(), &telephone.schedule},
                  {&model::radio_model(), &radio.schedule},
                  {&model::beep_model(), &beep.schedule}};
      for (const auto& row : rows) {
        model::ValidatorOptions options;
        options.model = row.m;
        const auto report = model::validate_schedule(
            tree, *row.s, sol.instance.initial(), options);
        EXPECT_TRUE(report.ok)
            << "model=" << row.m->name() << ": " << report.error;
      }

      // Information-theoretic floor: every model needs >= n - 1 rounds
      // (a processor decodes at most one message per structural round).
      EXPECT_GE(base, static_cast<std::size_t>(n) - 1);
    }
  }
}

TEST(ModelProperty, FaultPlanComposabilityUnderDefaultModel) {
  constexpr std::uint64_t kGraphs = 24;
  for (std::uint64_t seed = 0; seed < kGraphs; ++seed) {
    const graph::Graph g = make_graph(seed);
    const auto algorithm = kAlgorithms[seed % 4];
    SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                 gossip::algorithm_name(algorithm));
    const gossip::Solution sol = gossip::solve_gossip(g, algorithm);
    ASSERT_TRUE(sol.report.ok) << sol.report.error;
    const graph::Graph tree = sol.instance.tree().as_graph();

    fault::FaultPlan plan;
    plan.drop_rate(0.05 + 0.05 * static_cast<double>(seed % 4))
        .seed(0xdeadULL + seed);
    if (seed % 3 == 1) {
      plan.crash(static_cast<graph::Vertex>((seed * 5) % g.vertex_count()),
                 2 + seed % 7);
    }

    sim::SimOptions implicit;
    implicit.faults = &plan;
    sim::SimOptions explicit_default = implicit;
    explicit_default.comm = &model::multicast_model();
    const auto a =
        sim::simulate(tree, sol.schedule, sol.instance.initial(), implicit);
    const auto b = sim::simulate(tree, sol.schedule, sol.instance.initial(),
                                 explicit_default);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.collided_receives, 0u);
  }
}

// Theorem 1's n + r bound for ConcurrentUpDown is a property of the
// multicast model; re-hosting the model behind the CommModel interface must
// not cost a round.
TEST(ModelProperty, Theorem1PreservedUnderExplicitDefault) {
  constexpr std::uint64_t kGraphs = 24;
  for (std::uint64_t seed = 0; seed < kGraphs; ++seed) {
    const graph::Graph g = make_graph(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const gossip::Solution sol =
        gossip::solve_gossip(g, gossip::Algorithm::kConcurrentUpDown);
    ASSERT_TRUE(sol.report.ok) << sol.report.error;
    const std::size_t n = sol.instance.vertex_count();
    const std::size_t r = sol.instance.radius();
    EXPECT_LE(sol.schedule.total_time(),
              gossip::concurrent_updown_time(n, r));

    const auto adapted = model::adapt_schedule(
        sol.instance.tree().as_graph(), sol.schedule,
        model::multicast_model());
    EXPECT_EQ(adapted.structural_rounds, sol.schedule.total_time());
    EXPECT_EQ(adapted.model_rounds, sol.schedule.total_time());
    EXPECT_EQ(adapted.stretch, 0u);

    sim::SimOptions options;
    options.comm = &model::multicast_model();
    const auto run = sim::simulate(sol.instance.tree().as_graph(),
                                   sol.schedule, sol.instance.initial(),
                                   options);
    ASSERT_TRUE(run.completed);
    EXPECT_LE(run.total_time, gossip::concurrent_updown_time(n, r));
  }
}

// Native schedulers against the information-theoretic floor.
TEST(ModelProperty, NativeSchedulerBounds) {
  constexpr std::uint64_t kGraphs = 24;
  for (std::uint64_t seed = 0; seed < kGraphs; ++seed) {
    const graph::Graph g = make_graph(seed);
    const graph::Vertex n = g.vertex_count();
    SCOPED_TRACE("seed " + std::to_string(seed) + " n=" + std::to_string(n));

    const model::Schedule ring = model::direct_ring_schedule(n);
    EXPECT_EQ(ring.total_time(), static_cast<std::size_t>(n) - 1);

    const model::Schedule greedy = model::radio_greedy_schedule(g);
    EXPECT_GE(greedy.total_time(), static_cast<std::size_t>(n) - 1);
    model::ValidatorOptions options;
    options.model = &model::radio_model();
    const auto report = model::validate_schedule(g, greedy, {}, options);
    EXPECT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.collided, 0u);
  }
}

}  // namespace
}  // namespace mg
