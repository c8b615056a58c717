// Cross-model differential matrix: every named graph family × gossip
// algorithm × communication model.  Three independent implementations look
// at every adapted schedule — the scheduler adapter (model/legalize.h), the
// model-aware validator, and the simulator executing under the model — and
// must agree on acceptance, completion and timing.
//
// The refactor's safety gate rides here too: passing the default multicast
// model explicitly (`SimOptions::comm = &multicast_model()`,
// `ValidatorOptions::model = &multicast_model()`) must reproduce the
// implicit default bit for bit — every SimResult field, every streamed
// sink event, every validator report field.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "fault/fault.h"
#include "gossip/solve.h"
#include "model/comm_model.h"
#include "model/legalize.h"
#include "model/validator.h"
#include "obs/trace.h"
#include "sim/network_sim.h"
#include "test_util.h"

namespace mg {
namespace {

constexpr gossip::Algorithm kAlgorithms[] = {
    gossip::Algorithm::kSimple, gossip::Algorithm::kUpDown,
    gossip::Algorithm::kConcurrentUpDown, gossip::Algorithm::kTelephone};

/// Simulates `sol` on `tree` twice, once as `implicit` says and once with
/// the multicast model passed explicitly, each streaming JSONL to a sink:
/// results and streams must be identical.
void expect_explicit_default_identical(const gossip::Solution& sol,
                                       const graph::Graph& tree,
                                       sim::SimOptions implicit) {
  std::ostringstream implicit_jsonl;
  std::ostringstream explicit_jsonl;
  obs::JsonLinesTraceSink implicit_sink(implicit_jsonl);
  obs::JsonLinesTraceSink explicit_sink(explicit_jsonl);
  sim::SimOptions explicit_default = implicit;
  implicit.sink = &implicit_sink;
  explicit_default.sink = &explicit_sink;
  explicit_default.comm = &model::multicast_model();
  EXPECT_TRUE(
      sim::simulate(tree, sol.schedule, sol.instance.initial(), implicit) ==
      sim::simulate(tree, sol.schedule, sol.instance.initial(),
                    explicit_default));
  EXPECT_EQ(implicit_jsonl.str(), explicit_jsonl.str());
}

void expect_report_equal(const model::ValidationReport& a,
                         const model::ValidationReport& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.collided, b.collided);
}

// The explicit default model must be indistinguishable from no model at
// all: same simulator results (events, sink streams, final holds), same
// validator reports.
TEST(ModelMatrix, DefaultModelBitIdentical) {
  for (const auto& family : test::families()) {
    const graph::Graph g = family.make(6);
    for (const gossip::Algorithm algorithm : kAlgorithms) {
      SCOPED_TRACE(family.name + " " + gossip::algorithm_name(algorithm));
      const gossip::Solution sol = gossip::solve_gossip(g, algorithm);
      ASSERT_TRUE(sol.report.ok) << sol.report.error;
      const graph::Graph tree = sol.instance.tree().as_graph();

      expect_explicit_default_identical(sol, tree, {});

      model::ValidatorOptions with_model;
      with_model.model = &model::multicast_model();
      expect_report_equal(
          model::validate_schedule(tree, sol.schedule, sol.instance.initial()),
          model::validate_schedule(tree, sol.schedule, sol.instance.initial(),
                                   with_model));
    }
  }
}

// The full matrix: adapt every algorithm's schedule to every model; the
// model validator must accept it, the simulator executing under the model
// must complete, and the two must agree on timing.
TEST(ModelMatrix, EveryFamilyAlgorithmModelAgrees) {
  for (const auto& family : test::families()) {
    const graph::Graph g = family.make(6);
    for (const gossip::Algorithm algorithm : kAlgorithms) {
      const gossip::Solution sol = gossip::solve_gossip(g, algorithm);
      ASSERT_TRUE(sol.report.ok) << sol.report.error;
      const graph::Graph tree = sol.instance.tree().as_graph();

      for (const model::CommModel* m : model::all_models()) {
        SCOPED_TRACE(family.name + " " + gossip::algorithm_name(algorithm) +
                     " model=" + m->name());
        const auto adapted = model::adapt_schedule(tree, sol.schedule, *m);
        EXPECT_EQ(adapted.structural_rounds, adapted.schedule.total_time());
        EXPECT_EQ(adapted.model_rounds,
                  m->model_time(adapted.structural_rounds,
                                tree.vertex_count()));

        model::ValidatorOptions options;
        options.model = m;
        const auto report = model::validate_schedule(
            tree, adapted.schedule, sol.instance.initial(), options);
        ASSERT_TRUE(report.ok) << report.error;

        sim::SimOptions sim_options;
        sim_options.comm = m;
        const sim::SimResult run = sim::simulate(
            tree, adapted.schedule, sol.instance.initial(), sim_options);
        ASSERT_TRUE(run.completed);
        EXPECT_EQ(run.collided_receives, report.collided);

        // Simulator and validator agree on when gossip finished.
        const std::size_t sim_completion = *std::max_element(
            run.completion_time.begin(), run.completion_time.end());
        const std::size_t validator_completion =
            *std::max_element(report.completion_time.begin(),
                              report.completion_time.end());
        EXPECT_EQ(sim_completion, validator_completion);
        EXPECT_LE(sim_completion, adapted.schedule.total_time());
      }
    }
  }
}

// Model-native schedulers: the direct-addressing virtual ring hits the
// optimal n - 1 rounds on every topology, and the radio greedy's 2-hop
// independence rule makes every round collision-free by construction.
TEST(ModelMatrix, NativeSchedulersValidateAndComplete) {
  for (const auto& family : test::families()) {
    const graph::Graph g = family.make(5);
    const graph::Vertex n = g.vertex_count();
    SCOPED_TRACE(family.name + " n=" + std::to_string(n));

    const model::Schedule ring = model::direct_ring_schedule(n);
    EXPECT_EQ(ring.total_time(), static_cast<std::size_t>(n) - 1);
    model::ValidatorOptions direct_options;
    direct_options.model = &model::direct_model();
    const auto ring_report = model::validate_schedule(g, ring, {},
                                                      direct_options);
    ASSERT_TRUE(ring_report.ok) << ring_report.error;
    sim::SimOptions ring_sim;
    ring_sim.comm = &model::direct_model();
    EXPECT_TRUE(sim::simulate(g, ring, {}, ring_sim).completed);

    const model::Schedule greedy = model::radio_greedy_schedule(g);
    EXPECT_GE(greedy.total_time(), static_cast<std::size_t>(n) - 1);
    model::ValidatorOptions radio_options;
    radio_options.model = &model::radio_model();
    const auto greedy_report = model::validate_schedule(g, greedy, {},
                                                        radio_options);
    ASSERT_TRUE(greedy_report.ok) << greedy_report.error;
    EXPECT_EQ(greedy_report.collided, 0u)
        << "2-hop independence admitted a colliding pair";
    sim::SimOptions greedy_sim;
    greedy_sim.comm = &model::radio_model();
    const sim::SimResult greedy_run = sim::simulate(g, greedy, {},
                                                    greedy_sim);
    EXPECT_TRUE(greedy_run.completed);
    EXPECT_EQ(greedy_run.collided_receives, 0u);
  }
}

// Fault plans compose with the model hook: under the default model a
// faulted run is bit-identical with and without the explicit model — the
// refactor must not perturb fault semantics.
TEST(ModelMatrix, FaultPlansIdenticalUnderExplicitDefault) {
  for (const auto& family : test::families()) {
    const graph::Graph g = family.make(6);
    const gossip::Solution sol =
        gossip::solve_gossip(g, gossip::Algorithm::kConcurrentUpDown);
    ASSERT_TRUE(sol.report.ok) << sol.report.error;
    const graph::Graph tree = sol.instance.tree().as_graph();

    fault::FaultPlan plan;
    plan.drop_rate(0.15).seed(0xfadeULL);
    plan.crash(g.vertex_count() / 2, 3);
    SCOPED_TRACE(family.name);
    sim::SimOptions implicit;
    implicit.faults = &plan;
    expect_explicit_default_identical(sol, tree, implicit);
  }
}

}  // namespace
}  // namespace mg
