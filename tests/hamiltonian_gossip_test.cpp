// Tests for Fig. 1's rotation gossip: optimal n - 1 rounds along a
// Hamiltonian circuit, valid even under the telephone model.
#include <gtest/gtest.h>

#include "gossip/hamiltonian_gossip.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "model/validator.h"
#include "support/contracts.h"

namespace mg::gossip {
namespace {

void expect_optimal(const graph::Graph& g, const model::Schedule& s) {
  EXPECT_EQ(s.total_time(), g.vertex_count() - 1u);
  model::ValidatorOptions options;
  options.model = &model::telephone_model();
  const auto report = model::validate_schedule(g, s, {}, options);
  EXPECT_TRUE(report.ok) << report.error;
}

TEST(HamiltonianGossip, CycleRotationIsOptimal) {
  for (graph::Vertex n : {3u, 4u, 8u, 17u}) {
    const auto g = graph::n1_cycle(n);
    std::vector<graph::Vertex> circuit(n);
    for (graph::Vertex v = 0; v < n; ++v) circuit[v] = v;
    expect_optimal(g, rotation_schedule(g, circuit));
  }
}

TEST(HamiltonianGossip, EveryoneCompletesSimultaneously) {
  const auto g = graph::n1_cycle(9);
  std::vector<graph::Vertex> circuit(9);
  for (graph::Vertex v = 0; v < 9; ++v) circuit[v] = v;
  const auto report =
      model::validate_schedule(g, rotation_schedule(g, circuit));
  ASSERT_TRUE(report.ok);
  for (const auto t : report.completion_time) EXPECT_EQ(t, 8u);
}

TEST(HamiltonianGossip, SearchAndScheduleOnRichGraphs) {
  for (const auto& g :
       {graph::complete(8), graph::hypercube(3), graph::torus(3, 4)}) {
    const auto schedule = hamiltonian_gossip(g);
    ASSERT_TRUE(schedule.has_value());
    expect_optimal(g, *schedule);
  }
}

TEST(HamiltonianGossip, NulloptWhenNoCircuit) {
  EXPECT_FALSE(hamiltonian_gossip(graph::path(6)).has_value());
  EXPECT_FALSE(hamiltonian_gossip(graph::star(6)).has_value());
  EXPECT_FALSE(hamiltonian_gossip(graph::petersen()).has_value());
}

TEST(HamiltonianGossip, RejectsBrokenCircuit) {
  const auto g = graph::path(4);
  EXPECT_THROW((void)rotation_schedule(g, {0, 1, 2, 3}),
               ContractViolation);  // 3-0 is not an edge
  EXPECT_THROW((void)rotation_schedule(graph::cycle(4), {0, 1, 2}),
               ContractViolation);  // wrong length
}

TEST(HamiltonianGossip, NonIdentityCircuitOrder) {
  // A circuit that visits vertices out of id order still works.
  const auto g = graph::complete(5);
  expect_optimal(g, rotation_schedule(g, {0, 2, 4, 1, 3}));
}

}  // namespace
}  // namespace mg::gossip
