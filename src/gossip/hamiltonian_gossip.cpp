#include "gossip/hamiltonian_gossip.h"

#include "support/contracts.h"

namespace mg::gossip {

model::Schedule rotation_schedule(const graph::Graph& g,
                                  const std::vector<graph::Vertex>& circuit) {
  const graph::Vertex n = g.vertex_count();
  MG_EXPECTS(n >= 3);
  MG_EXPECTS_MSG(circuit.size() == n, "circuit must visit every vertex once");
  for (std::size_t p = 0; p < n; ++p) {
    MG_EXPECTS_MSG(g.has_edge(circuit[p], circuit[(p + 1) % n]),
                   "circuit uses a non-edge");
  }

  model::ScheduleBuilder schedule;
  // Round t: position p forwards the message that originated at position
  // (p - t) mod n to position p + 1.  After n - 1 rounds everyone has all.
  for (std::size_t t = 0; t + 1 < n; ++t) {
    for (std::size_t p = 0; p < n; ++p) {
      const std::size_t source_pos = (p + n - t % n) % n;
      schedule.add(t, circuit[source_pos], circuit[p],
                   {circuit[(p + 1) % n]});
    }
  }
  return schedule.build();
}

std::optional<model::Schedule> hamiltonian_gossip(const graph::Graph& g,
                                                  std::uint64_t node_budget) {
  const auto result = graph::find_hamiltonian_circuit(g, node_budget);
  if (result.status != graph::SearchStatus::kFound) return std::nullopt;
  return rotation_schedule(g, result.circuit);
}

}  // namespace mg::gossip
