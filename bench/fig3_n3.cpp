// Experiment F3 (Fig. 3, network N3): the paper's example of a network
// without a Hamiltonian circuit on which gossiping completes in n - 1
// rounds under the multicast model but NOT under the telephone model.  The
// original figure is image-only, so we certify a constructed witness
// (K_{2,3}, see DESIGN.md) with exact searches:
//   * no Hamiltonian circuit (exhaustive);
//   * a 4-round multicast schedule exists (found + validated + printed);
//   * no 4-round telephone schedule exists (exhaustive).
#include <cstdio>

#include "gossip/optimal_search.h"
#include "graph/hamiltonian.h"
#include "graph/named.h"
#include "graph/properties.h"
#include "model/validator.h"

int main() {
  using namespace mg;
  const auto g = graph::n3_witness();
  const auto metrics = graph::compute_metrics(g);
  std::printf(
      "F3 / Fig. 3 (N3-class witness: K_{2,3}): n = %u, m = %zu, radius = "
      "%u\n\n",
      g.vertex_count(), g.edge_count(), metrics.radius);

  bool ok = true;

  const auto ham = graph::find_hamiltonian_circuit(g);
  const bool no_circuit = ham.status == graph::SearchStatus::kExhausted;
  ok = ok && no_circuit;
  std::printf("1. Hamiltonian circuit: %s\n",
              no_circuit ? "none exists" : "unexpectedly found");

  const auto multicast = gossip::exact_gossip_search(g, 4);
  ok = ok && multicast.status == graph::SearchStatus::kFound;
  std::printf("2. multicast gossip in n - 1 = 4 rounds: %s (%llu nodes)\n",
              multicast.status == graph::SearchStatus::kFound
                  ? "schedule found"
                  : "NOT FOUND (unexpected)",
              static_cast<unsigned long long>(multicast.nodes_explored));
  if (multicast.status == graph::SearchStatus::kFound) {
    const auto report = model::validate_schedule(g, multicast.schedule);
    ok = ok && report.ok;
    std::printf("   certificate validates: %s\n%s",
                report.ok ? "yes" : report.error.c_str(),
                multicast.schedule.to_string().c_str());
  }

  gossip::ExactSearchOptions phone;
  phone.telephone = true;
  const auto telephone = gossip::exact_gossip_search(g, 4, phone);
  const bool phone_impossible =
      telephone.status == graph::SearchStatus::kExhausted;
  ok = ok && phone_impossible;
  std::printf(
      "3. telephone gossip in 4 rounds: %s (%llu nodes)\n"
      "   (provably impossible: all three degree-2 vertices must send\n"
      "    every round into only two receivers)\n",
      phone_impossible ? "impossible (exhaustive)" : "unexpected outcome",
      static_cast<unsigned long long>(telephone.nodes_explored));

  std::printf("\nFig. 3 claims %s on this witness.\n",
              ok ? "all certified" : "FAILED");
  return ok ? 0 : 1;
}
