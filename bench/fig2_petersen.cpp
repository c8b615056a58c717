// Experiment F2 (Fig. 2, network N2 = the Petersen graph): the paper cites
// it as a network with no Hamiltonian circuit on which gossiping can
// nevertheless be performed in n - 1 = 9 communication steps, even under
// the telephone model.  This bench:
//   1. certifies (exact search) that the Petersen graph has no Hamiltonian
//      circuit;
//   2. runs the budgeted exact multicast search for a 9-round schedule and
//      reports the outcome (found / search budget exhausted);
//   3. reports the n + r = 12 schedule our algorithm constructs.
#include <cstdio>

#include "gossip/optimal_search.h"
#include "gossip/solve.h"
#include "graph/hamiltonian.h"
#include "graph/named.h"
#include "graph/properties.h"

int main() {
  using namespace mg;
  const auto g = graph::petersen();
  const auto metrics = graph::compute_metrics(g);
  std::printf(
      "F2 / Fig. 2 (network N2, Petersen graph): n = %u, m = %zu, radius = "
      "%u\n\n",
      g.vertex_count(), g.edge_count(), metrics.radius);

  const auto ham = graph::find_hamiltonian_circuit(g);
  std::printf("Hamiltonian circuit: %s (exhaustive search, %llu nodes)\n",
              ham.status == graph::SearchStatus::kExhausted
                  ? "none exists (as the paper states)"
                  : "FOUND?! (contradicts the literature)",
              static_cast<unsigned long long>(ham.nodes_explored));

  gossip::ExactSearchOptions options;
  options.node_budget = 40'000'000;
  const auto search = gossip::exact_gossip_search(g, 9, options);
  const char* verdict =
      search.status == graph::SearchStatus::kFound
          ? "FOUND a 9-round multicast schedule (paper's claim certified)"
      : search.status == graph::SearchStatus::kExhausted
          ? "no 9-round schedule (UNEXPECTED: contradicts the paper)"
          : "search budget exhausted before a certificate was found";
  std::printf("exact search for n-1 = 9 rounds (multicast): %s\n", verdict);
  std::printf("  nodes explored: %llu\n",
              static_cast<unsigned long long>(search.nodes_explored));
  if (search.status == graph::SearchStatus::kFound) {
    const auto report = model::validate_schedule(g, search.schedule);
    std::printf("  certificate validates: %s\n%s\n",
                report.ok ? "yes" : report.error.c_str(),
                search.schedule.to_string().c_str());
  }

  gossip::ExactSearchOptions phone_options = options;
  phone_options.telephone = true;
  const auto phone = gossip::exact_gossip_search(g, 9, phone_options);
  std::printf(
      "exact search for 9 rounds (telephone): %s (%llu nodes)\n"
      "  (the paper: \"gossiping can be performed in n-1 communication "
      "steps\n   even under the telephone communication model\" [16])\n",
      phone.status == graph::SearchStatus::kFound
          ? "FOUND (paper's stronger claim certified)"
      : phone.status == graph::SearchStatus::kExhausted ? "impossible (?!)"
                                                        : "budget exhausted",
      static_cast<unsigned long long>(phone.nodes_explored));

  const auto sol = gossip::solve_gossip(g);
  std::printf(
      "\nConcurrentUpDown on the min-depth spanning tree: %zu rounds "
      "(n + r = %u; trivial lower bound %u)\nschedule valid: %s\n",
      sol.schedule.total_time(), g.vertex_count() + metrics.radius,
      g.vertex_count() - 1, sol.report.ok ? "yes" : sol.report.error.c_str());
  return sol.report.ok ? 0 : 1;
}
