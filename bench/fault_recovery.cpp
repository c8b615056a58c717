// Extension bench: fault drill + repair.  A fixed offline schedule has no
// retransmission, so a dropped multicast starves part of the network (the
// simulator shows the cascade); the recovery module then builds a greedy
// completion schedule on the ORIGINAL network from the degraded hold state.
// Reported: how much knowledge one drop destroys and how cheap the repair
// is compared to re-running the whole gossip.
#include <cstdio>

#include "fault/fault.h"
#include "gossip/recovery.h"
#include "gossip/solve.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "model/validator.h"
#include "sim/network_sim.h"
#include "support/rng.h"
#include "support/table.h"

int main() {
  using namespace mg;
  Rng rng(31);
  const std::vector<std::pair<std::string, graph::Graph>> graphs = {
      {"fig4", graph::fig4_network()},
      {"grid 6x6", graph::grid(6, 6)},
      {"hypercube 5", graph::hypercube(5)},
      {"random geometric 50", graph::random_geometric(50, 0.25, rng)},
      {"binary tree 31", graph::k_ary_tree(31, 2)},
  };

  TextTable table;
  table.new_row();
  for (const char* h :
       {"network", "n", "gossip rounds", "drop at", "starved nodes",
        "missing pairs", "cascaded skips", "repair rounds", "repair/gossip"}) {
    table.cell(std::string(h));
  }

  bool all_ok = true;
  for (const auto& [name, g] : graphs) {
    const auto sol = gossip::solve_gossip(g);
    all_ok = all_ok && sol.report.ok;
    const auto root = sol.instance.tree().root();
    const std::size_t drop_round = sol.schedule.total_time() / 3;

    fault::FaultPlan plan;
    plan.drop(drop_round, root);
    sim::SimOptions faults;
    faults.faults = &plan;
    const auto run = sim::simulate(sol.instance.tree().as_graph(),
                                   sol.schedule, sol.instance.initial(),
                                   faults);

    std::size_t starved = 0;
    std::size_t missing_pairs = 0;
    for (const auto m : run.missing) {
      starved += m > 0 ? 1 : 0;
      missing_pairs += m;
    }

    const auto repair = gossip::greedy_completion_schedule(g, run.final_holds);
    const auto report = model::validate_schedule_general(
        g, repair, gossip::holds_to_initial_sets(run.final_holds),
        g.vertex_count());
    all_ok = all_ok && report.ok;

    table.new_row();
    table.cell(name);
    table.cell(static_cast<std::size_t>(g.vertex_count()));
    table.cell(sol.schedule.total_time());
    table.cell(drop_round);
    table.cell(starved);
    table.cell(missing_pairs);
    table.cell(run.skipped_sends);
    table.cell(repair.total_time());
    table.cell(static_cast<double>(repair.total_time()) /
                   static_cast<double>(sol.schedule.total_time()),
               2);
  }

  std::printf(
      "Fault drill: drop the root's multicast one third into the gossip,\n"
      "then repair from the degraded state on the original network\n"
      "(recovery may use non-tree edges):\n\n%s\nall repairs "
      "validator-clean: %s\n",
      table.render().c_str(), all_ok ? "yes" : "NO");
  return all_ok ? 0 : 1;
}
