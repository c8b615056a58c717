// A guided, executable tour of the paper: reproduces the §1-§4 claims in
// order with printed commentary.  Run it after reading the paper (or
// instead of reading it).
//
//   $ ./paper_walkthrough
#include <cstdio>

#include "multigossip.h"

using namespace mg;

namespace {

void heading(const char* text) { std::printf("\n=== %s ===\n\n", text); }

}  // namespace

int main() {
  heading("S1: the model, and why multicast helps (Fig. 1)");
  {
    const auto n1 = graph::n1_cycle(8);
    const auto rotation = gossip::hamiltonian_gossip(n1);
    std::printf(
        "On the 8-cycle N1, rotating every message clockwise solves\n"
        "gossiping in n - 1 = %zu rounds -- the trivial lower bound, since\n"
        "each processor can receive at most one message per round.\n",
        rotation->total_time());
  }

  heading("S1: the straight-line lower bound");
  {
    const graph::Vertex n = 9;  // m = 4
    const auto sol = gossip::solve_gossip(graph::path(n));
    std::printf(
        "On the line with n = %u (radius r = %u) every schedule needs at\n"
        "least n + r - 1 = %zu rounds: the center cannot know everything\n"
        "before time n - 1, and the last message still has r hops to go.\n"
        "ConcurrentUpDown takes %zu; the reconstructed non-uniform protocol\n"
        "(line_optimal_gossip) attains the bound: %zu.\n",
        n, sol.instance.radius(),
        gossip::odd_line_lower_bound(n), sol.schedule.total_time(),
        gossip::line_optimal_gossip(4).total_time());
  }

  heading("S2: broadcast is trivial; telephone vs multicast");
  {
    const auto g = graph::star(16);
    const auto broadcast = gossip::multicast_broadcast(g, 0);
    const auto multicast = gossip::solve_gossip(g);
    const auto telephone = gossip::solve_gossip(g, gossip::Algorithm::kTelephone);
    std::printf(
        "Star on 16 processors: broadcast from the hub takes %zu round(s)\n"
        "(= eccentricity).  Full gossip: multicast %zu rounds vs telephone\n"
        "%zu rounds -- the hub must serve each leaf separately without\n"
        "multicasting (%.1fx slower).\n",
        broadcast.total_time(), multicast.schedule.total_time(),
        telephone.schedule.total_time(),
        static_cast<double>(telephone.schedule.total_time()) /
            static_cast<double>(multicast.schedule.total_time()));
  }

  heading("S3.1: the minimum-depth spanning tree (Figs. 4-5)");
  {
    const auto g = graph::fig4_network();
    const auto instance = gossip::Instance::from_network(g);
    std::printf(
        "The Fig. 4 network has n = %u and radius %u; BFS from every vertex\n"
        "finds the center and the minimum-depth spanning tree (Fig. 5),\n"
        "whose height equals the radius.  DFS labels messages 0..15 so each\n"
        "subtree holds a contiguous block [i, j].\n",
        g.vertex_count(), instance.radius());
  }

  heading("S3.2: ConcurrentUpDown and Theorem 1");
  {
    const auto g = graph::fig4_network();
    const auto sol = gossip::solve_gossip(g);
    std::printf(
        "Propagate-Up delivers message m to the root at time m; overlapped\n"
        "with Propagate-Down the whole gossip finishes in exactly n + r =\n"
        "%zu rounds, validator-clean: %s.  The paper's Table 3 row for the\n"
        "vertex with message 4:\n\n%s",
        sol.schedule.total_time(), sol.report.ok ? "yes" : "NO",
        gossip::render_timetable(
            gossip::vertex_timetable(sol.instance, sol.schedule, 4))
            .c_str());

    gossip::ConcurrentUpDownOptions ablation;
    ablation.lookahead_at_time_zero = false;
    const auto broken = gossip::concurrent_updown(sol.instance, ablation);
    const auto report = model::validate_schedule(
        sol.instance.tree().as_graph(), broken, sol.instance.initial());
    std::printf(
        "\nWithout step (U3)'s time-0 lookahead the paper predicts a\n"
        "conflict; the validator finds it:\n  %s\n",
        report.error.c_str());
  }

  heading("S4: online, weighted, repeated");
  {
    const auto g = graph::fig4_network();
    const auto instance = gossip::Instance::from_network(g);
    const bool online_same = model::equivalent(
        gossip::concurrent_updown(instance), gossip::run_online(instance));
    std::printf("Online protocol (only i, j, k local info): %s.\n",
                online_same ? "identical schedule to offline"
                            : "MISMATCH");

    std::vector<std::uint32_t> weights(16, 1);
    weights[0] = 3;
    const auto weighted = gossip::weighted_gossip(g, weights);
    std::printf(
        "Weighted gossip (root holds 3 messages): chain splitting gives\n"
        "N + r_virtual = %zu + %u = %zu rounds.\n",
        weighted.total_messages, weighted.virtual_radius,
        weighted.schedule.total_time());

    const auto repeated = gossip::repeated_gossip(instance, 4, true);
    std::printf(
        "Repeated gossiping: 4 gossips pipelined at period %zu "
        "(amortized %.1f rounds each).\n",
        repeated.period, repeated.amortized_time);
  }

  heading("Beyond: certificates for Figs. 2-3");
  {
    const auto petersen_search =
        gossip::exact_gossip_search(graph::petersen(), 9);
    const auto k23_multicast =
        gossip::exact_gossip_search(graph::n3_witness(), 4);
    gossip::ExactSearchOptions phone;
    phone.telephone = true;
    const auto k23_phone =
        gossip::exact_gossip_search(graph::n3_witness(), 4, phone);
    std::printf(
        "Petersen graph: exact search finds a 9-round schedule (%s).\n"
        "K_{2,3} (N3-class witness): 4-round multicast schedule %s;\n"
        "telephone in 4 rounds %s -- exactly Fig. 3's point.\n",
        petersen_search.status == graph::SearchStatus::kFound ? "found"
                                                              : "not found",
        k23_multicast.status == graph::SearchStatus::kFound ? "found"
                                                            : "missing",
        k23_phone.status == graph::SearchStatus::kExhausted
            ? "provably impossible"
            : "unexpectedly possible");
  }

  std::printf("\nDone.  See EXPERIMENTS.md for the full paper-vs-measured "
              "record.\n");
  return 0;
}
