#include "gossip/weighted.h"

#include <numeric>

#include "gossip/concurrent_updown.h"
#include "support/contracts.h"
#include "tree/spanning_tree.h"

namespace mg::gossip {

WeightedResult weighted_gossip(const graph::Graph& g,
                               const std::vector<std::uint32_t>& weights,
                               ThreadPool* pool) {
  const graph::Vertex n = g.vertex_count();
  MG_EXPECTS(weights.size() == n);
  for (std::uint32_t w : weights) MG_EXPECTS_MSG(w >= 1, "weights are >= 1");

  const tree::RootedTree real_tree = tree::min_depth_spanning_tree(g, pool);

  // Chain expansion: real v -> virtual top(v)..bottom(v).
  const std::size_t total =
      std::accumulate(weights.begin(), weights.end(), std::size_t{0});
  MG_EXPECTS_MSG(total <= graph::kNoVertex, "virtual network too large");
  std::vector<graph::Vertex> top(n);
  std::vector<graph::Vertex> bottom(n);
  std::vector<graph::Vertex> real_of(total);
  graph::Vertex next = 0;
  for (graph::Vertex v = 0; v < n; ++v) {
    top[v] = next;
    for (std::uint32_t q = 0; q < weights[v]; ++q) {
      real_of[next] = v;
      ++next;
    }
    bottom[v] = next - 1;
  }

  std::vector<graph::Vertex> parent(total, graph::kNoVertex);
  for (graph::Vertex v = 0; v < n; ++v) {
    // Chain-internal edges.
    for (graph::Vertex u = top[v] + 1; u <= bottom[v]; ++u) {
      parent[u] = u - 1;
    }
    // The top of v's chain hangs off the bottom of its real parent's chain.
    if (!real_tree.is_root(v)) {
      parent[top[v]] = bottom[real_tree.parent(v)];
    }
  }

  WeightedResult result{
      Instance(tree::RootedTree::from_parents(top[real_tree.root()],
                                              std::move(parent))),
      std::move(real_of),
      {},
      total,
      0,
      0,
      0};
  result.virtual_radius = result.virtual_instance.radius();
  result.schedule = concurrent_updown(result.virtual_instance);

  // Projection load: external = a transmission crossing real processors.
  for (model::RoundCursor round(result.schedule); round.next();) {
    std::vector<std::size_t> sends(n, 0);
    std::vector<std::size_t> receives(n, 0);
    for (const model::Tx& tx : round.txs()) {
      const graph::Vertex sender_real = result.real_of[tx.sender];
      bool external_send = false;
      for (graph::Vertex r : result.schedule.receivers(tx)) {
        const graph::Vertex receiver_real = result.real_of[r];
        if (receiver_real == sender_real) continue;
        external_send = true;
        receives[receiver_real] += 1;
        result.max_external_receives =
            std::max(result.max_external_receives, receives[receiver_real]);
      }
      if (external_send) {
        sends[sender_real] += 1;
        result.max_external_sends =
            std::max(result.max_external_sends, sends[sender_real]);
      }
    }
  }
  return result;
}

}  // namespace mg::gossip
