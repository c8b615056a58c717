#include "sim/randomized.h"

#include <algorithm>

#include "model/schedule.h"
#include "support/bitset.h"
#include "support/contracts.h"

namespace mg::sim {

RandomizedResult randomized_gossip(const graph::Graph& g, Rng& rng,
                                   const RandomizedOptions& options) {
  const graph::Vertex n = g.vertex_count();
  MG_EXPECTS(n >= 1);
  RandomizedResult result;

  BitMatrix hold(n, n);
  std::vector<std::vector<model::Message>> known(n);  // learning order
  std::size_t missing_total = static_cast<std::size_t>(n) * (n - 1);
  for (graph::Vertex v = 0; v < n; ++v) {
    hold.set(v, v);
    known[v].push_back(v);
  }
  if (n == 1) {
    result.completed = true;
    return result;
  }

  // One offer per receiver survives (rule 1): offers[r] collects
  // (message) candidates this round; one is chosen uniformly.
  std::vector<std::vector<model::Message>> offers(n);

  auto pick_message = [&](graph::Vertex holder) {
    if (options.push_newest) return known[holder].back();
    return known[holder][rng.below(known[holder].size())];
  };

  while (missing_total > 0 && result.rounds < options.round_limit) {
    ++result.rounds;
    for (auto& o : offers) o.clear();

    for (graph::Vertex v = 0; v < n; ++v) {
      const auto nbrs = g.neighbors(v);
      // PUSH: offer one held message to a random neighbor.
      const graph::Vertex target = nbrs[rng.below(nbrs.size())];
      offers[target].push_back(pick_message(v));
      // PULL: ask a random neighbor; it answers with one of its messages
      // (the answer competes for v's receive slot like any offer).
      if (options.pull) {
        const graph::Vertex source = nbrs[rng.below(nbrs.size())];
        offers[v].push_back(pick_message(source));
      }
    }

    for (graph::Vertex v = 0; v < n; ++v) {
      if (offers[v].empty()) continue;
      // Rule 1: one message per receiver per round; the rest collide.
      const auto chosen = offers[v][rng.below(offers[v].size())];
      result.collisions += offers[v].size() - 1;
      ++result.transmissions;
      if (hold.test(v, chosen)) {
        ++result.useless;
      } else {
        hold.set(v, chosen);
        known[v].push_back(chosen);
        --missing_total;
      }
    }
  }
  result.completed = missing_total == 0;
  return result;
}

}  // namespace mg::sim
