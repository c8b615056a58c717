// Budgeted exact search for gossip schedules of a given total time on
// small networks, used to certify the paper's existence claims: gossiping
// on the Petersen graph (Fig. 2) in n - 1 = 9 rounds, and on the N3-class
// witness (Fig. 3) in n - 1 rounds under multicast but not under the
// telephone model.
//
// The search walks rounds depth-first.  Within a round it assigns each
// processor at most one incoming (sender, message) pair subject to the
// model rules; deliveries of already-held messages are pruned WLOG (any
// schedule stays valid when useless deliveries are dropped).  The key
// pruning: a processor missing q messages with only q receive slots left
// must receive a *new* message in every remaining round.
#pragma once

#include <cstdint>

#include "graph/graph.h"
#include "graph/hamiltonian.h"
#include "model/schedule.h"
#include "model/validator.h"

namespace mg::gossip {

struct ExactSearchOptions {
  /// Search unicast schedules only (|D| = 1, the telephone model).
  bool telephone = false;
  std::uint64_t node_budget = 20'000'000;
};

struct ExactSearchResult {
  graph::SearchStatus status = graph::SearchStatus::kExhausted;
  model::Schedule schedule;  ///< populated when status == kFound
  std::uint64_t nodes_explored = 0;
};

/// Decides (within budget) whether a gossip schedule with total
/// communication time <= `max_time` exists on `g` (messages = processor
/// ids).  Requires 2 <= n <= 64.
[[nodiscard]] ExactSearchResult exact_gossip_search(
    const graph::Graph& g, std::size_t max_time,
    const ExactSearchOptions& options = {});

}  // namespace mg::gossip
