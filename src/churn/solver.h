// The online churn driver: owns the mutable topology and keeps the whole
// downstream pipeline — min-depth spanning tree, gossip schedule, engine
// cache — consistent with it after every event.
//
// Per event, `apply` runs four steps:
//   1. *mutate*     — apply the event to the `DynamicGraph`;
//   2. *invalidate* — evict exactly the pre-mutation fingerprint from the
//      attached `engine::Engine` (fingerprint-delta invalidation: one
//      entry, not the cache);
//   3. *retree*     — incremental `IncrementalTree` maintenance (noop /
//      parent patch / subtree repair / recenter / full rebuild, see
//      tree/incremental.h);
//   4. *reschedule* — ConcurrentUpDown on the maintained tree.  That tree
//      is already a minimum-depth spanning tree of the mutated graph, so
//      the step pays for synthesis alone (no second center search), and
//      Theorem 1 makes every schedule exactly n + r.
// Every decision is mirrored into `churn.*` obs counters; the differential
// battery replays feeds through this class and checks each event's tree and
// schedule against the from-scratch pipeline.
#pragma once

#include <cstdint>

#include "churn/feed.h"
#include "engine/engine.h"
#include "graph/dynamic.h"
#include "model/schedule.h"
#include "tree/incremental.h"

namespace mg::churn {

struct ChurnSolverOptions {
  /// The bound the churn checkers enforce: an event's schedule may take at
  /// most stale_factor * (n + r) rounds, n + r being the Theorem 1 bound
  /// for a fresh solve on the current topology.  `apply` re-synthesizes on
  /// every event, so its schedules take exactly n + r.
  double stale_factor = 2.0;
};

/// What `apply` did for one event.
struct ApplyReport {
  ChurnEvent event;
  tree::MaintenanceReport tree_report;
  bool patched = false;   ///< always false: no event splices a repair
  bool resolved = false;  ///< always true: every event re-synthesizes
  std::size_t invalidated = 0;   ///< engine entries evicted
  std::size_t schedule_time = 0; ///< the new schedule's total time
  std::size_t fresh_bound = 0;   ///< n + r on the mutated topology
};

struct ChurnSolverStats {
  std::uint64_t events = 0;
  std::uint64_t resolves = 0;
  std::uint64_t invalidated = 0;
};

class ChurnSolver {
 public:
  /// Solves gossip on `g0` once (the initial schedule), then stands by for
  /// events.  `options` only carries the checkers' bound.  `engine`
  /// (optional) receives fingerprint-delta invalidations; `pool` (optional)
  /// accelerates full tree rebuilds.
  explicit ChurnSolver(graph::Graph g0, ChurnSolverOptions options = {},
                       engine::Engine* engine = nullptr,
                       ThreadPool* pool = nullptr);

  ApplyReport apply(const ChurnEvent& event);

  [[nodiscard]] const graph::DynamicGraph& graph() const { return graph_; }
  [[nodiscard]] const tree::IncrementalTree& tree() const { return tree_; }
  [[nodiscard]] const model::Schedule& schedule() const { return schedule_; }
  /// Initial hold assignment matching `schedule()`'s message ids.
  [[nodiscard]] const std::vector<model::Message>& initial() const {
    return initial_;
  }
  [[nodiscard]] const ChurnSolverStats& stats() const { return stats_; }

 private:
  void resolve();  ///< ConcurrentUpDown on the maintained tree

  engine::Engine* engine_ = nullptr;
  graph::DynamicGraph graph_;
  tree::IncrementalTree tree_;
  model::Schedule schedule_;
  std::vector<model::Message> initial_;
  ChurnSolverStats stats_;
};

}  // namespace mg::churn
