// Incremental maintenance of the §3.1 minimum-depth spanning tree under
// edge churn.  A full `min_depth_spanning_tree` costs a center search (n
// BFS sweeps exhaustively, tens of sweeps hybrid) plus one rooting BFS;
// this maintainer answers most single-edge mutations in O(deg) or one BFS
// by keeping a *certificate* alongside the tree:
//
//   * `dist[]`  — exact BFS distances from the current center c, so
//     ecc(c) == radius is always known exactly;
//   * `ecc_lb[]` — per-vertex certified eccentricity lower bounds
//     (seeded from reference sweeps, refreshed by every exact evaluation).
//
// The update logic leans on two monotonicity facts: deleting an edge can
// only *increase* eccentricities, inserting one can only *decrease* them
// (by at most d_old(u, v) - 1, the detour the new edge shortcuts).
//
//   * deletion {u, v}: if both endpoints keep a shortest-path witness
//     (same BFS level, or the deeper endpoint has another neighbor on the
//     previous level), every distance from c is unchanged, every other
//     eccentricity only grew, and c remains the smallest-id minimum-
//     eccentricity vertex — the tree survives verbatim up to one parent
//     pointer (kNoop / kParentPatch).  When the deeper endpoint loses its
//     last witness, the level growth cascades level by level through
//     exactly the vertices whose previous-level witnesses all grew
//     (Ramalingam/Reps-style affected set); dist[] is repaired on that
//     region from its unaffected boundary, and — since ecc(c) may now have
//     grown past a rival's — the same candidate scan as insertions decides
//     whether the center moves (kSubtreeRepair / kRecenter).
//   * insertion {u, v}: when |dist[u] - dist[v]| <= 1 distances from c are
//     untouched; deeper shortcuts repair dist[] by a bounded improvement
//     BFS (kSubtreeRepair).  Either way the insertion may have dropped
//     *some other* vertex's eccentricity below the radius (or into a
//     smaller-id tie), so the maintainer lowers `ecc_lb` by the certified
//     savings bound and exactly re-evaluates every vertex whose bound no
//     longer excludes it.  A small candidate set is the common case; past
//     a fixed budget of 24 candidates the certificate has decayed and the
//     maintainer falls back to a full rebuild (which re-tightens every
//     bound).
//
// Identity contract (pinned by tests/churn_differential_test.cpp): while
// the center search is in exhaustive mode (n <= CenterOptions::
// exhaustive_threshold, the smallest-id tie-break), the maintained tree is
// byte-identical to a from-scratch `min_depth_spanning_tree` of the
// mutated graph after *every* event.  In hybrid mode the from-scratch
// center tie-break is evaluation-order dependent, so the maintained tree
// is guaranteed to be *a* minimum-depth tree (height == exact radius,
// MG_ENSURES-checked every event) but may root at a different center than
// a fresh hybrid run.  Every decision is mirrored into `churn.tree.*` obs
// counters.
#pragma once

#include <cstdint>

#include "graph/graph.h"
#include "tree/spanning_tree.h"

namespace mg {
class ThreadPool;
}

namespace mg::tree {

/// How one churn event was absorbed, cheapest first.
enum class MaintenancePath : std::uint8_t {
  kNoop,           ///< certificate held; tree unchanged
  kParentPatch,    ///< levels unchanged; parent pointers re-minimized
  kSubtreeRepair,  ///< distances repaired on the affected region only
  kRecenter,       ///< candidate scan moved the center: one rooting BFS
  kFullRebuild,    ///< certificate failed: full min_depth_spanning_tree
};

[[nodiscard]] const char* maintenance_path_name(MaintenancePath path);

struct MaintenanceReport {
  MaintenancePath path = MaintenancePath::kNoop;
  std::uint64_t bfs_runs = 0;    ///< BFS sweeps this event (all purposes)
  std::uint64_t candidates = 0;  ///< exact eccentricity re-evaluations
  std::uint64_t touched = 0;     ///< vertices whose dist/parent changed
};

/// Cumulative per-path tallies since construction.
struct IncrementalTreeStats {
  std::uint64_t events = 0;
  std::uint64_t noop = 0;
  std::uint64_t parent_patch = 0;
  std::uint64_t subtree_repair = 0;
  std::uint64_t recenter = 0;
  std::uint64_t full_rebuild = 0;
  std::uint64_t bfs_runs = 0;
  std::uint64_t candidate_evals = 0;
};

/// Maintains `min_depth_spanning_tree(g)` across single-edge mutations.
/// The caller owns the graph and reports each mutation *after* applying
/// it; the maintainer never stores a reference to the graph.
class IncrementalTree {
 public:
  explicit IncrementalTree(const graph::Graph& g, ThreadPool* pool = nullptr);

  [[nodiscard]] const RootedTree& tree() const { return tree_; }
  [[nodiscard]] graph::Vertex center() const { return center_; }
  [[nodiscard]] std::uint32_t radius() const { return radius_; }
  [[nodiscard]] const IncrementalTreeStats& stats() const { return stats_; }

  /// Absorbs the insertion of edge {u, v}; `g` is the mutated graph.
  MaintenanceReport on_edge_added(const graph::Graph& g, graph::Vertex u,
                                  graph::Vertex v);

  /// Absorbs the removal of edge {u, v}; `g` is the mutated graph, which
  /// must still be connected.
  MaintenanceReport on_edge_removed(const graph::Graph& g, graph::Vertex u,
                                    graph::Vertex v);

  /// Node additions/removals renumber the vertex universe: always a full
  /// rebuild.
  MaintenanceReport on_node_event(const graph::Graph& g);

 private:
  MaintenanceReport full_rebuild(const graph::Graph& g,
                                 MaintenanceReport report);
  /// Re-floors bounds against dist_, exactly re-evaluates every vertex
  /// the certificate no longer excludes, and returns the smallest-id
  /// minimum-eccentricity vertex (best_ecc gets its eccentricity) — or
  /// kNoVertex when the candidate set overflows the budget and the caller
  /// must full-rebuild.
  graph::Vertex rescan_center(const graph::Graph& g,
                              std::uint32_t new_radius_c,
                              MaintenanceReport& report,
                              std::uint32_t& best_ecc);
  /// Re-minimizes parent pointers over affected_ and its neighborhood —
  /// vertices outside it kept their level and all their neighbors' levels,
  /// so their parent choice is untouched.
  void reminimize_parents(const graph::Graph& g);
  /// One BFS from `r` on the *mutated* graph, raising every ecc_lb_ by the
  /// triangle inequality (and pinning r's own bound exactly).  Run from
  /// the mutation's endpoints after the decay step: fresh post-mutation
  /// references re-certify the region the decay pessimized.
  void reference_sweep(const graph::Graph& g, graph::Vertex r,
                       MaintenanceReport& report);
  void adopt_tree();
  void seed_bounds(const graph::Graph& g, MaintenanceReport& report);
  void rebuild_rooted_tree();
  void finish(const MaintenanceReport& report);

  ThreadPool* pool_ = nullptr;

  graph::Vertex center_ = 0;
  std::uint32_t radius_ = 0;
  std::vector<std::uint32_t> dist_;    // exact BFS distances from center_
  std::vector<graph::Vertex> parent_;  // smallest-id previous-level parent
  std::vector<std::uint32_t> ecc_lb_;  // certified eccentricity lower bounds
  RootedTree tree_;
  IncrementalTreeStats stats_;

  // Scratch reused across events (avoids per-event allocation).
  std::vector<graph::Vertex> queue_;
  std::vector<graph::Vertex> affected_;
};

}  // namespace mg::tree
