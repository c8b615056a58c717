// Mutable companion to the immutable CSR `Graph`: a frozen base adjacency
// plus a small per-vertex dirty overlay (edges added since the base was
// built, edges removed from it).  Queries merge base and overlay on the
// fly; when the overlay grows past an amortization threshold — or a node
// event renumbers vertices — the whole structure collapses back into one
// flat CSR base, so long churn streams pay O(m) re-flattening only every
// Theta(m) mutations and every query stays within a constant factor of the
// flat layout.  `snapshot()` exposes the current topology as an ordinary
// immutable `Graph` (cached between mutations) for every existing consumer
// (solvers, validators, the engine's fingerprint).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace mg::graph {

/// Churn statistics since construction (monotonic).
struct DynamicGraphStats {
  std::uint64_t edges_added = 0;
  std::uint64_t edges_removed = 0;
  std::uint64_t nodes_added = 0;
  std::uint64_t nodes_removed = 0;
  std::uint64_t collapses = 0;  ///< overlay -> flat CSR rebuilds
};

class DynamicGraph {
 public:
  explicit DynamicGraph(Graph base);

  [[nodiscard]] Vertex vertex_count() const { return n_; }
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }

  /// Merged-view adjacency test (base minus removed plus added).
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const;

  [[nodiscard]] Vertex degree(Vertex v) const;

  /// Adds undirected edge {u, v}.  Precondition: absent, no self-loop.
  void add_edge(Vertex u, Vertex v);

  /// Removes undirected edge {u, v}.  Precondition: present.
  void remove_edge(Vertex u, Vertex v);

  /// Appends vertex `n` attached to `attach_to` (keeps the graph
  /// connected).  Forces a collapse: node events always re-flatten.
  /// Returns the new vertex id.
  Vertex add_node(Vertex attach_to);

  /// Removes vertex `v` and all incident edges; the last vertex (id n-1)
  /// is renumbered to `v` to keep ids dense.  Forces a collapse.
  /// Precondition: n >= 2.  The caller is responsible for connectivity.
  void remove_node(Vertex v);

  /// Current topology as an immutable CSR graph.  Cached until the next
  /// mutation; a collapsed DynamicGraph returns its base with no copy-free
  /// guarantee beyond that cache.
  [[nodiscard]] const Graph& snapshot() const;

  /// True when removing {u, v} keeps the graph connected (the edge must be
  /// present).  O(m) BFS on the merged view — the churn feed generators'
  /// legality probe.
  [[nodiscard]] bool is_removable(Vertex u, Vertex v) const;

  [[nodiscard]] const DynamicGraphStats& stats() const { return stats_; }

  /// Overlay entries currently pending (0 right after a collapse).
  [[nodiscard]] std::size_t overlay_size() const { return overlay_entries_; }

 private:
  void invalidate_snapshot();
  void maybe_collapse();
  void collapse();

  Vertex n_ = 0;
  std::size_t edge_count_ = 0;
  Graph base_;
  // Per-vertex overlay deltas, each kept sorted and duplicate-free:
  // `added_[v]` are neighbors joined since the base was frozen, and
  // `removed_[v]` are base neighbors deleted since.  An edge toggled
  // add->remove (or remove->add) cancels out of the overlay entirely.
  std::vector<std::vector<Vertex>> added_;
  std::vector<std::vector<Vertex>> removed_;
  std::size_t overlay_entries_ = 0;  // directed records across both maps
  DynamicGraphStats stats_;
  mutable Graph snapshot_;
  mutable bool snapshot_valid_ = false;
};

}  // namespace mg::graph
