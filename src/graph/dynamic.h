// Mutable companion to the immutable CSR `Graph`: one sorted neighbor vector
// per vertex, edited in place by each mutation.  `snapshot()` exposes the
// current topology as an ordinary immutable `Graph` (cached between
// mutations) for every existing consumer (solvers, validators, the engine's
// fingerprint).
#pragma once

#include <vector>

#include "graph/graph.h"

namespace mg::graph {

class DynamicGraph {
 public:
  explicit DynamicGraph(Graph g);

  [[nodiscard]] Vertex vertex_count() const {
    return static_cast<Vertex>(adjacency_.size());
  }

  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const;

  [[nodiscard]] Vertex degree(Vertex v) const;

  /// Adds undirected edge {u, v}.  Precondition: absent, no self-loop.
  void add_edge(Vertex u, Vertex v);

  /// Removes undirected edge {u, v}.  Precondition: present.
  void remove_edge(Vertex u, Vertex v);

  /// Appends vertex `n` attached to `attach_to` (keeps the graph
  /// connected).  Returns the new vertex id.
  Vertex add_node(Vertex attach_to);

  /// Removes vertex `v` and all incident edges; the last vertex (id n-1)
  /// is renumbered to `v` to keep ids dense.
  /// Precondition: n >= 2.  The caller is responsible for connectivity.
  void remove_node(Vertex v);

  /// Current topology as an immutable CSR graph.  Cached until the next
  /// mutation.
  [[nodiscard]] const Graph& snapshot() const;

  /// True when removing {u, v} keeps the graph connected (the edge must be
  /// present).  O(m) graph search — the churn feed generators' legality
  /// probe.
  [[nodiscard]] bool is_removable(Vertex u, Vertex v) const;

 private:
  // adjacency_[v]: v's neighbors, sorted and duplicate-free.
  std::vector<std::vector<Vertex>> adjacency_;
  mutable Graph snapshot_;
  mutable bool snapshot_valid_ = false;
};

}  // namespace mg::graph
