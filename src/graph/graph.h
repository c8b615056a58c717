// Undirected simple-graph substrate for the gossiping library.
//
// The paper (§1) models the communication network N as an undirected graph
// with n >= 3 processors; every algorithm in this repository consumes this
// type.  Storage is CSR (compressed sparse row) with sorted neighbor lists,
// which gives cache-friendly BFS sweeps for the O(mn) minimum-depth
// spanning-tree construction of §3.1 and lets the schedule validator test
// a whole receiver set's adjacency in one merge against the sender's row.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace mg::graph {

/// Processor/vertex index.  Vertices are always 0..n-1.
using Vertex = std::uint32_t;

/// Sentinel for "no vertex" (e.g. the parent of a tree root).
inline constexpr Vertex kNoVertex = static_cast<Vertex>(-1);

/// An undirected edge as an unordered pair of endpoints.
using Edge = std::pair<Vertex, Vertex>;

class Graph;

/// Incremental edge accumulator.  Rejects self-loops, ignores duplicate
/// edges, and produces an immutable `Graph`.
class GraphBuilder {
 public:
  /// Prepares a builder for a graph on `n` vertices (ids 0..n-1).
  explicit GraphBuilder(Vertex n);

  /// Adds the undirected edge {u, v}.  Duplicate additions are collapsed at
  /// build time.  Self-loops are a precondition violation.
  GraphBuilder& add_edge(Vertex u, Vertex v);

  [[nodiscard]] Vertex vertex_count() const { return n_; }

  /// Finalizes into an immutable CSR graph.  The builder is left empty.
  [[nodiscard]] Graph build();

 private:
  Vertex n_;
  std::vector<Edge> edges_;
};

/// Immutable undirected simple graph in CSR form.
class Graph {
 public:
  /// An empty graph on `n` isolated vertices.
  explicit Graph(Vertex n = 0);

  /// Builds from an explicit edge list (deduplicated; self-loops rejected).
  static Graph from_edges(Vertex n, std::span<const Edge> edges);

  /// Adopts a prebuilt CSR adjacency in O(m): `offsets` has n+1 entries and
  /// each vertex's neighbor run must be strictly ascending, in range, and
  /// self-loop free (all validated).  Symmetry (u in adj[v] iff v in adj[u])
  /// is the caller's contract — this is the million-node fast path for
  /// generators that emit both directions by construction, bypassing
  /// `from_edges`'s O(m log m) sort + dedup.
  static Graph from_csr(std::vector<std::size_t> offsets,
                        std::vector<Vertex> adjacency);

  /// Number of vertices n.
  [[nodiscard]] Vertex vertex_count() const {
    return static_cast<Vertex>(offsets_.size() - 1);
  }

  /// Number of undirected edges m.
  [[nodiscard]] std::size_t edge_count() const { return adjacency_.size() / 2; }

  /// Sorted neighbors of `v`.
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const;

  [[nodiscard]] Vertex degree(Vertex v) const;

  /// Adjacency test by binary search over the sorted neighbor list.
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const;

  /// All edges, each reported once with first < second, sorted.
  [[nodiscard]] std::vector<Edge> edges() const;

  [[nodiscard]] bool operator==(const Graph& other) const = default;

 private:
  friend class GraphBuilder;
  std::vector<std::size_t> offsets_;   // size n+1
  std::vector<Vertex> adjacency_;      // size 2m, sorted per vertex
};

}  // namespace mg::graph
