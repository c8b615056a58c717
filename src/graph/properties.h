// Structural graph properties used throughout the library: BFS distance
// sweeps, eccentricities, and the radius/diameter/center computation that
// drives the minimum-depth spanning-tree construction of the paper (§3.1:
// "the radius of a network is the least integer r such that there is a
// vertex v at a distance at most r from every vertex in the graph").
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.h"

namespace mg {
class ThreadPool;
}

namespace mg::graph {

/// Distance value for unreachable vertices.
inline constexpr std::uint32_t kUnreachable = static_cast<std::uint32_t>(-1);

/// BFS distances (edge counts) from `source`; unreachable -> kUnreachable.
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const Graph& g,
                                                       Vertex source);

/// Eccentricity of `source`: max finite BFS distance.  Returns nullopt when
/// some vertex is unreachable from `source`.
[[nodiscard]] std::optional<std::uint32_t> eccentricity(const Graph& g,
                                                        Vertex source);

/// Radius / diameter / a center vertex of a connected graph, from every
/// vertex's exact eccentricity: the paper's n BFS traversals (O(mn)), run
/// 64 sources per traversal when ecc(0) <= 64 (see graph/center.h).
struct Metrics {
  std::uint32_t radius = 0;
  std::uint32_t diameter = 0;
  Vertex center = kNoVertex;                 ///< a vertex attaining `radius`
  std::vector<std::uint32_t> eccentricity;   ///< per-vertex eccentricities
};

/// Computes `Metrics` for a connected graph.  When `pool` is non-null the
/// sweep runs in parallel; the result does not depend on the thread count.
/// The center is the smallest-id vertex of minimum eccentricity.
/// Precondition: `g` is connected and n >= 1.
[[nodiscard]] Metrics compute_metrics(const Graph& g,
                                      ThreadPool* pool = nullptr);

[[nodiscard]] bool is_connected(const Graph& g);

/// True when `g` is connected and m == n - 1.
[[nodiscard]] bool is_tree(const Graph& g);

[[nodiscard]] bool is_bipartite(const Graph& g);

/// Minimum and maximum vertex degree (0 for the empty graph).
struct DegreeStats {
  Vertex min = 0;
  Vertex max = 0;
  double mean = 0.0;
};

[[nodiscard]] DegreeStats degree_stats(const Graph& g);

}  // namespace mg::graph
