#include "graph/properties.h"

#include <algorithm>
#include <queue>

#include "support/contracts.h"

namespace mg::graph {

std::vector<std::uint32_t> bfs_distances(const Graph& g, Vertex source) {
  MG_EXPECTS(source < g.vertex_count());
  std::vector<std::uint32_t> dist(g.vertex_count(), kUnreachable);
  std::vector<Vertex> frontier{source};
  std::vector<Vertex> next;
  dist[source] = 0;
  std::uint32_t level = 0;
  while (!frontier.empty()) {
    ++level;
    next.clear();
    for (Vertex u : frontier) {
      for (Vertex v : g.neighbors(u)) {
        if (dist[v] == kUnreachable) {
          dist[v] = level;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
  return dist;
}

std::optional<std::uint32_t> eccentricity(const Graph& g, Vertex source) {
  const auto dist = bfs_distances(g, source);
  std::uint32_t ecc = 0;
  for (std::uint32_t d : dist) {
    if (d == kUnreachable) return std::nullopt;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

// `compute_metrics` is defined in center.cpp, beside the eccentricity sweep
// it shares with `find_center`.

bool is_connected(const Graph& g) {
  if (g.vertex_count() == 0) return true;
  const auto dist = bfs_distances(g, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](std::uint32_t d) { return d == kUnreachable; });
}

bool is_tree(const Graph& g) {
  return g.vertex_count() >= 1 && is_connected(g) &&
         g.edge_count() == g.vertex_count() - 1;
}

bool is_bipartite(const Graph& g) {
  const Vertex n = g.vertex_count();
  std::vector<std::int8_t> color(n, -1);
  std::queue<Vertex> queue;
  for (Vertex start = 0; start < n; ++start) {
    if (color[start] != -1) continue;
    color[start] = 0;
    queue.push(start);
    while (!queue.empty()) {
      const Vertex u = queue.front();
      queue.pop();
      for (Vertex v : g.neighbors(u)) {
        if (color[v] == -1) {
          color[v] = static_cast<std::int8_t>(1 - color[u]);
          queue.push(v);
        } else if (color[v] == color[u]) {
          return false;
        }
      }
    }
  }
  return true;
}

DegreeStats degree_stats(const Graph& g) {
  DegreeStats stats;
  const Vertex n = g.vertex_count();
  if (n == 0) return stats;
  stats.min = g.degree(0);
  stats.max = g.degree(0);
  std::size_t total = 0;
  for (Vertex v = 0; v < n; ++v) {
    const Vertex d = g.degree(v);
    stats.min = std::min(stats.min, d);
    stats.max = std::max(stats.max, d);
    total += d;
  }
  stats.mean = static_cast<double>(total) / static_cast<double>(n);
  return stats;
}

}  // namespace mg::graph
