#include "graph/dynamic.h"

#include <algorithm>
#include <utility>

#include "obs/registry.h"
#include "support/contracts.h"

namespace mg::graph {

namespace {

void insert_sorted(std::vector<Vertex>& list, Vertex v) {
  list.insert(std::lower_bound(list.begin(), list.end(), v), v);
}

/// Precondition: `v` is in `list`.
void erase_sorted(std::vector<Vertex>& list, Vertex v) {
  list.erase(std::lower_bound(list.begin(), list.end(), v));
}

}  // namespace

DynamicGraph::DynamicGraph(Graph g)
    : adjacency_(g.vertex_count()) {
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    const auto neighbors = g.neighbors(v);
    adjacency_[v].assign(neighbors.begin(), neighbors.end());
  }
  snapshot_ = std::move(g);
  snapshot_valid_ = true;
}

bool DynamicGraph::has_edge(Vertex u, Vertex v) const {
  MG_EXPECTS(u < vertex_count() && v < vertex_count());
  return std::binary_search(adjacency_[u].begin(), adjacency_[u].end(), v);
}

Vertex DynamicGraph::degree(Vertex v) const {
  MG_EXPECTS(v < vertex_count());
  return static_cast<Vertex>(adjacency_[v].size());
}

void DynamicGraph::add_edge(Vertex u, Vertex v) {
  MG_EXPECTS_MSG(u != v, "self-loops are not allowed");
  MG_EXPECTS(u < vertex_count() && v < vertex_count());
  MG_EXPECTS_MSG(!has_edge(u, v), "edge already present");
  insert_sorted(adjacency_[u], v);
  insert_sorted(adjacency_[v], u);
  MG_OBS_ADD("churn.graph.edges_added", 1);
  snapshot_valid_ = false;
}

void DynamicGraph::remove_edge(Vertex u, Vertex v) {
  MG_EXPECTS(u < vertex_count() && v < vertex_count());
  MG_EXPECTS_MSG(has_edge(u, v), "edge not present");
  erase_sorted(adjacency_[u], v);
  erase_sorted(adjacency_[v], u);
  MG_OBS_ADD("churn.graph.edges_removed", 1);
  snapshot_valid_ = false;
}

Vertex DynamicGraph::add_node(Vertex attach_to) {
  MG_EXPECTS(attach_to < vertex_count());
  const Vertex fresh = vertex_count();
  adjacency_.push_back({attach_to});
  adjacency_[attach_to].push_back(fresh);  // the largest id: still sorted
  MG_OBS_ADD("churn.graph.nodes_added", 1);
  snapshot_valid_ = false;
  return fresh;
}

void DynamicGraph::remove_node(Vertex v) {
  MG_EXPECTS(v < vertex_count());
  MG_EXPECTS_MSG(vertex_count() >= 2, "cannot remove the last vertex");
  for (Vertex w : adjacency_[v]) erase_sorted(adjacency_[w], v);
  // Renumber the last vertex to v, so ids stay dense 0..n-2.
  const Vertex last = vertex_count() - 1;
  if (v != last) {
    for (Vertex w : adjacency_[last]) {
      erase_sorted(adjacency_[w], last);
      insert_sorted(adjacency_[w], v);
    }
    adjacency_[v] = std::move(adjacency_[last]);
  }
  adjacency_.pop_back();
  MG_OBS_ADD("churn.graph.nodes_removed", 1);
  snapshot_valid_ = false;
}

const Graph& DynamicGraph::snapshot() const {
  if (!snapshot_valid_) {
    std::vector<std::size_t> offsets(adjacency_.size() + 1, 0);
    for (std::size_t v = 0; v < adjacency_.size(); ++v) {
      offsets[v + 1] = offsets[v] + adjacency_[v].size();
    }
    std::vector<Vertex> flat;
    flat.reserve(offsets.back());
    for (const auto& neighbors : adjacency_) {
      flat.insert(flat.end(), neighbors.begin(), neighbors.end());
    }
    snapshot_ = Graph::from_csr(std::move(offsets), std::move(flat));
    snapshot_valid_ = true;
  }
  return snapshot_;
}

bool DynamicGraph::is_removable(Vertex u, Vertex v) const {
  MG_EXPECTS_MSG(has_edge(u, v), "edge not present");
  if (degree(u) <= 1 || degree(v) <= 1) return false;
  // Search from u skipping {u, v}; the edge is removable iff the search
  // still covers every vertex.
  std::vector<char> seen(adjacency_.size(), 0);
  std::vector<Vertex> stack{u};
  seen[u] = 1;
  std::size_t covered = 1;
  while (!stack.empty()) {
    const Vertex x = stack.back();
    stack.pop_back();
    for (Vertex y : adjacency_[x]) {
      if ((x == u && y == v) || (x == v && y == u)) continue;
      if (!seen[y]) {
        seen[y] = 1;
        ++covered;
        stack.push_back(y);
      }
    }
  }
  return covered == adjacency_.size();
}

}  // namespace mg::graph
