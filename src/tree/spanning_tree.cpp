#include "tree/spanning_tree.h"

#include <algorithm>

#include "graph/properties.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "support/contracts.h"
#include "support/thread_pool.h"

namespace mg::tree {

RootedTree RootedTree::from_parents(Vertex root, std::vector<Vertex> parent) {
  const auto n = static_cast<Vertex>(parent.size());
  MG_EXPECTS(n >= 1);
  MG_EXPECTS(root < n);
  MG_EXPECTS_MSG(parent[root] == graph::kNoVertex,
                 "root must have no parent");

  RootedTree t;
  t.root_ = root;
  t.parent_ = std::move(parent);

  // Children as CSR via counting sort: count, prefix-sum, fill.  Filling in
  // ascending v keeps each child run ascending — the canonical order.
  t.child_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (Vertex v = 0; v < n; ++v) {
    if (v == root) continue;
    MG_EXPECTS_MSG(t.parent_[v] < n, "non-root vertex missing a parent");
    ++t.child_offsets_[t.parent_[v] + 1];
  }
  for (Vertex v = 0; v < n; ++v) {
    t.child_offsets_[v + 1] += t.child_offsets_[v];
  }
  t.child_list_.resize(n - 1);
  std::vector<std::uint32_t> cursor(t.child_offsets_.begin(),
                                    t.child_offsets_.end() - 1);
  for (Vertex v = 0; v < n; ++v) {
    if (v == root) continue;
    t.child_list_[cursor[t.parent_[v]]++] = v;
  }

  // Levels via preorder walk; also validates acyclicity/reachability.
  t.level_.assign(n, 0);
  std::vector<Vertex> stack;
  stack.reserve(64);
  stack.push_back(root);
  Vertex visited = 0;
  while (!stack.empty()) {
    const Vertex v = stack.back();
    stack.pop_back();
    ++visited;
    for (Vertex c : t.children(v)) {
      t.level_[c] = t.level_[v] + 1;
      t.height_ = std::max(t.height_, t.level_[c]);
      stack.push_back(c);
    }
  }
  MG_EXPECTS_MSG(visited == n, "parent array does not encode a single tree");
  return t;
}

std::vector<Vertex> RootedTree::preorder() const {
  std::vector<Vertex> order;
  order.reserve(vertex_count());
  std::vector<Vertex> stack{root_};
  while (!stack.empty()) {
    const Vertex v = stack.back();
    stack.pop_back();
    order.push_back(v);
    const auto kids = children(v);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return order;
}

Graph RootedTree::as_graph() const {
  graph::GraphBuilder b(vertex_count());
  for (Vertex v = 0; v < vertex_count(); ++v) {
    if (v != root_) b.add_edge(v, parent_[v]);
  }
  return b.build();
}

RootedTree bfs_tree(const Graph& g, Vertex root) {
  MG_OBS_SCOPE_TIMER(bfs_timer, "tree.bfs_ns");
  MG_OBS_SPAN(bfs_span, "tree.bfs");
  const Vertex n = g.vertex_count();
  MG_EXPECTS(root < n);
  std::vector<Vertex> parent(n, graph::kNoVertex);
  std::vector<std::uint32_t> dist(n, graph::kUnreachable);
  std::vector<Vertex> frontier;
  std::vector<Vertex> next;
  frontier.reserve(64);
  next.reserve(64);
  frontier.push_back(root);
  dist[root] = 0;
  Vertex seen = 1;
  std::uint64_t edge_visits = 0;  // directed adjacency entries scanned
  while (!frontier.empty()) {
    next.clear();
    for (Vertex u : frontier) {
      edge_visits += g.degree(u);
      const std::uint32_t du = dist[u];
      for (Vertex v : g.neighbors(u)) {
        if (dist[v] == graph::kUnreachable) {
          dist[v] = du + 1;
          parent[v] = u;
          next.push_back(v);
          ++seen;
        } else if (dist[v] == du + 1 && u < parent[v]) {
          // Same next level, smaller-id parent: min-update in place of the
          // historical per-level frontier sort.  The frontier order no
          // longer matters — every (parent, child) candidate in the
          // previous level is examined, so each child ends up with its
          // smallest-id previous-level neighbor, the same tree the sorted
          // frontier produced.
          parent[v] = u;
        }
      }
    }
    frontier.swap(next);
  }
  MG_EXPECTS_MSG(seen == n, "bfs_tree requires a connected graph");
  MG_OBS_ADD("tree.bfs_edge_visits", edge_visits);
  MG_OBS_ADD("tree.bfs_runs", 1);
  return RootedTree::from_parents(root, std::move(parent));
}

RootedTree min_depth_spanning_tree(const Graph& g, ThreadPool* pool,
                                   const graph::CenterOptions& center) {
  MG_OBS_SCOPE_TIMER(build_timer, "tree.min_depth_build_ns");
  MG_OBS_SPAN(build_span, "tree.min_depth_spanning_tree");
  MG_OBS_ADD("tree.min_depth_builds", 1);
  graph::CenterResult found;
  {
    MG_OBS_SCOPE_TIMER(center_timer, "tree.center_scan_ns");
    MG_OBS_SPAN(center_span, "tree.center_scan");
    found = graph::find_center(g, pool, center);
  }
  MG_OBS_ADD("tree.center_scan_pruned", found.pruned);
  MG_OBS_ADD("tree.center_scan_bfs", found.bfs_runs);
  MG_OBS_ADD("tree.center_scan_lane_batches", found.lane_batches);
  RootedTree t = bfs_tree(g, found.center);
  MG_ENSURES(t.height() == found.radius);
  return t;
}

RootedTree min_depth_spanning_tree(const Graph& g, ThreadPool* pool) {
  return min_depth_spanning_tree(g, pool, graph::CenterOptions{});
}

RootedTree root_tree_graph(const Graph& g, Vertex root) {
  MG_EXPECTS_MSG(graph::is_tree(g), "root_tree_graph requires a tree");
  return bfs_tree(g, root);
}

}  // namespace mg::tree
