#include "graph/dynamic.h"

#include <algorithm>

#include "obs/registry.h"
#include "support/contracts.h"

namespace mg::graph {

namespace {

/// The overlay collapses back into a flat CSR base once its entries (added
/// + removed edge records) exceed max(kCollapseMin, directed base entries /
/// kCollapseDivisor).
constexpr std::size_t kCollapseMin = 64;
constexpr std::size_t kCollapseDivisor = 4;

/// Inserts `v` into sorted vector `vec` (absent), or erases it (present).
/// Returns +1 on insert, -1 on erase.
int toggle_sorted(std::vector<Vertex>& vec, Vertex v) {
  const auto it = std::lower_bound(vec.begin(), vec.end(), v);
  if (it != vec.end() && *it == v) {
    vec.erase(it);
    return -1;
  }
  vec.insert(it, v);
  return 1;
}

bool contains_sorted(const std::vector<Vertex>& vec, Vertex v) {
  return std::binary_search(vec.begin(), vec.end(), v);
}

}  // namespace

DynamicGraph::DynamicGraph(Graph base)
    : n_(base.vertex_count()),
      edge_count_(base.edge_count()),
      base_(std::move(base)),
      added_(n_),
      removed_(n_),
      snapshot_(base_),
      snapshot_valid_(true) {}

bool DynamicGraph::has_edge(Vertex u, Vertex v) const {
  MG_EXPECTS(u < n_ && v < n_);
  if (contains_sorted(added_[u], v)) return true;
  if (contains_sorted(removed_[u], v)) return false;
  return base_.has_edge(u, v);
}

Vertex DynamicGraph::degree(Vertex v) const {
  MG_EXPECTS(v < n_);
  return static_cast<Vertex>(base_.degree(v) + added_[v].size() -
                             removed_[v].size());
}

void DynamicGraph::add_edge(Vertex u, Vertex v) {
  MG_EXPECTS_MSG(u != v, "self-loops are not allowed");
  MG_EXPECTS(u < n_ && v < n_);
  MG_EXPECTS_MSG(!has_edge(u, v), "edge already present");
  if (base_.has_edge(u, v)) {
    // Re-adding a base edge: cancel its removal records.
    overlay_entries_ +=
        static_cast<std::size_t>(toggle_sorted(removed_[u], v) +
                                 toggle_sorted(removed_[v], u));
  } else {
    overlay_entries_ += static_cast<std::size_t>(
        toggle_sorted(added_[u], v) + toggle_sorted(added_[v], u));
  }
  ++edge_count_;
  ++stats_.edges_added;
  MG_OBS_ADD("churn.graph.edges_added", 1);
  invalidate_snapshot();
  maybe_collapse();
}

void DynamicGraph::remove_edge(Vertex u, Vertex v) {
  MG_EXPECTS(u < n_ && v < n_);
  MG_EXPECTS_MSG(has_edge(u, v), "edge not present");
  if (contains_sorted(added_[u], v)) {
    // Removing an overlay-added edge: cancel its addition records.
    overlay_entries_ -= 2;
    toggle_sorted(added_[u], v);
    toggle_sorted(added_[v], u);
  } else {
    overlay_entries_ += static_cast<std::size_t>(
        toggle_sorted(removed_[u], v) + toggle_sorted(removed_[v], u));
  }
  --edge_count_;
  ++stats_.edges_removed;
  MG_OBS_ADD("churn.graph.edges_removed", 1);
  invalidate_snapshot();
  maybe_collapse();
}

Vertex DynamicGraph::add_node(Vertex attach_to) {
  MG_EXPECTS(attach_to < n_);
  const Vertex fresh = n_;
  ++n_;
  added_.emplace_back();
  removed_.emplace_back();
  overlay_entries_ += static_cast<std::size_t>(
      toggle_sorted(added_[fresh], attach_to) +
      toggle_sorted(added_[attach_to], fresh));
  ++edge_count_;
  ++stats_.nodes_added;
  MG_OBS_ADD("churn.graph.nodes_added", 1);
  invalidate_snapshot();
  collapse();  // vertex-count changes always re-flatten
  return fresh;
}

void DynamicGraph::remove_node(Vertex v) {
  MG_EXPECTS(v < n_);
  MG_EXPECTS_MSG(n_ >= 2, "cannot remove the last vertex");
  // Work on the flat merged view: collapse first, then rebuild without v,
  // renumbering the last vertex to v (ids stay dense 0..n-2).
  collapse();
  const Vertex last = n_ - 1;
  std::vector<Edge> edges;
  edges.reserve(base_.edge_count());
  for (Vertex u = 0; u < n_; ++u) {
    for (Vertex w : base_.neighbors(u)) {
      if (u >= w || u == v || w == v) continue;
      const Vertex a = (u == last) ? v : u;
      const Vertex b = (w == last) ? v : w;
      edges.emplace_back(a, b);
    }
  }
  --n_;
  base_ = Graph::from_edges(n_, edges);
  edge_count_ = base_.edge_count();
  added_.assign(n_, {});
  removed_.assign(n_, {});
  overlay_entries_ = 0;
  ++stats_.nodes_removed;
  ++stats_.collapses;
  MG_OBS_ADD("churn.graph.nodes_removed", 1);
  MG_OBS_ADD("churn.graph.collapses", 1);
  invalidate_snapshot();
}

const Graph& DynamicGraph::snapshot() const {
  if (!snapshot_valid_) {
    if (overlay_entries_ == 0) {
      snapshot_ = base_;
    } else {
      // Merge base minus removed plus added, per vertex; every per-vertex
      // list is sorted, so the merged runs are sorted and the CSR fast
      // path applies.
      // Vertices appended since the base was frozen have no base run.
      const Vertex base_n = base_.vertex_count();
      const auto base_neighbors = [&](Vertex v) {
        return v < base_n ? base_.neighbors(v) : std::span<const Vertex>{};
      };
      std::vector<std::size_t> offsets(static_cast<std::size_t>(n_) + 1, 0);
      for (Vertex v = 0; v < n_; ++v) {
        offsets[v + 1] = offsets[v] + base_neighbors(v).size() +
                         added_[v].size() - removed_[v].size();
      }
      std::vector<Vertex> adjacency(offsets.back());
      for (Vertex v = 0; v < n_; ++v) {
        auto out = adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v]);
        const auto& add = added_[v];
        const auto& rem = removed_[v];
        std::size_t ai = 0;
        for (Vertex w : base_neighbors(v)) {
          if (contains_sorted(rem, w)) continue;
          while (ai < add.size() && add[ai] < w) *out++ = add[ai++];
          *out++ = w;
        }
        while (ai < add.size()) *out++ = add[ai++];
      }
      snapshot_ = Graph::from_csr(std::move(offsets), std::move(adjacency));
    }
    snapshot_valid_ = true;
  }
  return snapshot_;
}

bool DynamicGraph::is_removable(Vertex u, Vertex v) const {
  MG_EXPECTS_MSG(has_edge(u, v), "edge not present");
  if (degree(u) <= 1 || degree(v) <= 1) return false;
  // BFS from u skipping {u, v}; the edge is removable iff v stays
  // reachable and the sweep still covers every vertex.
  std::vector<char> seen(n_, 0);
  std::vector<Vertex> stack{u};
  seen[u] = 1;
  Vertex covered = 1;
  const Graph& g = snapshot();
  while (!stack.empty()) {
    const Vertex x = stack.back();
    stack.pop_back();
    for (Vertex y : g.neighbors(x)) {
      if ((x == u && y == v) || (x == v && y == u)) continue;
      if (!seen[y]) {
        seen[y] = 1;
        ++covered;
        stack.push_back(y);
      }
    }
  }
  return covered == n_;
}

void DynamicGraph::invalidate_snapshot() { snapshot_valid_ = false; }

void DynamicGraph::maybe_collapse() {
  const std::size_t threshold =
      std::max(kCollapseMin, base_.edge_count() * 2 / kCollapseDivisor);
  if (overlay_entries_ > threshold) {
    collapse();
    ++stats_.collapses;
    MG_OBS_ADD("churn.graph.collapses", 1);
  }
}

void DynamicGraph::collapse() {
  if (overlay_entries_ == 0 && base_.vertex_count() == n_) return;
  base_ = snapshot();
  added_.assign(n_, {});
  removed_.assign(n_, {});
  overlay_entries_ = 0;
}

}  // namespace mg::graph
