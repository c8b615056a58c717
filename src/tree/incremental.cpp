#include "tree/incremental.h"

#include <algorithm>

#include "graph/properties.h"
#include "obs/registry.h"
#include "support/contracts.h"

namespace mg::tree {

namespace {

using graph::Graph;
using graph::kNoVertex;
using graph::kUnreachable;
using graph::Vertex;

/// Exact eccentricity re-evaluations tolerated per event before the decayed
/// certificate triggers a full rebuild instead.
constexpr std::size_t kCandidateBudget = 24;

/// True when u and v share a neighbor (sorted-list intersection), i.e.
/// their distance in the graph *without* a direct edge is exactly 2.
bool have_common_neighbor(const Graph& g, Vertex u, Vertex v) {
  const auto nu = g.neighbors(u);
  const auto nv = g.neighbors(v);
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < nu.size() && j < nv.size()) {
    if (nu[i] == nv[j]) return true;
    if (nu[i] < nv[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

/// BFS distance from `src` to `dst` with the direct edge {src, dst}
/// excluded — the length of the detour a fresh edge {src, dst} shortcuts.
/// Precondition: the graph stays connected without that edge... the caller
/// only probes after mutating a graph that was connected before the edge
/// appeared, so a finite detour always exists.
std::uint32_t detour_distance(const Graph& g, Vertex src, Vertex dst) {
  std::vector<std::uint32_t> dist(g.vertex_count(), kUnreachable);
  std::vector<Vertex> frontier{src};
  std::vector<Vertex> next;
  dist[src] = 0;
  std::uint32_t depth = 0;
  while (!frontier.empty()) {
    ++depth;
    next.clear();
    for (Vertex x : frontier) {
      for (Vertex y : g.neighbors(x)) {
        if ((x == src && y == dst) || (x == dst && y == src)) continue;
        if (dist[y] != kUnreachable) continue;
        if (y == dst) return depth;
        dist[y] = depth;
        next.push_back(y);
      }
    }
    frontier.swap(next);
  }
  MG_EXPECTS_MSG(false, "detour probe on a graph the new edge disconnects");
  return kUnreachable;
}

std::uint32_t exact_eccentricity(const Graph& g, Vertex v) {
  const auto ecc = graph::eccentricity(g, v);
  MG_EXPECTS_MSG(ecc.has_value(), "eccentricity probe on disconnected graph");
  return *ecc;
}

}  // namespace

const char* maintenance_path_name(MaintenancePath path) {
  switch (path) {
    case MaintenancePath::kNoop:
      return "noop";
    case MaintenancePath::kParentPatch:
      return "parent_patch";
    case MaintenancePath::kSubtreeRepair:
      return "subtree_repair";
    case MaintenancePath::kRecenter:
      return "recenter";
    case MaintenancePath::kFullRebuild:
      return "full_rebuild";
  }
  return "unknown";
}

IncrementalTree::IncrementalTree(const graph::Graph& g, ThreadPool* pool)
    : pool_(pool), tree_(min_depth_spanning_tree(g, pool)) {
  adopt_tree();
  MaintenanceReport ignored;
  seed_bounds(g, ignored);
}

void IncrementalTree::adopt_tree() {
  const Vertex n = tree_.vertex_count();
  center_ = tree_.root();
  radius_ = tree_.height();
  dist_.resize(n);
  parent_.resize(n);
  for (Vertex v = 0; v < n; ++v) {
    dist_[v] = tree_.level(v);
    parent_[v] = tree_.parent(v);
  }
}

void IncrementalTree::seed_bounds(const graph::Graph& g,
                                  MaintenanceReport& report) {
  // Certified lower bounds from four reference sweeps: the center (its
  // distance vector is dist_, no BFS needed), the double-sweep pair
  // (a = farthest from center, b = farthest from a), and the 4-sweep pick
  // farthest from both.  For every reference r the BFS triangle inequality
  // gives ecc(w) >= max(d(r,w), ecc(r) - d(r,w)); references themselves
  // get their exact eccentricity.
  const Vertex n = static_cast<Vertex>(dist_.size());
  ecc_lb_.assign(n, 0);
  for (Vertex w = 0; w < n; ++w) {
    ecc_lb_[w] = std::max(dist_[w], radius_ - dist_[w]);
  }
  ecc_lb_[center_] = radius_;
  if (n < 2) return;
  Vertex a = 0;
  for (Vertex w = 0; w < n; ++w) {
    if (dist_[w] > dist_[a]) a = w;
  }
  const auto da = graph::bfs_distances(g, a);
  ++report.bfs_runs;
  std::uint32_t ecc_a = 0;
  Vertex b = a;
  for (Vertex w = 0; w < n; ++w) {
    if (da[w] > ecc_a) {
      ecc_a = da[w];
      b = w;
    }
  }
  const auto db = graph::bfs_distances(g, b);
  ++report.bfs_runs;
  std::uint32_t ecc_b = 0;
  for (Vertex w = 0; w < n; ++w) ecc_b = std::max(ecc_b, db[w]);
  for (Vertex w = 0; w < n; ++w) {
    ecc_lb_[w] = std::max({ecc_lb_[w], da[w], ecc_a - da[w], db[w],
                           ecc_b - db[w]});
  }
  ecc_lb_[a] = ecc_a;
  ecc_lb_[b] = ecc_b;

  // Third reference: the vertex farthest from *both* ends of the diameter
  // path (the classic 4-sweep pick).  a and b certify vertices off their
  // shared geodesic band but leave the band itself at the loose equality
  // L == ecc/2; a reference on the *other* diagonal cuts through it, which
  // is what keeps the deletion rescan's candidate set under budget on
  // distance-spread graphs (e.g. grids).
  Vertex a2 = 0;
  for (Vertex w = 0; w < n; ++w) {
    if (std::min(da[w], db[w]) > std::min(da[a2], db[a2])) a2 = w;
  }
  const auto da2 = graph::bfs_distances(g, a2);
  ++report.bfs_runs;
  std::uint32_t ecc_a2 = 0;
  for (Vertex w = 0; w < n; ++w) ecc_a2 = std::max(ecc_a2, da2[w]);
  for (Vertex w = 0; w < n; ++w) {
    ecc_lb_[w] = std::max({ecc_lb_[w], da2[w], ecc_a2 - da2[w]});
  }
  ecc_lb_[a2] = ecc_a2;
}

void IncrementalTree::rebuild_rooted_tree() {
  tree_ = RootedTree::from_parents(center_, std::vector<Vertex>(parent_));
}

void IncrementalTree::finish(const MaintenanceReport& report) {
  ++stats_.events;
  stats_.bfs_runs += report.bfs_runs;
  stats_.candidate_evals += report.candidates;
  MG_OBS_ADD("churn.tree.events", 1);
  switch (report.path) {
    case MaintenancePath::kNoop:
      ++stats_.noop;
      MG_OBS_ADD("churn.tree.noop", 1);
      break;
    case MaintenancePath::kParentPatch:
      ++stats_.parent_patch;
      MG_OBS_ADD("churn.tree.parent_patch", 1);
      break;
    case MaintenancePath::kSubtreeRepair:
      ++stats_.subtree_repair;
      MG_OBS_ADD("churn.tree.subtree_repair", 1);
      break;
    case MaintenancePath::kRecenter:
      ++stats_.recenter;
      MG_OBS_ADD("churn.tree.recenter", 1);
      break;
    case MaintenancePath::kFullRebuild:
      ++stats_.full_rebuild;
      MG_OBS_ADD("churn.tree.full_rebuild", 1);
      break;
  }
  if (report.bfs_runs > 0) MG_OBS_ADD("churn.tree.bfs_runs", report.bfs_runs);
  if (report.candidates > 0) {
    MG_OBS_ADD("churn.tree.candidate_evals", report.candidates);
  }
  // The paper's invariant, in every mode: the maintained tree has least
  // possible height, i.e. height == ecc(center) == the exact radius.
  MG_ENSURES(tree_.height() == radius_);
}

MaintenanceReport IncrementalTree::full_rebuild(const graph::Graph& g,
                                                MaintenanceReport report) {
  tree_ = min_depth_spanning_tree(g, pool_);
  adopt_tree();
  seed_bounds(g, report);
  report.path = MaintenancePath::kFullRebuild;
  report.touched = g.vertex_count();
  return report;
}

void IncrementalTree::reference_sweep(const graph::Graph& g, Vertex r,
                                      MaintenanceReport& report) {
  const auto dr = graph::bfs_distances(g, r);
  ++report.bfs_runs;
  const Vertex n = g.vertex_count();
  std::uint32_t ecc = 0;
  for (Vertex w = 0; w < n; ++w) ecc = std::max(ecc, dr[w]);
  for (Vertex w = 0; w < n; ++w) {
    ecc_lb_[w] = std::max({ecc_lb_[w], dr[w], ecc - dr[w]});
  }
  ecc_lb_[r] = ecc;
}

Vertex IncrementalTree::rescan_center(const graph::Graph& g,
                                      std::uint32_t new_radius_c,
                                      MaintenanceReport& report,
                                      std::uint32_t& best_ecc) {
  // Re-floor every certified bound with the fresh center distances and
  // collect every vertex the certificate no longer excludes from beating
  // (or out-tie-breaking) the center.
  const Vertex n = g.vertex_count();
  std::vector<Vertex> candidates;
  for (Vertex w = 0; w < n; ++w) {
    const std::uint32_t lb =
        std::max({ecc_lb_[w], dist_[w], new_radius_c - dist_[w]});
    ecc_lb_[w] = lb;
    if (w != center_ &&
        (lb < new_radius_c || (lb == new_radius_c && w < center_))) {
      candidates.push_back(w);
    }
  }
  ecc_lb_[center_] = new_radius_c;

  if (candidates.size() > kCandidateBudget) return kNoVertex;

  // Exact re-evaluation, ascending vertex id — exactly the exhaustive
  // tie-break: the smallest-id vertex of minimum eccentricity wins.
  best_ecc = new_radius_c;
  Vertex best_v = center_;
  for (Vertex w : candidates) {
    const std::uint32_t ecc = exact_eccentricity(g, w);
    ++report.bfs_runs;
    ++report.candidates;
    ecc_lb_[w] = ecc;
    if (ecc < best_ecc || (ecc == best_ecc && w < best_v)) {
      best_ecc = ecc;
      best_v = w;
    }
  }
  return best_v;
}

void IncrementalTree::reminimize_parents(const graph::Graph& g) {
  std::vector<Vertex> frontier = affected_;
  for (Vertex w : affected_) {
    for (Vertex y : g.neighbors(w)) frontier.push_back(y);
  }
  std::sort(frontier.begin(), frontier.end());
  frontier.erase(std::unique(frontier.begin(), frontier.end()),
                 frontier.end());
  for (Vertex w : frontier) {
    if (w == center_) continue;
    Vertex best_parent = kNoVertex;
    for (Vertex y : g.neighbors(w)) {
      if (dist_[y] + 1 == dist_[w]) {
        best_parent = y;  // sorted neighbors: first hit is smallest id
        break;
      }
    }
    MG_EXPECTS_MSG(best_parent != kNoVertex,
                   "repaired BFS levels lost a parent witness");
    parent_[w] = best_parent;
  }
}

MaintenanceReport IncrementalTree::on_node_event(const graph::Graph& g) {
  MaintenanceReport report = full_rebuild(g, {});
  finish(report);
  return report;
}

MaintenanceReport IncrementalTree::on_edge_added(const graph::Graph& g,
                                                 graph::Vertex u,
                                                 graph::Vertex v) {
  MaintenanceReport report;
  const Vertex n = g.vertex_count();
  if (n != dist_.size() || n < 2) {
    report = full_rebuild(g, report);
    finish(report);
    return report;
  }
  MG_EXPECTS(u < n && v < n);
  MG_EXPECTS_MSG(g.has_edge(u, v), "report insertions after mutating");

  // Certified savings bound: inserting {u, v} can lower any distance — and
  // therefore any eccentricity — by at most s = d_old(u, v) - 1, the
  // length of the detour the edge replaces.
  std::uint32_t detour;
  if (have_common_neighbor(g, u, v)) {
    detour = 2;
  } else {
    detour = detour_distance(g, u, v);
    ++report.bfs_runs;
  }
  const std::uint32_t savings = detour - 1;

  const std::uint32_t du = dist_[u];
  const std::uint32_t dv = dist_[v];
  const std::uint32_t diff = du > dv ? du - dv : dv - du;

  std::uint32_t new_radius_c = radius_;  // ecc(center) after the insertion
  affected_.clear();
  if (diff >= 2) {
    // The edge shortcuts the BFS from the center: propagate the
    // improvement from the deeper endpoint.  Distances only decrease, so
    // the wave is confined to the region the shortcut actually reaches.
    const Vertex hi = du > dv ? u : v;
    const Vertex lo = du > dv ? v : u;
    std::vector<char> improved(n, 0);
    dist_[hi] = dist_[lo] + 1;
    improved[hi] = 1;
    affected_.push_back(hi);
    queue_.clear();
    queue_.push_back(hi);
    std::size_t head = 0;
    while (head < queue_.size()) {
      const Vertex x = queue_[head++];
      const std::uint32_t dx = dist_[x];
      for (Vertex y : g.neighbors(x)) {
        if (dist_[y] > dx + 1) {
          dist_[y] = dx + 1;
          if (!improved[y]) {
            improved[y] = 1;
            affected_.push_back(y);
          }
          queue_.push_back(y);
        }
      }
    }
    new_radius_c = 0;
    for (Vertex w = 0; w < n; ++w) {
      new_radius_c = std::max(new_radius_c, dist_[w]);
    }
  }

  // Decay every certified bound by the savings — the worst case over all
  // pairs — then re-certify with fresh reference sweeps from both
  // endpoints on the mutated graph: the real distance change concentrates
  // around the new edge, and exact post-mutation references there prune
  // most of the pessimism right back.
  for (Vertex w = 0; w < n; ++w) {
    ecc_lb_[w] = ecc_lb_[w] > savings ? ecc_lb_[w] - savings : 0;
  }
  reference_sweep(g, u, report);
  reference_sweep(g, v, report);
  std::uint32_t best = new_radius_c;
  const Vertex best_v = rescan_center(g, new_radius_c, report, best);
  if (best_v == kNoVertex) {
    report = full_rebuild(g, report);
    finish(report);
    return report;
  }

  if (best_v != center_) {
    tree_ = bfs_tree(g, best_v);
    ++report.bfs_runs;
    adopt_tree();
    MG_ENSURES(radius_ == best);
    ecc_lb_[center_] = radius_;
    report.path = MaintenancePath::kRecenter;
    report.touched = n;
    finish(report);
    return report;
  }

  radius_ = new_radius_c;
  if (diff <= 1) {
    // Levels are untouched; the only from-scratch difference possible is
    // the deeper endpoint adopting the new neighbor as a smaller-id
    // parent.
    bool changed = false;
    if (dv == du + 1 && u < parent_[v]) {
      parent_[v] = u;
      changed = true;
    } else if (du == dv + 1 && v < parent_[u]) {
      parent_[u] = v;
      changed = true;
    }
    if (changed) {
      rebuild_rooted_tree();
      report.path = MaintenancePath::kParentPatch;
      report.touched = 1;
    } else {
      report.path = MaintenancePath::kNoop;
    }
  } else {
    reminimize_parents(g);
    rebuild_rooted_tree();
    report.path = MaintenancePath::kSubtreeRepair;
    report.touched = affected_.size();
  }
  finish(report);
  return report;
}

MaintenanceReport IncrementalTree::on_edge_removed(const graph::Graph& g,
                                                   graph::Vertex u,
                                                   graph::Vertex v) {
  MaintenanceReport report;
  const Vertex n = g.vertex_count();
  if (n != dist_.size() || n < 2) {
    report = full_rebuild(g, report);
    finish(report);
    return report;
  }
  MG_EXPECTS(u < n && v < n);
  MG_EXPECTS_MSG(!g.has_edge(u, v), "report removals after mutating");

  // Deletions only *increase* eccentricities, so while ecc(center) is
  // provably unchanged the center keeps its title (every smaller-id vertex
  // was strictly worse and only got worse) and `ecc_lb_` stays valid.
  std::uint32_t du = dist_[u];
  std::uint32_t dv = dist_[v];
  if (du == dv) {
    // A same-level edge lies on no shortest path from the center: the BFS
    // distance vector, the parent choices, and the radius all survive.
    report.path = MaintenancePath::kNoop;
    finish(report);
    return report;
  }
  if (du > dv) {
    std::swap(u, v);
    std::swap(du, dv);
  }
  // dv == du + 1: the deeper endpoint needs another previous-level witness
  // or its own distance (and possibly its whole subtree's) grows.
  Vertex witness = kNoVertex;
  for (Vertex x : g.neighbors(v)) {
    if (dist_[x] == du) {
      witness = x;  // sorted neighbors: first hit is smallest id
      break;
    }
  }
  if (witness != kNoVertex) {
    if (parent_[v] == u) {
      parent_[v] = witness;
      rebuild_rooted_tree();
      report.path = MaintenancePath::kParentPatch;
      report.touched = 1;
    } else {
      report.path = MaintenancePath::kNoop;
    }
    finish(report);
    return report;
  }

  // The deeper endpoint lost its last previous-level witness, so its BFS
  // level grows — and the growth cascades strictly downward: a vertex
  // keeps its level iff it keeps an *unaffected* previous-level witness,
  // so affectedness at level d depends only on level d - 1 and one
  // level-ordered sweep settles the whole affected set.
  std::vector<char> affected(n, 0);
  affected_.clear();
  std::vector<Vertex> level_now{v};
  std::vector<Vertex> level_next;
  std::uint32_t level = dv;
  while (!level_now.empty()) {
    std::sort(level_now.begin(), level_now.end());
    level_now.erase(std::unique(level_now.begin(), level_now.end()),
                    level_now.end());
    level_next.clear();
    for (Vertex w : level_now) {
      bool has_witness = false;
      for (Vertex x : g.neighbors(w)) {
        if (dist_[x] + 1 == level && !affected[x]) {
          has_witness = true;
          break;
        }
      }
      if (has_witness) continue;
      affected[w] = 1;
      affected_.push_back(w);
      for (Vertex y : g.neighbors(w)) {
        if (dist_[y] == level + 1) level_next.push_back(y);
      }
    }
    level_now.swap(level_next);
    ++level;
  }

  // Repair: new distances for the affected region by a bucketed
  // label-setting pass seeded from its unaffected boundary (whose
  // distances are exact and unchanged).  Level 1 is never affected — the
  // center itself is its witness — so the boundary is non-empty whenever
  // the graph stays connected.
  std::vector<std::vector<Vertex>> buckets(
      static_cast<std::size_t>(n) + 2);
  for (Vertex w : affected_) {
    std::uint32_t base = kUnreachable;
    for (Vertex x : g.neighbors(w)) {
      if (!affected[x]) base = std::min(base, dist_[x] + 1);
    }
    dist_[w] = base;
    if (base <= n) buckets[base].push_back(w);
  }
  for (std::uint32_t d = 0; d + 1 < buckets.size(); ++d) {
    for (std::size_t i = 0; i < buckets[d].size(); ++i) {
      const Vertex w = buckets[d][i];
      if (dist_[w] != d) continue;  // stale entry, relaxed since
      for (Vertex y : g.neighbors(w)) {
        if (affected[y] && dist_[y] > d + 1) {
          dist_[y] = d + 1;
          buckets[d + 1].push_back(y);
        }
      }
    }
  }
  for (Vertex w : affected_) {
    MG_EXPECTS_MSG(dist_[w] < n, "edge removal disconnected the graph");
  }

  // ecc(center) may have grown past a rival's: re-derive it exactly from
  // the repaired distance vector, then run the same certificate scan as
  // insertions (savings = 0 — deletion bounds are still valid, distances
  // from the center only re-floor them).
  std::uint32_t new_radius_c = 0;
  for (Vertex w = 0; w < n; ++w) {
    new_radius_c = std::max(new_radius_c, dist_[w]);
  }
  // Deletion bounds are still valid (eccentricities only grew); one fresh
  // sweep from the endpoint whose level moved re-certifies its region
  // before the scan.
  reference_sweep(g, v, report);
  std::uint32_t best = new_radius_c;
  const Vertex best_v = rescan_center(g, new_radius_c, report, best);
  if (best_v == kNoVertex) {
    report = full_rebuild(g, report);
    finish(report);
    return report;
  }
  if (best_v != center_) {
    tree_ = bfs_tree(g, best_v);
    ++report.bfs_runs;
    adopt_tree();
    MG_ENSURES(radius_ == best);
    ecc_lb_[center_] = radius_;
    report.path = MaintenancePath::kRecenter;
    report.touched = n;
    finish(report);
    return report;
  }

  radius_ = new_radius_c;
  reminimize_parents(g);
  rebuild_rooted_tree();
  report.path = MaintenancePath::kSubtreeRepair;
  report.touched = affected_.size();
  finish(report);
  return report;
}

}  // namespace mg::tree
