#include "graph/center.h"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>
#include <vector>

#include "graph/properties.h"
#include "support/contracts.h"
#include "support/thread_pool.h"

namespace mg::graph {

namespace {

/// Sources per word-parallel BFS: one bit lane of a `uint64_t` each.
constexpr std::uint32_t kLanes = 64;

/// Reusable level-synchronous BFS state: one allocation per slot for the
/// whole scan instead of three per source.
struct BfsScratch {
  std::vector<std::uint32_t> dist;
  std::vector<Vertex> frontier;
  std::vector<Vertex> next;
};

struct BfsOutcome {
  std::uint32_t ecc = 0;
  Vertex reached = 0;
};

BfsOutcome run_bfs(const Graph& g, Vertex source, BfsScratch& s) {
  const Vertex n = g.vertex_count();
  s.dist.assign(n, kUnreachable);
  s.frontier.clear();
  s.frontier.push_back(source);
  s.dist[source] = 0;
  BfsOutcome out;
  out.reached = 1;
  std::uint32_t level = 0;
  while (!s.frontier.empty()) {
    ++level;
    s.next.clear();
    for (Vertex u : s.frontier) {
      for (Vertex v : g.neighbors(u)) {
        if (s.dist[v] == kUnreachable) {
          s.dist[v] = level;
          s.next.push_back(v);
          ++out.reached;
        }
      }
    }
    if (!s.next.empty()) out.ecc = level;
    s.frontier.swap(s.next);
  }
  return out;
}

/// Per-vertex words of the 64-source BFS; lane i belongs to the batch's
/// i-th source.  Sized once per slot and reused by every batch.
struct LaneScratch {
  std::vector<std::uint64_t> seen;
  std::vector<std::uint64_t> frontier;
  std::vector<std::uint64_t> next;
};

/// Exact eccentricities of up to 64 sources of a connected graph in one
/// bit-parallel BFS: `ecc[i]` receives the eccentricity of `sources[i]`.
/// Each level, every vertex that some lane has not reached yet ORs its
/// neighbors' frontier words; the lanes new to it form its next frontier.
/// A source's eccentricity is the last level at which its lane reached a
/// vertex, so the batch ends at the first level that reaches nothing.
void lane_eccentricities(const Graph& g, std::span<const Vertex> sources,
                         LaneScratch& s, std::uint32_t* ecc) {
  const Vertex n = g.vertex_count();
  const std::size_t count = sources.size();
  MG_ASSERT(count >= 1 && count <= kLanes);
  const std::uint64_t all =
      count == kLanes ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
  s.seen.assign(n, 0);
  s.frontier.assign(n, 0);
  s.next.resize(n);
  for (std::size_t i = 0; i < count; ++i) {
    s.seen[sources[i]] |= std::uint64_t{1} << i;
    s.frontier[sources[i]] |= std::uint64_t{1} << i;
    ecc[i] = 0;
  }
  for (std::uint32_t level = 1;; ++level) {
    std::uint64_t any = 0;
    bool unfinished = false;
    for (Vertex v = 0; v < n; ++v) {
      if (s.seen[v] == all) {
        s.next[v] = 0;
        continue;
      }
      unfinished = true;
      std::uint64_t acc = 0;
      for (const Vertex u : g.neighbors(v)) acc |= s.frontier[u];
      const std::uint64_t fresh = acc & ~s.seen[v];
      s.next[v] = fresh;
      s.seen[v] |= fresh;
      any |= fresh;
    }
    if (any == 0) {
      // Nothing new while a vertex still misses a lane: that lane's source
      // cannot reach it.
      MG_ASSERT_MSG(!unfinished, "the 64-source BFS requires connectivity");
      return;
    }
    // No connected graph has an eccentricity of n or more.
    MG_ASSERT(level < n);
    for (; any != 0; any &= any - 1) {
      ecc[std::countr_zero(any)] = level;
    }
    s.frontier.swap(s.next);
  }
}

std::size_t slot_count(std::size_t units, ThreadPool* pool) {
  if (pool == nullptr || pool->thread_count() <= 1) return 1;
  // No point spinning up more slots than work units.
  return std::min<std::size_t>(pool->thread_count(), units);
}

/// Runs `body(slot)` once per slot, on the pool when there is more than one.
template <typename Body>
void for_each_slot(std::size_t slots, ThreadPool* pool, Body&& body) {
  if (slots > 1) {
    pool->parallel_for(slots, body);
  } else {
    body(0);
  }
}

/// The exhaustive sweep: every vertex's exact eccentricity, plus the number
/// of 64-source batches it ran (0 on the scalar path).  Vertex 0's scalar
/// BFS is the connectivity check and decides the kernel: when ecc(0) <= 64,
/// every eccentricity lies in [ecc(0)/2, 2 ecc(0)] by the triangle
/// inequality, so a batch runs at most 129 levels; longer, thinner graphs
/// keep one scalar BFS per source.  Work units are strided over the slots
/// and each writes only its own sources, so the array is the same for any
/// thread count.
Metrics eccentricity_sweep(const Graph& g, ThreadPool* pool,
                           std::uint64_t& lane_batches) {
  const Vertex n = g.vertex_count();
  MG_EXPECTS(n >= 1);
  Metrics metrics;
  metrics.eccentricity.assign(n, 0);
  std::vector<std::uint32_t>& ecc = metrics.eccentricity;
  BfsScratch first;
  const BfsOutcome root = run_bfs(g, 0, first);
  MG_EXPECTS_MSG(root.reached == n,
                 "the eccentricity sweep requires a connected graph");
  ecc[0] = root.ecc;

  if (root.ecc <= kLanes) {
    const std::size_t batches = (n + kLanes - 1) / kLanes;
    const std::size_t slots = slot_count(batches, pool);
    std::vector<LaneScratch> scratch(slots);
    std::vector<Vertex> sources(n);
    for (Vertex v = 0; v < n; ++v) sources[v] = v;
    for_each_slot(slots, pool, [&](std::size_t slot) {
      for (std::size_t b = slot; b < batches; b += slots) {
        const std::size_t base = b * kLanes;
        const std::size_t count = std::min<std::size_t>(kLanes, n - base);
        lane_eccentricities(g, {sources.data() + base, count}, scratch[slot],
                            ecc.data() + base);
      }
    });
    lane_batches = batches;
  } else {
    const std::size_t slots = slot_count(n, pool);
    std::vector<BfsScratch> scratch(slots);
    for_each_slot(slots, pool, [&](std::size_t slot) {
      for (std::size_t v = 1 + slot; v < n; v += slots) {
        ecc[v] = run_bfs(g, static_cast<Vertex>(v), scratch[slot]).ecc;
      }
    });
    lane_batches = 0;
  }

  metrics.radius = kUnreachable;
  for (Vertex v = 0; v < n; ++v) {
    if (ecc[v] < metrics.radius) {
      metrics.radius = ecc[v];
      metrics.center = v;
    }
    metrics.diameter = std::max(metrics.diameter, ecc[v]);
  }
  return metrics;
}

CenterResult exhaustive_center(const Graph& g, ThreadPool* pool) {
  CenterResult result;
  const Metrics metrics = eccentricity_sweep(g, pool, result.lane_batches);
  result.radius = metrics.radius;
  result.center = metrics.center;
  result.diameter_lb = metrics.diameter;
  result.bfs_runs = g.vertex_count();
  return result;
}

CenterResult hybrid_center(const Graph& g, ThreadPool* pool,
                           const CenterOptions& options) {
  const Vertex n = g.vertex_count();
  const std::size_t slots = slot_count(n, pool);
  std::vector<BfsScratch> scratch(slots);
  std::vector<LaneScratch> lane_scratch(slots);

  CenterResult result;
  result.used_hybrid = true;
  result.radius = kUnreachable;

  std::vector<std::uint32_t> lower(n, 0);
  std::vector<std::uint32_t> upper(n, kUnreachable);
  std::vector<char> evaluated(n, 0);

  // Bound refresh from one evaluated source (BFS triangle inequality).
  auto absorb = [&](std::uint32_t ecc, const std::vector<std::uint32_t>& d) {
    for (Vertex v = 0; v < n; ++v) {
      const std::uint32_t lo = std::max(d[v], ecc - d[v]);
      if (lo > lower[v]) lower[v] = lo;
      const std::uint32_t up = d[v] + ecc;
      if (up < upper[v]) upper[v] = up;
    }
  };
  auto improve = [&](Vertex v, std::uint32_t ecc) {
    result.diameter_lb = std::max(result.diameter_lb, ecc);
    if (ecc < result.radius) {  // strict: ties never move the center
      result.radius = ecc;
      result.center = v;
    }
  };
  // Evaluates a reference vertex serially; returns its distance vector.
  auto evaluate_ref = [&](Vertex v) {
    const BfsOutcome out = run_bfs(g, v, scratch[0]);
    MG_EXPECTS_MSG(out.reached == n, "find_center requires connectivity");
    ++result.bfs_runs;
    evaluated[v] = 1;
    improve(v, out.ecc);
    absorb(out.ecc, scratch[0].dist);
    return std::pair<std::uint32_t, std::vector<std::uint32_t>>(
        out.ecc, scratch[0].dist);
  };
  auto farthest = [&](const std::vector<std::uint32_t>& d) {
    Vertex arg = 0;
    for (Vertex v = 1; v < n; ++v) {
      if (d[v] > d[arg]) arg = v;  // smallest id on ties
    }
    return arg;
  };

  // Reference sweeps: 0 -> a (farthest) -> b (double sweep), a-b geodesic
  // midpoint m, then the vertex farthest from m.  Repeats are skipped.
  const auto [ecc0, dist0] = evaluate_ref(0);
  // The candidate blocks take the exhaustive sweep's kernel under the same
  // ecc(0) rule.
  const bool lanes = ecc0 <= kLanes;
  const Vertex a = farthest(dist0);
  std::vector<std::uint32_t> dist_a = dist0;
  std::uint32_t ecc_a = ecc0;
  if (evaluated[a] == 0) std::tie(ecc_a, dist_a) = evaluate_ref(a);
  // b != a once n >= 2, so an already-evaluated b is vertex 0.
  const Vertex b = farthest(dist_a);
  std::vector<std::uint32_t> dist_b = dist0;
  if (evaluated[b] == 0) dist_b = evaluate_ref(b).second;

  // Midpoint: among vertices on an a-b geodesic (d(a,v) + d(v,b) equals the
  // double-sweep bound), the one most balanced between the endpoints;
  // smallest id on ties.  On grids this lands near the true center and the
  // resulting L bounds prune nearly everything.
  Vertex mid = a;
  std::uint32_t mid_key = kUnreachable;
  for (Vertex v = 0; v < n; ++v) {
    if (dist_a[v] + dist_b[v] != ecc_a) continue;
    const std::uint32_t key = std::max(dist_a[v], dist_b[v]);
    if (key < mid_key) {
      mid_key = key;
      mid = v;
    }
  }
  // An evaluated midpoint is 0, a or b (b only when d(a, b) = 1, and then
  // b = 0), and the vertex farthest from it, a or b, is evaluated too.
  if (evaluated[mid] == 0) {
    const Vertex far_m = farthest(evaluate_ref(mid).second);
    if (evaluated[far_m] == 0) evaluate_ref(far_m);
  }

  // Candidate scan: unevaluated vertices ordered by the frozen (L, U, id).
  std::vector<Vertex> order;
  order.reserve(n);
  for (Vertex v = 0; v < n; ++v) {
    if (evaluated[v] == 0) order.push_back(v);
  }
  std::sort(order.begin(), order.end(), [&](Vertex x, Vertex y) {
    if (lower[x] != lower[y]) return lower[x] < lower[y];
    if (upper[x] != upper[y]) return upper[x] < upper[y];
    return x < y;
  });
  std::vector<std::uint32_t> frozen(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) frozen[i] = lower[order[i]];

  const std::size_t block_cap = std::max<std::uint32_t>(1, options.block_size);
  std::vector<Vertex> block;
  block.reserve(block_cap);
  std::vector<std::uint32_t> block_ecc;
  std::vector<std::vector<std::uint32_t>> block_dist;
  std::uint64_t bound_updates = 0;

  std::size_t i = 0;
  while (i < order.size()) {
    // The order is sorted by frozen L and L only grows, so once the frozen
    // bound reaches the running best the whole tail is certified away.
    if (frozen[i] >= result.radius) {
      result.pruned += order.size() - i;
      break;
    }
    block.clear();
    while (i < order.size() && block.size() < block_cap &&
           frozen[i] < result.radius) {
      const Vertex v = order[i];
      ++i;
      if (lower[v] >= result.radius) {
        ++result.pruned;
        continue;
      }
      block.push_back(v);
    }
    if (block.empty()) continue;

    const std::size_t batch = block.size();
    block_ecc.assign(batch, 0);
    block_dist.assign(batch, {});
    // The first `keep` evaluations (the rest of the budget) also refresh
    // bounds, so they need distance vectors and stay scalar; the others go
    // 64 per BFS.  Fixed before the parallel section, so the work units do
    // not depend on the thread count, and each writes only its own sources.
    const std::size_t keep = std::min<std::uint64_t>(
        batch, options.bound_update_budget > bound_updates
                   ? options.bound_update_budget - bound_updates
                   : 0);
    const std::size_t scalar = lanes ? keep : batch;
    const std::size_t words = (batch - scalar + kLanes - 1) / kLanes;
    const std::size_t units = scalar + words;
    const std::size_t active = std::min(slots, units);
    for_each_slot(active, pool, [&](std::size_t slot) {
      for (std::size_t u = slot; u < units; u += active) {
        if (u < scalar) {
          block_ecc[u] = run_bfs(g, block[u], scratch[slot]).ecc;
          if (u < keep) block_dist[u] = scratch[slot].dist;
          continue;
        }
        const std::size_t first = scalar + (u - scalar) * kLanes;
        const std::size_t count = std::min<std::size_t>(kLanes, batch - first);
        lane_eccentricities(g, {block.data() + first, count},
                            lane_scratch[slot], block_ecc.data() + first);
      }
    });
    result.bfs_runs += batch;
    result.lane_batches += words;

    // Serial application in candidate order: thread-count invariant.
    for (std::size_t j = 0; j < batch; ++j) {
      evaluated[block[j]] = 1;
      improve(block[j], block_ecc[j]);
      if (j < keep) absorb(block_ecc[j], block_dist[j]);
    }
    bound_updates += keep;
  }

  MG_ENSURES(result.center != kNoVertex);
  return result;
}

}  // namespace

Metrics compute_metrics(const Graph& g, ThreadPool* pool) {
  std::uint64_t lane_batches = 0;
  return eccentricity_sweep(g, pool, lane_batches);
}

CenterResult find_center(const Graph& g, ThreadPool* pool,
                         const CenterOptions& options) {
  const Vertex n = g.vertex_count();
  MG_EXPECTS(n >= 1);
  const bool hybrid =
      options.mode == CenterMode::kHybrid ||
      (options.mode == CenterMode::kAuto && n > options.exhaustive_threshold);
  return hybrid ? hybrid_center(g, pool, options)
                : exhaustive_center(g, pool);
}

}  // namespace mg::graph
