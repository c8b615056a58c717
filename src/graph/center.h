// Exact center finding, from toy graphs to million-node scale.
//
// The paper's §3.1 tree construction needs one center vertex (a vertex of
// eccentricity == radius).  `find_center` has two exact paths:
//
//   * Exhaustive sweep (kExhaustive; kAuto up to `exhaustive_threshold`):
//     every vertex's eccentricity, center = smallest-id minimum.  This is
//     the sweep `compute_metrics` returns too.  One scalar BFS from vertex
//     0 checks connectivity and reads ecc(0).  When ecc(0) <= 64, the
//     sources then go 64 per BFS through a word-parallel kernel: each
//     vertex holds `seen`, `frontier` and `next` words with one bit lane
//     per source, and each level every vertex not yet seen by all lanes ORs
//     its neighbors' frontier words, keeps the lanes new to it as its next
//     frontier and adds them to `seen`.  A lane's eccentricity is the last
//     level at which it reached a vertex; a level that reaches nothing ends
//     the batch (after Then et al., "The More the Merrier", PVLDB 2014).
//     Why 64: by the triangle inequality every ecc(v) lies in
//     [ecc(0)/2, 2 ecc(0)], so a batch runs at most 2 ecc(0) + 1 <= 129
//     levels and reads at most about twice the adjacency entries of the
//     64 scalar BFSes it replaces, each read a branch-free OR.  Longer,
//     thinner graphs (paths, row-major grids) would run more levels than
//     they share, so they keep one scalar BFS per source.  The rule reads
//     only ecc(0), never n or a graph family.
//
//   * Hybrid scan (kHybrid; kAuto above the threshold), iFUB-style:
//     1. Reference sweeps: BFS from vertex 0, from the farthest vertex a
//        found, from the farthest vertex b from a (the classic double
//        sweep, giving a diameter lower bound d(a, b)), from a midpoint of
//        the a-b geodesic, and from the vertex farthest from that
//        midpoint.  Every reference r with eccentricity e and distance
//        vector d yields per-vertex bounds
//            L(v) = max(d(r, v), e - d(r, v))   <= ecc(v)
//            U(v) = d(r, v) + e                 >= ecc(v)
//        (the BFS triangle inequality).
//     2. Pruned candidate scan: the unevaluated vertices are ordered by
//        (L, U, id) ascending and evaluated in fixed-size blocks; a vertex
//        whose lower bound has reached the running best eccentricity is
//        pruned — it can tie the radius but never beat it — and because
//        the order is sorted by the frozen L the scan stops outright once
//        the remaining tail is all bounded away.  A block's first
//        evaluations, while `bound_update_budget` lasts, need distance
//        vectors and run scalar BFSes; under the same ecc(0) <= 64 rule
//        the rest of the block goes through the 64-source kernel.
//
// Both paths fan their work units (scalar sources, 64-source batches) over
// the ThreadPool with reusable scratch per slot.  Units are fixed before
// evaluation, each writes only its own sources' eccentricities, and the
// hybrid applies results serially in candidate order, so the returned
// center is identical for any thread count (including none).
//
// Exactness: the kernel's eccentricities are exact.  In the hybrid every
// vertex is either evaluated (its eccentricity is known exactly) or pruned
// at a moment when L(v) >= best; `best` never increases, so at termination
// ecc(v) >= L(v) >= final best for every pruned v, and the final best —
// attained by an evaluated vertex — is the radius.  The hybrid's center
// tie-break differs from the exhaustive one: it returns the first vertex
// attaining the radius in its deterministic evaluation order.  Both are
// exact centers; tests assert ecc(center) == radius and cross-check the
// radius differentially.
//
// On vertex-transitive families (cycles, tori, hypercubes) every vertex is
// a center and every BFS triangle bound degenerates to L(v) < radius for
// all but antipodal vertices, so *no* certificate-based exact scan can beat
// Theta(n) BFSes there — docs/SCALING.md works the argument.  Those
// families get their center analytically (any vertex).  Pruning pays off
// where distances spread (grids, the seeded test families); on expanders
// such as random regular graphs it prunes little, but their low ecc(0)
// sends the candidate blocks through the kernel.
#pragma once

#include <cstdint>

#include "graph/graph.h"

namespace mg {
class ThreadPool;
}

namespace mg::graph {

enum class CenterMode : std::uint8_t {
  kAuto,        ///< exhaustive below `exhaustive_threshold`, hybrid above
  kExhaustive,  ///< n BFS sweeps; center = smallest-id min-ecc vertex
  kHybrid,      ///< reference sweeps + pruned candidate scan (exact radius)
};

struct CenterOptions {
  CenterMode mode = CenterMode::kAuto;
  /// kAuto cutover: graphs up to this size take the exhaustive path, so the
  /// library keeps byte-identical trees on every pre-existing workload.
  Vertex exhaustive_threshold = 2048;
  /// Number of evaluated candidates whose distance vectors refresh the
  /// lower bounds during the scan (each refresh is an O(n) pass + an O(n)
  /// distance-vector copy, so this is bounded).
  std::uint32_t bound_update_budget = 48;
  /// Candidates evaluated per parallel batch.  Fixed independently of the
  /// thread count so block boundaries — and therefore the result — do not
  /// depend on parallelism.
  std::uint32_t block_size = 256;
};

struct CenterResult {
  std::uint32_t radius = 0;
  Vertex center = kNoVertex;   ///< a vertex with eccentricity == radius
  /// Best diameter lower bound seen (max eccentricity evaluated; exact
  /// diameter when the path was exhaustive).
  std::uint32_t diameter_lb = 0;
  std::uint64_t bfs_runs = 0;  ///< sources evaluated (n when exhaustive)
  std::uint64_t pruned = 0;    ///< vertices eliminated by lower bounds
  /// 64-source kernel batches run; 0 when every source took a scalar BFS.
  std::uint64_t lane_batches = 0;
  bool used_hybrid = false;
};

/// Finds an exact center of a connected graph.  When `pool` is non-null the
/// BFS work fans out over it; the result is independent of the thread
/// count.  Precondition: `g` is connected and n >= 1.
[[nodiscard]] CenterResult find_center(const Graph& g,
                                       ThreadPool* pool = nullptr,
                                       const CenterOptions& options = {});

}  // namespace mg::graph
