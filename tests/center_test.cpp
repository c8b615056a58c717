// Differential tests for graph::find_center against an oracle of one
// scalar BFS per vertex (`graph::eccentricity`).  The exhaustive sweep and
// `compute_metrics` share the 64-source word-parallel kernel, so neither
// can vouch for the other.  The hybrid pruned scan must produce the exact
// radius on every graph — including the vertex-transitive families where
// pruning cannot help and the scan degenerates to evaluating (nearly)
// everything.  The center vertex itself may differ between the two paths
// (both are exact centers; the tie-break differs — see center.h), so the
// cross-checks are
//   * the exhaustive path equals the oracle, center and eccentricities
//     included, and ran the kernel exactly when ecc(0) <= 64,
//   * the hybrid's radius equals the oracle's, and ecc(center) == radius,
//   * serial == 4-thread pool for both paths (determinism).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "graph/center.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "graph/properties.h"
#include "support/contracts.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace mg {
namespace {

/// One scalar BFS per vertex: exact eccentricities, the smallest-id center.
struct Oracle {
  std::vector<std::uint32_t> ecc;
  std::uint32_t radius = graph::kUnreachable;
  std::uint32_t diameter = 0;
  graph::Vertex center = graph::kNoVertex;
};

Oracle oracle(const graph::Graph& g) {
  Oracle o;
  for (graph::Vertex v = 0; v < g.vertex_count(); ++v) {
    const std::uint32_t e = graph::eccentricity(g, v).value();
    o.ecc.push_back(e);
    if (e < o.radius) {
      o.radius = e;
      o.center = v;
    }
    o.diameter = std::max(o.diameter, e);
  }
  return o;
}

/// Batches the exhaustive sweep runs: ceil(n / 64) under the ecc(0) <= 64
/// rule, none otherwise.
std::uint64_t expected_lane_batches(const graph::Graph& g,
                                    const Oracle& expected) {
  return expected.ecc[0] <= 64 ? (g.vertex_count() + 63) / 64 : 0;
}

graph::CenterOptions with_mode(graph::CenterMode mode) {
  graph::CenterOptions options;
  options.mode = mode;
  return options;
}

graph::Graph make_graph(std::uint64_t seed) {
  Rng rng(0xd1ffULL * (seed + 1));
  const auto n = static_cast<graph::Vertex>(5 + (seed * 7) % 44);
  switch (seed % 4) {
    case 0:
      return graph::random_connected_gnp(n, 3.0 / static_cast<double>(n),
                                         rng);
    case 1:
      return graph::random_tree(n, rng);
    case 2:
      return graph::random_geometric(n, 0.3, rng);
    default:
      return graph::random_connected_gnp(n, 0.5, rng);
  }
}

std::vector<std::pair<std::string, graph::Graph>> named_sweep() {
  Rng rng(0xcafeULL);
  return {
      {"path/17", graph::path(17)},
      {"cycle/24", graph::cycle(24)},
      {"complete/9", graph::complete(9)},
      {"star/12", graph::star(12)},
      {"grid/7x9", graph::grid(7, 9)},
      {"torus/5x7", graph::torus(5, 7)},
      {"torus3d/3x4x5", graph::torus3d(3, 4, 5)},
      {"hypercube/5", graph::hypercube(5)},
      {"petersen", graph::petersen()},
      {"n3_witness", graph::n3_witness()},
      {"fig4", graph::fig4_network()},
      {"caterpillar/8x3", graph::caterpillar(8, 3)},
      {"binomial/4", graph::binomial_tree(4)},
      {"lollipop/6+9", graph::lollipop(6, 9)},
      {"random_regular_cfg/40x3",
       graph::random_regular_configuration(40, 3, rng)},
  };
}

void check_graph(const graph::Graph& g, const std::string& label) {
  SCOPED_TRACE(label);
  const Oracle expected = oracle(g);

  // compute_metrics shares the exhaustive sweep.
  const graph::Metrics metrics = graph::compute_metrics(g);
  EXPECT_EQ(metrics.eccentricity, expected.ecc);
  EXPECT_EQ(metrics.radius, expected.radius);
  EXPECT_EQ(metrics.diameter, expected.diameter);
  EXPECT_EQ(metrics.center, expected.center);

  const auto exhaustive = with_mode(graph::CenterMode::kExhaustive);
  const graph::CenterResult full = graph::find_center(g, nullptr, exhaustive);
  EXPECT_EQ(full.radius, expected.radius);
  EXPECT_EQ(full.center, expected.center);
  EXPECT_EQ(full.diameter_lb, expected.diameter);
  EXPECT_EQ(full.bfs_runs, g.vertex_count());
  EXPECT_EQ(full.lane_batches, expected_lane_batches(g, expected));
  EXPECT_FALSE(full.used_hybrid);

  // Hybrid path: exact radius, possibly a different (equally valid) center.
  const auto hybrid = with_mode(graph::CenterMode::kHybrid);
  const graph::CenterResult fast = graph::find_center(g, nullptr, hybrid);
  EXPECT_EQ(fast.radius, expected.radius);
  EXPECT_TRUE(fast.used_hybrid);
  ASSERT_LT(fast.center, g.vertex_count());
  EXPECT_EQ(expected.ecc[fast.center], expected.radius)
      << "hybrid returned a non-center vertex " << fast.center;
  EXPECT_GE(fast.diameter_lb, expected.radius);
  EXPECT_LE(fast.diameter_lb, expected.diameter);
  EXPECT_EQ(fast.bfs_runs + fast.pruned,
            static_cast<std::uint64_t>(g.vertex_count()))
      << "every vertex is either evaluated or pruned";

  // Determinism: a pool must not change either answer.
  ThreadPool pool(4);
  const graph::CenterResult full_mt = graph::find_center(g, &pool, exhaustive);
  EXPECT_EQ(full_mt.radius, full.radius);
  EXPECT_EQ(full_mt.center, full.center);
  EXPECT_EQ(full_mt.diameter_lb, full.diameter_lb);
  EXPECT_EQ(full_mt.lane_batches, full.lane_batches);
  const graph::CenterResult fast_mt = graph::find_center(g, &pool, hybrid);
  EXPECT_EQ(fast_mt.radius, fast.radius);
  EXPECT_EQ(fast_mt.center, fast.center);
  EXPECT_EQ(fast_mt.bfs_runs, fast.bfs_runs);
  EXPECT_EQ(fast_mt.pruned, fast.pruned);
  EXPECT_EQ(fast_mt.lane_batches, fast.lane_batches);
  EXPECT_EQ(graph::compute_metrics(g, &pool).eccentricity, expected.ecc);
}

TEST(Center, NamedGraphs) {
  for (const auto& [label, g] : named_sweep()) check_graph(g, label);
}

TEST(Center, SeededSweep) {
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    check_graph(make_graph(seed), "seed " + std::to_string(seed));
  }
}

TEST(Center, AutoModeMatchesExhaustiveBelowThreshold) {
  // kAuto on small graphs must stay byte-identical to the historical
  // smallest-id center so every pre-existing tree is unchanged.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const graph::Graph g = make_graph(seed);
    const graph::CenterResult automatic = graph::find_center(g);
    const Oracle expected = oracle(g);
    EXPECT_EQ(automatic.center, expected.center);
    EXPECT_EQ(automatic.radius, expected.radius);
    EXPECT_FALSE(automatic.used_hybrid);
  }
}

TEST(Center, AutoModeSwitchesToHybridAboveThreshold) {
  const graph::Graph g = graph::grid(20, 20);
  graph::CenterOptions options;  // kAuto
  options.exhaustive_threshold = 100;
  const graph::CenterResult result = graph::find_center(g, nullptr, options);
  EXPECT_TRUE(result.used_hybrid);
  EXPECT_EQ(result.radius, oracle(g).radius);
}

TEST(Center, PruningBitesOnGrids) {
  // Grids have distance spread, the hybrid's favorable case: the scan must
  // evaluate far fewer vertices than the exhaustive sweep would.
  const graph::Graph g = graph::grid(40, 40);
  graph::CenterOptions hybrid;
  hybrid.mode = graph::CenterMode::kHybrid;
  const graph::CenterResult result = graph::find_center(g, nullptr, hybrid);
  EXPECT_EQ(result.radius, 40u);  // 2 * ceil(39/2): center cell to a corner
  EXPECT_LT(result.bfs_runs, g.vertex_count() / 4)
      << "pruning should eliminate most of a 1600-vertex grid";
}

TEST(Center, HybridDoubleSweepEndingAtVertexZero) {
  // The vertex farthest from a is vertex 0 here, so the double sweep's b
  // reuses vertex 0's sweep.  Taking a's distances for b instead put the
  // midpoint off every a-b geodesic and cost 95 BFS and 23 pruned.
  Rng rng(0xb0ffULL * 35);
  const graph::Graph g = graph::random_connected_gnp(118, 2.5 / 118, rng);
  graph::CenterOptions hybrid;
  hybrid.mode = graph::CenterMode::kHybrid;
  const graph::CenterResult result = graph::find_center(g, nullptr, hybrid);
  EXPECT_EQ(result.radius, oracle(g).radius);
  EXPECT_EQ(result.center, 22u);
  EXPECT_EQ(result.bfs_runs, 9u);
  EXPECT_EQ(result.pruned, 109u);
}

TEST(Center, PartialLastWord) {
  // n = 65, 127 and 130 leave 1, 63 and 2 sources in the last 64-lane
  // batch.
  Rng rng(0x1a4e5ULL);
  for (const graph::Vertex n : {65u, 127u, 130u}) {
    const std::pair<std::string, graph::Graph> graphs[] = {
        {"gnp", graph::random_connected_gnp(n, 3.0 / n, rng)},
        {"tree", graph::random_tree(n, rng)},
        {"geometric", graph::random_geometric(n, 0.3, rng)},
        {"dense", graph::random_connected_gnp(n, 0.5, rng)},
    };
    for (const auto& [family, g] : graphs) {
      const std::string label = family + "/" + std::to_string(n);
      check_graph(g, label);
      const graph::CenterResult full = graph::find_center(
          g, nullptr, with_mode(graph::CenterMode::kExhaustive));
      EXPECT_EQ(full.lane_batches, 2u + (n > 128 ? 1u : 0u)) << label;
    }
  }
}

TEST(Center, PoolMatchesSerialAtThousand) {
  // 16 batches, the last with 40 sources, over four slots.
  Rng rng(0x1000ULL);
  const graph::Graph g = graph::random_geometric(1000, 0.08, rng);
  const Oracle expected = oracle(g);
  ThreadPool pool(4);
  const graph::Metrics serial = graph::compute_metrics(g);
  const graph::Metrics pooled = graph::compute_metrics(g, &pool);
  EXPECT_EQ(serial.eccentricity, expected.ecc);
  EXPECT_EQ(pooled.eccentricity, expected.ecc);
  EXPECT_EQ(pooled.center, expected.center);
  const auto exhaustive = with_mode(graph::CenterMode::kExhaustive);
  const graph::CenterResult one = graph::find_center(g, nullptr, exhaustive);
  const graph::CenterResult four = graph::find_center(g, &pool, exhaustive);
  EXPECT_EQ(one.center, expected.center);
  EXPECT_EQ(four.center, expected.center);
  EXPECT_EQ(four.radius, expected.radius);
  EXPECT_EQ(four.diameter_lb, expected.diameter);
  EXPECT_EQ(one.lane_batches, 16u);
  EXPECT_EQ(four.lane_batches, 16u);
}

TEST(Center, LaneRuleBothSides) {
  // path(65) from vertex 0 has ecc(0) = 64, the largest the kernel takes;
  // path(66) has 65 and stays scalar.  Both are exact.
  check_graph(graph::path(65), "path/65");
  check_graph(graph::path(66), "path/66");
  const auto exhaustive = with_mode(graph::CenterMode::kExhaustive);
  EXPECT_EQ(graph::find_center(graph::path(65), nullptr, exhaustive)
                .lane_batches,
            2u);
  EXPECT_EQ(graph::find_center(graph::path(66), nullptr, exhaustive)
                .lane_batches,
            0u);

  // path(129) with vertex 0 in the middle: ecc(0) = 64 admits the kernel,
  // and the end vertices' eccentricity 128 = 2 ecc(0) makes its batches
  // run the most levels the rule allows.
  std::vector<graph::Edge> edges;
  const auto label = [](graph::Vertex v) {
    return v == 0 ? 64u : v == 64 ? 0u : v;
  };
  for (graph::Vertex v = 0; v + 1 < 129; ++v) {
    edges.emplace_back(label(v), label(v + 1));
  }
  const graph::Graph middle = graph::Graph::from_edges(129, edges);
  check_graph(middle, "path/129 from the middle");
  const graph::CenterResult full = graph::find_center(middle, nullptr,
                                                      exhaustive);
  EXPECT_EQ(full.lane_batches, 3u);
  EXPECT_EQ(full.diameter_lb, 128u);
  EXPECT_EQ(full.center, 0u);
}

TEST(Center, HybridBlocksOnExpander) {
  // n = 2100 is past the kAuto threshold.  A random 3-regular graph prunes
  // little, so most candidates go through 64-source batches after the
  // bound-refreshing scalar prefix.
  Rng rng(0xe4a4dULL);
  const graph::Graph g = graph::random_regular_configuration(2100, 3, rng);
  const Oracle expected = oracle(g);
  ThreadPool pool(4);
  graph::CenterOptions small_blocks;
  small_blocks.block_size = 100;  // every block ends in a partial batch
  graph::CenterOptions split_budget;
  split_budget.block_size = 64;
  split_budget.bound_update_budget = 100;  // ends inside the second block
  for (const graph::CenterOptions& options :
       {graph::CenterOptions{}, small_blocks, split_budget}) {
    const graph::CenterResult serial = graph::find_center(g, nullptr, options);
    EXPECT_TRUE(serial.used_hybrid);
    EXPECT_EQ(serial.radius, expected.radius);
    ASSERT_LT(serial.center, g.vertex_count());
    EXPECT_EQ(expected.ecc[serial.center], expected.radius);
    EXPECT_EQ(serial.bfs_runs + serial.pruned, g.vertex_count());
    EXPECT_GT(serial.lane_batches, 0u);
    const graph::CenterResult pooled = graph::find_center(g, &pool, options);
    EXPECT_EQ(pooled.center, serial.center);
    EXPECT_EQ(pooled.radius, serial.radius);
    EXPECT_EQ(pooled.diameter_lb, serial.diameter_lb);
    EXPECT_EQ(pooled.bfs_runs, serial.bfs_runs);
    EXPECT_EQ(pooled.pruned, serial.pruned);
    EXPECT_EQ(pooled.lane_batches, serial.lane_batches);
  }
}

TEST(Center, DisconnectedBeyondOneWordThrows) {
  // Two 64-vertex hypercubes (ecc(0) = 6 within its component) and a
  // connected 99-vertex star plus one isolated vertex.
  std::vector<graph::Edge> edges;
  for (const auto& [u, v] : graph::hypercube(6).edges()) {
    edges.emplace_back(u, v);
    edges.emplace_back(u + 64, v + 64);
  }
  std::vector<graph::Edge> star;
  for (graph::Vertex v = 1; v < 99; ++v) star.emplace_back(0, v);
  const graph::Graph graphs[] = {graph::Graph::from_edges(128, edges),
                                 graph::Graph::from_edges(100, star)};
  ThreadPool pool(4);
  for (const graph::Graph& g : graphs) {
    for (ThreadPool* on : {static_cast<ThreadPool*>(nullptr), &pool}) {
      for (const graph::CenterMode mode :
           {graph::CenterMode::kAuto, graph::CenterMode::kExhaustive,
            graph::CenterMode::kHybrid}) {
        EXPECT_THROW((void)graph::find_center(g, on, with_mode(mode)),
                     ContractViolation);
      }
      EXPECT_THROW((void)graph::compute_metrics(g, on), ContractViolation);
    }
  }
}

TEST(Center, SingleVertexAndEdge) {
  const graph::CenterResult one =
      graph::find_center(graph::complete(1));
  EXPECT_EQ(one.radius, 0u);
  EXPECT_EQ(one.center, 0u);
  const graph::CenterResult two =
      graph::find_center(graph::complete(2));
  EXPECT_EQ(two.radius, 1u);
  EXPECT_EQ(two.center, 0u);
}

TEST(Center, HybridOnTinyGraphs) {
  // Forced hybrid must stay exact even below the auto threshold.
  for (graph::Vertex n = 1; n <= 6; ++n) {
    graph::CenterOptions hybrid;
    hybrid.mode = graph::CenterMode::kHybrid;
    const graph::Graph g = graph::complete(n);
    const graph::CenterResult result = graph::find_center(g, nullptr, hybrid);
    EXPECT_EQ(result.radius, n <= 1 ? 0u : 1u) << "K_" << n;
  }
}

}  // namespace
}  // namespace mg
