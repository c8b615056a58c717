// Tests for BFS distances, eccentricity/radius/diameter/center (§3.1's
// O(mn) procedure), connectivity and bipartiteness.  `compute_metrics` runs
// 64 sources per BFS when ecc(0) <= 64; its eccentricities are checked
// against `eccentricity(g, v)`, which stays one scalar BFS per vertex.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/properties.h"
#include "support/contracts.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace mg::graph {
namespace {

/// Every vertex's eccentricity by its own scalar BFS.
std::vector<std::uint32_t> scalar_eccentricities(const Graph& g) {
  std::vector<std::uint32_t> ecc;
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    ecc.push_back(eccentricity(g, v).value());
  }
  return ecc;
}

TEST(Properties, BfsDistancesOnPath) {
  const Graph g = path(5);
  const auto d = bfs_distances(g, 0);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(d[v], v);
}

TEST(Properties, BfsDistancesFromMiddle) {
  const Graph g = path(5);
  const auto d = bfs_distances(g, 2);
  EXPECT_EQ(d[0], 2u);
  EXPECT_EQ(d[2], 0u);
  EXPECT_EQ(d[4], 2u);
}

TEST(Properties, BfsUnreachableMarked) {
  Graph g(4);  // no edges
  const auto d = bfs_distances(g, 1);
  EXPECT_EQ(d[1], 0u);
  EXPECT_EQ(d[0], kUnreachable);
  EXPECT_EQ(d[3], kUnreachable);
}

TEST(Properties, EccentricityOfCycle) {
  const Graph g = cycle(8);
  for (Vertex v = 0; v < 8; ++v) {
    EXPECT_EQ(eccentricity(g, v), std::optional<std::uint32_t>(4));
  }
}

TEST(Properties, EccentricityNulloptWhenDisconnected) {
  Graph g(3);
  EXPECT_EQ(eccentricity(g, 0), std::nullopt);
}

TEST(Properties, MetricsOfStar) {
  const auto m = compute_metrics(star(10));
  EXPECT_EQ(m.radius, 1u);
  EXPECT_EQ(m.diameter, 2u);
  EXPECT_EQ(m.center, 0u);
  EXPECT_EQ(m.eccentricity[0], 1u);
  EXPECT_EQ(m.eccentricity[5], 2u);
}

TEST(Properties, MetricsOfSingleVertex) {
  const auto m = compute_metrics(Graph(1));
  EXPECT_EQ(m.radius, 0u);
  EXPECT_EQ(m.diameter, 0u);
  EXPECT_EQ(m.center, 0u);
}

TEST(Properties, CenterIsSmallestIdOnTies) {
  // Every vertex of a cycle has the same eccentricity; vertex 0 must win.
  const auto m = compute_metrics(cycle(6));
  EXPECT_EQ(m.center, 0u);
}

TEST(Properties, ParallelMetricsMatchSequential) {
  Rng rng(0x9a7ULL);
  for (const Graph& g :
       {grid(9, 11), random_regular_configuration(1000, 3, rng)}) {
    ThreadPool pool(4);
    const auto seq = compute_metrics(g);
    const auto par = compute_metrics(g, &pool);
    EXPECT_EQ(seq.radius, par.radius);
    EXPECT_EQ(seq.diameter, par.diameter);
    EXPECT_EQ(seq.center, par.center);
    EXPECT_EQ(seq.eccentricity, par.eccentricity);
    EXPECT_EQ(seq.eccentricity, scalar_eccentricities(g));
  }
}

TEST(Properties, MetricsMatchScalarEccentricities) {
  // Partial last words (n = 65, 127, 130), and paths on both sides of the
  // kernel's ecc(0) <= 64 rule (path(65): 64, path(66): 65).
  Rng rng(0x3e7ULL);
  std::vector<std::pair<std::string, Graph>> graphs = {
      {"path/65", path(65)}, {"path/66", path(66)}, {"grid/13x10", grid(13, 10)}};
  for (const Vertex n : {65u, 127u, 130u}) {
    graphs.emplace_back("gnp/" + std::to_string(n),
                        random_connected_gnp(n, 3.0 / n, rng));
    graphs.emplace_back("tree/" + std::to_string(n), random_tree(n, rng));
  }
  for (const auto& [label, g] : graphs) {
    const auto m = compute_metrics(g);
    const auto expected = scalar_eccentricities(g);
    EXPECT_EQ(m.eccentricity, expected) << label;
    EXPECT_EQ(m.radius, *std::min_element(expected.begin(), expected.end()))
        << label;
    EXPECT_EQ(m.diameter, *std::max_element(expected.begin(), expected.end()))
        << label;
    EXPECT_EQ(m.eccentricity[m.center], m.radius) << label;
  }
}

TEST(Properties, MetricsRejectDisconnectedGraphs) {
  // 130 vertices in two cycles of 65: every component is small-radius, so
  // only the connectivity check stands between the graph and the kernel.
  GraphBuilder b(130);
  for (Vertex v = 0; v < 65; ++v) {
    b.add_edge(v, (v + 1) % 65);
    b.add_edge(65 + v, 65 + (v + 1) % 65);
  }
  const Graph g = b.build();
  ThreadPool pool(4);
  EXPECT_THROW((void)compute_metrics(g), ContractViolation);
  EXPECT_THROW((void)compute_metrics(g, &pool), ContractViolation);
}

TEST(Properties, RadiusAtMostHalfVertexCount) {
  // §4 uses r <= n/2; check across several families.
  for (const Graph& g :
       {path(17), cycle(12), grid(4, 7), star(9), complete(5)}) {
    const auto m = compute_metrics(g);
    EXPECT_LE(m.radius, g.vertex_count() / 2);
  }
}

TEST(Properties, RadiusDiameterInequality) {
  for (const Graph& g : {path(10), cycle(9), grid(5, 5), star(7)}) {
    const auto m = compute_metrics(g);
    EXPECT_LE(m.radius, m.diameter);
    EXPECT_LE(m.diameter, 2 * m.radius);
  }
}

TEST(Properties, ConnectivityDetection) {
  EXPECT_TRUE(is_connected(path(4)));
  EXPECT_TRUE(is_connected(Graph(1)));
  EXPECT_TRUE(is_connected(Graph(0)));
  EXPECT_FALSE(is_connected(Graph(2)));
  GraphBuilder b(4);
  b.add_edge(0, 1).add_edge(2, 3);
  EXPECT_FALSE(is_connected(b.build()));
}

TEST(Properties, TreeDetection) {
  EXPECT_TRUE(is_tree(path(6)));
  EXPECT_TRUE(is_tree(star(5)));
  EXPECT_TRUE(is_tree(Graph(1)));
  EXPECT_FALSE(is_tree(cycle(4)));
  EXPECT_FALSE(is_tree(Graph(3)));  // disconnected forest
}

TEST(Properties, BipartiteDetection) {
  EXPECT_TRUE(is_bipartite(path(7)));
  EXPECT_TRUE(is_bipartite(cycle(8)));
  EXPECT_FALSE(is_bipartite(cycle(7)));
  EXPECT_TRUE(is_bipartite(grid(3, 3)));
  EXPECT_FALSE(is_bipartite(complete(3)));
  EXPECT_TRUE(is_bipartite(Graph(4)));  // edgeless
}

TEST(Properties, DegreeStats) {
  const auto stats = degree_stats(star(5));
  EXPECT_EQ(stats.min, 1u);
  EXPECT_EQ(stats.max, 4u);
  EXPECT_DOUBLE_EQ(stats.mean, 8.0 / 5.0);
}

TEST(Properties, DegreeStatsEmptyGraph) {
  const auto stats = degree_stats(Graph(0));
  EXPECT_EQ(stats.min, 0u);
  EXPECT_EQ(stats.max, 0u);
}

}  // namespace
}  // namespace mg::graph
