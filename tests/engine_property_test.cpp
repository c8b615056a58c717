// Property battery for the concurrent gossip engine (`mg::engine`).
//
// Over a seeded sweep of named and random connected graphs, asserts the
// cache is *transparent*: a cache-hit result is byte-identical to a fresh
// uncached solve, every returned schedule passes the independent model
// validator, and ConcurrentUpDown keeps the Theorem 1 round count n + r on
// every graph in the sweep.  Also pins the fingerprint contract the cache
// keys on: deterministic, insertion-order invariant, and collision-free
// across the sweep.
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <vector>

#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "model/validator.h"
#include "support/contracts.h"
#include "support/rng.h"

namespace mg::engine {
namespace {

/// The sweep: structurally distinct connected graphs, n >= 3 (the paper's
/// precondition), mixing every generator family the benches use.
std::vector<std::pair<std::string, graph::Graph>> sweep_graphs() {
  std::vector<std::pair<std::string, graph::Graph>> graphs;
  graphs.emplace_back("path/7", graph::path(7));
  graphs.emplace_back("path/12", graph::path(12));
  graphs.emplace_back("cycle/9", graph::cycle(9));
  graphs.emplace_back("cycle/16", graph::cycle(16));
  graphs.emplace_back("star/10", graph::star(10));
  graphs.emplace_back("complete/8", graph::complete(8));
  graphs.emplace_back("wheel/11", graph::wheel(11));
  graphs.emplace_back("grid/4x5", graph::grid(4, 5));
  graphs.emplace_back("grid/3x9", graph::grid(3, 9));
  graphs.emplace_back("torus/3x4", graph::torus(3, 4));
  graphs.emplace_back("hypercube/3", graph::hypercube(3));
  graphs.emplace_back("hypercube/4", graph::hypercube(4));
  graphs.emplace_back("binary_tree/21", graph::k_ary_tree(21, 2));
  graphs.emplace_back("caterpillar/6x2", graph::caterpillar(6, 2));
  graphs.emplace_back("binomial/4", graph::binomial_tree(4));
  graphs.emplace_back("lollipop/5+6", graph::lollipop(5, 6));
  graphs.emplace_back("petersen", graph::petersen());
  graphs.emplace_back("fig4", graph::fig4_network());
  Rng rng(0xE16133ULL);
  for (int i = 0; i < 8; ++i) {
    const auto n = static_cast<graph::Vertex>(12 + 5 * i);
    graphs.emplace_back("tree/n=" + std::to_string(n),
                        graph::random_tree(n, rng));
    graphs.emplace_back(
        "gnp/n=" + std::to_string(n),
        graph::random_connected_gnp(n, 3.0 / static_cast<double>(n), rng));
    graphs.emplace_back("geo/n=" + std::to_string(n),
                        graph::random_geometric(n, 0.3, rng));
  }
  return graphs;
}

constexpr gossip::Algorithm kAlgorithms[] = {
    gossip::Algorithm::kSimple, gossip::Algorithm::kUpDown,
    gossip::Algorithm::kConcurrentUpDown, gossip::Algorithm::kTelephone};

TEST(EngineProperty, FingerprintDeterministicAndCollisionFreeOnSweep) {
  const auto graphs = sweep_graphs();
  std::set<std::uint64_t> digests;
  for (const auto& [name, g] : graphs) {
    const std::uint64_t fp = graph_fingerprint(g);
    EXPECT_EQ(fp, graph_fingerprint(g)) << name;
    digests.insert(fp);
  }
  // Structurally distinct graphs must land on distinct cache keys.
  EXPECT_EQ(digests.size(), graphs.size());
}

TEST(EngineProperty, FingerprintIgnoresEdgeInsertionOrder) {
  const graph::Graph forward = graph::petersen();
  auto edges = forward.edges();
  Rng rng(99);
  rng.shuffle(edges);
  const graph::Graph shuffled =
      graph::Graph::from_edges(forward.vertex_count(), edges);
  EXPECT_EQ(graph_fingerprint(forward), graph_fingerprint(shuffled));
  // And a genuinely different graph lands elsewhere.
  EXPECT_NE(graph_fingerprint(forward), graph_fingerprint(graph::cycle(10)));
}

// The core transparency sweep: hit == fresh solve, byte for byte.
TEST(EngineProperty, CacheHitIsByteIdenticalToFreshSolve) {
  const auto graphs = sweep_graphs();
  // Capacity is split per shard, and fingerprints spread unevenly; 16x the
  // key count guarantees no shard can overflow, so zero evictions below.
  Engine engine(EngineOptions{.cache_capacity = 16 * graphs.size(),
                              .shards = 4, .threads = 1});
  for (const auto& [name, g] : graphs) {
    for (const gossip::Algorithm algorithm : kAlgorithms) {
      const ResultPtr first = engine.solve(g, algorithm);
      const ResultPtr hit = engine.solve(g, algorithm);
      // A hit returns the very cached object, not a copy.
      EXPECT_EQ(first.get(), hit.get()) << name;

      const gossip::Solution fresh = gossip::solve_gossip(g, algorithm);
      EXPECT_EQ(hit->schedule.to_string(), fresh.schedule.to_string())
          << name << " / " << gossip::algorithm_name(algorithm);
      EXPECT_EQ(hit->vertex_count, fresh.instance.vertex_count());
      EXPECT_EQ(hit->radius, fresh.instance.radius());
      EXPECT_EQ(hit->initial, fresh.instance.initial());

      // Every returned schedule passes the validator — both the report
      // computed at solve time and an independent re-validation here.
      EXPECT_TRUE(hit->report.ok) << name << ": " << hit->report.error;
      model::ValidatorOptions options;
      if (algorithm == gossip::Algorithm::kTelephone) {
        options.model = &model::telephone_model();
      }
      const auto report =
          model::validate_schedule(fresh.instance.tree().as_graph(),
                                   hit->schedule, hit->initial, options);
      EXPECT_TRUE(report.ok) << name << ": " << report.error;
    }
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.hits + stats.misses, stats.requests);
  EXPECT_EQ(stats.misses, graphs.size() * std::size(kAlgorithms));
  EXPECT_EQ(stats.evictions, 0u);  // capacity covers the whole sweep
}

TEST(EngineProperty, ConcurrentUpDownKeepsTheoremOneRounds) {
  const auto graphs = sweep_graphs();
  Engine engine(EngineOptions{.cache_capacity = 2 * graphs.size(),
                              .shards = 8, .threads = 1});
  for (const auto& [name, g] : graphs) {
    const ResultPtr result =
        engine.solve(g, gossip::Algorithm::kConcurrentUpDown);
    EXPECT_EQ(result->schedule.total_time(),
              result->vertex_count + result->radius)
        << name;  // Theorem 1: exactly n + r
  }
}

TEST(EngineProperty, EvictionNeverInvalidatesHeldResults) {
  Engine engine(EngineOptions{.cache_capacity = 2, .shards = 1,
                              .threads = 1});
  const ResultPtr held = engine.solve(graph::cycle(8));
  // Displace the whole cache several times over.
  for (graph::Vertex n = 9; n < 25; ++n) (void)engine.solve(graph::cycle(n));
  EXPECT_GT(engine.stats().evictions, 0u);
  EXPECT_LE(engine.cache_size(), 2u);
  // The evicted result is still fully usable through the shared_ptr.
  EXPECT_TRUE(held->report.ok);
  EXPECT_EQ(held->schedule.total_time(), 8u + 4u);  // n + r on C8
  // Re-requesting it is a fresh miss that must agree with the held copy.
  const ResultPtr again = engine.solve(graph::cycle(8));
  EXPECT_NE(held.get(), again.get());
  EXPECT_EQ(held->schedule.to_string(), again->schedule.to_string());
}

TEST(EngineProperty, AlgorithmIsPartOfTheCacheKey) {
  Engine engine(EngineOptions{.cache_capacity = 16, .shards = 2,
                              .threads = 1});
  const graph::Graph g = graph::grid(4, 4);
  const ResultPtr cud = engine.solve(g, gossip::Algorithm::kConcurrentUpDown);
  const ResultPtr simple = engine.solve(g, gossip::Algorithm::kSimple);
  EXPECT_EQ(engine.stats().misses, 2u);  // same graph, two keys
  EXPECT_NE(cud.get(), simple.get());
  EXPECT_LT(cud->schedule.total_time(), simple->schedule.total_time());
}

TEST(EngineProperty, FailedSolvesAreNeverCached) {
  Engine engine(EngineOptions{.cache_capacity = 8, .shards = 2,
                              .threads = 1});
  const graph::Graph disconnected(4);  // no edges: solve must throw
  EXPECT_THROW((void)engine.solve(disconnected), ContractViolation);
  EXPECT_THROW((void)engine.solve(disconnected), ContractViolation);
  EXPECT_EQ(engine.stats().misses, 2u);  // second attempt re-misses
  EXPECT_EQ(engine.cache_size(), 0u);
  // The engine stays fully usable after a failure.
  const ResultPtr ok = engine.solve(graph::petersen());
  EXPECT_TRUE(ok->report.ok);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.hits + stats.misses, stats.requests);
}

TEST(EngineProperty, BatchMatchesSerialRequestByRequest) {
  const auto graphs = sweep_graphs();
  std::vector<Request> requests;
  for (const auto& [name, g] : graphs) {
    requests.push_back(Request{g, gossip::Algorithm::kConcurrentUpDown});
    requests.push_back(Request{g, gossip::Algorithm::kSimple});
  }
  Engine batch_engine(EngineOptions{.cache_capacity = 4 * requests.size(),
                                    .shards = 8, .threads = 4});
  const auto results = batch_engine.solve_batch(requests);
  ASSERT_EQ(results.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_NE(results[i], nullptr);
    const gossip::Solution fresh =
        gossip::solve_gossip(requests[i].graph, requests[i].algorithm);
    EXPECT_EQ(results[i]->schedule.to_string(), fresh.schedule.to_string());
    EXPECT_TRUE(results[i]->report.ok);
  }
  const EngineStats stats = batch_engine.stats();
  EXPECT_EQ(stats.requests, requests.size());
  EXPECT_EQ(stats.hits + stats.misses, stats.requests);
  EXPECT_EQ(stats.misses, requests.size());  // all keys distinct here
}

}  // namespace
}  // namespace mg::engine
