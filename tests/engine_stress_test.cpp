// Concurrency stress battery for `mg::engine::Engine`.
//
// 8 client threads x 1k mixed hot/cold requests hammer an engine whose
// schedule cache holds only 8 entries, so eviction churns constantly while
// hits, misses, and single-flight joins interleave.  The accounting
// identity `hits + misses == requests` (checked against both the engine's
// own counters and the `engine.*` mg::obs counters) proves no request was
// lost and no solve was duplicated or double-counted.  This binary runs
// under the ThreadSanitizer CI leg — the point is the interleavings, not
// the arithmetic.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "graph/generators.h"
#include "obs/registry.h"
#include "support/rng.h"

namespace mg::engine {
namespace {

constexpr std::size_t kThreads = 8;
constexpr std::size_t kRequestsPerThread = 1000;
constexpr std::size_t kDistinctGraphs = 32;
constexpr std::size_t kHotGraphs = 4;

/// 32 structurally distinct small graphs; indices 0..3 are the "hot" set.
std::vector<graph::Graph> make_graph_pool() {
  std::vector<graph::Graph> pool;
  pool.reserve(kDistinctGraphs);
  Rng rng(0x57BE55ULL);
  for (std::size_t i = 0; i < kDistinctGraphs; ++i) {
    const auto n = static_cast<graph::Vertex>(10 + i);
    switch (i % 4) {
      case 0:
        pool.push_back(graph::cycle(n));
        break;
      case 1:
        pool.push_back(graph::random_tree(n, rng));
        break;
      case 2:
        pool.push_back(graph::random_connected_gnp(
            n, 3.0 / static_cast<double>(n), rng));
        break;
      default:
        pool.push_back(graph::path(n));
        break;
    }
  }
  return pool;
}

TEST(EngineStress, EightThreadsAgainstEightEntryCache) {
#if MG_OBS_ENABLED
  obs::Registry& registry = obs::Registry::global();
  registry.reset();
#endif
  const std::vector<graph::Graph> pool = make_graph_pool();
  Engine engine(EngineOptions{.cache_capacity = 8, .shards = 4,
                              .threads = 2});

  std::atomic<std::uint64_t> failures{0};
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(0xC11E17ULL + t);
      for (std::size_t i = 0; i < kRequestsPerThread; ++i) {
        std::size_t index;
        if (i < kDistinctGraphs / kThreads) {
          // Deterministic opening sweep: across the 8 threads every one
          // of the 32 graphs is requested at least once.
          index = t * (kDistinctGraphs / kThreads) + i;
        } else if (rng.chance(0.7)) {
          index = rng.below(kHotGraphs);  // hot set: mostly hits
        } else {
          index = rng.below(kDistinctGraphs);  // cold tail: evictions
        }
        const gossip::Algorithm algorithm =
            rng.chance(0.25) ? gossip::Algorithm::kSimple
                             : gossip::Algorithm::kConcurrentUpDown;
        const ResultPtr result = engine.solve(pool[index], algorithm);
        // gtest EXPECTs are not reliable off the main thread; tally.
        if (result == nullptr || !result->report.ok) {
          failures.fetch_add(1, std::memory_order_relaxed);
        } else if (algorithm == gossip::Algorithm::kConcurrentUpDown &&
                   result->schedule.total_time() !=
                       result->vertex_count + result->radius) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(completed.load(), kThreads * kRequestsPerThread);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, kThreads * kRequestsPerThread);
  // No lost and no duplicated solves: every request is exactly one of a
  // hit (cache or coalesced join) or a miss (it executed the solve).
  EXPECT_EQ(stats.hits + stats.misses, stats.requests);
  // The opening sweep touched all 32 keys, so at least that many misses;
  // the 8-entry cache guarantees churn.
  EXPECT_GE(stats.misses, kDistinctGraphs);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.inflight_coalesced, stats.hits);
  EXPECT_LE(engine.cache_size(), 8u);

#if MG_OBS_ENABLED
  // The obs mirror must agree exactly with the engine's own accounting.
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("engine.requests"), stats.requests);
  EXPECT_EQ(snap.counter("engine.cache.hits") +
                snap.counter("engine.cache.misses"),
            stats.requests);
  EXPECT_EQ(snap.counter("engine.cache.hits"), stats.hits);
  EXPECT_EQ(snap.counter("engine.cache.misses"), stats.misses);
  EXPECT_EQ(snap.counter("engine.cache.evictions"), stats.evictions);
  EXPECT_EQ(snap.counter("engine.cache.inflight_coalesced"),
            stats.inflight_coalesced);
#endif
}

TEST(EngineStress, IdenticalColdMissesSingleFlight) {
  // All threads release together against one cold key: exactly one solve
  // may execute, everyone else joins it (as a coalesced or cache hit).
  const graph::Graph g = graph::grid(12, 12);  // slow enough to pile on
  Engine engine(EngineOptions{.cache_capacity = 4, .shards = 2,
                              .threads = 1});
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const ResultPtr result = engine.solve(g);
      if (result == nullptr || !result->report.ok) failures.fetch_add(1);
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (auto& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0u);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, kThreads);
  EXPECT_EQ(stats.misses, 1u);  // single-flight: one solve, ever
  EXPECT_EQ(stats.hits, kThreads - 1);
}

TEST(EngineStress, ConcurrentBatchesShareOneCache) {
  // Two threads submit overlapping batches through the engine's own pool
  // while a third hammers solve() directly — the three entry points must
  // agree on one consistent set of counters.
  const std::vector<graph::Graph> pool = make_graph_pool();
  Engine engine(EngineOptions{.cache_capacity = 8, .shards = 4,
                              .threads = 2});
  std::vector<Request> batch;
  for (std::size_t rep = 0; rep < 4; ++rep) {
    for (std::size_t i = 0; i < kDistinctGraphs; ++i) {
      batch.push_back(Request{pool[i], gossip::Algorithm::kConcurrentUpDown});
    }
  }
  std::atomic<std::uint64_t> failures{0};
  auto submit = [&] {
    const auto results = engine.solve_batch(batch);
    for (const auto& result : results) {
      if (result == nullptr || !result->report.ok) failures.fetch_add(1);
    }
  };
  std::thread a(submit);
  std::thread b(submit);
  std::thread c([&] {
    Rng rng(0xD1AECEULL);
    for (std::size_t i = 0; i < 200; ++i) {
      const auto& g = pool[rng.below(kDistinctGraphs)];
      const ResultPtr result = engine.solve(g);
      if (result == nullptr || !result->report.ok) failures.fetch_add(1);
    }
  });
  a.join();
  b.join();
  c.join();

  EXPECT_EQ(failures.load(), 0u);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, 2 * batch.size() + 200);
  EXPECT_EQ(stats.hits + stats.misses, stats.requests);
  EXPECT_GE(stats.misses, kDistinctGraphs);
  EXPECT_GT(stats.evictions, 0u);
}

}  // namespace
}  // namespace mg::engine
