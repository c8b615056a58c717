#include "engine/engine.h"

#include <algorithm>
#include <future>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "obs/registry.h"
#include "obs/span.h"
#include "support/contracts.h"
#include "support/fingerprint.h"
#include "support/thread_pool.h"

namespace mg::engine {

std::uint64_t graph_fingerprint(const graph::Graph& g) {
  Fingerprint64 hash;
  const graph::Vertex n = g.vertex_count();
  hash.update(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    const auto neighbors = g.neighbors(v);
    hash.update(neighbors.size());
    for (const graph::Vertex u : neighbors) hash.update(u);
  }
  return hash.digest();
}

namespace {

struct Key {
  std::uint64_t fingerprint;
  gossip::Algorithm algorithm;

  bool operator==(const Key&) const = default;
};

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    // The fingerprint is already well mixed; fold the algorithm in.
    return static_cast<std::size_t>(
        k.fingerprint ^
        (static_cast<std::uint64_t>(k.algorithm) * 0x9e3779b97f4a7c15ULL));
  }
};

ResultPtr compute(const graph::Graph& g, std::uint64_t fingerprint,
                  gossip::Algorithm algorithm) {
  // Solve in the calling thread with no nested pool: a worker running this
  // from solve_batch must never issue a blocking parallel_for of its own
  // (a one-thread pool would deadlock on itself).
  gossip::Solution solution = gossip::solve_gossip(g, algorithm, nullptr);
  auto result = std::make_shared<Result>();
  result->fingerprint = fingerprint;
  result->algorithm = algorithm;
  result->vertex_count = solution.instance.vertex_count();
  result->radius = solution.instance.radius();
  result->initial = solution.instance.initial();
  result->schedule = std::move(solution.schedule);
  result->report = std::move(solution.report);
  return result;
}

}  // namespace

struct Engine::Shard {
  using LruList = std::list<std::pair<Key, ResultPtr>>;

  std::mutex mutex;
  LruList lru;  // front = most recently used
  std::unordered_map<Key, LruList::iterator, KeyHash> entries;
  std::unordered_map<Key, std::shared_future<ResultPtr>, KeyHash> inflight;
};

Engine::Engine(EngineOptions options)
    : shard_count_(options.shards),
      shard_capacity_((options.cache_capacity + options.shards - 1) /
                      std::max<std::size_t>(options.shards, 1)) {
  MG_EXPECTS(options.cache_capacity >= 1);
  MG_EXPECTS(options.shards >= 1);
  shards_ = std::make_unique<Shard[]>(shard_count_);
  pool_ = std::make_unique<ThreadPool>(options.threads);
}

Engine::~Engine() = default;

Engine::Shard& Engine::shard_for(std::uint64_t fingerprint) const {
  // High bits: the low bits also pick unordered_map buckets inside the
  // shard, and using disjoint bits keeps the two choices independent.
  return shards_[(fingerprint >> 32) % shard_count_];
}

ResultPtr Engine::solve(const graph::Graph& g, gossip::Algorithm algorithm) {
  MG_OBS_SCOPE_HIST(request_hist, "engine.request_ns");
  requests_.fetch_add(1, std::memory_order_relaxed);
  MG_OBS_ADD("engine.requests", 1);

  const std::uint64_t fingerprint = graph_fingerprint(g);
  const Key key{fingerprint, algorithm};
  Shard& shard = shard_for(fingerprint);

  std::promise<ResultPtr> promise;
  std::shared_future<ResultPtr> future;
  bool winner = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (const auto hit = shard.entries.find(key);
        hit != shard.entries.end()) {
      MG_OBS_SPAN(hit_span, "engine.hit");
      shard.lru.splice(shard.lru.begin(), shard.lru, hit->second);
      hits_.fetch_add(1, std::memory_order_relaxed);
      MG_OBS_ADD("engine.cache.hits", 1);
      return hit->second->second;
    }
    if (const auto flight = shard.inflight.find(key);
        flight != shard.inflight.end()) {
      // Someone is already solving this exact key: join their flight.
      future = flight->second;
      hits_.fetch_add(1, std::memory_order_relaxed);
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      MG_OBS_ADD("engine.cache.hits", 1);
      MG_OBS_ADD("engine.cache.inflight_coalesced", 1);
    } else {
      winner = true;
      future = promise.get_future().share();
      shard.inflight.emplace(key, future);
      misses_.fetch_add(1, std::memory_order_relaxed);
      MG_OBS_ADD("engine.cache.misses", 1);
    }
  }
  if (!winner) {
    // Blocking on another thread's in-flight solve: visible as a wait span.
    MG_OBS_SPAN(wait_span, "engine.wait.single_flight");
    return future.get();  // rethrows the winner's exception
  }

  try {
    ResultPtr result = [&] {
      MG_OBS_SPAN(miss_span, "engine.miss.solve");
      return compute(g, fingerprint, algorithm);
    }();
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      // Publish to the cache and retire the flight atomically, so every
      // later request finds the entry (no hit/in-flight gap).
      shard.lru.emplace_front(key, result);
      shard.entries.emplace(key, shard.lru.begin());
      if (shard.lru.size() > shard_capacity_) {
        shard.entries.erase(shard.lru.back().first);
        shard.lru.pop_back();  // readers keep their shared_ptr alive
        evictions_.fetch_add(1, std::memory_order_relaxed);
        MG_OBS_ADD("engine.cache.evictions", 1);
      }
      shard.inflight.erase(key);
    }
    promise.set_value(result);
    return result;
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.inflight.erase(key);  // failures are never cached
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

std::vector<ResultPtr> Engine::solve_batch(std::span<const Request> requests) {
  std::vector<ResultPtr> results(requests.size());
  if (requests.empty()) return results;
  pool_->parallel_for(requests.size(), [&](std::size_t i) {
    results[i] = solve(requests[i].graph, requests[i].algorithm);
  });
  return results;
}

EngineStats Engine::stats() const {
  EngineStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.inflight_coalesced = coalesced_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  return s;
}

std::size_t Engine::cache_size() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mutex);
    total += shards_[i].lru.size();
  }
  return total;
}

void Engine::clear_cache() {
  for (std::size_t i = 0; i < shard_count_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mutex);
    shards_[i].entries.clear();
    shards_[i].lru.clear();
  }
}

std::size_t Engine::invalidate(std::uint64_t fingerprint) {
  // Every algorithm's entry for this fingerprint lives in the same shard
  // (sharding keys on the fingerprint alone), so one lock covers the whole
  // delta.
  Shard& shard = shard_for(fingerprint);
  std::size_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->first.fingerprint == fingerprint) {
        shard.entries.erase(it->first);
        it = shard.lru.erase(it);  // readers keep their shared_ptr alive
        ++evicted;
      } else {
        ++it;
      }
    }
  }
  if (evicted > 0) {
    invalidations_.fetch_add(evicted, std::memory_order_relaxed);
    MG_OBS_ADD("engine.cache.invalidations", evicted);
  }
  return evicted;
}

std::size_t Engine::invalidate(const graph::Graph& g) {
  return invalidate(graph_fingerprint(g));
}

std::size_t Engine::thread_count() const { return pool_->thread_count(); }

}  // namespace mg::engine
