// Engine throughput — the machine-readable serving benchmark
// (BENCH_engine.json).
//
// Drives `mg::engine::Engine` with a zipf-skewed request stream over named
// and seeded random connected graphs (gossip-as-a-service traffic: a few
// hot topologies, a long cold tail) and records requests/sec at 1/2/4/8
// worker threads plus a warm-vs-cold cache comparison.  The process exits
// nonzero when a gate fails, so the bench doubles as a regression gate for
// the engine:
//
//  * correctness — every run must satisfy hits + misses == requests, every
//    result must validate, and ConcurrentUpDown results must take exactly
//    n + r rounds;
//  * warm cache — warm-cache throughput must be >= --min-warm (default 5x)
//    the cold all-miss throughput;
//  * parallel speedup — 4-thread executed solves per second (cache misses
//    over wall time) must be >= --min-speedup (default 1.5x) the 1-thread
//    rate.  Requests per second is reported beside it but not gated: a
//    request that joins an in-flight solve counts as a hit, so coalescing
//    inflates the request rate of the threaded rows.  Enforced only when
//    the spin calibration run right before the 4-thread row reads at least
//    3x (spin_calibration.h): on a host that gives no parallelism a
//    CPU-bound speedup is physically impossible, and a gate that cannot
//    pass there would only teach people to ignore it.  The measured values
//    and the calibration are always reported.
//
//   engine_throughput [--out FILE] [--seed N] [--quick]
//                     [--min-warm X] [--min-speedup X]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "spin_calibration.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace {

using namespace mg;

struct NamedGraph {
  std::string name;
  graph::Graph graph;
};

/// Named paper/interconnect topologies + seeded random graphs: the
/// distinct universe the zipf stream draws from.
std::vector<NamedGraph> make_universe(bool quick, std::uint64_t seed) {
  std::vector<NamedGraph> universe;
  universe.push_back({"cycle/16", graph::cycle(16)});
  universe.push_back({"petersen", graph::petersen()});
  universe.push_back({"grid/4x5", graph::grid(4, 5)});
  universe.push_back({"hypercube/4", graph::hypercube(4)});
  if (!quick) {
    universe.push_back({"cycle/48", graph::cycle(48)});
    universe.push_back({"grid/8x8", graph::grid(8, 8)});
    universe.push_back({"hypercube/6", graph::hypercube(6)});
    universe.push_back({"torus/6x6", graph::torus(6, 6)});
  }
  Rng rng(seed);
  const std::size_t random_count = quick ? 16 : 56;
  const graph::Vertex base = quick ? 20 : 32;
  const graph::Vertex span = quick ? 3 : 12;
  for (std::size_t i = 0; i < random_count; ++i) {
    const auto n =
        static_cast<graph::Vertex>(base + span * (i % 8) + i / 8);
    if (i % 2 == 0) {
      universe.push_back(
          {"gnp/" + std::to_string(i),
           graph::random_connected_gnp(n, 3.0 / static_cast<double>(n),
                                       rng)});
    } else {
      universe.push_back(
          {"geo/" + std::to_string(i), graph::random_geometric(n, 0.3, rng)});
    }
  }
  return universe;
}

/// Zipf(s) sampler over 0..k-1 via the precomputed CDF; rank is assigned
/// to universe indices through a seeded shuffle so "hot" is arbitrary.
class ZipfStream {
 public:
  ZipfStream(std::size_t k, double exponent, Rng& rng) : order_(k) {
    for (std::size_t i = 0; i < k; ++i) order_[i] = i;
    rng.shuffle(order_);
    cdf_.reserve(k);
    double total = 0.0;
    for (std::size_t rank = 0; rank < k; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), exponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  std::size_t draw(Rng& rng) const {
    const double u = rng.uniform01();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const auto rank =
        static_cast<std::size_t>(std::distance(cdf_.begin(), it));
    return order_[std::min(rank, order_.size() - 1)];
  }

 private:
  std::vector<std::size_t> order_;
  std::vector<double> cdf_;
};

gossip::Algorithm pick_algorithm(Rng& rng) {
  if (!rng.chance(0.25)) return gossip::Algorithm::kConcurrentUpDown;
  switch (rng.below(3)) {
    case 0:
      return gossip::Algorithm::kSimple;
    case 1:
      return gossip::Algorithm::kUpDown;
    default:
      return gossip::Algorithm::kTelephone;
  }
}

/// Correctness sweep over a finished run: accounting identity, validation,
/// and the Theorem 1 round count for ConcurrentUpDown results.
bool check_run(const engine::Engine& eng,
               const std::vector<engine::Request>& requests,
               const std::vector<engine::ResultPtr>& results) {
  const engine::EngineStats stats = eng.stats();
  if (stats.hits + stats.misses != stats.requests) {
    std::fprintf(stderr,
                 "engine_throughput: accounting broken (hits %llu + misses "
                 "%llu != requests %llu)\n",
                 static_cast<unsigned long long>(stats.hits),
                 static_cast<unsigned long long>(stats.misses),
                 static_cast<unsigned long long>(stats.requests));
    return false;
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i] == nullptr || !results[i]->report.ok) {
      std::fprintf(stderr, "engine_throughput: request %zu invalid\n", i);
      return false;
    }
    if (requests[i].algorithm == gossip::Algorithm::kConcurrentUpDown &&
        results[i]->schedule.total_time() !=
            results[i]->vertex_count + results[i]->radius) {
      std::fprintf(stderr,
                   "engine_throughput: request %zu broke Theorem 1\n", i);
      return false;
    }
  }
  return true;
}

int run(const std::string& out_path, std::uint64_t seed, bool quick,
        double min_warm, double min_speedup) {
  const std::vector<NamedGraph> universe = make_universe(quick, seed);
  const std::size_t k = universe.size();
  const std::size_t stream_length = quick ? 600 : 4000;
  const double zipf_exponent = 1.1;
  const unsigned hardware = std::thread::hardware_concurrency();

  // One shared request stream so every thread count replays identical
  // traffic: zipf-skewed graph choice, mostly-ConcurrentUpDown algorithms.
  Rng rng(seed ^ 0x5f12ea7ULL);
  const ZipfStream zipf(k, zipf_exponent, rng);
  std::vector<engine::Request> stream;
  stream.reserve(stream_length);
  for (std::size_t i = 0; i < stream_length; ++i) {
    stream.push_back(engine::Request{universe[zipf.draw(rng)].graph,
                                     pick_algorithm(rng)});
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "engine_throughput: cannot open %s for writing\n",
                 out_path.c_str());
    return 2;
  }

  bool all_ok = true;

  // ---- warm vs cold: the cache pays for itself -------------------------
  // Cold: every distinct graph once, all misses.  Warm: the same requests
  // again (repeated for clock resolution), all hits.
  double cold_rps = 0.0;
  double warm_rps = 0.0;
  obs::HistogramSnapshot cold_hist;
  obs::HistogramSnapshot warm_hist;
  {
    engine::Engine eng(engine::EngineOptions{
        .cache_capacity = 4 * k, .shards = 8, .threads = 1});
    std::vector<engine::Request> once;
    once.reserve(k);
    for (const auto& [name, g] : universe) {
      once.push_back(engine::Request{g, gossip::Algorithm::kConcurrentUpDown});
    }
    obs::Registry::global().reset();
    Stopwatch cold_watch;
    const auto cold_results = eng.solve_batch(once);
    cold_rps = static_cast<double>(k) / cold_watch.seconds();
    cold_hist = obs::Registry::global().snapshot().histogram(
        "engine.request_ns");
    all_ok = all_ok && check_run(eng, once, cold_results);

    const std::size_t reps = 100;
    obs::Registry::global().reset();
    Stopwatch warm_watch;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const auto warm_results = eng.solve_batch(once);
      if (rep == 0) all_ok = all_ok && check_run(eng, once, warm_results);
    }
    warm_rps = static_cast<double>(reps * k) / warm_watch.seconds();
    warm_hist = obs::Registry::global().snapshot().histogram(
        "engine.request_ns");
    const engine::EngineStats stats = eng.stats();
    if (stats.misses != k) {  // every repeat must be a hit
      std::fprintf(stderr, "engine_throughput: warm pass re-solved\n");
      all_ok = false;
    }
  }
  const double warm_over_cold = warm_rps / cold_rps;
  const bool warm_ok = warm_over_cold >= min_warm;
  all_ok = all_ok && warm_ok;
  std::printf("warm vs cold: %.0f rps warm, %.0f rps cold (%.1fx, gate "
              ">= %.1fx) %s\n",
              warm_rps, cold_rps, warm_over_cold, min_warm,
              warm_ok ? "ok" : "VIOLATION");
  std::printf("request latency: cold p50=%llu p99=%llu ns, warm p50=%llu "
              "p99=%llu ns\n",
              static_cast<unsigned long long>(cold_hist.p50),
              static_cast<unsigned long long>(cold_hist.p99),
              static_cast<unsigned long long>(warm_hist.p50),
              static_cast<unsigned long long>(warm_hist.p99));

  // ---- thread scaling over the zipf stream -----------------------------
  struct ScalingRow {
    std::size_t threads = 0;
    double rps = 0.0;
    double solves_per_s = 0.0;  // executed solves: cache misses / wall
    double wall_seconds = 0.0;
    engine::EngineStats stats;
    obs::HistogramSnapshot request_hist;
  };
  std::vector<ScalingRow> scaling;
  const std::size_t cache_capacity = std::max<std::size_t>(8, k / 2);
  double spin_speedup = 0.0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    if (threads == 4) spin_speedup = bench::spin_calibration();
    engine::Engine eng(engine::EngineOptions{
        .cache_capacity = cache_capacity, .shards = 8, .threads = threads});
    obs::Registry::global().reset();
    Stopwatch watch;
    const auto results = eng.solve_batch(stream);
    ScalingRow row;
    row.threads = threads;
    row.wall_seconds = watch.seconds();
    row.rps = static_cast<double>(stream.size()) / row.wall_seconds;
    row.stats = eng.stats();
    row.solves_per_s =
        static_cast<double>(row.stats.misses) / row.wall_seconds;
    row.request_hist =
        obs::Registry::global().snapshot().histogram("engine.request_ns");
    all_ok = all_ok && check_run(eng, stream, results);
    scaling.push_back(row);
    std::printf(
        "threads=%zu  %8.0f req/s  %8.0f solves/s  hits=%llu misses=%llu "
        "coalesced=%llu evictions=%llu\n",
        threads, row.rps, row.solves_per_s,
        static_cast<unsigned long long>(row.stats.hits),
        static_cast<unsigned long long>(row.stats.misses),
        static_cast<unsigned long long>(row.stats.inflight_coalesced),
        static_cast<unsigned long long>(row.stats.evictions));
  }
  const double speedup_4t = scaling[2].rps / scaling[0].rps;
  const double solve_speedup_4t =
      scaling[2].solves_per_s / scaling[0].solves_per_s;
  const bool speedup_gate_enforced = spin_speedup >= bench::kMinSpinSpeedup;
  const bool speedup_ok =
      !speedup_gate_enforced || solve_speedup_4t >= min_speedup;
  all_ok = all_ok && speedup_ok;
  std::printf(
      "4-thread speedup over serial: %.2fx by executed solves (gate >= "
      "%.2fx, %s) %s; %.2fx by requests (not gated)\n",
      solve_speedup_4t, min_speedup,
      bench::spin_gate_note(spin_speedup).c_str(),
      speedup_ok ? "ok" : "VIOLATION", speedup_4t);

  // ---- BENCH_engine.json ----------------------------------------------
  obs::JsonWriter w(out);
  w.begin_object();
  w.field("schema_version", 1);
  w.field("suite", "engine");
  w.field("seed", seed);
  w.field("quick", quick);
  w.field("hardware_concurrency", static_cast<std::uint64_t>(hardware));
  w.key("workload").begin_object();
  w.field("distinct_graphs", static_cast<std::uint64_t>(k));
  w.field("stream_length", static_cast<std::uint64_t>(stream_length));
  w.field("zipf_exponent", zipf_exponent);
  w.field("cache_capacity", static_cast<std::uint64_t>(cache_capacity));
  w.field("shards", static_cast<std::uint64_t>(8));
  w.end_object();
  w.key("warm_vs_cold").begin_object();
  w.field("cold_rps", cold_rps);
  w.field("warm_rps", warm_rps);
  w.field("cold_ns_p50", cold_hist.p50);
  w.field("cold_ns_p99", cold_hist.p99);
  w.field("warm_ns_p50", warm_hist.p50);
  w.field("warm_ns_p99", warm_hist.p99);
  w.field("warm_over_cold", warm_over_cold);
  w.field("min_factor", min_warm);
  w.field("pass", warm_ok);
  w.end_object();
  w.key("scaling").begin_array();
  for (const ScalingRow& row : scaling) {
    w.begin_object();
    w.field("threads", static_cast<std::uint64_t>(row.threads));
    w.field("requests_per_second", row.rps);
    w.field("solves_per_s", row.solves_per_s);
    w.field("wall_seconds", row.wall_seconds);
    w.field("requests", row.stats.requests);
    w.field("hits", row.stats.hits);
    w.field("misses", row.stats.misses);
    w.field("inflight_coalesced", row.stats.inflight_coalesced);
    w.field("evictions", row.stats.evictions);
    w.field("request_ns_p50", row.request_hist.p50);
    w.field("request_ns_p99", row.request_hist.p99);
    w.end_object();
  }
  w.end_array();
  w.key("speedup").begin_object();
  w.field("speedup_4t", speedup_4t);
  w.field("solve_speedup_4t", solve_speedup_4t);
  w.field("min_speedup", min_speedup);
  w.field("spin_calibration", spin_speedup);
  w.field("gate_enforced", speedup_gate_enforced);
  w.field("pass", speedup_ok);
  w.end_object();
  w.field("pass", all_ok);
  w.end_object();
  out << '\n';

  std::printf("wrote %s (%zu distinct graphs, stream of %zu)\n",
              out_path.c_str(), k, stream_length);
  if (!all_ok) {
    std::fprintf(stderr, "engine_throughput: gate failed\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_engine.json";
  std::uint64_t seed = 42;
  bool quick = false;
  double min_warm = 5.0;
  double min_speedup = 1.5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::stoull(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-warm") == 0 && i + 1 < argc) {
      min_warm = std::stod(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::stod(argv[++i]);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: engine_throughput [--out FILE] [--seed N] "
                   "[--quick] [--min-warm X] [--min-speedup X]\n");
      return 2;
    }
  }
  return run(out_path, seed, quick, min_warm, min_speedup);
}
