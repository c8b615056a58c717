// Host-parallelism calibration for the 4-thread scaling gates of
// engine_throughput and scale_bench.
//
// A thread-scaling gate can only see the code under test when the host
// actually runs four threads at once; a shared or throttled host may give
// no parallelism at all, and the gate then fails on a correct engine.  So
// right before each gated 4-thread measurement the bench times four
// threads, each spinning its own xorshift loop with no shared state,
// against one thread running the same loop.  When that reads under
// kMinSpinSpeedup the gate is skipped, and the bench prints why.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace mg::bench {

/// Spin-loop speed-up on 4 threads below which a 4-thread gate is skipped.
inline constexpr double kMinSpinSpeedup = 3.0;

/// Work per thread over wall time, 4 threads against 1: about 4 on an idle
/// host with four cores, about 1 on a host that runs one thread at a time.
inline double spin_calibration() {
  constexpr std::uint64_t kSteps = 20'000'000;
  const auto wall_seconds = [](unsigned threads) {
    std::vector<std::uint64_t> sinks(threads, 0);
    std::vector<std::thread> pool;
    const auto start = std::chrono::steady_clock::now();
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&sinks, t] {
        std::uint64_t x = 0x9e3779b97f4a7c15ULL + t;
        for (std::uint64_t i = 0; i < kSteps; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        sinks[t] = x;  // one store at the end: the loop shares nothing
      });
    }
    for (std::thread& thread : pool) thread.join();
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    return wall.count();
  };
  const double serial = wall_seconds(1);
  const double four = wall_seconds(4);
  return four > 0.0 ? 4.0 * serial / four : 0.0;
}

/// The gate decision for a calibration, printed beside the gate's numbers.
inline std::string spin_gate_note(double spin_speedup) {
  const bool enforced = spin_speedup >= kMinSpinSpeedup;
  char note[160];
  std::snprintf(note, sizeof note,
                "%s: spin calibration %.2fx %s %.2fx on 4 threads%s",
                enforced ? "enforced" : "skipped", spin_speedup,
                enforced ? ">=" : "<", kMinSpinSpeedup,
                enforced ? "" : ", the host gives too little parallelism");
  return note;
}

}  // namespace mg::bench
