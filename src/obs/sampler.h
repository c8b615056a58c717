// Time-series telemetry: a background thread snapshotting the metric
// registry at a fixed cadence into a bounded ring of timestamped samples.
//
// Each sample is one registry Snapshot (counters, timers, histogram
// quantiles) plus the counter *deltas* against the previous sample, so a
// consumer reads rates without diffing itself.  The ring keeps the last
// `capacity` samples — a scraper that polls less often than the cadence
// still sees a bounded, recent window; older samples are evicted, never
// reallocated into an unbounded log.
//
// The usual zero-cost story holds: building with MG_OBS_ENABLED=0 turns
// `start()` into a no-op (no thread is ever created — the sampler is
// compiled out of the workload's build), and at run time a disabled
// registry yields empty snapshots, so a running sampler observes nothing
// ("runtime-null records nothing" — `bench_main --sanity` checks both).
// Sampling itself never touches the hot path: it reads the same relaxed
// atomics the workload writes, at cadence, off-thread; the measured
// steady-state overhead is documented in docs/OBSERVABILITY.md.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/registry.h"

namespace mg::obs {

struct SamplerOptions {
  /// Time between samples.
  std::chrono::milliseconds cadence{100};
  /// Samples kept in the ring (oldest evicted first).
  std::size_t capacity = 600;
};

/// One timestamped registry observation.
struct Sample {
  std::uint64_t t_ns = 0;   ///< monotonic ns since the sampler started
  std::uint64_t dt_ns = 0;  ///< ns since the previous sample (0 for first)
  Snapshot snapshot;
  /// Counter increments since the previous sample, sorted by name.
  /// Counters that first appear in this sample delta from zero.
  std::vector<std::pair<std::string, std::uint64_t>> counter_deltas;
};

class Sampler {
 public:
  explicit Sampler(Registry& registry = Registry::global(),
                   SamplerOptions options = {});
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;
  ~Sampler();  // stops the thread

  /// Starts the background thread; returns false (and stays inert) when
  /// already running or when the build compiled observability out.  A
  /// started thread takes its first sample before it looks at the stop
  /// flag: every successful start() records at least one sample, however
  /// soon stop() follows.
  bool start();

  /// Stops and joins the thread; idempotent.
  void stop();

  [[nodiscard]] bool running() const;

  /// Samples taken over the sampler's lifetime (>= ring size).
  [[nodiscard]] std::uint64_t samples_taken() const;

  /// Takes one sample synchronously (also what the thread does each tick);
  /// safe to call with or without the thread running.
  void sample_now();

  /// Copies the ring, oldest first.
  [[nodiscard]] std::vector<Sample> series() const;

  /// Writes the ring as one JSON document:
  /// {"schema_version": 1, "cadence_ms": .., "samples": [{"t_ns": ..,
  ///   "dt_ns": .., "counters": {..}, "counter_deltas": {..},
  ///   "histograms": {name: {"count": .., "p50": .., "p99": ..}}}, ..]}.
  void write_json(std::ostream& out) const;

 private:
  void run_loop();

  Registry& registry_;
  SamplerOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Sample> ring_;
  std::vector<std::pair<std::string, std::uint64_t>> last_counters_;
  std::uint64_t taken_ = 0;
  bool running_ = false;
  bool stop_requested_ = false;
  std::thread thread_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace mg::obs
