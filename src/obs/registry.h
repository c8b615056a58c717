// Process-wide metric registry.
//
// Instrumented code asks the registry for a named Counter, Timer or
// Histogram; references stay valid for the registry's lifetime, so hot
// paths may cache them.  Building with MG_OBS_ENABLED=0 (CMake option
// -DMG_OBS=OFF) turns every MG_OBS_* macro below into nothing — the one
// off switch; `bench_main --sanity` checks both builds.
//
// snapshot() exports every named metric for the bench runners and the
// perf-trajectory files (BENCH_*.json).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace mg::obs {

struct TimerSnapshot {
  std::uint64_t total_ns = 0;
  std::uint64_t count = 0;
};

/// Point-in-time copy of every named metric, sorted by name.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, TimerSnapshot>> timers;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// Value of a counter by exact name (0 when absent).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;

  /// Summary of a histogram by exact name (all-zero when absent).
  [[nodiscard]] HistogramSnapshot histogram(std::string_view name) const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every MG_OBS_* macro reports into.
  static Registry& global();

  /// Named metric accessors; create on first use.  The returned references
  /// live as long as the registry (reset() zeroes values, never removes).
  Counter& counter(std::string_view name);
  Timer& timer(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Zeroes every registered metric (names stay registered).
  void reset();

  [[nodiscard]] Snapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace mg::obs

// Compile-time switch; the build defines MG_OBS_ENABLED=0/1 on the mg_obs
// target (PUBLIC, so every linkee agrees).  Default on for plain includes.
#ifndef MG_OBS_ENABLED
#define MG_OBS_ENABLED 1
#endif

#if MG_OBS_ENABLED
/// Adds `delta` to the named global counter.
#define MG_OBS_ADD(name, delta) \
  ::mg::obs::Registry::global().counter(name).add(delta)
/// Times the enclosing scope into the named global timer.  `var` names the
/// guard object (must be unique in the scope).
#define MG_OBS_SCOPE_TIMER(var, name) \
  ::mg::obs::ScopeTimer var(::mg::obs::Registry::global().timer(name))
/// Records `value` into the named global histogram.
#define MG_OBS_HIST(name, value) \
  ::mg::obs::Registry::global().histogram(name).record(value)
/// Times the enclosing scope (ns) into the named global histogram — the
/// quantile-capturing sibling of MG_OBS_SCOPE_TIMER.
#define MG_OBS_SCOPE_HIST(var, name) \
  ::mg::obs::ScopeHist var(::mg::obs::Registry::global().histogram(name))
#else
#define MG_OBS_ADD(name, delta) ((void)0)
#define MG_OBS_SCOPE_TIMER(var, name) ((void)0)
#define MG_OBS_HIST(name, value) ((void)0)
#define MG_OBS_SCOPE_HIST(var, name) ((void)0)
#endif
