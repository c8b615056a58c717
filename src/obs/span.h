// Span tracing: causally-nested wall-clock intervals for offline timeline
// inspection (Dapper-style, exported as Chrome trace-event JSON — see
// trace_export.h).
//
// A span is one `[start, end)` interval on one thread, produced by the
// RAII guard `ScopeSpan` (macro `MG_OBS_SPAN`).  Nesting is implicit:
// spans on the same thread are properly bracketed (a child span is fully
// contained in its parent's interval), and each span also records its
// lexical depth so tests and exporters can verify the bracketing without
// reconstructing it from timestamps.
//
// Spans land in an `obs::BoundedRing` (bounded_ring.h): recording is one
// relaxed fetch_add to claim a slot, a plain write, and one release store
// to publish it.  When the ring is full further spans are counted as
// dropped rather than blocking or reallocating — tracing must never
// disturb the workload it observes.  The ring is built when tracing is
// first enabled, so a process that never traces allocates no slots.  Two
// off switches apply: compile-time (`MG_OBS_ENABLED=0` turns MG_OBS_SPAN
// into nothing, like the metric macros) and runtime
// (`SpanTracer::set_enabled(false)`, the default, reduces a ScopeSpan to a
// single atomic load).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "obs/bounded_ring.h"

namespace mg::obs {

class SpanTracer {
 public:
  /// Longest span name kept (longer names are truncated, not rejected).
  static constexpr std::size_t kMaxNameLength = 47;

  /// One completed span.  Timestamps are monotonic nanoseconds since the
  /// tracer's construction (steady clock), so spans from different threads
  /// order consistently.
  struct Span {
    char name[kMaxNameLength + 1] = {};
    std::uint32_t thread = 0;  ///< small per-thread id (1, 2, ...)
    std::uint32_t depth = 0;   ///< nesting depth at record time (0 = root)
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  explicit SpanTracer(std::size_t capacity = kDefaultCapacity);
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// The process-wide tracer MG_OBS_SPAN reports into.  Disabled by
  /// default: tracing is opt-in per run, unlike the always-on counters.
  static SpanTracer& global();

  /// The first `set_enabled(true)` builds the ring and publishes it before
  /// the flag, so whoever sees the tracer enabled also sees its ring.
  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_acquire);
  }

  /// Monotonic now in the tracer's own timebase.
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Small dense id of the calling thread (stable for its lifetime).
  [[nodiscard]] static std::uint32_t this_thread_id();

  /// Publishes one completed span; lock-free, drops when the ring is full.
  /// A tracer never enabled has no ring and records nothing.  Safe to call
  /// concurrently with snapshot().
  void record(std::string_view name, std::uint32_t thread,
              std::uint32_t depth, std::uint64_t start_ns,
              std::uint64_t end_ns);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Spans accepted into the ring so far (<= capacity).
  [[nodiscard]] std::uint64_t recorded() const {
    const BoundedRing<Span>* ring = ring_.load(std::memory_order_acquire);
    return ring != nullptr ? ring->recorded() : 0;
  }

  /// Spans rejected because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const {
    const BoundedRing<Span>* ring = ring_.load(std::memory_order_acquire);
    return ring != nullptr ? ring->dropped() : 0;
  }

  /// Copies every published span, sorted by (start, end descending) so a
  /// parent precedes its children.  Spans still being written by a
  /// concurrent record() are skipped, never torn.
  [[nodiscard]] std::vector<Span> snapshot() const;

  /// Forgets every span.  Not safe concurrently with record() — quiesce
  /// (or disable) the tracer first.
  void clear() {
    BoundedRing<Span>* ring = ring_.load(std::memory_order_acquire);
    if (ring != nullptr) ring->clear();
  }

 private:
  static constexpr std::size_t kDefaultCapacity = 1 << 14;  // 16384 spans

  std::size_t capacity_;
  std::atomic<bool> enabled_{false};
  std::once_flag ring_built_;
  std::unique_ptr<BoundedRing<Span>> ring_storage_;
  /// ring_storage_ once built, published with release ordering.
  std::atomic<BoundedRing<Span>*> ring_{nullptr};
  std::uint64_t epoch_ns_;  ///< steady-clock origin
};

/// RAII guard producing one span in a tracer (the global one by default).
/// Captures the enabled flag at construction, so a span opened before
/// set_enabled(false) still completes consistently.  The name must outlive
/// the guard (string literals always do).
class ScopeSpan {
 public:
  explicit ScopeSpan(std::string_view name)
      : ScopeSpan(SpanTracer::global(), name) {}

  ScopeSpan(SpanTracer& tracer, std::string_view name);
  ScopeSpan(const ScopeSpan&) = delete;
  ScopeSpan& operator=(const ScopeSpan&) = delete;
  ~ScopeSpan();

 private:
  SpanTracer* tracer_ = nullptr;  ///< nullptr when tracing was disabled
  std::string_view name_;
  std::uint32_t depth_ = 0;
  std::uint64_t start_ns_ = 0;
};

}  // namespace mg::obs

// Compile-time switch; same default as registry.h (the build defines
// MG_OBS_ENABLED on the mg_obs target, PUBLIC).
#ifndef MG_OBS_ENABLED
#define MG_OBS_ENABLED 1
#endif

#if MG_OBS_ENABLED
/// Opens a span named `name` in the global tracer for the enclosing scope.
/// `var` names the guard object (must be unique in the scope).
#define MG_OBS_SPAN(var, name) ::mg::obs::ScopeSpan var(name)
#else
#define MG_OBS_SPAN(var, name) ((void)0)
#endif
