// Observability primitives: monotonic counters, accumulating timers, and
// log-bucketed latency histograms.
//
// All are thread-safe (relaxed atomics — metrics need no ordering
// guarantees) and trivially cheap: a counter increment is one relaxed
// fetch_add, a histogram record is two fetch_adds plus a bucket increment.
// All hot-path instrumentation goes through the MG_OBS_* macros in
// registry.h so it can be compiled out entirely.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "support/stopwatch.h"

namespace mg::obs {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Accumulating wall-clock timer: total nanoseconds across `count` spans.
class Timer {
 public:
  void record_ns(std::uint64_t ns) {
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t total_ns() const {
    return total_ns_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  void reset() {
    total_ns_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// Point-in-time summary of a Histogram (see Histogram::snapshot()).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
};

/// Thread-safe log-bucketed value histogram (HdrHistogram-style).
///
/// Values land in power-of-two octaves split into 8 sub-buckets, so any
/// recorded value is off from its bucket's lower bound by at most 1/8 of
/// itself (12.5% relative quantile error); values below 8 are exact.
/// Recording is lock-free: one relaxed fetch_add per bucket plus count/sum
/// accumulators and CAS-maintained exact min/max, making the histogram safe
/// on hot paths shared by many threads.  Quantiles are computed on demand
/// by a bucket scan and clamped into [min, max], so single-value and
/// boundary-value distributions report exactly.
class Histogram {
 public:
  static constexpr std::size_t kSubBits = 3;                // 8 sub-buckets
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
  // Octaves 3..63 carry kSubBuckets buckets each; values 0..7 are exact.
  static constexpr std::size_t kBucketCount =
      kSubBuckets + (64 - kSubBits) * kSubBuckets;

  /// Bucket holding `value`; exact below kSubBuckets, log-spaced above.
  [[nodiscard]] static constexpr std::size_t bucket_index(
      std::uint64_t value) {
    if (value < kSubBuckets) return static_cast<std::size_t>(value);
    const auto exponent =
        static_cast<std::size_t>(std::bit_width(value)) - 1;  // >= kSubBits
    const auto sub = static_cast<std::size_t>(
        (value >> (exponent - kSubBits)) & (kSubBuckets - 1));
    return (exponent - kSubBits + 1) * kSubBuckets + sub;
  }

  /// Smallest value mapping to bucket `index` (the bucket's lower bound).
  [[nodiscard]] static constexpr std::uint64_t bucket_lower_bound(
      std::size_t index) {
    if (index < 2 * kSubBuckets) return index;  // octave 3 is still exact
    const std::size_t exponent = index / kSubBuckets + kSubBits - 1;
    const std::uint64_t sub = index % kSubBuckets;
    return (kSubBuckets + sub) << (exponent - kSubBits);
  }

  void record(std::uint64_t value) {
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    update_min(value);
    update_max(value);
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }

  /// Consistent-enough summary under concurrent recording: quantiles are
  /// ranked against the bucket total seen by this scan, not `count()`.
  [[nodiscard]] HistogramSnapshot snapshot() const {
    std::array<std::uint64_t, kBucketCount> copy{};
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      copy[i] = buckets_[i].load(std::memory_order_relaxed);
      total += copy[i];
    }
    HistogramSnapshot snap;
    snap.count = total;
    if (total == 0) return snap;
    snap.sum = sum_.load(std::memory_order_relaxed);
    snap.min = min_.load(std::memory_order_relaxed);
    snap.max = max_.load(std::memory_order_relaxed);
    snap.p50 = quantile_from(copy, total, 0.50);
    snap.p90 = quantile_from(copy, total, 0.90);
    snap.p99 = quantile_from(copy, total, 0.99);
    return snap;
  }

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void update_min(std::uint64_t value) {
    std::uint64_t seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  void update_max(std::uint64_t value) {
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t quantile_from(
      const std::array<std::uint64_t, kBucketCount>& buckets,
      std::uint64_t total, double q) const {
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(total) + 0.5);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      cumulative += buckets[i];
      if (cumulative >= target && buckets[i] != 0) {
        const std::uint64_t lo = bucket_lower_bound(i);
        const std::uint64_t lo_min = min_.load(std::memory_order_relaxed);
        const std::uint64_t hi_max = max_.load(std::memory_order_relaxed);
        return std::min(std::max(lo, lo_min), hi_max);
      }
    }
    return max_.load(std::memory_order_relaxed);
  }

  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

/// RAII span: records the elapsed wall time into a Timer on destruction.
class ScopeTimer {
 public:
  explicit ScopeTimer(Timer& timer) : timer_(&timer) {}
  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

  ~ScopeTimer() {
    timer_->record_ns(static_cast<std::uint64_t>(watch_.seconds() * 1e9));
  }

 private:
  Timer* timer_;
  Stopwatch watch_;
};

/// RAII span: records the elapsed wall time (ns) into a Histogram on
/// destruction — the per-request quantile companion to ScopeTimer.
class ScopeHist {
 public:
  explicit ScopeHist(Histogram& histogram) : histogram_(&histogram) {}
  ScopeHist(const ScopeHist&) = delete;
  ScopeHist& operator=(const ScopeHist&) = delete;

  ~ScopeHist() {
    histogram_->record(static_cast<std::uint64_t>(watch_.seconds() * 1e9));
  }

 private:
  Histogram* histogram_;
  Stopwatch watch_;
};

}  // namespace mg::obs
