// The bounded lock-free ring SpanTracer records into.  Recording claims a
// slot with one relaxed fetch_add, writes it in place and publishes it with
// one release store.  Slots are not reused before `clear()`: once
// `capacity` values were claimed, the rest are counted as dropped —
// tracing never blocks or reallocates.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace mg::obs {

template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(std::size_t capacity)
      : capacity_(std::max<std::size_t>(capacity, 1)),
        slots_(std::make_unique<Slot[]>(capacity_)) {}

  /// Claims a slot and publishes it once `fill(T&)` wrote the value; when
  /// the ring is full, counts a drop and never calls `fill`.  Safe to call
  /// concurrently with snapshot().
  template <typename Fill>
  void record(Fill&& fill) {
    const std::uint64_t index = next_.fetch_add(1, std::memory_order_relaxed);
    if (index >= capacity_) return;
    Slot& slot = slots_[index];
    fill(slot.value);
    slot.ready.store(true, std::memory_order_release);
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Values accepted so far (<= capacity).
  [[nodiscard]] std::uint64_t recorded() const {
    return std::min<std::uint64_t>(next_.load(std::memory_order_relaxed),
                                   capacity_);
  }

  /// Values rejected because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const {
    const std::uint64_t claimed = next_.load(std::memory_order_relaxed);
    return claimed > capacity_ ? claimed - capacity_ : 0;
  }

  /// Every published value in claim order; values still being written by a
  /// concurrent record() are skipped, never torn.
  [[nodiscard]] std::vector<T> snapshot() const {
    const std::uint64_t claimed = recorded();
    std::vector<T> values;
    values.reserve(claimed);
    for (std::uint64_t i = 0; i < claimed; ++i) {
      if (slots_[i].ready.load(std::memory_order_acquire)) {
        values.push_back(slots_[i].value);
      }
    }
    return values;
  }

  /// Forgets every value.  Not safe concurrently with record().
  void clear() {
    for (std::uint64_t i = 0, claimed = recorded(); i < claimed; ++i) {
      slots_[i].ready.store(false, std::memory_order_relaxed);
    }
    next_.store(0, std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<bool> ready{false};
    T value;
  };

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> next_{0};  ///< claims, dropped ones included
};

}  // namespace mg::obs
