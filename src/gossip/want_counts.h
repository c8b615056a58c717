// Per-message counters, bit-sliced over 64-message words: the tally both
// repair planners pick their next multicast from.  The central planner
// (`partial_completion_schedule`) counts, per sender, the free neighbors
// that lack each held message; a `dist::ProcessorActor` counts what its
// neighbors' digests lack, to plan its offer, and what its granters'
// digests lack, to pick what it serves.
//
// Plane p holds bit p of every message's count, so adding a mask of
// messages is one ripple-carry per word.  Counts stay below 2^planes when
// every count is at most `max_count` and planes = bit_width(max_count).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model/schedule.h"
#include "support/contracts.h"

namespace mg::gossip {

class WantCounts {
 public:
  WantCounts(std::size_t words, std::size_t max_count)
      : words_(words),
        planes_(static_cast<std::size_t>(std::bit_width(max_count))),
        counts_(planes_ * words),
        nonzero_(words) {}

  void clear() {
    std::fill(counts_.begin(), counts_.end(), 0);
    std::fill(nonzero_.begin(), nonzero_.end(), 0);
  }

  /// Counts once every message of word `w` whose bit is set in `bits`.
  void add(std::size_t w, std::uint64_t bits) {
    if (bits == 0) return;
    nonzero_[w] |= bits;
    // Locals: the plane stores would otherwise reload both every step.
    const std::size_t planes = planes_;
    const std::size_t stride = words_;
    std::uint64_t* plane = counts_.data() + w;
    for (std::size_t p = 0; p < planes; ++p, plane += stride) {
      const std::uint64_t carry = *plane & bits;
      *plane ^= bits;
      bits = carry;
    }
  }

  /// Counts once every message of `have & ~lack`.  True when any was.
  bool add_missing(std::span<const std::uint64_t> have,
                   std::span<const std::uint64_t> lack) {
    std::uint64_t any = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      const std::uint64_t missing = have[w] & ~lack[w];
      any |= missing;
      add(w, missing);
    }
    return any != 0;
  }

  /// Lowers message m's count by `k`, stopping at zero.
  void remove(model::Message m, std::size_t k) {
    const std::size_t w = m / 64;
    const std::uint64_t bit = std::uint64_t{1} << (m % 64);
    std::size_t count = 0;
    for (std::size_t p = 0; p < planes_; ++p) {
      if ((counts_[p * words_ + w] & bit) != 0) count |= std::size_t{1} << p;
    }
    count = count > k ? count - k : 0;
    for (std::size_t p = 0; p < planes_; ++p) {
      std::uint64_t& plane = counts_[p * words_ + w];
      plane = (count >> p & 1) != 0 ? plane | bit : plane & ~bit;
    }
    if (count == 0) nonzero_[w] &= ~bit;
  }

  /// True when some message has a non-zero count.
  [[nodiscard]] bool any() const {
    return std::any_of(nonzero_.begin(), nonzero_.end(),
                       [](std::uint64_t word) { return word != 0; });
  }

  /// The smallest message with the largest count; some count must be
  /// non-zero.  From the top plane down, keep the surviving messages that
  /// have the plane's bit whenever any of them has it.  Consumes the
  /// counts: `clear()` before counting again.
  [[nodiscard]] model::Message argmax() {
    for (std::size_t p = planes_; p-- > 0;) {
      const std::uint64_t* plane = counts_.data() + p * words_;
      bool hit = false;
      for (std::size_t w = 0; w < words_ && !hit; ++w) {
        hit = (nonzero_[w] & plane[w]) != 0;
      }
      if (!hit) continue;
      for (std::size_t w = 0; w < words_; ++w) nonzero_[w] &= plane[w];
    }
    for (std::size_t w = 0; w < words_; ++w) {
      if (nonzero_[w] != 0) {
        return static_cast<model::Message>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(nonzero_[w])));
      }
    }
    MG_ASSERT_MSG(false, "argmax over all-zero counts");
    return 0;
  }

 private:
  std::size_t words_;
  std::size_t planes_;
  std::vector<std::uint64_t> counts_;   ///< counts_[p * words_ + w]
  std::vector<std::uint64_t> nonzero_;  ///< messages with a non-zero count
};

}  // namespace mg::gossip
