// The per-processor hold set as the library kept it before `BitMatrix`:
// one heap bit vector per processor.  The per-bit oracles
// (reference_sim.h, reference_validator.h) keep their cores on it and
// convert only at their boundaries, with `rows_of` and `matrix_of`.
#pragma once

#include <cstdint>
#include <vector>

#include "support/bitset.h"
#include "support/contracts.h"

namespace mg::test {

/// Bit vector of a size fixed at construction.
class DynamicBitset {
 public:
  explicit DynamicBitset(std::size_t bits = 0)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  void set(std::size_t i) {
    MG_EXPECTS(i < bits_);
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  [[nodiscard]] bool test(std::size_t i) const {
    MG_EXPECTS(i < bits_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const {
    std::size_t total = 0;
    for (std::uint64_t w : words_) {
      total += static_cast<std::size_t>(__builtin_popcountll(w));
    }
    return total;
  }

  /// True when every bit is set.
  [[nodiscard]] bool all() const { return count() == bits_; }

 private:
  std::size_t bits_;
  std::vector<std::uint64_t> words_;
};

/// One bitset per row of `m`.
inline std::vector<DynamicBitset> rows_of(const BitMatrix& m) {
  std::vector<DynamicBitset> rows(m.rows(), DynamicBitset(m.bits()));
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t b = 0; b < m.bits(); ++b) {
      if (m.test(r, b)) rows[r].set(b);
    }
  }
  return rows;
}

/// The matrix whose row r is `rows[r]`, each of `bits` bits.
inline BitMatrix matrix_of(const std::vector<DynamicBitset>& rows,
                           std::size_t bits) {
  BitMatrix m(rows.size(), bits);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t b = 0; b < bits; ++b) {
      if (rows[r].test(b)) m.set(r, b);
    }
  }
  return m;
}

}  // namespace mg::test
