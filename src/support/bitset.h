// Hold state for every processor at once: one rows x bits bit matrix in a
// single allocation.  Row i is processor i's hold set h_i (bit m set when
// it holds message m); the validator keeps the transpose (row m, one bit
// per processor).  A row is a span of ceil(bits / 64) little-endian words
// and the bits past `bits()` in its last word stay zero, so equal sets have
// equal words.  The simulator, validator, repair planners and dist reports
// all read and write it word by word.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "support/contracts.h"

namespace mg {

class BitMatrix {
 public:
  BitMatrix() = default;

  /// An all-zero `rows` x `bits` matrix.  Throws ContractViolation, before
  /// allocating, when rows * ceil(bits / 64) words do not fit one vector.
  BitMatrix(std::size_t rows, std::size_t bits)
      : rows_(rows), bits_(bits), row_words_(bits / 64 + (bits % 64 != 0)) {
    MG_EXPECTS_MSG(row_words_ == 0 || rows <= words_.max_size() / row_words_,
                   "hold matrix exceeds the address space");
    words_.assign(rows * row_words_, 0);
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t bits() const { return bits_; }
  [[nodiscard]] std::size_t row_words() const { return row_words_; }

  /// Row r's words, unchecked like vector's operator[]: hot loops index
  /// rows they have already bounded.  Writers keep the padding bits zero.
  [[nodiscard]] std::span<std::uint64_t> row(std::size_t r) {
    return {words_.data() + r * row_words_, row_words_};
  }
  [[nodiscard]] std::span<const std::uint64_t> row(std::size_t r) const {
    return {words_.data() + r * row_words_, row_words_};
  }

  /// Every word, row after row (row r starts at r * row_words()).
  [[nodiscard]] std::uint64_t* data() { return words_.data(); }

  [[nodiscard]] bool test(std::size_t r, std::size_t b) const {
    return (words_[index(r, b)] >> (b & 63)) & 1;
  }
  void set(std::size_t r, std::size_t b) {
    words_[index(r, b)] |= std::uint64_t{1} << (b & 63);
  }
  void reset(std::size_t r, std::size_t b) {
    words_[index(r, b)] &= ~(std::uint64_t{1} << (b & 63));
  }

  /// Set bits in row r.
  [[nodiscard]] std::size_t count(std::size_t r) const {
    MG_EXPECTS(r < rows_);
    std::size_t total = 0;
    for (const std::uint64_t w : row(r)) {
      total += static_cast<std::size_t>(std::popcount(w));
    }
    return total;
  }

  [[nodiscard]] bool operator==(const BitMatrix&) const = default;

 private:
  /// The word holding bit b of row r.
  [[nodiscard]] std::size_t index(std::size_t r, std::size_t b) const {
    MG_EXPECTS(r < rows_ && b < bits_);
    return r * row_words_ + (b >> 6);
  }

  std::size_t rows_ = 0;
  std::size_t bits_ = 0;
  std::size_t row_words_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace mg
