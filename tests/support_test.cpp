// Unit tests for the support kernel: contracts, RNG, bit matrix, thread pool,
// table formatting, stopwatch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/bitset.h"
#include "support/contracts.h"
#include "support/fingerprint.h"
#include "support/rng.h"
#include "support/stopwatch.h"
#include "support/table.h"
#include "support/thread_pool.h"

namespace mg {
namespace {

TEST(Contracts, ExpectsThrowsOnViolation) {
  EXPECT_THROW(MG_EXPECTS(1 == 2), ContractViolation);
  EXPECT_NO_THROW(MG_EXPECTS(1 == 1));
}

TEST(Contracts, MessageCarriesContext) {
  try {
    MG_EXPECTS_MSG(false, "extra detail");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("extra detail"), std::string::npos);
    EXPECT_NE(what.find("support_test.cpp"), std::string::npos);
  }
}

TEST(Contracts, EnsuresAndAssertDistinguishKinds) {
  try {
    MG_ENSURES(false);
    FAIL();
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("postcondition"), std::string::npos);
  }
  try {
    MG_ASSERT(false);
    FAIL();
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("invariant"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a() == b() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 400; ++i) {
    const auto x = rng.range(-2, 2);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 2);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, BelowZeroBoundIsContractViolation) {
  Rng rng(1);
  EXPECT_THROW(rng.below(0), ContractViolation);
}

TEST(BitMatrix, AdjacentRowsStayIsolatedAcrossTheWordEdge) {
  BitMatrix m(3, 130);
  EXPECT_EQ(m.row_words(), 3u);
  m.set(1, 63);
  m.set(1, 64);
  EXPECT_TRUE(m.test(1, 63));
  EXPECT_TRUE(m.test(1, 64));
  EXPECT_EQ(m.count(0), 0u);
  EXPECT_EQ(m.count(1), 2u);
  EXPECT_EQ(m.count(2), 0u);
  EXPECT_EQ(m.row(1)[0], std::uint64_t{1} << 63);
  EXPECT_EQ(m.row(1)[1], std::uint64_t{1});
  m.reset(1, 64);
  EXPECT_FALSE(m.test(1, 64));
  EXPECT_EQ(m.count(1), 1u);
}

TEST(BitMatrix, LastWordPaddingStaysZero) {
  BitMatrix m(2, 66);
  for (std::size_t b = 0; b < 66; ++b) m.set(0, b);
  EXPECT_EQ(m.count(0), 66u);
  EXPECT_EQ(m.row(0)[1], std::uint64_t{3});  // bits 64 and 65 only
  EXPECT_EQ(m.count(1), 0u);
  EXPECT_EQ(m.row(1)[0], 0u);
}

TEST(BitMatrix, OutOfRangeIsContractViolation) {
  BitMatrix m(2, 8);
  EXPECT_THROW(m.set(0, 8), ContractViolation);
  EXPECT_THROW((void)m.test(0, 100), ContractViolation);
  EXPECT_THROW(m.set(2, 0), ContractViolation);
  EXPECT_THROW((void)m.count(2), ContractViolation);
}

TEST(BitMatrix, EqualityComparesShapeAndContents) {
  BitMatrix a(2, 10);
  BitMatrix b(2, 10);
  EXPECT_EQ(a, b);
  a.set(1, 3);
  EXPECT_NE(a, b);
  b.set(1, 3);
  EXPECT_EQ(a, b);
  EXPECT_NE(BitMatrix(2, 10), BitMatrix(2, 11));
  EXPECT_NE(BitMatrix(2, 10), BitMatrix(1, 10));
}

TEST(BitMatrix, WordCountOverflowThrowsBeforeAllocating) {
  // 2^62 rows of 4 words each: 2^64 words, which wraps std::size_t.
  const std::size_t rows = std::size_t{1} << 62;
  EXPECT_THROW((void)BitMatrix(rows, 256), ContractViolation);
  EXPECT_THROW((void)BitMatrix(SIZE_MAX, 64), ContractViolation);
  EXPECT_NO_THROW((void)BitMatrix(rows, 0));  // no words at all
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 57) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, SequentialReuse) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for(10, [&](std::size_t) { total++; });
  }
  EXPECT_EQ(total.load(), 50);
}

TEST(ThreadPool, SingleWorkerCoversAllIndices) {
  // The degenerate one-thread pool must still run every iteration (the
  // engine and benches construct pools of exactly this size).
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<int> hits(500, 0);  // single worker: no data race
  pool.parallel_for(500, [&](std::size_t i) { hits[i]++; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, SingleWorkerZeroTasksIsNoop) {
  ThreadPool pool(1);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, SingleWorkerPropagatesException) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(20,
                                 [](std::size_t i) {
                                   if (i == 13) throw std::logic_error("x");
                                 }),
               std::logic_error);
}

TEST(ThreadPool, OneTaskOnManyThreads) {
  // count < thread_count: only one chunk exists; the rest of the pool
  // must stay parked and the single index still runs exactly once.
  ThreadPool pool(8);
  std::atomic<int> runs{0};
  std::atomic<std::size_t> seen{1234};
  pool.parallel_for(1, [&](std::size_t i) {
    runs++;
    seen = i;
  });
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(seen.load(), 0u);
}

TEST(ThreadPool, EveryChunkThrowingRethrowsExactlyOne) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(64, [](std::size_t i) {
      throw std::runtime_error("chunk " + std::to_string(i));
    });
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("chunk"), std::string::npos);
  }
}

TEST(ThreadPool, UsableAfterException) {
  // An exception must not poison the pool: workers survive and later
  // parallel_for calls complete normally.
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(30, [](std::size_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
  std::atomic<int> total{0};
  pool.parallel_for(100, [&](std::size_t) { total++; });
  EXPECT_EQ(total.load(), 100);
}

TEST(Fingerprint, DeterministicAcrossInstances) {
  Fingerprint64 a;
  Fingerprint64 b;
  for (std::uint64_t w : {1ULL, 2ULL, 3ULL, 0ULL, 0xffffffffffffffffULL}) {
    a.update(w);
    b.update(w);
  }
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(Fingerprint, OrderAndLengthSensitive) {
  Fingerprint64 ab;
  ab.update(1);
  ab.update(2);
  Fingerprint64 ba;
  ba.update(2);
  ba.update(1);
  EXPECT_NE(ab.digest(), ba.digest());

  Fingerprint64 a;
  a.update(1);
  EXPECT_NE(a.digest(), ab.digest());
  // Trailing zeros are part of the stream, not absorbed.
  Fingerprint64 a0;
  a0.update(1);
  a0.update(0);
  EXPECT_NE(a.digest(), a0.digest());
}

TEST(Fingerprint, SeedSeparatesDomains) {
  Fingerprint64 a(1);
  Fingerprint64 b(2);
  a.update(7);
  b.update(7);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Fingerprint, NoCollisionsOverStructuredSweep) {
  // 4096 short structured streams (the shape graph_fingerprint emits):
  // every digest distinct.  Not a proof, but a strong smoke test of the
  // mixing quality the schedule cache relies on.
  std::set<std::uint64_t> digests;
  for (std::uint64_t n = 0; n < 64; ++n) {
    for (std::uint64_t d = 0; d < 64; ++d) {
      Fingerprint64 h;
      h.update(n);
      h.update(d);
      h.update(n * 64 + d);
      digests.insert(h.digest());
    }
  }
  EXPECT_EQ(digests.size(), 64u * 64u);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t;
  t.new_row();
  t.cell(std::string("Time"));
  t.cell(std::string("x"));
  t.new_row();
  t.cell(std::string("a"));
  t.cell(12345);
  const std::string out = t.render();
  EXPECT_NE(out.find("| Time |"), std::string::npos);
  EXPECT_NE(out.find("12345"), std::string::npos);
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(TextTable, CellBeforeRowIsContractViolation) {
  TextTable t;
  EXPECT_THROW(t.cell(std::string("x")), ContractViolation);
}

TEST(TextTable, DoubleCellFormatsPrecision) {
  TextTable t;
  t.new_row();
  t.cell(3.14159, 3);
  EXPECT_NE(t.render(false).find("3.142"), std::string::npos);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(sw.millis(), 5.0);
  sw.restart();
  EXPECT_LT(sw.millis(), 5.0);
}

}  // namespace
}  // namespace mg
