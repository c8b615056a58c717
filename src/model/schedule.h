// The paper's communication-schedule formalism (§1).
//
// A *communication round* C is a set of tuples (m, l, D): message m, held
// by processor P_l, is multicast to the set of processors with indices in
// D.  A round must satisfy the network's rules: all D sets pairwise
// disjoint (each processor receives at most one message) and all sender
// indices l distinct (each processor sends at most one message).  A
// *communication schedule* is a sequence of rounds; its *total
// communication time* equals the latest time a message is received — a
// message sent in round t is received at time t + 1.
//
// `Schedule` stores that sequence as two CSR levels over three contiguous
// arrays, the one representation every producer writes and every reader
// (validator, simulator, actors, patching) walks:
//
//   offsets_[t] .. offsets_[t+1]        -> the tuples of round t
//   receivers_[tx.first .. +tx.count]   -> that tuple's D set
//
// 16 bytes per tuple plus 4 bytes per delivery, three allocations in all.
// Offsets are 32-bit; a schedule past 2^32 - 1 tuples or deliveries fails
// a contract instead of wrapping.  Schedules are immutable once built: every
// one comes out of a `ScheduleBuilder` (or `append`, the patching splice).
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "support/contracts.h"

namespace mg::model {

using graph::Vertex;

/// Message identifier.  By the paper's convention message `m` is the one
/// originating at the processor whose DFS label is `m`; on general (non
/// relabeled) instances it is simply the origin processor index.
using Message = std::uint32_t;

/// One stored tuple (m, l, D); D lives in the schedule's receiver array
/// (`Schedule::receivers`).
struct Tx {
  Message message = 0;
  Vertex sender = 0;
  std::uint32_t first = 0;  ///< index of D's first receiver
  std::uint32_t count = 0;  ///< |D|
};
static_assert(sizeof(Tx) == 16);

/// One send as an owning value: what an actor or online processor decides
/// for one round, and the literal form tests write tuples in.  Not a
/// storage format — schedules hold `Tx` records.
struct Transmission {
  Message message = 0;
  Vertex sender = 0;
  std::vector<Vertex> receivers;  ///< the D set; non-empty, sorted unique
};

/// A sequence of communication rounds.
class Schedule {
 public:
  Schedule() = default;

  [[nodiscard]] std::size_t round_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// The tuples of round `t < round_count()`, in insertion order.
  [[nodiscard]] std::span<const Tx> round(std::size_t t) const {
    return {tx_.data() + offsets_[t], offsets_[t + 1] - offsets_[t]};
  }

  /// The D set of a tuple of this schedule: sorted, duplicate-free.
  [[nodiscard]] std::span<const Vertex> receivers(const Tx& tx) const {
    return {receivers_.data() + tx.first, tx.count};
  }

  /// Drops empty trailing rounds.
  void trim();

  /// Splices every transmission of `tail` into this schedule, shifted so
  /// tail round t lands at round `offset + t` after the tuples already
  /// there — the schedule-patching primitive (base prefix + repair suffix).
  void append(const Schedule& tail, std::size_t offset);

  /// Total communication time: latest receive time = (index of the last
  /// non-empty round) + 1; zero for an all-empty schedule.
  [[nodiscard]] std::size_t total_time() const;

  /// Number of (m, l, D) tuples over all rounds.
  [[nodiscard]] std::size_t transmission_count() const { return tx_.size(); }

  /// Number of point-to-point deliveries (sum of |D|).
  [[nodiscard]] std::size_t delivery_count() const {
    return receivers_.size();
  }

  /// Largest multicast fan-out |D| in the schedule (0 if empty).
  [[nodiscard]] std::size_t max_fanout() const;

  /// True when every D set is a singleton, i.e. the schedule is also valid
  /// under the telephone (unicasting) communication model.
  [[nodiscard]] bool is_telephone() const;

  /// Human-readable rendering ("t=3: msg 5: 2 -> {0, 4}").
  [[nodiscard]] std::string to_string() const;

 private:
  friend class ScheduleBuilder;

  std::vector<std::uint32_t> offsets_;  // round_count() + 1, or empty
  std::vector<Tx> tx_;
  std::vector<Vertex> receivers_;
};

/// The only way to make a non-empty `Schedule`.
///
/// Staged use: `add` tuples in any round order, then `build()`.  Rounds
/// come out in order, and tuples keep their insertion order inside a round.
/// `build()` counts tuples and deliveries per round, then places everything
/// into arrays of exactly the final size.
///
/// Sized use, for producers that can enumerate their tuples twice instead
/// of storing them: `count(t, |D|)` every tuple, `allocate()`, then `add`
/// the same tuples again (any order) — each lands in place in the final
/// arrays, and nothing is staged.  `build()` checks that every counted
/// slot was filled.
///
/// Every `add` enforces the tuple contract: D is non-empty, sorted and
/// duplicate-free.  `build()` leaves the builder empty for reuse.
class ScheduleBuilder {
 public:
  /// Adds (message, sender, receivers) sent at time `t`.
  void add(std::size_t t, Message message, Vertex sender,
           std::span<const Vertex> receivers) {
    expect_receiver_set(receivers);
    if (mode_ == Mode::kFilling) {
      place(t, message, sender, receivers);
    } else {
      stage(t, message, sender, receivers);
    }
  }
  void add(std::size_t t, Message message, Vertex sender,
           std::initializer_list<Vertex> receivers) {
    add(t, message, sender,
        std::span<const Vertex>(receivers.begin(), receivers.size()));
  }
  void add(std::size_t t, const Transmission& tx) {
    add(t, tx.message, tx.sender, tx.receivers);
  }

  /// Sized use, first pass: one tuple of fan-out `fanout` at time `t`.
  void count(std::size_t t, std::size_t fanout) {
    if (mode_ != Mode::kCounting || t >= slots_.size()) grow(t);
    Slots& s = slots_[t];
    MG_EXPECTS_MSG(s.end_tx < kMaxIndex && fanout <= kMaxIndex - s.end_rx,
                   "schedule exceeds 32-bit offsets");
    ++s.end_tx;
    s.end_rx += static_cast<std::uint32_t>(fanout);
  }

  /// Sized use: allocates the exact arrays for the counted tuples; every
  /// later `add` fills a counted slot.
  void allocate();

  [[nodiscard]] Schedule build();

 private:
  enum class Mode : std::uint8_t { kStaging, kCounting, kFilling };

  static constexpr std::uint32_t kMaxIndex = 0xffffffffU;

  /// One round's share of the arrays.  While counting, `end_tx`/`end_rx`
  /// hold the round's tuple and delivery counts; while filling, `next_*`
  /// is the next free slot and `end_*` one past the round's last.
  struct Slots {
    std::uint32_t next_tx = 0;
    std::uint32_t end_tx = 0;
    std::uint32_t next_rx = 0;
    std::uint32_t end_rx = 0;
  };

  static void expect_receiver_set(std::span<const Vertex> receivers) {
    MG_EXPECTS_MSG(!receivers.empty(), "transmission must have receivers");
    for (std::size_t i = 1; i < receivers.size(); ++i) {
      MG_EXPECTS_MSG(receivers[i - 1] < receivers[i],
                     "receiver set must be sorted and duplicate-free");
    }
  }

  void place(std::size_t t, Message message, Vertex sender,
             std::span<const Vertex> receivers) {
    MG_EXPECTS_MSG(t < slots_.size() && slots_[t].next_tx < slots_[t].end_tx,
                   "more tuples in a round than counted");
    Slots& s = slots_[t];
    MG_EXPECTS_MSG(receivers.size() <= s.end_rx - s.next_rx,
                   "more deliveries in a round than counted");
    const auto count = static_cast<std::uint32_t>(receivers.size());
    out_.tx_[s.next_tx++] = {message, sender, s.next_rx, count};
    std::copy(receivers.begin(), receivers.end(),
              out_.receivers_.begin() + static_cast<std::ptrdiff_t>(s.next_rx));
    s.next_rx += count;
  }

  void stage(std::size_t t, Message message, Vertex sender,
             std::span<const Vertex> receivers);
  void grow(std::size_t t);

  Mode mode_ = Mode::kStaging;
  // Staged tuples: round of each, and the tuples with `first` indexing
  // `staged_receivers_`.
  std::vector<std::uint32_t> staged_round_;
  std::vector<Tx> staged_tx_;
  std::vector<Vertex> staged_receivers_;
  std::vector<Slots> slots_;  // per round
  Schedule out_;
};

/// The tuples of round `t` sorted by (sender, message, receivers): the
/// order-free form rounds are compared in.  Empty past the last round.
[[nodiscard]] std::vector<Tx> canonical_round(const Schedule& schedule,
                                              std::size_t t);

/// True when the two schedules perform exactly the same transmissions at
/// the same times (order within a round is immaterial).
[[nodiscard]] bool equivalent(const Schedule& a, const Schedule& b);

}  // namespace mg::model
