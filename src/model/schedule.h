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
// `Schedule` stores that sequence as *runs*, the shape of ConcurrentUpDown's
// steps (U3)/(U4) and (D2)/(D3): one sender sends message m0 + (t - t0) to
// one receiver set in each round t = t0 .. t0 + len - 1.  A tuple is a run of
// one round, so every producer writes, and every reader walks, this one
// representation:
//
//   starts_[k]           -> round starts_[k].round and its first run; the
//                           runs starting there end at starts_[k + 1].first
//   runs_[i]             -> (m0, sender, len, first receiver)
//   receivers_[first ..] -> the run's D set, up to the next run's first
//
// 16 bytes per run plus 4 bytes per receiver entry plus 8 bytes per round in
// which some run starts.  A ConcurrentUpDown schedule at n = 1024 holds
// about one run per 25-60 tuples; a telephone schedule about one per tuple.
//
// Stored order is part of the output (the radio/beep legalizer packs rounds
// first-fit in it, and the repair planners' digests pin it), so runs are
// canonical: a run continues into round t only when round t's tuples, in
// insertion order, strictly ascend by sender (and so did round t - 1's).
// Any other round stores each of its tuples as a one-round run in insertion
// order.  The runs starting in a round are kept in that round's stored
// order.  `RoundCursor` rebuilds every round from this: it keeps the runs
// going on sorted by sender and merges each round's new runs in.  No run
// goes on across a round whose tuples do not ascend, so such a round's runs
// come out verbatim.  The stored arrays are a function of the tuple
// sequence alone, however the tuples were added.
//
// Round indices stay below 2^32 - 1, and stored runs and receiver entries
// fit 32-bit indices; past those limits a contract fails before anything is
// allocated.  Tuple and delivery totals are 64-bit sums over runs.
// Schedules are immutable once built: every one comes out of a
// `ScheduleBuilder`.
#pragma once

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

/// One tuple (m, l, D) of a round, as `RoundCursor` yields it; D lives in
/// the schedule's receiver array (`Schedule::receivers`).
struct Tx {
  Message message = 0;
  Vertex sender = 0;
  std::uint32_t first = 0;  ///< index of D's first receiver
  std::uint32_t count = 0;  ///< |D|
};
static_assert(sizeof(Tx) == 16);

/// One send as an owning value: what an actor or online processor decides
/// for one round, and the literal form tests write tuples in.  Not a
/// storage format — schedules hold runs.
struct Transmission {
  Message message = 0;
  Vertex sender = 0;
  std::vector<Vertex> receivers;  ///< the D set; non-empty, sorted unique
  friend bool operator==(const Transmission&,
                         const Transmission&) = default;
};

/// A sequence of communication rounds, stored as runs.
class Schedule {
 public:
  Schedule() = default;

  /// Number of rounds; the last one is never empty.
  [[nodiscard]] std::size_t round_count() const { return rounds_; }

  /// The D set of a tuple of this schedule: sorted, duplicate-free.
  [[nodiscard]] std::span<const Vertex> receivers(const Tx& tx) const {
    return {receivers_.data() + tx.first, tx.count};
  }

  /// Total communication time: latest receive time = (index of the last
  /// round) + 1, which is `round_count()`; zero for an empty schedule.
  [[nodiscard]] std::size_t total_time() const { return rounds_; }

  /// Number of (m, l, D) tuples over all rounds.
  [[nodiscard]] std::uint64_t transmission_count() const {
    return transmissions_;
  }

  /// Number of point-to-point deliveries (sum of |D|).
  [[nodiscard]] std::uint64_t delivery_count() const { return deliveries_; }

  /// Number of stored runs.
  [[nodiscard]] std::size_t run_count() const { return runs_.size(); }

  /// Bytes of the stored arrays (their sizes, not their capacities).
  [[nodiscard]] std::size_t stored_bytes() const;

  /// Largest multicast fan-out |D| in the schedule (0 if empty).
  [[nodiscard]] std::size_t max_fanout() const;

  /// True when every D set is a singleton, i.e. the schedule is also valid
  /// under the telephone (unicasting) communication model.
  [[nodiscard]] bool is_telephone() const;

  /// Human-readable rendering ("t=3: msg 5: 2 -> {0, 4}").
  [[nodiscard]] std::string to_string() const;

  /// Identical stored arrays, hence the same tuples in the same stored
  /// order.
  friend bool operator==(const Schedule&, const Schedule&) = default;

 private:
  friend class ScheduleBuilder;
  friend class RoundCursor;

  /// Sender `sender` sends m0 + k in round (its start round) + k, k < len,
  /// to receivers_[first .. the next run's first).
  struct Run {
    Message m0 = 0;
    Vertex sender = 0;
    std::uint32_t len = 0;
    std::uint32_t first = 0;
    friend bool operator==(const Run&, const Run&) = default;
  };
  static_assert(sizeof(Run) == 16);

  /// The runs starting in round `round`: runs_[first .. the next start's
  /// first).
  struct Start {
    std::uint32_t round = 0;
    std::uint32_t first = 0;
    friend bool operator==(const Start&, const Start&) = default;
  };

  /// One past the last receiver entry of run `i`.
  [[nodiscard]] std::uint32_t run_end(std::size_t i) const {
    return i + 1 < runs_.size() ? runs_[i + 1].first
                                : static_cast<std::uint32_t>(receivers_.size());
  }

  std::vector<Start> starts_;
  std::vector<Run> runs_;
  std::vector<Vertex> receivers_;
  std::uint32_t rounds_ = 0;
  std::uint64_t transmissions_ = 0;
  std::uint64_t deliveries_ = 0;
};

/// The one way to read a schedule's rounds: each round in order, as a span
/// of tuples in stored order.
///
///   for (RoundCursor round(schedule); round.next();) {
///     for (const Tx& tx : round.txs()) ... round.index() ...
///   }
///
/// Every round 0 .. round_count() - 1 is visited, empty ones included.  A
/// round costs O(its tuples and the round before's); the span stays valid
/// until the next `next()`.
class RoundCursor {
 public:
  explicit RoundCursor(const Schedule& schedule) : schedule_(&schedule) {}

  /// Moves to the next round; false once every round has been visited.
  bool next();

  /// The current round's index.
  [[nodiscard]] std::size_t index() const { return round_; }

  /// The current round's tuples, in stored order.
  [[nodiscard]] std::span<const Tx> txs() const {
    return {live_.data(), count_};
  }

 private:
  const Schedule* schedule_;
  std::size_t round_ = static_cast<std::size_t>(-1);
  std::size_t start_ = 0;  ///< the next entry of the schedule's `starts_`
  // The current round's tuples, the first `count_` of `live_`, and per
  // tuple the round after its run's last; `merged_` and `merged_end_` are
  // where a round with new runs is built.
  std::vector<Tx> live_;
  std::vector<std::uint32_t> end_;
  std::size_t count_ = 0;
  std::uint32_t reach_ = 0;  ///< no run of `live_` goes on past this round
  std::vector<Tx> merged_;
  std::vector<std::uint32_t> merged_end_;
};

/// The only way to make a non-empty `Schedule`.
///
/// `add` tuples in any order, or `add_run` runs sender by sender (senders
/// rising, each sender's adds in round order without overlap), then
/// `build()`.  Rounds come out in order, and tuples keep their insertion
/// order inside a round.  A run stores exactly what its tuples added one by
/// one would store.
///
/// Every add enforces the tuple contract: D is non-empty, sorted and
/// duplicate-free, round indices stay below 2^32 - 1, message ids fit 32
/// bits, and the adds so far fit 32-bit run and receiver indices, which
/// then bound everything stored.  A run of more than one round that breaks
/// sender-by-sender order fails its contract, and so does any add out of
/// that order after such a run.  `build()` leaves the builder empty for
/// reuse.
class ScheduleBuilder {
 public:
  /// Adds (message, sender, receivers) sent at time `t`.
  void add(std::size_t t, Message message, Vertex sender,
           std::span<const Vertex> receivers) {
    add_run(t, 1, message, sender, receivers);
  }
  void add(std::size_t t, Message message, Vertex sender,
           std::initializer_list<Vertex> receivers) {
    add(t, message, sender,
        std::span<const Vertex>(receivers.begin(), receivers.size()));
  }
  void add(std::size_t t, const Transmission& tx) {
    add(t, tx.message, tx.sender, tx.receivers);
  }

  /// Adds the run: `sender` sends m0 + k to `receivers` at time t0 + k, for
  /// every k < len.  The same as adding those `len` tuples one by one, in
  /// round order.  Precondition, when len > 1: the adds so far, this one
  /// included, came sender by sender.
  void add_run(std::size_t t0, std::size_t len, Message m0, Vertex sender,
               std::span<const Vertex> receivers);

  /// Makes room for `runs` adds carrying `receivers` receiver entries in
  /// all; past 32-bit indices a contract fails before anything is
  /// allocated.  Changes no output.
  void reserve(std::size_t runs, std::size_t receivers);

  [[nodiscard]] Schedule build();

 private:
  /// A run as added, or as cut and merged on the way to storage; its D set
  /// is `receivers_[first .. first + count)`.
  struct Item {
    std::uint32_t t0 = 0;
    std::uint32_t len = 0;
    Message m0 = 0;
    Vertex sender = 0;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };

  /// True when `next` is `run`'s next round: same sender and D, the next
  /// message, starting right after `run` ends.
  [[nodiscard]] bool continues(const Item& run, const Item& next) const;

  /// The order that visits `items` by start round, keeping insertion order
  /// inside a round; empty when that is the insertion order itself.
  [[nodiscard]] static std::vector<std::uint32_t> by_start(
      const std::vector<Item>& items);

  /// Appends `run` to `out`, whose runs so far start no later.
  void push_run(Schedule& out, const Item& run) const;

  /// Stores adds that came sender by sender, each sender's in round order
  /// without overlap: O(runs), no tuple visited.
  void store_by_sender(Schedule& out);

  /// Stores tuples added in any insertion order, round by round.
  void store_by_round(Schedule& out) const;

  std::vector<Item> items_;  // insertion order
  std::vector<Vertex> receivers_;
  bool by_sender_ = true;  // the adds so far came sender by sender
  bool runs_ = false;      // some add spans more than one round
};

/// The tuples of one round (a `RoundCursor::txs()` of `schedule`) sorted by
/// (sender, message, receivers): the order-free form rounds are compared in.
[[nodiscard]] std::vector<Tx> canonical_round(const Schedule& schedule,
                                              std::span<const Tx> round);

/// True when the two schedules perform exactly the same transmissions at
/// the same times (order within a round is immaterial).
[[nodiscard]] bool equivalent(const Schedule& a, const Schedule& b);

}  // namespace mg::model
