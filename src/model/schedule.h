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
// (validator, simulator, actors, timeline) walks:
//
//   offsets_[t] .. offsets_[t+1]        -> the tuples of round t
//   receivers_[tx.first .. +tx.count]   -> that tuple's D set
//
// 16 bytes per tuple plus 4 bytes per delivery, three allocations in all.
// Offsets are 32-bit; a schedule past 2^32 - 1 tuples or deliveries fails
// a contract instead of wrapping.  Schedules are immutable once built: every
// one comes out of a `ScheduleBuilder` (or `append`, a splice of two).
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
  /// there (a base prefix plus a suffix).
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
/// `add` tuples in any round order, then `build()`.  Rounds come out in
/// order, and tuples keep their insertion order inside a round.  While adds
/// arrive in non-decreasing round order they go straight into the
/// schedule's own arrays, opening rounds as t advances; a producer that
/// knows its totals can `reserve` those arrays first.  The first add to an
/// earlier round switches to staging, and `build()` then counting-sorts the
/// tuples stably into place.  Both ways store the same arrays, each of
/// exactly the final size.
///
/// Every `add` enforces the tuple contract: D is non-empty, sorted and
/// duplicate-free, and the round and the offsets fit in 32 bits.  `build()`
/// leaves the builder empty for reuse.
class ScheduleBuilder {
 public:
  /// Makes room for `rounds` rounds and `transmissions` tuples carrying
  /// `deliveries` receivers in all; totals past 2^32 - 1 fail a contract
  /// before anything is allocated.  Changes no output.
  void reserve(std::size_t rounds, std::size_t transmissions,
               std::size_t deliveries);

  /// Adds (message, sender, receivers) sent at time `t`.
  void add(std::size_t t, Message message, Vertex sender,
           std::span<const Vertex> receivers) {
    expect_receiver_set(receivers);
    MG_EXPECTS_MSG(t < kMaxIndex, "round index exceeds 32 bits");
    MG_EXPECTS_MSG(out_.tx_.size() < kMaxIndex &&
                       receivers.size() <= kMaxIndex - out_.receivers_.size(),
                   "schedule exceeds 32-bit offsets");
    if (staged_round_.empty() && t + 2 >= out_.offsets_.size()) {
      // In round order: open rounds up to t, and count the tuple into t.
      out_.offsets_.resize(t + 2, static_cast<std::uint32_t>(out_.tx_.size()));
      ++out_.offsets_.back();
    } else {
      stage(t);
    }
    out_.tx_.push_back({message, sender,
                        static_cast<std::uint32_t>(out_.receivers_.size()),
                        static_cast<std::uint32_t>(receivers.size())});
    out_.receivers_.insert(out_.receivers_.end(), receivers.begin(),
                           receivers.end());
  }
  void add(std::size_t t, Message message, Vertex sender,
           std::initializer_list<Vertex> receivers) {
    add(t, message, sender,
        std::span<const Vertex>(receivers.begin(), receivers.size()));
  }
  void add(std::size_t t, const Transmission& tx) {
    add(t, tx.message, tx.sender, tx.receivers);
  }

  [[nodiscard]] Schedule build();

 private:
  static constexpr std::uint32_t kMaxIndex = 0xffffffffU;

  static void expect_receiver_set(std::span<const Vertex> receivers) {
    MG_EXPECTS_MSG(!receivers.empty(), "transmission must have receivers");
    for (std::size_t i = 1; i < receivers.size(); ++i) {
      MG_EXPECTS_MSG(receivers[i - 1] < receivers[i],
                     "receiver set must be sorted and duplicate-free");
    }
  }

  /// Records round `t` for the tuple about to be added, first giving every
  /// tuple added in round order its round.
  void stage(std::size_t t);

  // Tuples in insertion order.  While they arrive in round order,
  // `out_.offsets_` is already the round offsets of the tuples so far; once
  // staging, `staged_round_` holds every tuple's round instead.
  Schedule out_;
  std::vector<std::uint32_t> staged_round_;
};

/// The tuples of round `t` sorted by (sender, message, receivers): the
/// order-free form rounds are compared in.  Empty past the last round.
[[nodiscard]] std::vector<Tx> canonical_round(const Schedule& schedule,
                                              std::size_t t);

/// True when the two schedules perform exactly the same transmissions at
/// the same times (order within a round is immaterial).
[[nodiscard]] bool equivalent(const Schedule& a, const Schedule& b);

}  // namespace mg::model
