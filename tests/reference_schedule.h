// The stored-order oracle for `model::Schedule`: what a builder's add
// sequence means, kept as a plain vector of rounds of owning tuples.  Every
// add lands at the end of its round (a stable sort by round), which is the
// order `model::RoundCursor` must give back, whatever runs the schedule
// stores.  Also the bridge for tests that index rounds: `rounds_of` reads a
// schedule's rounds through the cursor once.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "model/schedule.h"

namespace mg::test {

struct ReferenceSchedule {
  std::vector<std::vector<model::Transmission>> rounds;

  void add(std::size_t t, model::Transmission tx) {
    if (rounds.size() <= t) rounds.resize(t + 1);
    rounds[t].push_back(std::move(tx));
  }

  /// The run's tuples, one by one in round order.
  void add_run(std::size_t t0, std::size_t len, model::Message m0,
               model::Vertex sender, std::span<const model::Vertex> d) {
    for (std::size_t k = 0; k < len; ++k) {
      add(t0 + k, {static_cast<model::Message>(m0 + k), sender,
                   std::vector<model::Vertex>(d.begin(), d.end())});
    }
  }

  [[nodiscard]] std::uint64_t transmission_count() const {
    std::uint64_t count = 0;
    for (const auto& round : rounds) count += round.size();
    return count;
  }

  [[nodiscard]] std::uint64_t delivery_count() const {
    std::uint64_t count = 0;
    for (const auto& round : rounds) {
      for (const auto& tx : round) count += tx.receivers.size();
    }
    return count;
  }

  [[nodiscard]] std::size_t max_fanout() const {
    std::size_t fanout = 0;
    for (const auto& round : rounds) {
      for (const auto& tx : round) {
        fanout = std::max(fanout, tx.receivers.size());
      }
    }
    return fanout;
  }

  [[nodiscard]] bool is_telephone() const { return max_fanout() <= 1; }
};

/// Every round of `schedule` read through `model::RoundCursor`: rounds[t]
/// holds round t's tuples in stored order.
inline std::vector<std::vector<model::Tx>> rounds_of(
    const model::Schedule& schedule) {
  std::vector<std::vector<model::Tx>> rounds;
  for (model::RoundCursor round(schedule); round.next();) {
    rounds.emplace_back(round.txs().begin(), round.txs().end());
  }
  return rounds;
}

/// The same rounds as owning tuples, comparable with
/// `ReferenceSchedule::rounds`.
inline std::vector<std::vector<model::Transmission>> transmissions_of(
    const model::Schedule& schedule) {
  std::vector<std::vector<model::Transmission>> rounds;
  for (model::RoundCursor round(schedule); round.next();) {
    auto& out = rounds.emplace_back();
    for (const model::Tx& tx : round.txs()) {
      const auto d = schedule.receivers(tx);
      out.push_back({tx.message, tx.sender, {d.begin(), d.end()}});
    }
  }
  return rounds;
}

}  // namespace mg::test
