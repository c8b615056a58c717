// The simulator as it stood before the word-at-a-time core: one heap
// `DynamicBitset` per processor, a per-bit test/set per delivery and a
// horizon-sized vector of arrival buckets.  Kept verbatim, minus the
// deleted `SimOptions` fields and the obs counters (the simulator under
// test records those), as the oracle that tests/sim_core_test.cpp compares
// every `SimResult` field and the sink's JSONL of
// `sim::simulate(_from_holds)` against.  Only its boundary converts: the
// hold matrix to per-node bitsets on entry, and back on exit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "dynamic_bitset.h"
#include "fault/fault.h"
#include "graph/graph.h"
#include "model/schedule.h"
#include "reference_schedule.h"
#include "sim/network_sim.h"
#include "support/bitset.h"

namespace mg::test {

/// Executes `schedule` on `g` from the per-node hold sets `holds`;
/// completion means every node holds all `holds.bits()` messages.  Same
/// contract as `sim::simulate_from_holds`.
inline sim::SimResult reference_simulate_from_holds(
    const graph::Graph& g, const model::Schedule& schedule,
    const BitMatrix& holds, const sim::SimOptions& options = {}) {
  using graph::Vertex;
  using model::Message;
  const Vertex n = g.vertex_count();
  const std::size_t message_count = holds.bits();
  std::vector<DynamicBitset> hold = rows_of(holds);
  sim::SimResult result;
  result.completion_time.assign(n, 0);
  result.missing.assign(n, 0);

  // Plan queries use absolute rounds (offset + local round) so recovery
  // runs experience the same fabric the base run did.
  const fault::FaultPlan* plan =
      options.faults != nullptr && !options.faults->empty() ? options.faults
                                                            : nullptr;
  const std::size_t offset = options.fault_round_offset;
  const bool collisions =
      options.comm != nullptr && options.comm->collision_loss();
  // Round-stamped channel state for the collision verdict, sized only when
  // a collision-loss model is active — the default path allocates nothing.
  std::vector<std::size_t> last_tx(collisions ? n : 0, SIZE_MAX);
  std::vector<std::size_t> heard_round(collisions ? n : 0, SIZE_MAX);
  std::vector<std::uint8_t> heard_count(collisions ? n : 0, 0);

  std::vector<std::size_t> known(n, 0);
  std::size_t total_known = 0;
  for (Vertex v = 0; v < n; ++v) {
    known[v] = hold[v].count();
    total_known += known[v];
  }

  // Causal stamps for sink events: a process-unique id per transmission
  // that hits the wire, and per (node, message) the id of the first emitted
  // delivery — the happens-before parent of any later relay by that node
  // (0 = held initially).  Allocated only when a sink observes the run; the
  // sink-free paths pay nothing.
  std::uint64_t next_trace = 0;
  std::vector<std::uint64_t> first_arrival(
      options.sink != nullptr ? static_cast<std::size_t>(n) * message_count
                              : 0,
      0);

  const std::size_t rounds = schedule.round_count();
  const std::vector<std::vector<model::Tx>> round_txs = rounds_of(schedule);
  const std::size_t horizon =
      rounds + (plan != nullptr ? plan->max_extra_delay() : 0);

  // Deliveries land at send round + 1 + edge delay (receive-before-send):
  // buffer arrivals by time and apply them before that round's sends.
  std::vector<std::vector<std::pair<Vertex, Message>>> in_flight(horizon + 1);
  auto apply_arrivals = [&](std::size_t receive_time) {
    for (const auto& [r, m] : in_flight[receive_time]) {
      if (!hold[r].test(m)) {
        hold[r].set(m);
        ++known[r];
        ++total_known;
        if (known[r] == message_count) {
          result.completion_time[r] = receive_time;
        }
      }
    }
    in_flight[receive_time].clear();
  };

  result.knowledge.push_back(total_known);  // state at time 0
  for (std::size_t t = 0; t < rounds; ++t) {
    if (t > 0) {
      apply_arrivals(t);
      result.knowledge.push_back(total_known);  // state at time t
    }
    const std::size_t abs_t = offset + t;
    if (collisions) {
      // Channel pre-pass: who actually transmits this round (the same
      // crash/drop/hold verdicts as the delivery loop below — all pure
      // queries) and how many transmissions each receiver hears.
      for (const model::Tx& tx : round_txs[t]) {
        if (plan != nullptr && plan->crashed(tx.sender, abs_t)) continue;
        if (plan != nullptr && plan->drops(abs_t, tx.sender)) continue;
        if (!hold[tx.sender].test(tx.message)) continue;
        last_tx[tx.sender] = t;
        for (Vertex r : schedule.receivers(tx)) {
          if (heard_round[r] != t) {
            heard_round[r] = t;
            heard_count[r] = 0;
          }
          if (heard_count[r] < 2) ++heard_count[r];
        }
      }
    }
    for (const model::Tx& tx : round_txs[t]) {
      const auto receivers = schedule.receivers(tx);
      const Vertex first_receiver =
          receivers.empty() ? tx.sender : receivers.front();
      if (plan != nullptr && plan->crashed(tx.sender, abs_t)) {
        ++result.crashed_sends;
        if (options.sink != nullptr) {
          options.sink->on_event({"crash", t, tx.sender, tx.message,
                                  first_receiver, receivers.size()});
        }
        continue;
      }
      if (plan != nullptr && plan->drops(abs_t, tx.sender)) {
        ++result.injected_drops;
        if (options.sink != nullptr) {
          options.sink->on_event({"drop", t, tx.sender, tx.message,
                                  first_receiver, receivers.size()});
        }
        continue;
      }
      if (!hold[tx.sender].test(tx.message)) {
        ++result.skipped_sends;  // fault cascade: nothing to forward
        if (options.sink != nullptr) {
          options.sink->on_event({"skip", t, tx.sender, tx.message,
                                  first_receiver, receivers.size()});
        }
        continue;
      }
      std::uint64_t send_trace = 0;
      if (options.sink != nullptr) {
        send_trace = ++next_trace;
        options.sink->on_event(
            {"send", t, tx.sender, tx.message, first_receiver,
             receivers.size(), send_trace,
             first_arrival[static_cast<std::size_t>(tx.sender) *
                               message_count +
                           tx.message]});
      }
      for (Vertex r : receivers) {
        if (collisions && (last_tx[r] == t || heard_count[r] >= 2)) {
          // heard_round[r] == t is guaranteed: this very transmission was
          // counted in the pre-pass.  The receiver decodes nothing — either
          // it was itself transmitting (half-duplex) or >= 2 transmissions
          // superimposed.
          ++result.collided_receives;
          if (options.sink != nullptr) {
            options.sink->on_event(
                {"collide", t, r, tx.message, tx.sender, 0});
          }
          continue;
        }
        const std::size_t arrival =
            t + 1 +
            (plan != nullptr ? plan->extra_delay(tx.sender, r) : 0);
        if (plan != nullptr && plan->crashed(r, offset + arrival)) {
          ++result.lost_receives;  // receiver dead (or dies in flight)
          if (options.sink != nullptr) {
            options.sink->on_event(
                {"lost", arrival, r, tx.message, tx.sender, 0});
          }
          continue;
        }
        result.total_time = std::max(result.total_time, arrival);
        if (options.sink != nullptr) {
          options.sink->on_event({"receive", arrival, r, tx.message,
                                  tx.sender, 0, send_trace});
          const std::size_t fa =
              static_cast<std::size_t>(r) * message_count + tx.message;
          if (first_arrival[fa] == 0 && !hold[r].test(tx.message)) {
            first_arrival[fa] = send_trace;
          }
        }
        in_flight[arrival].emplace_back(r, tx.message);
      }
    }
  }
  // Drain: arrivals at and past the last send round (delays can push the
  // final deliveries past the schedule's own horizon).
  for (std::size_t t = std::max<std::size_t>(rounds, 1); t <= horizon; ++t) {
    apply_arrivals(t);
    result.knowledge.push_back(total_known);  // state at time t
  }

  result.completed = true;
  for (Vertex v = 0; v < n; ++v) {
    result.missing[v] = message_count - known[v];
    if (result.missing[v] != 0) result.completed = false;
  }
  result.final_holds = matrix_of(hold, message_count);
  return result;
}

}  // namespace mg::test
