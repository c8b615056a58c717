#include "sim/network_sim.h"

#include <algorithm>
#include <bit>

#include "obs/registry.h"
#include "obs/span.h"
#include "support/bitset.h"
#include "support/contracts.h"

namespace mg::sim {

/// Word-at-a-time execution core.  The hold state is one n x W bit matrix
/// (W = ceil(message_count / 64)): a delivery is a single OR +
/// popcount-free knowledge update, initial knowledge arrives popcounted,
/// and in-flight arrivals live in a reused modular ring instead of a
/// horizon-sized vector-of-vectors.  The allocation profile is O(1) vectors
/// per run however large n gets, and the matrix itself becomes
/// `SimResult::final_holds`.  tests/reference_sim.h keeps a per-bit
/// executor of the same semantics as the oracle; sim_core_test pins every
/// result field and the sink's JSONL against it.
SimResult simulate_from_holds(const graph::Graph& g,
                              const model::Schedule& schedule, BitMatrix holds,
                              const SimOptions& options) {
  MG_OBS_SPAN(sim_span, "sim.simulate");
  MG_OBS_SCOPE_HIST(sim_hist, "sim.run_ns");
  const Vertex n = g.vertex_count();
  MG_EXPECTS(holds.rows() == n);
  const std::size_t message_count = holds.bits();
  // Raw words for the delivery loops: row v starts at v * words.
  std::uint64_t* const hold = holds.data();
  const std::size_t words = holds.row_words();
  std::vector<std::size_t> known(n);
  for (Vertex v = 0; v < n; ++v) known[v] = holds.count(v);
  SimResult result;
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
  const auto sender_holds_message = [&](Vertex v, Message m) {
    return ((hold[static_cast<std::size_t>(v) * words + (m >> 6)] >>
             (m & 63)) &
            1) != 0;
  };

  std::size_t total_known = 0;
  for (Vertex v = 0; v < n; ++v) total_known += known[v];

  // Causal stamps for sink events: a process-unique id per transmission
  // that hits the wire, and per (node, message) the id of the first emitted
  // delivery — the happens-before parent of any later relay by that node
  // (0 = held initially).  Allocated only when a sink observes the run.
  std::uint64_t next_trace = 0;
  std::vector<std::uint64_t> first_arrival(
      options.sink != nullptr ? static_cast<std::size_t>(n) * message_count
                              : 0,
      0);

  const std::size_t rounds = schedule.round_count();
  const std::size_t max_delay = plan != nullptr ? plan->max_extra_delay() : 0;
  const std::size_t horizon = rounds + max_delay;

  // Arrival buckets in a modular ring: when time t is applied every
  // pending arrival lies in [t, t + max_delay + 1], so max_delay + 2 slots
  // never collide — and the buckets are reused across the whole run.  The
  // size is rounded up to a power of two so the per-delivery index is a
  // mask, not a hardware division.
  const std::size_t ring_size = std::bit_ceil(max_delay + 2);
  const std::size_t ring_mask = ring_size - 1;
  std::vector<std::vector<std::pair<Vertex, Message>>> ring(ring_size);
  std::uint64_t word_ops = 0;  // delivery ORs applied to the hold matrix
  auto apply_arrivals = [&](std::size_t receive_time) {
    auto& bucket = ring[receive_time & ring_mask];
    for (const auto& [r, m] : bucket) {
      std::uint64_t& w =
          hold[static_cast<std::size_t>(r) * words + (m >> 6)];
      const std::uint64_t mask = std::uint64_t{1} << (m & 63);
      ++word_ops;
      if ((w & mask) == 0) {
        w |= mask;
        ++known[r];
        ++total_known;
        if (known[r] == message_count) {
          result.completion_time[r] = receive_time;
        }
      }
    }
    bucket.clear();
  };

  std::uint64_t deliveries = 0;
  result.knowledge.reserve(rounds + 1);
  result.knowledge.push_back(total_known);  // state at time 0

  // Fault-free, unobserved runs — the repeated-runner configuration — take a
  // stripped copy of the round loop below with the plan, sink and collision
  // branches statically absent.  The copy stays because it pays: sent
  // through the general loop, fault-free ConcurrentUpDown runs on n = 1024
  // networks took 25% longer (Release build).  sim_core_test runs every
  // sweep case with and without a sink, so both loops meet the reference
  // executor.
  const bool fast_path =
      plan == nullptr && options.sink == nullptr && !collisions;
  model::RoundCursor cursor(schedule);
  if (fast_path) {
    while (cursor.next()) {
      const std::size_t t = cursor.index();
      if (t > 0) {
        apply_arrivals(t);
        result.knowledge.push_back(total_known);  // state at time t
      }
      auto& bucket = ring[(t + 1) & ring_mask];
      for (const model::Tx& tx : cursor.txs()) {
        MG_EXPECTS(tx.sender < n);
        MG_EXPECTS(tx.message < message_count);
        const bool sender_holds =
            (hold[static_cast<std::size_t>(tx.sender) * words +
                  (tx.message >> 6)] >>
             (tx.message & 63)) &
            1;
        if (!sender_holds) {
          ++result.skipped_sends;  // fault cascade: nothing to forward
          continue;
        }
        const auto receivers = schedule.receivers(tx);
        for (Vertex r : receivers) {
          MG_EXPECTS(r < n);
          bucket.emplace_back(r, tx.message);
        }
        deliveries += receivers.size();
        if (!receivers.empty()) {
          result.total_time = std::max(result.total_time, t + 1);
        }
      }
    }
  }
  while (!fast_path && cursor.next()) {
    const std::size_t t = cursor.index();
    const std::span<const model::Tx> round = cursor.txs();
    if (t > 0) {
      apply_arrivals(t);
      result.knowledge.push_back(total_known);  // state at time t
    }
    const std::size_t abs_t = offset + t;
    if (collisions) {
      // Channel pre-pass: who actually transmits this round (the same
      // crash/drop/hold verdicts as the delivery loop below — all pure
      // queries) and how many transmissions each receiver hears.
      for (const model::Tx& tx : round) {
        if (plan != nullptr && (plan->crashed(tx.sender, abs_t) ||
                                plan->drops(abs_t, tx.sender))) {
          continue;
        }
        if (!sender_holds_message(tx.sender, tx.message)) continue;
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
    for (const model::Tx& tx : round) {
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
      MG_EXPECTS(tx.sender < n);
      MG_EXPECTS(tx.message < message_count);
      const bool sender_holds =
          (hold[static_cast<std::size_t>(tx.sender) * words +
                (tx.message >> 6)] >>
           (tx.message & 63)) &
          1;
      if (!sender_holds) {
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
        MG_EXPECTS(r < n);
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
          if (first_arrival[fa] == 0 &&
              !sender_holds_message(r, tx.message)) {
            first_arrival[fa] = send_trace;
          }
        }
        ++deliveries;
        ring[arrival & ring_mask].emplace_back(r, tx.message);
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
  result.final_holds = std::move(holds);

  MG_OBS_ADD("sim.runs", 1);
  MG_OBS_ADD("sim.deliveries", deliveries);
  MG_OBS_ADD("sim.words_or_ops", word_ops);
  MG_OBS_ADD("sim.dropped_transmissions", result.injected_drops);
  MG_OBS_ADD("sim.skipped_sends", result.skipped_sends);
  if (result.collided_receives > 0) {
    MG_OBS_ADD("sim.collided_receives", result.collided_receives);
  }
  if (result.injected_drops > 0) {
    MG_OBS_ADD("fault.injected_drops", result.injected_drops);
  }
  if (plan != nullptr && plan->has_crashes()) {
    MG_OBS_ADD("fault.crashes", plan->crashes_before(offset + rounds));
  }
  if (result.completed && !result.completion_time.empty()) {
    MG_OBS_ADD("sim.completion_round",
               *std::max_element(result.completion_time.begin(),
                                 result.completion_time.end()));
  }
  return result;
}

SimResult simulate(const graph::Graph& g, const model::Schedule& schedule,
                   const std::vector<Message>& initial,
                   const SimOptions& options) {
  const Vertex n = g.vertex_count();
  MG_EXPECTS(initial.empty() || initial.size() == n);
  BitMatrix holds(n, n);
  for (Vertex v = 0; v < n; ++v) holds.set(v, initial.empty() ? v : initial[v]);
  return simulate_from_holds(g, schedule, std::move(holds), options);
}

}  // namespace mg::sim
