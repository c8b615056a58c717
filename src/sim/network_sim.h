// Round-based network simulator.  Where the model validator *enforces* the
// communication rules, the simulator *executes* a schedule and reports what
// the network observes: per-node knowledge curves, completion times, an
// event stream (`SimOptions::sink`), and behaviour under injected faults.
// Faults come from a composable `fault::FaultPlan` (seeded probabilistic
// link drops, deterministic drop sets, crash-stop processors, per-edge
// delivery delay); gossip completion then degrades, which the adversarial
// fault tests assert, and `gossip::solve_with_recovery` repairs.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.h"
#include "graph/graph.h"
#include "model/comm_model.h"
#include "model/schedule.h"
#include "obs/trace.h"
#include "support/bitset.h"

namespace mg::sim {

using graph::Vertex;
using model::Message;

struct SimOptions {
  /// Composable fault model applied to the run; nullptr = fault-free.
  const fault::FaultPlan* faults = nullptr;
  /// Absolute round of this schedule's round 0 from the fault plan's point
  /// of view.  `solve_with_recovery` sets this so faults keep firing at
  /// plan-absolute rounds while recovery schedules execute after the base
  /// schedule's horizon.
  std::size_t fault_round_offset = 0;
  /// Event stream: every send/receive event is pushed here as it happens
  /// ("send" carries the fan-out |D|), and so is every fault loss — "drop"
  /// (link drop), "crash" (sender dead), "skip" (sender never received the
  /// message: a drop's downstream cascade) and "lost" (receiver dead at
  /// arrival).  Fault kinds carry the same fields as the send/receive they
  /// suppressed, so a round-timeline sink (see gossip/timeline.h) can
  /// attribute every loss to its round.  nullptr disables streaming.
  obs::TraceSink* sink = nullptr;
  /// Communication model the network executes under; nullptr = the paper's
  /// multicast model.  Exclusive-receiver models (multicast, telephone,
  /// direct) all execute identically — the simulator applies deliveries, it
  /// does not re-check legality (that is the validator's job).  Under a
  /// collision-loss model (radio, beep) a delivery is destroyed when the
  /// receiver transmitted in the same round (half-duplex) or hears more
  /// than one transmission: counted in `collided_receives`, streamed to the
  /// sink as "collide" at the send round.  Collisions are judged at the
  /// send round, before per-edge delay faults displace arrival times — a
  /// collision is a channel event, not a delivery event.
  const model::CommModel* comm = nullptr;
};

struct SimResult {
  /// True when every node ends holding all messages.
  bool completed = false;
  /// Latest receive time of a delivered (non-dropped, non-lost)
  /// transmission; includes per-edge delay.
  std::size_t total_time = 0;
  /// Per-node earliest time the hold set became complete (0 if never).
  std::vector<std::size_t> completion_time;
  /// knowledge[t] = total number of (node, message) pairs known at time t;
  /// one entry per time unit through the last arrival.
  std::vector<std::size_t> knowledge;
  /// Per-node count of messages still missing at the end.
  std::vector<std::size_t> missing;
  /// Transmissions skipped because the sender did not hold the message —
  /// the downstream cascade of an injected drop.
  std::size_t skipped_sends = 0;
  /// Transmissions suppressed by the fault model (deterministic +
  /// probabilistic link drops).
  std::size_t injected_drops = 0;
  /// Transmissions suppressed because the sender had crashed.
  std::size_t crashed_sends = 0;
  /// Point-to-point deliveries lost because the receiver was dead (or died
  /// in flight) at arrival time.
  std::size_t lost_receives = 0;
  /// Deliveries destroyed by receiver-side collisions (superimposed
  /// arrivals or a half-duplex transmitter) — always 0 unless
  /// `SimOptions::comm` is a collision-loss model.
  std::size_t collided_receives = 0;
  /// Final per-node hold sets (row v, bit m = node v knows message m) —
  /// the input for gossip recovery after a faulty run.  The run's own hold
  /// matrix, moved out.
  BitMatrix final_holds;

  /// Field-for-field equality: two runs observed the same execution.
  [[nodiscard]] bool operator==(const SimResult&) const = default;
};

/// Executes `schedule` on network `g`.  `initial[v]` is the message held by
/// v at time 0 (empty = identity).  Unlike the validator this does not
/// enforce the conflict rules — pair it with validate_schedule when the
/// schedule's legality is in question.  It does apply the physical
/// constraint that a node cannot transmit a message it never received, so
/// injected drops cascade realistically (`skipped_sends`).
[[nodiscard]] SimResult simulate(const graph::Graph& g,
                                 const model::Schedule& schedule,
                                 const std::vector<Message>& initial = {},
                                 const SimOptions& options = {});

/// Same execution semantics, but starting from arbitrary per-node hold
/// *sets* (row v of `initial_holds` has one bit per message; one row per
/// vertex).  This is the form recovery needs: a repair schedule resumes
/// from the degraded state a faulty run left behind.  Completion means
/// every node holds all `initial_holds.bits()` messages.
[[nodiscard]] SimResult simulate_from_holds(const graph::Graph& g,
                                            const model::Schedule& schedule,
                                            BitMatrix initial_holds,
                                            const SimOptions& options = {});

}  // namespace mg::sim
