// Gossip completion from an arbitrary knowledge state ("set gossiping")
// and the self-healing driver built on it.
//
// The paper's schedules are fixed offline plans; the simulator shows that a
// dropped transmission leaves part of the network permanently starved.
// This module provides the repair in two layers:
//
//  * `greedy_completion_schedule` / `partial_completion_schedule` — given
//    per-processor hold sets after a faulty run, build a fresh schedule
//    that finishes the gossip on the *original network* (not just the tree
//    — recovery may route around a lossy branch).  The builder is a greedy
//    maximal-multicast flood: each round, every processor picks the held
//    message wanted by the most still-free needy neighbors (smallest id on
//    ties), conflicts resolved greedily; it terminates because some
//    wanting receiver with a knowing neighbor always exists while any
//    reachable gap remains.  The wanted counts are bit-sliced counters
//    over 64-message words (`gossip::WantCounts`, shared with the
//    decentralized recovery of `mg::dist`), so a round costs
//    O(m · ⌈messages/64⌉ · log Δ) word operations (Δ = maximum degree).  The
//    partial form accepts dead processors and disconnected survivor
//    graphs: each component floods to its *achievable closure* (the union
//    of what its members know) and unreachable gaps are reported, not
//    asserted.
//
//  * `solve_with_recovery` — the end-to-end self-healing driver: run a
//    schedule under a `fault::FaultPlan`, detect incompleteness from
//    `SimResult::missing`, and close the gap with bounded retry rounds of
//    the greedy completion builder.  Repairs execute under the *same*
//    fault plan at absolute round offsets (the fabric does not politely
//    stop dropping because we are recovering), so several attempts may be
//    needed; a crash-partitioned network degrades to an accurate
//    partial-coverage report instead of an assertion.
#pragma once

#include <utility>
#include <vector>

#include "fault/fault.h"
#include "gossip/solve.h"
#include "graph/graph.h"
#include "model/schedule.h"
#include "sim/network_sim.h"
#include "support/bitset.h"

namespace mg::gossip {

/// Greedy completion schedule: from hold-state `holds` (one row per
/// processor, `holds.bits()` messages; bit m of row v set when v knows
/// message m), produce a schedule after which every processor holds every
/// message.  Requires a connected graph and every message known somewhere
/// (ContractViolation otherwise — use partial_completion_schedule to
/// degrade gracefully).
[[nodiscard]] model::Schedule greedy_completion_schedule(
    const graph::Graph& g, const BitMatrix& holds);

/// Graceful form: processors with alive[v] == 0 neither send nor receive,
/// and each connected component of the surviving subgraph floods only to
/// its achievable closure (messages known to at least one live member).
/// Never throws on partition or globally-unknown messages; an empty
/// `alive` means everyone is alive.  The returned schedule is empty iff
/// the state is already closed.
[[nodiscard]] model::Schedule partial_completion_schedule(
    const graph::Graph& g, const BitMatrix& holds,
    const std::vector<char>& alive = {});

/// Convenience: hold-state -> initial sets for validate_schedule_general.
[[nodiscard]] std::vector<std::vector<model::Message>> holds_to_initial_sets(
    const BitMatrix& holds);

/// How far a hold state got: the end-of-run verdict of both self-healing
/// drivers, whose reports (`RecoveryOutcome`, `dist::RunReport`) derive
/// from it.  `complete` is the strong condition (some processor is live and every
/// live one holds all messages); `recovered` is the achievable one (every
/// live processor holds everything known within its surviving component —
/// all a repair can ever deliver when crashes ate messages or split the
/// network).  With no live processor a run is not complete, is recovered
/// and covers 0.
struct HoldVerdict {
  bool complete = false;
  bool recovered = false;
  /// Fraction of (live processor, message) pairs held (1.0 when complete).
  double coverage = 1.0;
  std::vector<graph::Vertex> crashed;  ///< processors dead by end of run
  std::vector<std::size_t> missing;    ///< per-processor missing counts
};

/// The verdict on `holds` (one row per processor of `g`) when the
/// processors with alive[v] == 0 are dead.
[[nodiscard]] HoldVerdict hold_verdict(const graph::Graph& g,
                                       const BitMatrix& holds,
                                       const std::vector<char>& alive);

/// Knobs for the self-healing driver.
struct RecoveryOptions {
  /// Base schedule generator (the thing being healed).
  Algorithm algorithm = Algorithm::kConcurrentUpDown;
  /// Maximum number of recovery invocations (greedy repair + re-simulate)
  /// before giving up and reporting partial coverage.
  std::size_t max_attempts = 4;
  /// Cap on total extra rounds across all repairs (0 = unbounded).  A
  /// repair schedule is truncated to the remaining budget.
  std::size_t extra_round_budget = 0;
  /// When true (default) repairs run under the same fault plan at absolute
  /// round offsets; when false the fabric heals after the base run.
  bool faults_during_recovery = true;
};

/// What the self-healing run produced: the verdict on the final holds
/// (`hold_verdict`), plus the runs and repairs that led there.
struct RecoveryOutcome : HoldVerdict {
  explicit RecoveryOutcome(Solution base_solution)
      : base(std::move(base_solution)) {}

  Solution base;               ///< base schedule + its (fault-free) validation
  sim::SimResult faulty_run;   ///< the base schedule under the plan
  std::vector<model::Schedule> repairs;  ///< repair schedules, in order
  std::size_t attempts = 0;       ///< recovery invocations performed
  std::size_t extra_rounds = 0;   ///< total repair rounds simulated
  bool repairs_valid = true;   ///< every repair passed the model validator
};

/// Runs `options.algorithm` on connected network `g` under `plan`,
/// simulating on the spanning tree as the paper prescribes, then heals on
/// the full network until complete, closed, or out of budget.  Message ids
/// in the outcome are DFS labels (see Solution).
[[nodiscard]] RecoveryOutcome solve_with_recovery(
    const graph::Graph& g, const fault::FaultPlan& plan,
    const RecoveryOptions& options = {});

}  // namespace mg::gossip
