// Round-synchronized actor runtime: the distributed online execution of §4.
//
// `ActorRuntime` runs n `ProcessorActor`s with no global coordinator: every
// round each actor reads only its own mailbox, updates its local state, and
// decides its transmission from its local rule.  The runtime supplies just
// the physical fabric — the round barrier, message routing (with the
// fault plan's drops / crash-stop / per-edge delays applied exactly as
// `sim::simulate` applies them, at the same absolute round indices), and
// deterministic delivery order under a seed — plus passive capture: the
// emergent `model::Schedule`, trace events for a `gossip::RoundTimeline`
// sink, and `dist.*` observability counters.
//
// Phases per main round t:
//   1. barrier flip           — arrivals due at t become readable
//                               (deterministic canonical-sort +
//                               seeded-shuffle order);
//   2. decide                 — actors absorb their inbox and decide, in
//                               parallel across the worker pool (actor
//                               state is strictly per-actor and the bus is
//                               only read, so no locks are needed here);
//   3. fault + capture + post — the runtime applies crash/drop/skip
//                               verdicts in actor-id order, records events
//                               and the emergent schedule, and posts each
//                               surviving envelope straight into its
//                               receiver's arrival slot (serial: the only
//                               writer of the bus, and deterministic).
// Each recovery subround (digest, grant, data) runs the same three phases.
//
// After the planned horizon, incomplete live actors run the decentralized
// digest / grant / data recovery protocol (see actor.h) until quiescence,
// completion, or budget exhaustion.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dist/actor.h"
#include "dist/mailbox.h"
#include "fault/fault.h"
#include "gossip/instance.h"
#include "gossip/recovery.h"
#include "gossip/solve.h"
#include "graph/graph.h"
#include "model/schedule.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "support/bitset.h"

namespace mg::dist {

struct RuntimeOptions {
  /// Fault plan applied by the fabric (nullptr = fault-free).  Rounds are
  /// absolute: main round t is round t, recovery cycle q is round
  /// horizon + q — the same convention `gossip::solve_with_recovery` uses.
  const fault::FaultPlan* faults = nullptr;
  /// Worker threads for the decide phases; 0 = run serially.
  std::size_t threads = 0;
  /// Seed for the bus's adversarial (but reproducible) delivery order.
  std::uint64_t seed = 0x5eed;
  /// Run the decentralized recovery protocol after the horizon when live
  /// actors are still missing messages.
  bool recover = true;
  /// Cap on recovery data rounds (0 = until quiescence, with an internal
  /// 4n^2 + 16 hard ceiling against pathological all-drop plans).
  std::size_t extra_round_budget = 0;
  /// Receives send/receive/drop/crash/skip/lost events with the same kinds
  /// and times `sim::simulate` emits — a `gossip::RoundTimeline` plugs in
  /// directly.  Events are emitted from the serial capture phase only.
  obs::TraceSink* sink = nullptr;
};

/// One logical transmission in the happens-before record.  `id`s are
/// 1-based and process-unique within one run; `parent` is the trace id of
/// the transmission whose arrival made this send informative — for data
/// sends the arrival that first delivered the payload to the sender (0 =
/// the sender held it initially: a root cause), for digests the most
/// recent hold-changing data arrival, for grants the chosen digest.
struct CausalLink {
  /// Same codes as obs::FlowEvent's kinds.
  enum class Kind : std::uint8_t {
    kData = 0,    ///< main-phase data multicast
    kRepair = 1,  ///< recovery data round
    kDigest = 2,  ///< recovery digest fan-out
    kGrant = 3,   ///< recovery grant
  };
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  Kind kind = Kind::kData;
  std::size_t round = 0;  ///< absolute send round
  graph::Vertex sender = 0;
  /// Payload (data), announced offer (digest; kNoOffer for none),
  /// requested id (grant).
  model::Message message = 0;
  std::size_t fanout = 0;
};

/// What one distributed run produced: the end-of-run verdict
/// (`gossip::hold_verdict` on `final_holds`, the one `solve_with_recovery`
/// gives) plus the run's schedules, counters and happens-before record.
struct RunReport : gossip::HoldVerdict {
  /// Transmissions that actually hit the wire in rounds 0..horizon-1.  On
  /// a fault-free run this is the schedule that *emerged* from the actors —
  /// the differential gate compares it round-for-round with the central one.
  model::Schedule emergent;
  /// Emergent repair transmissions, local round q = recovery cycle q.
  model::Schedule repair;
  std::size_t horizon = 0;          ///< main-phase rounds executed
  std::size_t recovery_rounds = 0;  ///< recovery data rounds executed
  std::size_t messages = 0;         ///< data transmissions sent (main+repair)
  std::size_t deliveries = 0;       ///< point-to-point data deliveries
  std::size_t control_messages = 0; ///< recovery digests + grants
  std::size_t injected_drops = 0;
  std::size_t crashed_sends = 0;
  std::size_t skipped_sends = 0;
  std::size_t lost_receives = 0;
  BitMatrix main_holds;   ///< hold sets at end of main phase, row per actor
  BitMatrix final_holds;  ///< hold sets at end of run, row per actor
  /// Happens-before record: one link per transmission that hit the wire
  /// (data, repair data, digest, grant), in capture order.  Always
  /// recorded in full, also with MG_OBS compiled out; `critical_path` and
  /// `flow_events` read it.
  std::vector<CausalLink> causal;
};

/// The longest causal chain in a run's happens-before record: the lower
/// bound on the rounds the run *had* to take given where information
/// actually flowed.
struct CriticalPath {
  /// Arrival time of the chain's last data hop (its send round + 1).  On a
  /// fault-free ConcurrentUpDown run this equals n + r exactly (the
  /// Theorem 1 bound is causally tight); under injected drops it grows by
  /// precisely the recovery data rounds executed.
  std::size_t length = 0;
  /// The chain, root first.  Every hop's parent is the previous hop, the
  /// first hop's parent is 0 (a message held initially), and rounds are
  /// strictly increasing.
  std::vector<CausalLink> hops;
};

/// Extracts the longest causal chain from `report.causal`.  Data hops
/// determine the length (control hops never extend arrival time past
/// their cycle's data round); ties prefer the later-captured link so the
/// recovery tail, when present, is the chain reported.
[[nodiscard]] CriticalPath critical_path(const RunReport& report);

/// `report.causal` as Chrome-trace flow events (obs/trace_export.h), one
/// per link in capture order.
[[nodiscard]] std::vector<obs::FlowEvent> flow_events(const RunReport& report);

class ActorRuntime {
 public:
  /// `instance` supplies the tree/labeling context (kept by reference);
  /// `network` is the full network the recovery protocol may route over.
  ActorRuntime(const gossip::Instance& instance, const graph::Graph& network,
               const RuntimeOptions& options);
  ~ActorRuntime();

  ActorRuntime(const ActorRuntime&) = delete;
  ActorRuntime& operator=(const ActorRuntime&) = delete;

  /// Equips every actor with the §4 online rule — behaviour computed from
  /// (i, j, k, n) alone; the ConcurrentUpDown schedule emerges.
  void use_online_rule();

  /// Equips every actor with only its own rows of `schedule` (the
  /// dissemination reading of §4, for algorithms without a closed-form
  /// local rule).
  void use_timetable(const model::Schedule& schedule);

  /// Executes `horizon` main rounds plus (optionally) recovery.  Call once.
  [[nodiscard]] RunReport run(std::size_t horizon);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Differential verdict: emergent vs centrally computed schedule.
struct VerifyReport {
  bool match = false;          ///< round-for-round transmission equality
  bool n_plus_r_ok = false;    ///< emergent spans exactly n + r rounds
  std::size_t central_rounds = 0;
  std::size_t emergent_rounds = 0;
  /// First differing round (SIZE_MAX when match), with a human-readable
  /// account of the difference in `detail`.
  std::size_t first_mismatch_round = static_cast<std::size_t>(-1);
  std::string detail;
};

/// Round-for-round comparison of the emergent schedule against the central
/// one, plus the Theorem 1 check (`n_plus_r_ok` is only a meaningful gate
/// for fault-free ConcurrentUpDown runs).
[[nodiscard]] VerifyReport verify_against_schedule(
    const model::Schedule& central, const model::Schedule& emergent,
    graph::Vertex n, std::uint32_t radius);

/// End-to-end driver: solve centrally (reference), run the decentralized
/// actors (online rule for ConcurrentUpDown, per-actor timetable slices
/// otherwise), and compare.
struct DistOutcome {
  gossip::Solution central;  ///< centrally computed reference solution
  RunReport run;             ///< the emergent decentralized execution
  VerifyReport verify;       ///< differential verdict (fault-free gate)
};

[[nodiscard]] DistOutcome run_distributed(const graph::Graph& g,
                                          gossip::Algorithm algorithm,
                                          const RuntimeOptions& options = {});

}  // namespace mg::dist
