// Processor actors for the distributed online execution of §4.
//
// Each `ProcessorActor` is one processor: it owns its hold set, its local
// decision rule, and its recovery-protocol state, and it touches nothing
// global — the runtime only ever hands it its own inbox.  Two decision
// rules exist:
//
//  * `OnlineRule` — the paper's §4 claim made literal: the actor's entire
//    main-phase behaviour is computed from `(i, j, k, n)` (plus the
//    locally-known parent/child ids) via `gossip::OnlineProcessor`.  No
//    schedule is ever shipped to the actor; the ConcurrentUpDown schedule
//    *emerges* from n independent actors exchanging messages.
//
//  * `TimetableRule` — the weaker dissemination reading of §4 ("each
//    processor may send its messages at the specified times") used for the
//    algorithms without a closed-form local rule (Simple, UpDown,
//    Telephone): the actor receives only its *own* rows of the centrally
//    computed schedule.  The runtime still enforces the physical constraint
//    that an actor cannot forward a message it never received, so fault
//    cascades emerge exactly as in `sim::simulate`.
//
// Decentralized recovery (after the planned horizon) is a three-subround
// digest / grant / data cycle per repair round — every decision is local,
// made from the actor's own holds and the digests the bus delivered to it:
//
//  1. digest — every live actor multicasts its hold bitmap to its network
//     neighbors: it snapshots its hold row once into its own row of the
//     runtime's digest matrix and sends one digest envelope, viewing that
//     row, to its neighbor row.  The envelope's `message` announces the
//     actor's offer for the cycle: the held message the most of its
//     neighbors lacked in the digests it read last cycle, not counting the
//     (receiver, message) pairs it served then (kNoOffer before its first
//     data step, or when no neighbor lacked anything).  A neighbor whose
//     digest is missing is presumed crashed (heartbeat failure detection).
//  2. grant — an actor still missing messages reserves one neighbor with a
//     grant naming one wanted message.  A neighbor whose announced offer it
//     lacks comes first: among those, the largest total offer, then the
//     lowest id, and the grant requests the announced message.  With no
//     such neighbor it takes the largest total offer (ties: lowest id) and
//     requests the lowest message offered.  Offers are counted 64 messages
//     at a time, as popcount(digest & ~holds) per word; the same pass
//     counts, per held message, the neighbors whose digests lack it — next
//     cycle's offer.  One grant per receiver per cycle, so data-round D
//     sets are disjoint by construction — the emergent repair schedule is
//     model-valid.
//  3. data — each granted actor serves the held message the most of its
//     granters lack, judged from their digests of this cycle (ties: lowest
//     id), to exactly the granters that lack it.  A granter's requested
//     message is one it lacked when it granted, so its digest, older than
//     the grant, lacks it too: every granted actor delivers at least one
//     new (processor, message) pair, and the protocol reaches each
//     surviving component's achievable closure in finitely many rounds;
//     quiescence (no grants anywhere) is exactly closure, mirroring
//     `gossip::partial_completion_schedule`'s semantics without its
//     coordinator.  Both tallies are `gossip::WantCounts`, the central
//     planner's counter.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "dist/mailbox.h"
#include "gossip/online.h"
#include "gossip/want_counts.h"
#include "model/schedule.h"
#include "support/bitset.h"

namespace mg::dist {

/// A processor's per-round decision procedure.  `observe` sees every data
/// arrival (time, message, came-from-parent); `decide` is called once per
/// main-phase round after all of that round's arrivals were observed.
class LocalRule {
 public:
  virtual ~LocalRule() = default;
  virtual void observe(std::size_t t, model::Message m, bool from_parent) = 0;
  [[nodiscard]] virtual std::optional<model::Transmission> decide(
      std::size_t t) = 0;
};

/// The §4 online rule: ConcurrentUpDown from `(i, j, k, n)` alone.
class OnlineRule final : public LocalRule {
 public:
  explicit OnlineRule(gossip::LocalInfo info) : proc_(std::move(info)) {}

  void observe(std::size_t t, model::Message m, bool from_parent) override {
    proc_.deliver(t, m, from_parent);
  }

  [[nodiscard]] std::optional<model::Transmission> decide(
      std::size_t t) override {
    return proc_.send_at(t);
  }

 private:
  gossip::OnlineProcessor proc_;
};

/// The dissemination rule: the actor's own (t, message, D) rows of a
/// centrally computed schedule, replayed at the specified times.
class TimetableRule final : public LocalRule {
 public:
  /// A rule with no rows: the actor never sends.
  explicit TimetableRule(graph::Vertex self) : self_(self) {}

  /// The rules of processors 0 .. n - 1, each holding the rows whose sender
  /// it is, copied out of `schedule` in one pass over its rounds.
  [[nodiscard]] static std::vector<std::unique_ptr<TimetableRule>> for_all(
      const model::Schedule& schedule, graph::Vertex n);

  void observe(std::size_t, model::Message, bool) override {}

  [[nodiscard]] std::optional<model::Transmission> decide(
      std::size_t t) override;

 private:
  /// One own row; its D set is receivers_[first .. first + count).
  struct Row {
    std::size_t time = 0;
    model::Message message = 0;
    std::size_t first = 0;
    std::size_t count = 0;
  };

  graph::Vertex self_;
  std::vector<Row> rows_;
  std::vector<graph::Vertex> receivers_;
  std::size_t next_ = 0;
};

/// What an actor wants to put on the wire this round; the runtime applies
/// the fault plan, stamps trace ids, and posts it.  A control batch is one
/// envelope sent to a span of receivers, the way data is: a digest to the
/// actor's neighbor row, a grant to one granted neighbor.  Both spans point
/// into the actor and stay valid until its next step.
struct Outbox {
  std::optional<model::Transmission> data;  ///< main-phase or recovery data
  bool skipped = false;  ///< rule fired but the message was never received
  std::optional<Envelope> control;          ///< one digest or grant
  std::span<const graph::Vertex> control_to;  ///< receivers of `control`
  /// Causal parent of `data`: the trace id of the arrival that first gave
  /// this actor the message it is sending (0 = held initially).
  std::uint64_t data_cause = 0;
  /// Causal parent of the `control` batch: for a digest fan-out, the most
  /// recent hold-changing data arrival; for a grant, the chosen digest.
  std::uint64_t control_cause = 0;
};

class ProcessorActor {
 public:
  /// `neighbors` are the *network* neighbors (recovery routes around lossy
  /// tree branches, like the central repair builder).  `initial` is the
  /// message this processor starts with — its DFS label, NOT its vertex id.
  ProcessorActor(graph::Vertex self, graph::Vertex n, model::Message initial,
                 std::vector<graph::Vertex> neighbors,
                 std::unique_ptr<LocalRule> rule);

  [[nodiscard]] graph::Vertex id() const { return self_; }
  /// The hold set, as a one-row matrix of n bits.
  [[nodiscard]] const BitMatrix& holds() const { return holds_; }
  [[nodiscard]] std::size_t missing() const {
    return static_cast<std::size_t>(n_) - holds_.count(0);
  }
  [[nodiscard]] bool complete() const { return missing() == 0; }

  /// Main phase, one round: absorb this round's inbox, then decide.
  [[nodiscard]] Outbox step_main(std::size_t t,
                                 const std::vector<Envelope>& inbox);

  /// Tail of the main phase: absorb arrivals without deciding (the final
  /// sends of an R-round schedule arrive at time R, past the last decide).
  /// `learn`, then every data arrival is shown to the rule.
  void absorb(std::size_t t, const std::vector<Envelope>& inbox);

  /// Recovery-phase absorption: fold data arrivals into the hold set
  /// without feeding the (retired) main-phase rule.  Copies of one message
  /// in one inbox arrived together: its first arrival, the causal parent of
  /// any later relay, is the copy with the lowest trace id, and the next
  /// digest's parent is the highest first arrival of the latest inbox that
  /// brought anything new.
  void learn(const std::vector<Envelope>& inbox);

  // --- recovery subrounds (each reads the previous subround's inbox) ------

  /// Subround 1: copy the hold row into `snapshot` (this actor's row of the
  /// runtime's digest matrix) and multicast one envelope viewing it, and
  /// announcing the planned offer, to the neighbor row.
  [[nodiscard]] Outbox step_digest(std::span<std::uint64_t> snapshot);

  /// Subround 2: read neighbor digests, reserve the best offering neighbor
  /// (an announced offer this actor lacks first), and count what the
  /// neighbors lack of this actor's holds.  The digest views are kept for
  /// `step_data`: they stay valid until the next digest subround.
  [[nodiscard]] Outbox step_grant(const std::vector<Envelope>& inbox);

  /// Subround 3: read grants, serve the message the most granters' digests
  /// lack to exactly those granters, then plan the next cycle's offer.
  [[nodiscard]] Outbox step_data(const std::vector<Envelope>& inbox);

  /// True when the last `step_grant` found nothing to want from any live
  /// neighbor — this actor's local quiescence vote.
  [[nodiscard]] bool quiescent() const { return quiescent_; }

 private:
  graph::Vertex self_;
  graph::Vertex n_;
  std::vector<graph::Vertex> neighbors_;
  std::unique_ptr<LocalRule> rule_;
  BitMatrix holds_;
  /// first_trace_[m]: trace id of the first data arrival carrying m (0 =
  /// held initially, all ones while m is not held).
  std::vector<std::uint64_t> first_trace_;
  /// Most recent hold-changing data arrival — the digest's causal parent.
  std::uint64_t last_trace_ = 0;
  bool quiescent_ = true;
  /// The neighbor the last grant reserved: that grant's receiver span.
  graph::Vertex granted_ = graph::kNoVertex;
  /// The offer the next digest announces.
  model::Message offer_ = kNoOffer;
  /// Per held message, the neighbors whose last digests lack it.
  gossip::WantCounts lacks_;
  /// Per held message, the granters whose digests lack it (step_data's).
  gossip::WantCounts serve_counts_;
  /// (sender, digest view) of every digest the last step_grant read, and
  /// of step_data's granters; both kept for their capacity.
  std::vector<std::pair<graph::Vertex, std::span<const std::uint64_t>>>
      digests_;
  std::vector<std::pair<graph::Vertex, std::span<const std::uint64_t>>>
      granters_;
};

}  // namespace mg::dist
