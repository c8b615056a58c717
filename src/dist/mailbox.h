// Round-synchronized message bus for the `mg::dist` actor runtime.
//
// Every processor actor owns one mailbox.  The runtime's serial capture
// phase posts each surviving envelope straight into its receiver's slot for
// its arrival time — a message posted at round t arrives at t + 1 (+ any
// per-edge fault delay).  At the round barrier `flip()` makes every due
// envelope its receiver's read-only inbox in a *deterministic* order:
// envelopes are first sorted by a canonical key (kind, sender, message),
// which alone defines the order whatever sequence they were posted in,
// then shuffled with an Rng seeded from (seed, round, receiver).  The
// shuffle makes delivery order adversarial — actors must not depend on it
// — while keeping every run bit-identical for a fixed seed (the dist
// stress battery asserts exactly that; dist_differential_test pins the
// order itself).  `flip` swaps each due slot with its inbox, so every
// mailbox vector keeps its capacity from round to round.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/graph.h"
#include "model/schedule.h"
#include "support/contracts.h"
#include "support/rng.h"

namespace mg::dist {

/// A digest's `message` when its sender plans no offer for the cycle: no
/// data step has run yet, or no neighbor lacked anything it holds.
inline constexpr model::Message kNoOffer =
    std::numeric_limits<model::Message>::max();

/// One message on the (in-process) wire.  Data envelopes carry a gossip
/// message; digest/grant envelopes are the decentralized recovery
/// protocol's control plane (see actor.h).  Trivially copyable: a digest
/// is a view of its sender's snapshot row, not a copy of the bitmap.
struct Envelope {
  enum class Kind : std::uint8_t {
    kData = 0,    ///< a gossip message (the only kind the timeline sees)
    kDigest = 1,  ///< recovery: view of the sender's hold-bitmap snapshot
    kGrant = 2,   ///< recovery: receiver-side reservation of one sender
  };
  Kind kind = Kind::kData;
  graph::Vertex sender = 0;
  /// kData: the payload.  kDigest: the sender's announced offer, the held
  /// message it plans to serve this cycle (kNoOffer for none).  kGrant: the
  /// requested message.
  model::Message message = 0;
  /// True when the sender is the receiver's tree parent — the one bit of
  /// link-local context the §4 online rule needs (o-stream vs child
  /// deliveries).  Meaningless for control envelopes.
  bool from_parent = false;
  /// Trace id of the logical transmission this envelope belongs to,
  /// stamped by the runtime's capture phase (0 = untraced).  Every
  /// envelope of one multicast shares one id.  Not part of the canonical
  /// delivery order — ids are themselves deterministic under a fixed seed,
  /// but actors must not decide from them.
  std::uint64_t trace = 0;
  /// kDigest: the sender's hold row as of its digest subround, a row of
  /// the runtime's digest matrix (see ActorRuntime::run).  Valid until the
  /// sender's next digest subround.
  std::span<const std::uint64_t> digest;
};
static_assert(std::is_trivially_copyable_v<Envelope>);

/// Canonical order erasing the posting interleaving.
inline bool envelope_less(const Envelope& a, const Envelope& b) {
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.sender != b.sender) return a.sender < b.sender;
  return a.message < b.message;
}

class MailboxBus {
 public:
  /// `n` mailboxes; `seed` drives the per-(round, receiver) delivery
  /// shuffle.  `max_delay` is the largest extra in-flight time an envelope
  /// can carry (fault::FaultPlan::max_extra_delay()).
  MailboxBus(graph::Vertex n, std::uint64_t seed, std::size_t max_delay = 0)
      : n_(n),
        seed_(seed),
        slots_(static_cast<std::size_t>(max_delay) + 2),
        boxes_(static_cast<std::size_t>(n) * slots_),
        inboxes_(n) {}

  MailboxBus(const MailboxBus&) = delete;
  MailboxBus& operator=(const MailboxBus&) = delete;

  /// Posts `e` to `to`, arriving `delay` rounds after the next barrier
  /// (0 = the normal send-at-t, receive-at-t+1 latency).  Only data may be
  /// delayed: a control envelope is read at the very next barrier, which
  /// is what lets a digest view its sender's snapshot row instead of
  /// copying it.  Single-threaded: only the runtime's serial capture
  /// phase posts, while no actor reads an inbox.
  void post(graph::Vertex to, std::size_t delay, const Envelope& e) {
    MG_EXPECTS_MSG(delay == 0 || e.kind == Envelope::Kind::kData,
                   "control envelopes travel with zero delay");
    box(to, (cursor_ + delay) % slots_).push_back(e);
  }

  /// Round barrier: makes every envelope due now readable via `inbox()`,
  /// in the canonical-sorted-then-seed-shuffled order.  Single-threaded.
  void flip(std::size_t round) {
    for (graph::Vertex v = 0; v < n_; ++v) {
      auto& due = box(v, cursor_);
      std::sort(due.begin(), due.end(), envelope_less);
      if (due.size() > 1) {
        Rng rng(seed_ ^ (0x9e3779b97f4a7c15ULL * (round + 1)) ^
                (0xd1b54a32d192ed03ULL * (static_cast<std::uint64_t>(v) + 1)));
        rng.shuffle(due);
      }
      inboxes_[v].swap(due);
      due.clear();
    }
    cursor_ = (cursor_ + 1) % slots_;
  }

  /// The envelopes delivered to `v` at the last `flip()`.  Stable until the
  /// next flip; actors read their own inbox only.
  [[nodiscard]] const std::vector<Envelope>& inbox(graph::Vertex v) const {
    return inboxes_[v];
  }

 private:
  std::vector<Envelope>& box(graph::Vertex v, std::size_t slot) {
    return boxes_[static_cast<std::size_t>(v) * slots_ + slot];
  }

  graph::Vertex n_;
  std::uint64_t seed_;
  std::size_t slots_;
  std::size_t cursor_ = 0;
  /// boxes_[v * slots_ + s]: envelopes for v arriving at barrier slot s.
  std::vector<std::vector<Envelope>> boxes_;
  std::vector<std::vector<Envelope>> inboxes_;
};

}  // namespace mg::dist
