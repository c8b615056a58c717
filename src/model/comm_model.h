// Pluggable communication models (`mg::model::CommModel`).
//
// The paper's multicast model (§1) is one point in a space the related work
// maps out: per round, who may send, to whom a transmission may be
// addressed, how much content one round carries, and what happens when two
// transmissions meet at one receiver.  A `CommModel` captures exactly those
// four axes so the same graphs, schedulers and fault plans can be compared
// across models (ROADMAP item 4):
//
//  * kMulticast  — the paper's model: one message to any neighbor subset,
//    receiver sets pairwise disjoint.  The default everywhere; routing the
//    validator and simulator through this model is byte-identical to the
//    pre-refactor code paths (pinned by tests/model_matrix_test.cpp).
//  * kTelephone  — the unicasting restriction: |D| = 1.
//  * kRadio      — ad-hoc radio (Wu–Chrobak): a transmission reaches the
//    sender's entire neighborhood (no receiver addressing), transmitters
//    are deaf for the round (half-duplex), and a listener with two or more
//    transmitting neighbors hears a collision and decodes nothing.
//    Simultaneous arrivals are *legal* — they are lost, not rejected.
//  * kBeep       — Hounkanli–Pelc: one-bit signals with no source
//    addressing.  Structurally a radio round (full-neighborhood reach,
//    half-duplex, superimposed signals undecodable at message granularity);
//    on top of that each message hop must be serialized bit by bit, so one
//    structural round costs ceil(log2 n) + 1 one-bit slots of model time
//    (`round_cost`).  We simulate at message granularity and convert round
//    counts through `model_time` — docs/MODELS.md spells out the honesty
//    notes of that abstraction.
//  * kDirect     — Haeupler–Malkhi-style direct addressing: a processor may
//    send to *any* known processor id, not just graph neighbors; delivery
//    rules are otherwise the multicast model's.
//
// Models are stateless singletons (`builtin_model`, `all_models`); the
// validator takes one via `ValidatorOptions::model`, the simulator via
// `SimOptions::comm`, and `legalize.h` adapts existing schedules to a model
// or synthesizes model-native ones.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "model/schedule.h"

namespace mg::model {

enum class ModelKind : std::uint8_t {
  kMulticast,  ///< the paper's model (default)
  kTelephone,  ///< unicast restriction: |D| = 1
  kRadio,      ///< full-neighborhood broadcast, receiver-side collision loss
  kBeep,       ///< radio structure + 1-bit capacity (round_cost > 1)
  kDirect,     ///< receivers may be any processor, not just neighbors
};

/// Number of built-in models (array sizing in the bench matrix).
inline constexpr std::size_t kModelCount = 5;

class CommModel {
 public:
  virtual ~CommModel() = default;

  [[nodiscard]] virtual ModelKind kind() const = 0;

  /// Stable lowercase identifier ("multicast", "beep", ...) used in BENCH
  /// rows and test diagnostics.
  [[nodiscard]] virtual std::string name() const = 0;

  // --- per-transmission legality -----------------------------------------

  /// True when a receiver must be a graph neighbor of the sender (every
  /// model except direct addressing).
  [[nodiscard]] virtual bool requires_adjacency() const { return true; }

  /// True when `receiver_set_error` can reject a receiver set (telephone,
  /// radio, beep).  False promises it always returns an empty string, so
  /// the validator skips the call.
  [[nodiscard]] virtual bool constrains_receiver_set() const { return false; }

  /// Capacity / addressing shape check for one transmission's receiver set
  /// (the validator calls it with the sender in range and D non-empty,
  /// sorted and duplicate-free, before any receiver is range- or
  /// self-checked).  Returns an empty string when legal, otherwise a short
  /// violation description (the validator appends the round context).
  [[nodiscard]] virtual std::string receiver_set_error(
      const graph::Graph& g, graph::Vertex sender,
      std::span<const graph::Vertex> receivers) const;

  // --- delivery semantics -------------------------------------------------

  /// True when two same-round deliveries to one receiver are a *rule
  /// violation* (multicast rule 1).  False for broadcast channels
  /// (radio/beep): simultaneous arrivals are legal but collide — the
  /// receiver decodes nothing, and a transmitting processor is deaf for
  /// the round (half-duplex).
  [[nodiscard]] virtual bool exclusive_receivers() const { return true; }

  /// Collision loss applies (the simulator's and validator's switch for
  /// the radio/beep delivery rule).
  [[nodiscard]] bool collision_loss() const { return !exclusive_receivers(); }

  // --- time accounting ----------------------------------------------------

  /// Model time units one structural round costs on an n-processor
  /// network.  1 everywhere except beep, where a message hop serializes
  /// into ceil(log2 n) + 1 one-bit slots.
  [[nodiscard]] virtual std::size_t round_cost(graph::Vertex n) const;

  /// Converts a structural round count to model time units.
  [[nodiscard]] std::size_t model_time(std::size_t structural_rounds,
                                       graph::Vertex n) const {
    return structural_rounds * round_cost(n);
  }
};

/// The five built-in models as stateless singletons.
[[nodiscard]] const CommModel& multicast_model();
[[nodiscard]] const CommModel& telephone_model();
[[nodiscard]] const CommModel& radio_model();
[[nodiscard]] const CommModel& beep_model();
[[nodiscard]] const CommModel& direct_model();

[[nodiscard]] const CommModel& builtin_model(ModelKind kind);

/// All built-ins, bench-matrix order: multicast, telephone, radio, beep,
/// direct.
[[nodiscard]] const std::vector<const CommModel*>& all_models();

}  // namespace mg::model
