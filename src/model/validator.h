// Independent checker for communication schedules against a communication
// model.  Every schedule produced by every algorithm in this library is
// validated by this module in the test suite; it shares no code with the
// schedule generators, so agreement is meaningful evidence of correctness.
//
// The rules enforced are the selected `CommModel`'s (comm_model.h); under
// the default multicast model they are exactly the paper's (§1), per
// round t:
//   1. every receiver appears in at most one D set (rule 1) — for
//      exclusive-receiver models; under a broadcast-channel model
//      (radio/beep) simultaneous arrivals are legal but *collide*: the
//      receiver decodes nothing, and a transmitting processor hears
//      nothing (half-duplex);
//   2. all sender indices are distinct (rule 2);
//   3. every receiver is adjacent to its sender in the network — unless
//      the model addresses by id (direct);
//   4. no processor sends to itself;
//   5. the sender holds the message at send time — where the hold set
//      h_l(t) includes messages received at time t (receive happens before
//      send: a message sent at t-1 arrives at t and may be forwarded at t);
//   6. the model's capacity/addressing shape holds: |D| = 1 under
//      telephone, D = N(sender) under radio/beep;
//   7. (optional) completion: after the last arrival every processor holds
//      all n messages — under the model's delivery rule, so collided
//      arrivals do not count.
//
// Layout and cost.  Hold state is one flat, message-major bit matrix in a
// single allocation: row m has one bit per processor.  A round touches few
// distinct messages, so the rows it reads stay in L1.  Each round takes two
// passes.  The check pass runs the rules above per tuple, in stored order:
// sender range, message range, empty D, the model's shape rule (only for a
// model that `constrains_receiver_set`), double send, sender holds m; then
// per receiver in stored order: range, self, adjacency, double receive
// (or the same-round arrival count under radio/beep).  Adjacency is one
// merge of the sorted D against the sender's sorted neighbor row, so a
// tuple costs O(deg(sender) + |D|) and the first non-adjacent receiver is
// the one reported.  The delivery pass then applies the round, re-reading
// the cursor's span of it while it is still cache-resident; per-processor
// `lacking` counters give the completion times.  Round stamps are 32-bit, which every
// `Schedule` allows (round indices stay below 2^32 - 1).
// tests/reference_validator.h keeps the previous per-processor-bitset
// validator, and tests/validator_fuzz_test.cpp pins every report field of
// this one, error strings included, to it.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.h"
#include "model/comm_model.h"
#include "model/schedule.h"

namespace mg::model {

struct ValidatorOptions {
  /// Require every processor to end holding all n messages (gossip
  /// completion).  Disable to validate partial schedules (e.g. broadcast).
  bool require_completion = true;
  /// Communication model to validate against; nullptr = the paper's
  /// multicast model.
  const CommModel* model = nullptr;
};

struct ValidationReport {
  bool ok = false;
  std::string error;  ///< empty when ok; otherwise the first violation

  /// Per-processor earliest time its hold set became complete (only
  /// meaningful when ok && require_completion).
  std::vector<std::size_t> completion_time;

  /// Latest receive time observed (== schedule total_time()).
  std::size_t total_time = 0;

  /// Deliveries lost to receiver-side collisions (superimposed arrivals or
  /// a half-duplex transmitter) — always 0 under exclusive-receiver
  /// models, where simultaneous arrivals are a rule violation instead.
  std::size_t collided = 0;
};

/// Validates `schedule` on network `g`.  `initial[v]` is the message
/// initially held by processor v; pass an empty vector for the identity
/// assignment (processor v holds message v).
[[nodiscard]] ValidationReport validate_schedule(
    const graph::Graph& g, const Schedule& schedule,
    const std::vector<Message>& initial = {},
    const ValidatorOptions& options = {});

/// Generalized form: processor v initially holds the set `initial_sets[v]`
/// and the message universe is 0..message_count-1 (the weighted and
/// repeated-gossip extensions need several messages per processor and more
/// messages than processors).  Completion means every processor holds all
/// `message_count` messages.
[[nodiscard]] ValidationReport validate_schedule_general(
    const graph::Graph& g, const Schedule& schedule,
    const std::vector<std::vector<Message>>& initial_sets,
    std::size_t message_count, const ValidatorOptions& options = {});

/// Validates that `schedule` broadcasts `source`'s message to every
/// processor (adjacency/conflict rules as above; completion means everyone
/// holds that one message).
[[nodiscard]] ValidationReport validate_broadcast(
    const graph::Graph& g, const Schedule& schedule, graph::Vertex source);

}  // namespace mg::model
