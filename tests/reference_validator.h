// The validator as it stood before the flat hold matrix: one heap
// `DynamicBitset` per processor, a `Graph::has_edge` binary search per
// delivery and a `receiver_set_error` call per tuple.  Kept verbatim (only
// the model lookup follows `ValidatorOptions`, which no longer has a
// variant) as the oracle that tests/validator_fuzz_test.cpp compares every
// `ValidationReport` field of `model::validate_schedule(_general)` against.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "dynamic_bitset.h"
#include "graph/graph.h"
#include "model/comm_model.h"
#include "model/schedule.h"
#include "model/validator.h"
#include "reference_schedule.h"

namespace mg::test {

namespace reference_detail {

inline std::string describe(const model::Tx& tx, std::size_t t) {
  std::ostringstream out;
  out << "round " << t << ", msg " << tx.message << " from " << tx.sender;
  return out.str();
}

}  // namespace reference_detail

inline model::ValidationReport reference_validate_schedule_general(
    const graph::Graph& g, const model::Schedule& schedule,
    const std::vector<std::vector<model::Message>>& initial_sets,
    std::size_t message_count, const model::ValidatorOptions& options = {}) {
  using model::Message;
  using model::Tx;
  using reference_detail::describe;
  const graph::Vertex n = g.vertex_count();
  const model::CommModel& model =
      options.model != nullptr ? *options.model : model::multicast_model();
  const bool collisions = model.collision_loss();
  model::ValidationReport report;

  if (initial_sets.size() != n) {
    report.error = "initial assignment size mismatch";
    return report;
  }
  std::vector<DynamicBitset> hold(n, DynamicBitset(message_count));
  std::vector<std::size_t> lacking(n, 0);
  for (graph::Vertex v = 0; v < n; ++v) {
    for (Message m : initial_sets[v]) {
      if (m >= message_count) {
        report.error = "initial message id out of range";
        return report;
      }
      hold[v].set(m);
    }
    lacking[v] = message_count - hold[v].count();
  }
  report.completion_time.assign(n, 0);

  std::vector<std::size_t> receiver_seen(n, SIZE_MAX);
  std::vector<std::size_t> sender_seen(n, SIZE_MAX);
  // Same-round arrivals per receiver, for the collision verdict (only
  // maintained under a collision-loss model).
  std::vector<std::size_t> incoming(collisions ? n : 0, 0);

  // Applies round `sent`'s deliveries, which land at time sent + 1
  // (receive-before-send): the round passed every check, so it is read
  // straight from the schedule.  Under a collision model a delivery lands
  // only if the receiver was not itself transmitting (half-duplex) and
  // heard exactly one transmission.
  const std::vector<std::vector<Tx>> rounds = rounds_of(schedule);
  const auto deliver = [&](std::size_t sent) {
    for (const Tx& tx : rounds[sent]) {
      for (const graph::Vertex r : schedule.receivers(tx)) {
        if (collisions && (sender_seen[r] == sent || incoming[r] >= 2)) {
          ++report.collided;
          continue;
        }
        if (!hold[r].test(tx.message)) {
          hold[r].set(tx.message);
          if (--lacking[r] == 0) report.completion_time[r] = sent + 1;
        }
      }
    }
  };

  for (std::size_t t = 0; t < schedule.round_count(); ++t) {
    if (t > 0) deliver(t - 1);
    if (collisions) {
      for (graph::Vertex v = 0; v < n; ++v) incoming[v] = 0;
    }

    for (const Tx& tx : rounds[t]) {
      const auto receivers = schedule.receivers(tx);
      if (tx.sender >= n) {
        report.error = "sender index out of range at " + describe(tx, t);
        return report;
      }
      if (tx.message >= message_count) {
        report.error = "message id out of range at " + describe(tx, t);
        return report;
      }
      if (receivers.empty()) {
        report.error = "empty receiver set at " + describe(tx, t);
        return report;
      }
      if (std::string shape = model.receiver_set_error(g, tx.sender, receivers);
          !shape.empty()) {
        report.error = shape + " at " + describe(tx, t);
        return report;
      }
      if (sender_seen[tx.sender] == t) {
        report.error =
            "processor sends two messages in one round at " + describe(tx, t);
        return report;
      }
      sender_seen[tx.sender] = t;
      if (!hold[tx.sender].test(tx.message)) {
        report.error = "sender does not hold the message at " +
                       describe(tx, t);
        return report;
      }
      for (graph::Vertex r : receivers) {
        if (r >= n) {
          report.error = "receiver out of range at " + describe(tx, t);
          return report;
        }
        if (r == tx.sender) {
          report.error = "self-delivery at " + describe(tx, t);
          return report;
        }
        if (model.requires_adjacency() && !g.has_edge(tx.sender, r)) {
          report.error = "receiver " + std::to_string(r) +
                         " not adjacent to sender at " + describe(tx, t);
          return report;
        }
        if (!collisions) {
          if (receiver_seen[r] == t) {
            report.error = "processor " + std::to_string(r) +
                           " receives two messages in one round at " +
                           describe(tx, t);
            return report;
          }
          receiver_seen[r] = t;
        } else {
          ++incoming[r];
        }
      }
    }
  }
  if (schedule.round_count() > 0) deliver(schedule.round_count() - 1);

  report.total_time = schedule.total_time();

  if (options.require_completion) {
    for (graph::Vertex v = 0; v < n; ++v) {
      if (!hold[v].all()) {
        report.error = "processor " + std::to_string(v) +
                       " is missing messages at the end (" +
                       std::to_string(hold[v].count()) + "/" +
                       std::to_string(message_count) + ")";
        return report;
      }
    }
  } else if (!collisions) {
    // Completion times are reported for gossip runs, and always under a
    // collision model (where only the delivery pass can tell them).
    report.completion_time.clear();
  }

  report.ok = true;
  return report;
}

inline model::ValidationReport reference_validate_schedule(
    const graph::Graph& g, const model::Schedule& schedule,
    const std::vector<model::Message>& initial = {},
    const model::ValidatorOptions& options = {}) {
  const graph::Vertex n = g.vertex_count();
  if (!initial.empty() && initial.size() != n) {
    model::ValidationReport report;
    report.error = "initial assignment size mismatch";
    return report;
  }
  std::vector<std::vector<model::Message>> initial_sets(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    initial_sets[v] = {initial.empty() ? v : initial[v]};
  }
  return reference_validate_schedule_general(g, schedule, initial_sets, n,
                                             options);
}

}  // namespace mg::test
