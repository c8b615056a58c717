#include "model/validator.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "support/bitset.h"
#include "support/contracts.h"

namespace mg::model {

namespace {

std::string describe(const Tx& tx, std::size_t t) {
  std::ostringstream out;
  out << "round " << t << ", msg " << tx.message << " from " << tx.sender;
  return out.str();
}

/// The failed report for the first violation, `what` at tuple `tx` of
/// round `t`.
[[gnu::cold, gnu::noinline]] ValidationReport reject(
    ValidationReport& report, const std::string& what, const Tx& tx,
    std::size_t t) {
  report.error = what + " at " + describe(tx, t);
  return std::move(report);
}

/// "Never" for the 32-bit round stamps.  Every schedule's round indices
/// stay below 2^32 - 1 (`ScheduleBuilder` enforces it), so no round carries
/// this stamp.
constexpr std::uint32_t kNever = std::numeric_limits<std::uint32_t>::max();

/// Message-major hold state: row m has one bit per processor, set when
/// that processor holds m.  A round touches few messages, so the rows it
/// reads stay in L1.  `lacking[v]` counts the messages processor v does not
/// hold yet.
struct Holds {
  Holds(std::size_t message_count, graph::Vertex n)
      : bits(message_count, n), lacking(n, message_count) {}

  [[nodiscard]] std::uint64_t* row(Message m) { return bits.row(m).data(); }

  /// True when bit v of `row` is set.
  [[nodiscard]] static bool test(const std::uint64_t* row, graph::Vertex v) {
    return ((row[v >> 6] >> (v & 63)) & 1) != 0;
  }

  /// Sets bit v of `row`; when v lacked the message, counts it off
  /// `lacking[v]` and returns true once v holds everything.
  bool add(std::uint64_t* row, graph::Vertex v) {
    std::uint64_t& word = row[v >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    return --lacking[v] == 0;
  }

  BitMatrix bits;
  std::vector<std::size_t> lacking;
};

/// Checks `schedule` round by round from the seeded hold state, applying
/// each round's deliveries once it passed; see validator.h.
/// `kCollisions` is the model's `collision_loss()`, the radio/beep
/// delivery rule.
template <bool kCollisions>
ValidationReport check_and_deliver(const graph::Graph& g,
                                   const Schedule& schedule,
                                   const CommModel& model,
                                   bool require_completion, Holds& holds,
                                   std::size_t message_count) {
  const graph::Vertex n = g.vertex_count();
  const bool adjacency = model.requires_adjacency();
  const bool shaped = model.constrains_receiver_set();
  ValidationReport report;
  report.completion_time.assign(n, 0);

  // Every sender's neighbor row, fetched once.
  std::vector<std::span<const graph::Vertex>> neighbors(adjacency ? n : 0);
  for (graph::Vertex v = 0; v < neighbors.size(); ++v) {
    neighbors[v] = g.neighbors(v);
  }
  std::vector<std::uint32_t> sender_seen(n, kNever);
  std::vector<std::uint32_t> receiver_seen(kCollisions ? 0 : n, kNever);
  // Same-round arrivals per receiver, for the collision verdict.
  std::vector<std::uint32_t> incoming(kCollisions ? n : 0, 0);

  for (RoundCursor cursor(schedule); cursor.next();) {
    const std::size_t t = cursor.index();
    const std::span<const Tx> round = cursor.txs();
    const auto stamp = static_cast<std::uint32_t>(t);

    // Check round t against the holds after every earlier round.
    for (const Tx& tx : round) {
      const auto receivers = schedule.receivers(tx);
      if (tx.sender >= n) {
        return reject(report, "sender index out of range", tx, t);
      }
      if (tx.message >= message_count) {
        return reject(report, "message id out of range", tx, t);
      }
      if (receivers.empty()) {
        return reject(report, "empty receiver set", tx, t);
      }
      if (shaped) {
        if (const std::string shape =
                model.receiver_set_error(g, tx.sender, receivers);
            !shape.empty()) {
          return reject(report, shape, tx, t);
        }
      }
      if (sender_seen[tx.sender] == stamp) {
        return reject(report, "processor sends two messages in one round", tx,
                      t);
      }
      sender_seen[tx.sender] = stamp;
      if (!Holds::test(holds.row(tx.message), tx.sender)) {
        return reject(report, "sender does not hold the message", tx, t);
      }
      // D and the sender's neighbor row are both ascending, so one cursor
      // through the row tests every receiver's adjacency in order.
      const std::span<const graph::Vertex> adjacent =
          adjacency ? neighbors[tx.sender] : std::span<const graph::Vertex>{};
      auto next = adjacent.begin();
      for (const graph::Vertex r : receivers) {
        if (r >= n) return reject(report, "receiver out of range", tx, t);
        if (r == tx.sender) return reject(report, "self-delivery", tx, t);
        if (adjacency) {
          while (next != adjacent.end() && *next < r) ++next;
          if (next == adjacent.end() || *next != r) {
            return reject(report,
                          "receiver " + std::to_string(r) +
                              " not adjacent to sender",
                          tx, t);
          }
        }
        if constexpr (kCollisions) {
          ++incoming[r];
        } else {
          if (receiver_seen[r] == stamp) {
            return reject(report,
                          "processor " + std::to_string(r) +
                              " receives two messages in one round",
                          tx, t);
          }
          receiver_seen[r] = stamp;
        }
      }
    }

    // Round t passed every check: apply its deliveries, which land at time
    // t + 1 (receive-before-send).  Under a collision model a delivery lands
    // only if the receiver was not itself transmitting (half-duplex) and
    // heard exactly one transmission.
    for (const Tx& tx : round) {
      std::uint64_t* const row = holds.row(tx.message);
      for (const graph::Vertex r : schedule.receivers(tx)) {
        if constexpr (kCollisions) {
          if (sender_seen[r] == stamp || incoming[r] >= 2) {
            ++report.collided;
            continue;
          }
        }
        if (holds.add(row, r)) report.completion_time[r] = t + 1;
      }
    }
    if constexpr (kCollisions) std::fill(incoming.begin(), incoming.end(), 0);
  }

  report.total_time = schedule.total_time();

  if (require_completion) {
    for (graph::Vertex v = 0; v < n; ++v) {
      if (holds.lacking[v] != 0) {
        report.error = "processor " + std::to_string(v) +
                       " is missing messages at the end (" +
                       std::to_string(message_count - holds.lacking[v]) +
                       "/" + std::to_string(message_count) + ")";
        return report;
      }
    }
  } else if (!kCollisions) {
    // Completion times are reported for gossip runs, and always under a
    // collision model (where only the delivery pass can tell them).
    report.completion_time.clear();
  }

  report.ok = true;
  return report;
}

/// Validates `schedule` from the seeded hold state under the options'
/// model (multicast when none is given).
ValidationReport validate_seeded(const graph::Graph& g,
                                 const Schedule& schedule, Holds& holds,
                                 std::size_t message_count,
                                 const ValidatorOptions& options) {
  const CommModel& model =
      options.model != nullptr ? *options.model : multicast_model();
  return model.collision_loss()
             ? check_and_deliver<true>(g, schedule, model,
                                       options.require_completion, holds,
                                       message_count)
             : check_and_deliver<false>(g, schedule, model,
                                        options.require_completion, holds,
                                        message_count);
}

ValidationReport failed(std::string error) {
  ValidationReport report;
  report.error = std::move(error);
  return report;
}

}  // namespace

ValidationReport validate_schedule_general(
    const graph::Graph& g, const Schedule& schedule,
    const std::vector<std::vector<Message>>& initial_sets,
    std::size_t message_count, const ValidatorOptions& options) {
  const graph::Vertex n = g.vertex_count();
  if (initial_sets.size() != n) {
    return failed("initial assignment size mismatch");
  }
  Holds holds(message_count, n);
  for (graph::Vertex v = 0; v < n; ++v) {
    for (const Message m : initial_sets[v]) {
      if (m >= message_count) return failed("initial message id out of range");
      holds.add(holds.row(m), v);
    }
  }
  return validate_seeded(g, schedule, holds, message_count, options);
}

ValidationReport validate_schedule(const graph::Graph& g,
                                   const Schedule& schedule,
                                   const std::vector<Message>& initial,
                                   const ValidatorOptions& options) {
  const graph::Vertex n = g.vertex_count();
  if (!initial.empty() && initial.size() != n) {
    return failed("initial assignment size mismatch");
  }
  Holds holds(n, n);
  for (graph::Vertex v = 0; v < n; ++v) {
    const Message m = initial.empty() ? v : initial[v];
    if (m >= n) return failed("initial message id out of range");
    holds.add(holds.row(m), v);
  }
  return validate_seeded(g, schedule, holds, n, options);
}

ValidationReport validate_broadcast(const graph::Graph& g,
                                    const Schedule& schedule,
                                    graph::Vertex source) {
  ValidatorOptions options;
  options.require_completion = false;
  ValidationReport report = validate_schedule(g, schedule, {}, options);
  if (!report.ok) return report;

  const graph::Vertex n = g.vertex_count();
  std::vector<char> has(n, 0);
  has[source] = 1;
  for (RoundCursor round(schedule); round.next();) {
    for (const Tx& tx : round.txs()) {
      if (tx.message != source) {
        report.ok = false;
        report.error = "broadcast schedule carries a foreign message";
        return report;
      }
      for (graph::Vertex r : schedule.receivers(tx)) has[r] = 1;
    }
  }
  for (graph::Vertex v = 0; v < n; ++v) {
    if (!has[v]) {
      report.ok = false;
      report.error =
          "processor " + std::to_string(v) + " never receives the broadcast";
      return report;
    }
  }
  return report;
}

}  // namespace mg::model
