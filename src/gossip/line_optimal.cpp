#include "gossip/line_optimal.h"

#include <algorithm>
#include <tuple>

#include "support/contracts.h"

namespace mg::gossip {

namespace {

using model::Message;
using model::Schedule;

/// Position (-m..+m) to processor index (0..2m).
struct LineMap {
  std::uint32_t m;
  [[nodiscard]] graph::Vertex vertex(std::int64_t position) const {
    MG_ASSERT(position >= -static_cast<std::int64_t>(m) &&
              position <= static_cast<std::int64_t>(m));
    return static_cast<graph::Vertex>(position +
                                      static_cast<std::int64_t>(m));
  }
  [[nodiscard]] Message message(std::int64_t position) const {
    return vertex(position);
  }
};

}  // namespace

model::Schedule line_optimal_gossip(std::uint32_t m) {
  MG_EXPECTS(m >= 1);
  const LineMap line{m};
  model::ScheduleBuilder schedule;

  // Collected as (time, message, sender, receiver) unicasts; same-(time,
  // sender) entries merge into one multicast at the end (they always carry
  // the same message -- asserted).
  struct Send {
    std::size_t time;
    Message message;
    graph::Vertex sender;
    graph::Vertex receiver;
  };
  std::vector<Send> sends;
  auto emit = [&](std::size_t t, std::int64_t message_pos,
                  std::int64_t sender_pos, std::int64_t receiver_pos) {
    sends.push_back({t, line.message(message_pos), line.vertex(sender_pos),
                     line.vertex(receiver_pos)});
  };

  const auto M = static_cast<std::int64_t>(m);

  // ---- Center: own message both ways at 0; alternate-arm relays.
  emit(0, 0, 0, -1);
  emit(0, 0, 0, +1);
  for (std::int64_t q = 1; q <= M; ++q) {
    emit(static_cast<std::size_t>(2 * q - 1), -q, 0, +1);  // mu(-q) rightward
    emit(static_cast<std::size_t>(2 * q), +q, 0, -1);      // mu(+q) leftward
  }

  // ---- Left arm.
  for (std::int64_t r = 1; r <= M; ++r) {
    // Own message at r - 1, one multicast to both neighbors.
    emit(static_cast<std::size_t>(r - 1), -r, -r, -(r - 1));
    if (r < M) emit(static_cast<std::size_t>(r - 1), -r, -r, -(r + 1));
    if (r == M) continue;  // the end only launches its own message

    // Inward relays: mu(-q), q > r, the round it arrives.
    for (std::int64_t q = r + 1; q <= M; ++q) {
      emit(static_cast<std::size_t>(2 * q - r - 1), -q, -r, -(r - 1));
    }
    // Downward: the center's message and the right arm's messages.
    emit(static_cast<std::size_t>(r), 0, -r, -(r + 1));
    for (std::int64_t q = 1; q <= M; ++q) {
      emit(static_cast<std::size_t>(2 * q + r), +q, -r, -(r + 1));
    }
    // Inner-left messages continue outward through the late slots.
    if (r >= 2) {
      emit(static_cast<std::size_t>(2 * M - r + 1), -(r - 1), -r, -(r + 1));
    }
    for (std::int64_t q = 1; q <= r - 2; ++q) {
      emit(static_cast<std::size_t>(2 * M + r - 2 * q - 1), -q, -r,
           -(r + 1));
    }
  }

  // ---- Right arm (the asymmetric half).
  for (std::int64_t r = 1; r <= M; ++r) {
    // Own message: inward at r, outward separately at r - 1.
    emit(static_cast<std::size_t>(r), +r, +r, +(r - 1));
    if (r == M) continue;
    emit(static_cast<std::size_t>(r - 1), +r, +r, +(r + 1));

    // Inward relays: mu(+q), q > r.
    for (std::int64_t q = r + 1; q <= M; ++q) {
      emit(static_cast<std::size_t>(2 * q - r), +q, +r, +(r - 1));
    }
    // Downward: the left arm's messages the round they arrive.
    for (std::int64_t q = 1; q <= M; ++q) {
      emit(static_cast<std::size_t>(2 * q + r - 1), -q, +r, +(r + 1));
    }
    // The center's message is stuck until the tail of the schedule.
    emit(static_cast<std::size_t>(2 * M + r), 0, +r, +(r + 1));
    // Inner-right messages through the late slots.
    if (r >= 2) {
      emit(static_cast<std::size_t>(2 * M - r + 2), +(r - 1), +r, +(r + 1));
    }
    for (std::int64_t q = 1; q <= r - 2; ++q) {
      emit(static_cast<std::size_t>(2 * M + r - 2 * q), +q, +r, +(r + 1));
    }
  }

  // ---- Merge unicasts into multicasts per (time, sender).
  std::sort(sends.begin(), sends.end(), [](const Send& a, const Send& b) {
    return std::tie(a.time, a.sender, a.receiver) <
           std::tie(b.time, b.sender, b.receiver);
  });
  for (std::size_t idx = 0; idx < sends.size();) {
    const Send& head = sends[idx];
    std::vector<graph::Vertex> receivers;
    std::size_t next = idx;
    while (next < sends.size() && sends[next].time == head.time &&
           sends[next].sender == head.sender) {
      MG_ASSERT_MSG(sends[next].message == head.message,
                    "line-optimal protocol double-books a send slot");
      receivers.push_back(sends[next].receiver);
      ++next;
    }
    schedule.add(head.time, head.message, head.sender, receivers);
    idx = next;
  }
  model::Schedule built = schedule.build();
  MG_ENSURES(built.total_time() == line_optimal_time(m));
  return built;
}

model::Schedule even_line_gossip(std::uint32_t m) {
  MG_EXPECTS(m >= 1);
  const graph::Vertex n = 2 * m;
  model::ScheduleBuilder schedule;
  if (m == 1) {  // two processors: one simultaneous exchange
    schedule.add(0, 0, 0, {1});
    schedule.add(0, 1, 1, {0});
    return schedule.build();
  }

  // Indexing: left arm L_q = c1 - q, right arm R_q = c2 + q (q = 1..m-1),
  // centers c1 = m - 1 and c2 = m.  Message id == processor index.
  const graph::Vertex c1 = m - 1;
  const graph::Vertex c2 = m;
  auto left = [&](std::uint32_t q) { return c1 - q; };
  auto right = [&](std::uint32_t q) { return c2 + q; };

  // Fixed sends: (time, message, sender, receiver) unicasts merged later.
  struct Send {
    std::size_t time;
    Message message;
    graph::Vertex sender;
    graph::Vertex receiver;
  };
  std::vector<Send> fixed;

  // Centers: own message at 0 (to the first arm vertex and the twin
  // center); the arm stream crosses over the round it arrives; the twin's
  // stream is relayed into the own arm the round it arrives.
  fixed.push_back({0, c1, c1, c2});
  fixed.push_back({0, c2, c2, c1});
  if (m >= 2) {
    fixed.push_back({0, c1, c1, left(1)});
    fixed.push_back({0, c2, c2, right(1)});
  }
  for (std::uint32_t q = 1; q <= m - 1; ++q) {
    fixed.push_back({2 * q, left(q), c1, c2});    // left stream crosses
    fixed.push_back({2 * q, right(q), c2, c1});   // right stream crosses
  }
  // Twin-stream relays into the arms: c1 receives mu(c2) at 1 and
  // mu(R_q) at 2q+1, relaying each to L_1 the same round (and mirrored).
  fixed.push_back({1, c2, c1, left(1)});
  fixed.push_back({1, c1, c2, right(1)});
  for (std::uint32_t q = 1; q <= m - 1; ++q) {
    fixed.push_back({2 * q + 1, right(q), c1, left(1)});
    fixed.push_back({2 * q + 1, left(q), c2, right(1)});
  }

  // Arms: launch own outward at q - 1 and inward at q; relay the inward
  // stream immediately (mu(A_q) passes A_p at 2q - p).
  for (std::uint32_t q = 1; q <= m - 1; ++q) {
    for (const bool left_arm : {true, false}) {
      const graph::Vertex self = left_arm ? left(q) : right(q);
      const graph::Vertex inner = left_arm ? (q == 1 ? c1 : left(q - 1))
                                           : (q == 1 ? c2 : right(q - 1));
      if (q + 1 <= m - 1) {
        const graph::Vertex outer = left_arm ? left(q + 1) : right(q + 1);
        fixed.push_back({q - 1, self, self, outer});
      }
      fixed.push_back({q, self, self, inner});
      for (std::uint32_t qq = q + 1; qq <= m - 1; ++qq) {
        const graph::Vertex origin = left_arm ? left(qq) : right(qq);
        fixed.push_back({2 * qq - q, origin, self, inner});
      }
    }
  }

  // Dynamic part: every message arriving at an arm vertex from its INNER
  // neighbor continues outward, packed greedily into the free send slots
  // (sender idle, outer neighbor free to receive).  Simulate round by
  // round; fixed sends take priority.
  const std::size_t horizon = even_line_time(m) + 2;  // safety margin
  std::vector<std::vector<char>> send_busy(n,
                                           std::vector<char>(horizon + 2, 0));
  std::vector<std::vector<char>> recv_busy(n,
                                           std::vector<char>(horizon + 2, 0));
  for (const auto& send : fixed) {
    MG_ASSERT_MSG(send.time < horizon, "fixed send beyond horizon");
    // Same-(time, sender) fixed sends are same-message multicasts,
    // asserted during the merge below.
    send_busy[send.sender][send.time] = 1;
    MG_ASSERT_MSG(!recv_busy[send.receiver][send.time + 1],
                  "fixed receive slot double-booked");
    recv_busy[send.receiver][send.time + 1] = 1;
  }

  // Outward queues per arm vertex: (message, available-from time).
  std::vector<std::vector<std::pair<Message, std::size_t>>> queue(n);
  std::vector<std::size_t> queue_head(n, 0);

  auto outer_of = [&](graph::Vertex v) -> graph::Vertex {
    if (v < c1 || v > c2) {
      return v < c1 ? (v > 0 ? v - 1 : graph::kNoVertex)
                    : (v + 1 < n ? v + 1 : graph::kNoVertex);
    }
    return graph::kNoVertex;  // centers handled by the fixed schedule
  };
  auto is_inner_neighbor = [&](graph::Vertex v, graph::Vertex from) {
    // true when `from` is v's neighbor on the center side
    if (v < c1) return from == v + 1;
    if (v > c2) return from == v - 1;
    return false;
  };

  std::vector<Send> dynamic;
  for (std::size_t t = 0; t < horizon; ++t) {
    // Deliveries arriving at time t (sent at t-1) enter outward queues.
    auto enqueue_arrivals = [&](const std::vector<Send>& sends,
                                std::size_t from, std::size_t to) {
      for (std::size_t idx = from; idx < to; ++idx) {
        const Send& send = sends[idx];
        if (send.time + 1 != t) continue;
        if (is_inner_neighbor(send.receiver, send.sender) &&
            outer_of(send.receiver) != graph::kNoVertex) {
          queue[send.receiver].emplace_back(send.message, t);
        }
      }
    };
    if (t >= 1) {
      enqueue_arrivals(fixed, 0, fixed.size());
      enqueue_arrivals(dynamic, 0, dynamic.size());
    }

    // Greedy outward sends in the free slots.
    for (graph::Vertex v = 0; v < n; ++v) {
      if (send_busy[v][t]) continue;
      if (queue_head[v] >= queue[v].size()) continue;
      const auto& [message, avail] = queue[v][queue_head[v]];
      if (avail > t) continue;  // queue is in arrival order
      const graph::Vertex outer = outer_of(v);
      MG_ASSERT(outer != graph::kNoVertex);
      if (recv_busy[outer][t + 1]) continue;
      send_busy[v][t] = 1;
      recv_busy[outer][t + 1] = 1;
      dynamic.push_back({t, message, v, outer});
      ++queue_head[v];
    }
  }
  for (graph::Vertex v = 0; v < n; ++v) {
    MG_ASSERT_MSG(queue_head[v] == queue[v].size(),
                  "even-line outward queue not drained within the horizon");
  }

  // Merge all unicasts into multicasts per (time, sender).
  std::vector<Send> all(fixed);
  all.insert(all.end(), dynamic.begin(), dynamic.end());
  std::sort(all.begin(), all.end(), [](const Send& a, const Send& b) {
    return std::tie(a.time, a.sender, a.receiver) <
           std::tie(b.time, b.sender, b.receiver);
  });
  for (std::size_t idx = 0; idx < all.size();) {
    const Send& head = all[idx];
    std::vector<graph::Vertex> receivers;
    std::size_t next = idx;
    while (next < all.size() && all[next].time == head.time &&
           all[next].sender == head.sender) {
      MG_ASSERT_MSG(all[next].message == head.message,
                    "even-line protocol double-books a send slot");
      receivers.push_back(all[next].receiver);
      ++next;
    }
    schedule.add(head.time, head.message, head.sender, receivers);
    idx = next;
  }
  return schedule.build();
}

}  // namespace mg::gossip
