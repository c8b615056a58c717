#include "gossip/bounded_fanout.h"

#include <algorithm>
#include <deque>

#include "support/contracts.h"

namespace mg::gossip {

namespace {

using model::Message;
using tree::Label;
using tree::Vertex;

/// A down-queue entry: a message plus the children still owed a copy.
struct PendingRelay {
  Message message = 0;
  std::vector<Vertex> remaining;
};

}  // namespace

model::Schedule bounded_fanout_gossip(const Instance& instance,
                                      graph::Vertex fanout_cap) {
  MG_EXPECTS(fanout_cap >= 1);
  const auto& tree = instance.tree();
  const auto& labels = instance.labels();
  const Vertex n = tree.vertex_count();
  model::ScheduleBuilder schedule;
  if (n <= 1) return schedule.build();

  // ---- Fixed up phase (Simple's): the root receives message m at time m.
  for (Vertex v = 0; v < n; ++v) {
    if (tree.is_root(v)) continue;
    const Label i = labels.label(v);
    const Label j = labels.subtree_end(v);
    const std::uint32_t k = tree.level(v);
    for (Label m = i; m <= j; ++m) {
      schedule.add(m - k, m, v, {tree.parent(v)});
    }
  }

  auto up_receive_busy = [&](Vertex c, std::size_t t) {
    const std::size_t m = t + tree.level(c);
    return m > labels.label(c) && m <= labels.subtree_end(c);
  };
  auto up_send_busy = [&](Vertex v, std::size_t t) {
    if (tree.is_root(v)) return false;
    const std::size_t lo = labels.label(v) - tree.level(v);
    const std::size_t hi = labels.subtree_end(v) - tree.level(v);
    return t >= lo && t <= hi;
  };

  // ---- Greedy concurrent down phase.  Copies become queueable along two
  // disjoint paths: subtree messages as they pass through upward, and
  // o-messages as they arrive from the parent.
  std::vector<std::deque<PendingRelay>> queue(n);
  auto enqueue_up = [&](Vertex v, Message m) {
    if (tree.is_leaf(v)) return;
    std::vector<Vertex> owed;
    for (Vertex c : tree.children(v)) {
      if (!labels.is_body(c, m)) owed.push_back(c);
    }
    if (!owed.empty()) queue[v].push_back({m, std::move(owed)});
  };
  auto enqueue_down = [&](Vertex v, Message m) {
    if (tree.is_leaf(v)) return;
    const auto kids = tree.children(v);
    queue[v].push_back({m, {kids.begin(), kids.end()}});
  };

  std::size_t outstanding = 0;
  for (Vertex v = 0; v < n; ++v) {
    if (!tree.is_root(v)) outstanding += n - labels.subtree_size(v);
  }
  for (Vertex v = 0; v < n; ++v) enqueue_up(v, labels.label(v));

  std::size_t t = 0;
  const std::size_t safety_limit =
      4 * static_cast<std::size_t>(n) * n + 8 * instance.radius() + 64;
  while (outstanding > 0) {
    MG_ASSERT_MSG(t < safety_limit, "greedy bounded-fanout gossip diverged");

    // Subtree messages passing through upward become forwardable.
    if (t >= 1) {
      for (Vertex v = 0; v < n; ++v) {
        const std::size_t m_up = t + tree.level(v);
        if (m_up > labels.label(v) && m_up <= labels.subtree_end(v)) {
          enqueue_up(v, static_cast<Message>(m_up));
        }
      }
    }

    // Arrivals are buffered so a relayed copy only becomes forwardable at
    // its receiver in round t + 1.
    std::vector<std::pair<Vertex, Message>> arrivals;
    for (Vertex v = 0; v < n; ++v) {
      if (queue[v].empty() || up_send_busy(v, t)) continue;
      // Oldest entry with at least one child free to receive at t + 1;
      // serve up to fanout_cap of its children with one multicast.
      for (auto entry = queue[v].begin(); entry != queue[v].end(); ++entry) {
        std::vector<Vertex> receivers;
        for (Vertex c : entry->remaining) {
          if (up_receive_busy(c, t + 1)) continue;
          receivers.push_back(c);
          if (receivers.size() >= fanout_cap) break;
        }
        if (receivers.empty()) continue;
        std::erase_if(entry->remaining, [&](Vertex c) {
          return std::binary_search(receivers.begin(), receivers.end(), c);
        });
        const Message m = entry->message;
        if (entry->remaining.empty()) queue[v].erase(entry);
        for (Vertex c : receivers) {
          --outstanding;
          arrivals.emplace_back(c, m);
        }
        schedule.add(t, m, v, receivers);
        break;
      }
    }
    for (const auto& [c, m] : arrivals) enqueue_down(c, m);
    ++t;
  }

  return schedule.build();
}

}  // namespace mg::gossip
