#include "gossip/online.h"

#include <algorithm>

#include "support/contracts.h"

namespace mg::gossip {

using model::Message;
using model::Transmission;
using tree::Label;

LocalInfo local_info_for(const Instance& instance, graph::Vertex v) {
  const auto& tree = instance.tree();
  const auto& labels = instance.labels();
  LocalInfo info;
  info.n = tree.vertex_count();
  info.self = v;
  info.i = labels.label(v);
  info.j = labels.subtree_end(v);
  info.k = tree.level(v);
  info.has_parent = !tree.is_root(v);
  info.first_child = info.has_parent && labels.lip_count(v) == 1;
  info.parent = info.has_parent ? tree.parent(v) : graph::kNoVertex;
  const auto kids = tree.children(v);
  info.children.assign(kids.begin(), kids.end());
  for (graph::Vertex c : info.children) {
    info.child_intervals.emplace_back(labels.label(c), labels.subtree_end(c));
  }
  return info;
}

OnlineProcessor::OnlineProcessor(LocalInfo info) : info_(std::move(info)) {
  const Label i = info_.i;
  const Label j = info_.j;
  const std::uint32_t k = info_.k;
  w_ = info_.first_child ? 1u : 0u;

  // (U3)/(U4)/(D3) are static functions of (i, j, k, w) and the children's
  // intervals: plan them now.  (D2) is dynamic (driven by arrivals).
  if (info_.has_parent) {
    // (U3): the lip-message leaves at time 0.
    if (w_ == 1) plan(0, i, /*to_parent=*/true, {});
    // (U4): rip-messages i+w..j leave at times i-k+w..j-k.
    for (Label m = i + w_; m <= j; ++m) {
      plan(m - k, m, /*to_parent=*/true, {});
    }
  }
  // (D3): b-messages go down at times i-k..j-k (message i to all children,
  // delayed to j-k+1 when i == k; others skip the owning child).
  if (!info_.children.empty()) {
    for (Label m = i; m <= j; ++m) {
      std::vector<graph::Vertex> receivers;
      if (m == i) {
        receivers = info_.children;
      } else {
        for (std::size_t c = 0; c < info_.children.size(); ++c) {
          const auto& [ci, cj] = info_.child_intervals[c];
          if (m < ci || m > cj) receivers.push_back(info_.children[c]);
        }
        if (receivers.empty()) continue;
      }
      const std::size_t t = (m == i && i == k)
                                ? static_cast<std::size_t>(j - k + 1)
                                : static_cast<std::size_t>(m - k);
      plan(t, m, /*to_parent=*/false, std::move(receivers));
    }
  }
}

void OnlineProcessor::plan(std::size_t t, Message m, bool to_parent,
                           std::vector<graph::Vertex> down_receivers) {
  auto [it, inserted] = planned_.try_emplace(t);
  Planned& p = it->second;
  if (inserted) {
    p.message = m;
  } else {
    MG_ASSERT_MSG(p.message == m,
                  "online protocol would send two messages at one time");
  }
  if (to_parent) p.to_parent = true;
  for (graph::Vertex r : down_receivers) p.down_receivers.push_back(r);
}

void OnlineProcessor::deliver(std::size_t t, Message m, bool from_parent) {
  if (!from_parent || info_.children.empty()) return;
  // (D2): relay the o-message the round it arrives, except arrivals at
  // times i-k and i-k+1 which wait until j-k+1 and j-k+2.
  const std::size_t ik = info_.i - info_.k;
  std::size_t t_send = t;
  if (t == ik) {
    t_send = info_.j - info_.k + 1;
  } else if (t == ik + 1) {
    t_send = static_cast<std::size_t>(info_.j - info_.k) + 2;
  }
  plan(t_send, m, /*to_parent=*/false, info_.children);
}

std::optional<Transmission> OnlineProcessor::send_at(std::size_t t) {
  const auto it = planned_.find(t);
  if (it == planned_.end()) return std::nullopt;
  const Planned& p = it->second;
  Transmission tx;
  tx.message = p.message;
  tx.sender = info_.self;
  tx.receivers = p.down_receivers;
  if (p.to_parent) tx.receivers.push_back(info_.parent);
  std::sort(tx.receivers.begin(), tx.receivers.end());
  tx.receivers.erase(std::unique(tx.receivers.begin(), tx.receivers.end()),
                     tx.receivers.end());
  planned_.erase(it);
  return tx;
}

model::Schedule run_online(const Instance& instance) {
  const auto& tree = instance.tree();
  const graph::Vertex n = tree.vertex_count();
  model::ScheduleBuilder schedule;
  if (n <= 1) return schedule.build();

  std::vector<OnlineProcessor> procs;
  procs.reserve(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    procs.emplace_back(local_info_for(instance, v));
  }

  const std::size_t horizon =
      static_cast<std::size_t>(n) + instance.radius();
  // In-flight deliveries: (receiver, message, from_parent) sent last round.
  std::vector<std::tuple<graph::Vertex, Message, bool>> in_flight;
  for (std::size_t t = 0; t < horizon; ++t) {
    for (const auto& [r, m, fp] : in_flight) procs[r].deliver(t, m, fp);
    in_flight.clear();
    for (graph::Vertex v = 0; v < n; ++v) {
      auto tx = procs[v].send_at(t);
      if (!tx) continue;
      for (graph::Vertex r : tx->receivers) {
        const bool from_parent = tree.parent(r) == v;
        in_flight.emplace_back(r, tx->message, from_parent);
      }
      schedule.add(t, *tx);
    }
  }
  return schedule.build();
}

}  // namespace mg::gossip
