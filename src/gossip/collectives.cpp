#include "gossip/collectives.h"

#include <algorithm>

#include "support/contracts.h"

namespace mg::gossip {

using model::Message;
using tree::Label;

model::Schedule gather_schedule(const Instance& instance) {
  const auto& tree = instance.tree();
  const auto& labels = instance.labels();
  const graph::Vertex n = tree.vertex_count();
  model::ScheduleBuilder builder;
  // Propagate-Up's delivery discipline without the lookahead refinement:
  // the vertex at level k relays subtree message m at time m - k, so the
  // root receives message m exactly at time m (m = 1..n-1).
  for (graph::Vertex v = 0; v < n; ++v) {
    if (tree.is_root(v)) continue;
    const Label i = labels.label(v);
    const Label j = labels.subtree_end(v);
    const std::uint32_t k = tree.level(v);
    for (Label m = i; m <= j; ++m) {
      builder.add(m - k, m, v, {tree.parent(v)});
    }
  }
  model::Schedule schedule = builder.build();
  MG_ENSURES(n <= 1 || schedule.total_time() == n - 1u);
  return schedule;
}

namespace {

/// Emission order: destinations by depth, deepest first (ties by label so
/// the order is deterministic).
std::vector<graph::Vertex> scatter_order(const Instance& instance) {
  const auto& tree = instance.tree();
  std::vector<graph::Vertex> order;
  for (graph::Vertex v = 0; v < tree.vertex_count(); ++v) {
    if (!tree.is_root(v)) order.push_back(v);
  }
  std::sort(order.begin(), order.end(),
            [&](graph::Vertex a, graph::Vertex b) {
              if (tree.level(a) != tree.level(b)) {
                return tree.level(a) > tree.level(b);
              }
              return instance.labels().label(a) < instance.labels().label(b);
            });
  return order;
}

}  // namespace

model::Schedule scatter_schedule(const Instance& instance) {
  const auto& tree = instance.tree();
  const auto& labels = instance.labels();
  model::ScheduleBuilder builder;
  const auto order = scatter_order(instance);
  // Destination d's message (id = label(d)) is emitted by the root at
  // round t and relayed immediately: it crosses the ancestor at level l
  // at time t + l.  Per-edge rounds are distinct because emission rounds
  // are, so the schedule is conflict-free for ANY order; deepest-first
  // minimizes the makespan max_t (t + depth(d_t)).
  for (std::size_t t = 0; t < order.size(); ++t) {
    const graph::Vertex destination = order[t];
    const Message message = labels.label(destination);
    // Walk the root->destination path.
    std::vector<graph::Vertex> path{destination};
    while (!tree.is_root(path.back())) path.push_back(tree.parent(path.back()));
    std::reverse(path.begin(), path.end());  // root first
    for (std::size_t hop = 0; hop + 1 < path.size(); ++hop) {
      builder.add(t + hop, message, path[hop], {path[hop + 1]});
    }
  }
  model::Schedule schedule = builder.build();
  MG_ENSURES(schedule.total_time() == scatter_time(instance));
  return schedule;
}

std::size_t scatter_time(const Instance& instance) {
  const auto& tree = instance.tree();
  const auto order = scatter_order(instance);
  std::size_t makespan = 0;
  for (std::size_t t = 0; t < order.size(); ++t) {
    makespan = std::max(makespan,
                        t + static_cast<std::size_t>(tree.level(order[t])));
  }
  return order.empty() ? 0 : makespan + 0;
}

}  // namespace mg::gossip
