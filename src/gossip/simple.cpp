#include "gossip/simple.h"

#include "obs/span.h"
#include "support/contracts.h"

namespace mg::gossip {

model::Schedule simple_gossip(const Instance& instance) {
  MG_OBS_SPAN(algo_span, "gossip.simple");
  const auto& tree = instance.tree();
  const auto& labels = instance.labels();
  const graph::Vertex n = tree.vertex_count();
  model::ScheduleBuilder builder;
  if (n <= 1) return builder.build();

  // Up phase: the vertex at level k holding message m (anywhere in its
  // subtree) forwards it at time m - k, so the root receives m at time m.
  for (graph::Vertex v = 0; v < n; ++v) {
    if (tree.is_root(v)) continue;
    const tree::Label i = labels.label(v);
    const tree::Label j = labels.subtree_end(v);
    const std::uint32_t k = tree.level(v);
    for (tree::Label m = i; m <= j; ++m) {
      builder.add(m - k, m, v, {tree.parent(v)});
    }
  }

  // Down phase: the root multicasts message m to all its children at time
  // n - 2 + m; every non-root, non-leaf vertex relays the round it
  // receives, i.e. the level-k vertex sends m at time n - 2 + m + k.
  for (graph::Vertex v = 0; v < n; ++v) {
    if (tree.is_leaf(v)) continue;
    const std::uint32_t k = tree.level(v);
    const auto kids = tree.children(v);
    for (model::Message m = 0; m < n; ++m) {
      builder.add(static_cast<std::size_t>(n) - 2 + m + k, m, v, kids);
    }
  }

  model::Schedule schedule = builder.build();
  MG_ENSURES(schedule.total_time() ==
             simple_total_time(n, instance.radius()));
  return schedule;
}

}  // namespace mg::gossip
