#include "gossip/broadcast.h"

#include "tree/spanning_tree.h"

namespace mg::gossip {

model::Schedule multicast_broadcast(const graph::Graph& g,
                                    graph::Vertex source) {
  // The offline tie-break (each receiver picks one of its possible senders)
  // is exactly a BFS tree: v receives from its BFS parent at time level(v).
  const auto bfs = tree::bfs_tree(g, source);
  model::ScheduleBuilder schedule;
  for (graph::Vertex v = 0; v < g.vertex_count(); ++v) {
    if (bfs.is_leaf(v)) continue;
    const auto kids = bfs.children(v);
    schedule.add(bfs.level(v), source, v, kids);
  }
  return schedule.build();
}

}  // namespace mg::gossip
