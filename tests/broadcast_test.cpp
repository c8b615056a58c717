// Tests for §2's optimal multicast broadcast.
#include <gtest/gtest.h>

#include "gossip/broadcast.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "graph/properties.h"
#include "model/validator.h"
#include "support/rng.h"

namespace mg::gossip {
namespace {

TEST(Broadcast, TimeEqualsEccentricity) {
  Rng rng(2);
  const std::vector<graph::Graph> graphs = {
      graph::path(9),  graph::cycle(8),        graph::grid(4, 5),
      graph::star(10), graph::petersen(),      graph::hypercube(4),
      graph::random_connected_gnp(30, 0.15, rng),
  };
  for (const auto& g : graphs) {
    for (graph::Vertex source : {graph::Vertex{0},
                                 static_cast<graph::Vertex>(
                                     g.vertex_count() / 2)}) {
      const auto schedule = multicast_broadcast(g, source);
      const auto report = model::validate_broadcast(g, schedule, source);
      ASSERT_TRUE(report.ok) << report.error;
      EXPECT_EQ(schedule.total_time(), *graph::eccentricity(g, source));
    }
  }
}

TEST(Broadcast, EachVertexReceivesAtItsBfsDistance) {
  const auto g = graph::grid(5, 6);
  const graph::Vertex source = 7;
  const auto schedule = multicast_broadcast(g, source);
  const auto dist = graph::bfs_distances(g, source);
  std::vector<std::size_t> arrival(g.vertex_count(), 0);
  for (model::RoundCursor round(schedule); round.next();) {
    const std::size_t t = round.index();
    for (const auto& tx : round.txs()) {
      for (graph::Vertex r : schedule.receivers(tx)) arrival[r] = t + 1;
    }
  }
  for (graph::Vertex v = 0; v < g.vertex_count(); ++v) {
    if (v == source) continue;
    EXPECT_EQ(arrival[v], dist[v]) << "vertex " << v;
  }
}

TEST(Broadcast, EveryVertexReceivesExactlyOnce) {
  const auto g = graph::petersen();
  const auto schedule = multicast_broadcast(g, 0);
  std::vector<int> receipts(10, 0);
  for (model::RoundCursor round(schedule); round.next();) {
    for (const auto& tx : round.txs()) {
      for (graph::Vertex r : schedule.receivers(tx)) ++receipts[r];
    }
  }
  EXPECT_EQ(receipts[0], 0);
  for (graph::Vertex v = 1; v < 10; ++v) EXPECT_EQ(receipts[v], 1);
}

TEST(Broadcast, CompleteGraphIsOneRound) {
  const auto schedule = multicast_broadcast(graph::complete(9), 4);
  EXPECT_EQ(schedule.total_time(), 1u);
  EXPECT_EQ(schedule.transmission_count(), 1u);
  EXPECT_EQ(schedule.max_fanout(), 8u);
}

TEST(Broadcast, SingleVertexIsEmpty) {
  EXPECT_EQ(multicast_broadcast(graph::Graph(1), 0).total_time(), 0u);
}

}  // namespace
}  // namespace mg::gossip
