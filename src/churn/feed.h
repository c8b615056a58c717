// Seeded churn workloads: timestamped streams of edge/node add/remove
// events, generated against a scratch `DynamicGraph` so every event is
// *legal* at its position in the stream — edges are added only where
// absent, removed only where present and non-bridging (the network the
// paper gossips on must stay connected), and node removals target leaf
// vertices.  Legality per prefix means any prefix of a feed is itself a
// valid feed, which is what the tests' shrinker (tests/shrinker.h)
// exploits.
//
// Three generator shapes, mirroring the dynamic-network literature the
// ISSUE cites (uniformly rewiring rounds, localized hotspots, and
// partition/heal waves):
//   * `uniform_feed`       — i.i.d. add/remove over the whole vertex set;
//   * `hotspot_feed`       — the same mix, but biased into a small hot
//     vertex subset (localized churn);
//   * `partition_heal_feed` — waves that thin a BFS-ball's boundary down
//     to a single bridge (near-partition), then re-add the cut edges in
//     reverse (heal).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/dynamic.h"
#include "graph/graph.h"

namespace mg::churn {

enum class EventKind : std::uint8_t {
  kAddEdge,
  kRemoveEdge,
  kAddNode,     ///< appends vertex n attached to `u`
  kRemoveNode,  ///< removes leaf `u` (last vertex renumbered into the gap)
};

[[nodiscard]] const char* event_kind_name(EventKind kind);

/// One timestamped topology mutation.  `time` is the gossip round at which
/// the mutation lands; feeds emit non-decreasing times.
struct ChurnEvent {
  EventKind kind = EventKind::kAddEdge;
  graph::Vertex u = 0;
  graph::Vertex v = 0;  ///< unused for node events
  std::uint64_t time = 0;
};

struct FeedOptions {
  std::size_t events = 64;
  std::uint64_t seed = 1;
  /// Probability an edge event is an insertion (uniform/hotspot feeds).
  double add_fraction = 0.5;
  /// Timestamps spread over roughly this many rounds.
  std::uint64_t horizon_rounds = 100;
  /// When true, a slice of events are node add/removes.
  bool allow_node_events = false;
  double node_event_fraction = 0.125;
};

struct ChurnFeed {
  std::vector<ChurnEvent> events;
};

[[nodiscard]] ChurnFeed uniform_feed(const graph::Graph& g0,
                                     const FeedOptions& options = {});
[[nodiscard]] ChurnFeed hotspot_feed(const graph::Graph& g0,
                                     const FeedOptions& options = {});
[[nodiscard]] ChurnFeed partition_heal_feed(const graph::Graph& g0,
                                            const FeedOptions& options = {});

/// Applies one event to `g` (the replay half of the generators' legality
/// contract).  Returns the affected vertex pair — for kAddNode the second
/// element is the id the fresh vertex received.
std::pair<graph::Vertex, graph::Vertex> apply_event(graph::DynamicGraph& g,
                                                    const ChurnEvent& event);

}  // namespace mg::churn
