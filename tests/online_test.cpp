// Tests for the §4 online adaptation: the distributed protocol running on
// purely local information must reproduce the offline ConcurrentUpDown
// schedule exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "gossip/concurrent_updown.h"
#include "gossip/online.h"
#include "support/rng.h"
#include "test_util.h"
#include "tree/spanning_tree.h"

namespace mg::gossip {
namespace {

TEST(Online, LocalInfoExtraction) {
  const auto instance = Instance::from_network(graph::fig4_network());
  const auto info = local_info_for(instance, 4);
  EXPECT_EQ(info.n, 16u);
  EXPECT_EQ(info.self, 4u);
  EXPECT_EQ(info.i, 4u);
  EXPECT_EQ(info.j, 10u);
  EXPECT_EQ(info.k, 1u);
  EXPECT_TRUE(info.has_parent);
  EXPECT_FALSE(info.first_child);
  EXPECT_EQ(info.parent, 0u);
  EXPECT_EQ(info.children, (std::vector<graph::Vertex>{5, 8}));
  ASSERT_EQ(info.child_intervals.size(), 2u);
  EXPECT_EQ(info.child_intervals[0], std::make_pair(5u, 7u));
  EXPECT_EQ(info.child_intervals[1], std::make_pair(8u, 10u));
}

TEST(Online, FirstChildBit) {
  const auto instance = Instance::from_network(graph::fig4_network());
  EXPECT_TRUE(local_info_for(instance, 1).first_child);
  EXPECT_TRUE(local_info_for(instance, 5).first_child);
  EXPECT_FALSE(local_info_for(instance, 8).first_child);
  EXPECT_FALSE(local_info_for(instance, 0).has_parent);
}

TEST(Online, MatchesOfflineOnFig4) {
  const auto instance = Instance::from_network(graph::fig4_network());
  const auto offline = concurrent_updown(instance);
  const auto online = run_online(instance);
  EXPECT_TRUE(model::equivalent(offline, online))
      << "offline:\n" << offline.to_string()
      << "online:\n" << online.to_string();
}

TEST(Online, MatchesOfflineAcrossFamilies) {
  for (const auto& family : test::families()) {
    for (graph::Vertex knob : {3u, 6u, 10u}) {
      const auto instance = Instance::from_network(family.make(knob));
      EXPECT_TRUE(model::equivalent(concurrent_updown(instance),
                                    run_online(instance)))
          << family.name << " knob=" << knob;
    }
  }
}

TEST(Online, MatchesOfflineOnRandomTrees) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(seed);
    const auto n = static_cast<graph::Vertex>(2 + rng.below(40));
    const auto instance =
        Instance(tree::root_tree_graph(graph::random_tree(n, rng), 0));
    EXPECT_TRUE(model::equivalent(concurrent_updown(instance),
                                  run_online(instance)))
        << "seed=" << seed << " n=" << n;
  }
}

/// True when senders strictly ascend inside every round of `schedule`.
bool sender_ordered(const model::Schedule& schedule) {
  for (model::RoundCursor cursor(schedule); cursor.next();) {
    const auto round = cursor.txs();
    for (std::size_t i = 1; i < round.size(); ++i) {
      if (round[i - 1].sender >= round[i].sender) return false;
    }
  }
  return true;
}

TEST(Online, MatchesOfflineFromEveryBfsRoot) {
  // The online protocol shares no code with the offline synthesis: rooting
  // sparse random graphs at every vertex gives trees of every depth and
  // branching, each a differential between the two.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(0x0b1eULL + seed);
    const auto n = static_cast<graph::Vertex>(8 + rng.below(41));
    const graph::Graph g =
        graph::random_connected_gnp(n, 2.5 / static_cast<double>(n), rng);
    for (graph::Vertex root = 0; root < n; ++root) {
      const auto instance = Instance(tree::bfs_tree(g, root));
      const model::Schedule offline = concurrent_updown(instance);
      const model::Schedule online = run_online(instance);
      ASSERT_TRUE(model::equivalent(offline, online))
          << "seed=" << seed << " n=" << n << " root=" << root;
      ASSERT_TRUE(sender_ordered(offline)) << "seed=" << seed;
      ASSERT_TRUE(sender_ordered(online)) << "seed=" << seed;
    }
  }
}

TEST(Online, PerProcessorDecisionParityWithOffline) {
  // The strongest form of the §4 claim, pinned processor by processor:
  // drive every OnlineProcessor by hand (deliveries replayed from the
  // offline schedule's wire traffic) and require that at EVERY round each
  // processor's decision — including the exact receiver set — equals the
  // offline ConcurrentUpDown row for that (round, sender), with no global
  // schedule object anywhere in the loop.
  for (const auto& family : test::families()) {
    for (graph::Vertex knob : {3u, 5u, 9u}) {
      const auto instance = Instance::from_network(family.make(knob));
      const auto offline = concurrent_updown(instance);
      const auto& tree = instance.tree();
      const graph::Vertex n = instance.vertex_count();

      std::vector<OnlineProcessor> procs;
      procs.reserve(n);
      for (graph::Vertex v = 0; v < n; ++v) {
        procs.emplace_back(local_info_for(instance, v));
      }

      const auto rounds = test::rounds_of(offline);
      for (std::size_t t = 0; t < offline.round_count(); ++t) {
        // Receive (sends of round t-1 arrive at t) happens before send.
        if (t > 0) {
          for (const auto& tx : rounds[t - 1]) {
            for (const graph::Vertex r : offline.receivers(tx)) {
              procs[r].deliver(t, tx.message,
                               /*from_parent=*/!tree.is_root(r) &&
                                   tree.parent(r) == tx.sender);
            }
          }
        }
        std::vector<std::optional<model::Transmission>> expected(n);
        for (const auto& tx : rounds[t]) {
          expected[tx.sender] = test::transmission_of(offline, tx);
        }
        for (graph::Vertex v = 0; v < n; ++v) {
          SCOPED_TRACE(family.name + " knob=" + std::to_string(knob) +
                       " t=" + std::to_string(t) + " v=" +
                       std::to_string(v));
          const auto actual = procs[v].send_at(t);
          ASSERT_EQ(actual.has_value(), expected[v].has_value());
          if (!actual.has_value()) continue;
          EXPECT_EQ(actual->sender, v);
          EXPECT_EQ(actual->message, expected[v]->message);
          auto a = actual->receivers;
          auto b = expected[v]->receivers;
          std::sort(a.begin(), a.end());
          std::sort(b.begin(), b.end());
          EXPECT_EQ(a, b);
        }
      }
    }
  }
}

TEST(Online, ScheduleIsValidOnItsOwn) {
  const auto instance = Instance::from_network(graph::fig4_network());
  const auto schedule = run_online(instance);
  test::expect_valid_gossip(instance, schedule);
}

TEST(Online, ProcessorSendsNothingWithoutPlan) {
  const auto instance = Instance::from_network(graph::path(5));
  OnlineProcessor proc(local_info_for(instance, instance.tree().root()));
  // The root never sends at time 0 (no lip, D3 message 0 waits).
  EXPECT_FALSE(proc.send_at(0).has_value());
}

TEST(Online, DeliverTriggersRelay) {
  // A middle vertex relays an o-message from its parent the round it
  // arrives (outside the delay window).
  const auto instance = Instance::from_network(graph::path(7));
  const auto& tree = instance.tree();
  graph::Vertex middle = graph::kNoVertex;
  for (graph::Vertex v = 0; v < 7; ++v) {
    if (!tree.is_root(v) && !tree.is_leaf(v)) middle = v;
  }
  ASSERT_NE(middle, graph::kNoVertex);
  OnlineProcessor proc(local_info_for(instance, middle));
  const auto& info = proc.info();
  const std::size_t safe_time = info.n + info.k;  // last (D1) arrival slot
  proc.deliver(safe_time, 0, /*from_parent=*/true);
  const auto tx = proc.send_at(safe_time);
  ASSERT_TRUE(tx.has_value());
  EXPECT_EQ(tx->message, 0u);
}

}  // namespace
}  // namespace mg::gossip
