// Literal verification of the §3.2 step windows on random trees: every
// transmission and receipt of the ConcurrentUpDown schedule is matched
// against the time windows the paper assigns to steps (U1)-(U4) and
// (D1)-(D3).  This pins the implementation to the paper's text, not merely
// to "some valid n + r schedule".
#include <gtest/gtest.h>

#include "gossip/concurrent_updown.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "support/rng.h"
#include "tree/spanning_tree.h"

namespace mg::gossip {
namespace {

struct Windows : ::testing::TestWithParam<std::uint64_t> {
  Instance make_instance() const {
    Rng rng(GetParam());
    const auto n = static_cast<graph::Vertex>(3 + rng.below(45));
    Rng tree_rng(GetParam() * 977 + 3);
    return Instance(
        tree::root_tree_graph(graph::random_tree(n, tree_rng), 0));
  }
};

TEST_P(Windows, EverySendAndReceiptLandsInAPaperWindow) {
  const auto instance = make_instance();
  const auto& tree = instance.tree();
  const auto& labels = instance.labels();
  const graph::Vertex n = tree.vertex_count();
  const auto schedule = concurrent_updown(instance);

  for (model::RoundCursor round(schedule); round.next();) {
    const std::size_t t = round.index();
    for (const auto& tx : round.txs()) {
      const graph::Vertex v = tx.sender;
      const std::size_t i = labels.label(v);
      const std::size_t j = labels.subtree_end(v);
      const std::size_t k = tree.level(v);
      const std::size_t w = labels.lip_count(v);

      bool to_parent = false;
      bool to_children = false;
      for (graph::Vertex r : schedule.receivers(tx)) {
        (r == (tree.is_root(v) ? graph::kNoVertex : tree.parent(v))
             ? to_parent
             : to_children) = true;
      }

      if (to_parent) {
        // (U3): the lip leaves at time 0; (U4): rips m at time m - k.
        if (t == 0 && w == 1 && tx.message == i) {
          // (U3), valid.
        } else {
          EXPECT_GE(tx.message, i + w) << "rip range at v=" << v;
          EXPECT_LE(tx.message, j);
          EXPECT_EQ(t, tx.message - k) << "(U4) time at v=" << v;
        }
      }
      if (to_children) {
        const bool body = labels.is_body(v, tx.message);
        if (body) {
          // (D3): message m in [i, j] at time m - k, except the i == k
          // delay of the own message to j - k + 1.
          if (tx.message == i && i == k) {
            EXPECT_EQ(t, j - k + 1) << "(D3) i==k delay at v=" << v;
          } else {
            EXPECT_EQ(t, tx.message - k) << "(D3) time at v=" << v;
          }
        } else {
          // (D2): o-messages relayed within [2, i-k-1] or [j-k+1, n+k].
          const bool first_window = t >= 2 && i >= k + 1 && t <= i - k - 1;
          const bool second_window = t >= j - k + 1 && t <= n + k;
          EXPECT_TRUE(first_window || second_window)
              << "(D2) window at v=" << v << " t=" << t
              << " msg=" << tx.message;
        }
      }

      // Receipt windows.
      for (graph::Vertex r : schedule.receivers(tx)) {
        const std::size_t ri = labels.label(r);
        const std::size_t rj = labels.subtree_end(r);
        const std::size_t rk = tree.level(r);
        const std::size_t arrive = t + 1;
        if (!tree.is_root(r) && tree.parent(r) == v) {
          // (D1): o-messages from the parent arrive within [2, i-k+1] or
          // [j-k+3, n+k].
          EXPECT_FALSE(labels.is_body(r, tx.message))
              << "parent must never send r its own subtree's message";
          const bool first = arrive >= 2 && ri >= rk + 1 &&
                             arrive <= ri - rk + 1;
          const bool second = arrive >= rj - rk + 3 && arrive <= n + rk;
          EXPECT_TRUE(first || second)
              << "(D1) window at r=" << r << " arrive=" << arrive;
        } else {
          // Child-to-parent: (U1) lookahead at time 1, (U2) r-messages at
          // times i-k+2 .. j-k (the s-message itself never arrives at r).
          EXPECT_TRUE(labels.is_body(r, tx.message));
          if (tx.message == ri + 1 && arrive == 1) {
            // (U1), valid.
          } else {
            EXPECT_GE(tx.message, ri + 1) << "(U2) range at r=" << r;
            EXPECT_LE(tx.message, rj);
            EXPECT_EQ(arrive, tx.message - rk)
                << "(U2) time at r=" << r << " msg=" << tx.message;
          }
        }
      }
    }
  }
}

TEST_P(Windows, RootReceivesSequentially) {
  // Lemma 2 at the root: message m >= 1 arrives exactly at time m.
  const auto instance = make_instance();
  const auto& tree = instance.tree();
  const auto schedule = concurrent_updown(instance);
  const graph::Vertex root = tree.root();
  std::vector<std::size_t> arrival(instance.vertex_count(), 0);
  for (model::RoundCursor round(schedule); round.next();) {
    const std::size_t t = round.index();
    for (const auto& tx : round.txs()) {
      for (graph::Vertex r : schedule.receivers(tx)) {
        if (r == root) arrival[tx.message] = t + 1;
      }
    }
  }
  for (model::Message m = 1; m < instance.vertex_count(); ++m) {
    EXPECT_EQ(arrival[m], m);
  }
}

TEST_P(Windows, EveryVertexLastReceiptIsMessageZeroAtNPlusK) {
  // Theorem 1's completion structure: each non-root vertex receives the
  // root's message (label 0) at exactly time n + level.
  const auto instance = make_instance();
  const auto& tree = instance.tree();
  const graph::Vertex n = instance.vertex_count();
  const auto schedule = concurrent_updown(instance);
  std::vector<std::size_t> zero_arrival(n, 0);
  for (model::RoundCursor round(schedule); round.next();) {
    const std::size_t t = round.index();
    for (const auto& tx : round.txs()) {
      if (tx.message != 0) continue;
      for (graph::Vertex r : schedule.receivers(tx)) zero_arrival[r] = t + 1;
    }
  }
  for (graph::Vertex v = 0; v < n; ++v) {
    if (tree.is_root(v)) continue;
    EXPECT_EQ(zero_arrival[v], n + tree.level(v)) << "v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTrees, Windows,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace mg::gossip
