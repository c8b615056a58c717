// Tests for the gather / scatter collectives.
#include <gtest/gtest.h>

#include "gossip/collectives.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "model/validator.h"
#include "support/bitset.h"
#include "support/rng.h"
#include "test_util.h"
#include "tree/spanning_tree.h"

namespace mg::gossip {
namespace {

/// Replays `schedule` and returns the final hold sets (no rule checks —
/// pair with the validator for legality).
BitMatrix replay(const Instance& instance, const model::Schedule& schedule,
                 bool root_holds_all) {
  const graph::Vertex n = instance.vertex_count();
  BitMatrix hold(n, n);
  if (root_holds_all) {
    for (model::Message m = 0; m < n; ++m) {
      hold.set(instance.tree().root(), m);
    }
  } else {
    for (graph::Vertex v = 0; v < n; ++v) {
      hold.set(v, instance.labels().label(v));
    }
  }
  for (model::RoundCursor round(schedule); round.next();) {
    for (const auto& tx : round.txs()) {
      for (graph::Vertex r : schedule.receivers(tx)) hold.set(r, tx.message);
    }
  }
  return hold;
}

model::ValidationReport check_rules(const Instance& instance,
                                    const model::Schedule& schedule,
                                    bool root_holds_all) {
  const graph::Vertex n = instance.vertex_count();
  std::vector<std::vector<model::Message>> initial(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    if (root_holds_all) {
      if (instance.tree().is_root(v)) {
        for (model::Message m = 0; m < n; ++m) initial[v].push_back(m);
      }
    } else {
      initial[v].push_back(instance.labels().label(v));
    }
  }
  model::ValidatorOptions options;
  options.require_completion = false;  // collective-specific goals below
  return model::validate_schedule_general(instance.tree().as_graph(),
                                          schedule, initial, n, options);
}

TEST(Gather, RootCollectsEverythingInNMinusOne) {
  for (const auto& family : test::families()) {
    const auto instance = Instance::from_network(family.make(8));
    const auto schedule = gather_schedule(instance);
    const auto report = check_rules(instance, schedule, false);
    ASSERT_TRUE(report.ok) << family.name << ": " << report.error;
    EXPECT_EQ(schedule.total_time(), instance.vertex_count() - 1u)
        << family.name;
    const auto hold = replay(instance, schedule, false);
    EXPECT_EQ(hold.count(instance.tree().root()), hold.bits()) << family.name;
    EXPECT_TRUE(schedule.is_telephone()) << family.name;
  }
}

TEST(Gather, RootReceivesMessageMAtTimeM) {
  const auto instance = Instance::from_network(graph::fig4_network());
  const auto schedule = gather_schedule(instance);
  const auto root = instance.tree().root();
  std::vector<std::size_t> arrival(16, 0);
  for (model::RoundCursor round(schedule); round.next();) {
    const std::size_t t = round.index();
    for (const auto& tx : round.txs()) {
      for (graph::Vertex r : schedule.receivers(tx)) {
        if (r == root) arrival[tx.message] = t + 1;
      }
    }
  }
  for (model::Message m = 1; m < 16; ++m) EXPECT_EQ(arrival[m], m);
}

TEST(Scatter, EveryDestinationGetsItsOwnMessage) {
  for (const auto& family : test::families()) {
    const auto instance = Instance::from_network(family.make(8));
    const auto schedule = scatter_schedule(instance);
    const auto report = check_rules(instance, schedule, true);
    ASSERT_TRUE(report.ok) << family.name << ": " << report.error;
    const auto hold = replay(instance, schedule, true);
    for (graph::Vertex v = 0; v < instance.vertex_count(); ++v) {
      EXPECT_TRUE(hold.test(v, instance.labels().label(v)))
          << family.name << " v=" << v;
    }
    EXPECT_EQ(schedule.total_time(), scatter_time(instance)) << family.name;
  }
}

TEST(Scatter, MakespanFormula) {
  // Star: all destinations at depth 1, served one per round: n - 1 total.
  const auto star = Instance::from_network(graph::star(9));
  EXPECT_EQ(scatter_time(star), 8u);
  // Chain rooted at the end: deepest-first means the far end's message
  // goes first; makespan = depth of the chain = n - 1... plus later
  // emissions t + depth(d_t) = t + (n-1-t) = n - 1 throughout.
  const Instance chain(tree::root_tree_graph(graph::path(9), 0));
  EXPECT_EQ(scatter_time(chain), 8u);
}

TEST(Scatter, DeepestFirstBeatsShallowFirstOnCombTrees) {
  // A caterpillar has many shallow legs and a deep spine end; serving the
  // deep destination last would pay t_max + depth.
  const auto instance = Instance::from_network(graph::caterpillar(6, 2));
  const auto best = scatter_time(instance);
  // Shallow-first alternative bound: the deepest destination (depth r)
  // would be emitted last, at round n - 2.
  const std::size_t worst =
      instance.vertex_count() - 2u + instance.radius();
  EXPECT_LT(best, worst);
}

TEST(Scatter, PerVertexReceiveOncePerRound) {
  const auto instance = Instance::from_network(graph::grid(4, 4));
  const auto schedule = scatter_schedule(instance);
  for (model::RoundCursor round(schedule); round.next();) {
    const std::size_t t = round.index();
    std::vector<graph::Vertex> receivers;
    for (const auto& tx : round.txs()) {
      const auto d = schedule.receivers(tx);
      receivers.insert(receivers.end(), d.begin(), d.end());
    }
    std::sort(receivers.begin(), receivers.end());
    EXPECT_EQ(std::adjacent_find(receivers.begin(), receivers.end()),
              receivers.end())
        << "t=" << t;
  }
}

TEST(Collectives, TrivialSizes) {
  const Instance one(tree::RootedTree::from_parents(0, {graph::kNoVertex}));
  EXPECT_EQ(gather_schedule(one).total_time(), 0u);
  EXPECT_EQ(scatter_schedule(one).total_time(), 0u);
  EXPECT_EQ(scatter_time(one), 0u);
}

}  // namespace
}  // namespace mg::gossip
