// Negative-path validator tests: each test takes a *valid*
// ConcurrentUpDown schedule, applies one targeted corruption, and asserts
// that the validator rejects it with the distinct reason for that rule —
// so a validator regression that starts accepting bad schedules (or
// misattributing errors) is caught, not just the happy path.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "gossip/solve.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "model/schedule.h"
#include "model/validator.h"
#include "test_util.h"

namespace mg {
namespace {

using gossip::Algorithm;
using model::Schedule;
using model::Transmission;

struct Fixture {
  gossip::Solution sol;
  graph::Graph tree;
  std::vector<model::Message> initial;

  explicit Fixture(const graph::Graph& g)
      : sol(gossip::solve_gossip(g, Algorithm::kConcurrentUpDown)),
        tree(sol.instance.tree().as_graph()),
        initial(sol.instance.initial()) {
    EXPECT_TRUE(sol.report.ok) << sol.report.error;
  }

  [[nodiscard]] model::ValidationReport validate(
      const Schedule& schedule,
      const model::CommModel& model = model::multicast_model()) const {
    model::ValidatorOptions options;
    options.model = &model;
    return model::validate_schedule(tree, schedule, initial, options);
  }
};

/// Copies `s` with `edit(t, tx)` applied to every transmission.
template <typename Edit>
Schedule rewrite(const Schedule& s, Edit&& edit) {
  model::ScheduleBuilder out;
  for (model::RoundCursor round(s); round.next();) {
    const std::size_t t = round.index();
    for (const model::Tx& tx : round.txs()) {
      Transmission copy = test::transmission_of(s, tx);
      edit(t, copy);
      out.add(t, copy);
    }
  }
  return out.build();
}

/// `s` with `tx` added at time `t`, after that round's own tuples.
Schedule with_tuple(const Schedule& s, std::size_t t, const Transmission& tx) {
  model::ScheduleBuilder builder;
  for (model::RoundCursor round(s); round.next();) {
    for (const model::Tx& x : round.txs()) {
      builder.add(round.index(), test::transmission_of(s, x));
    }
  }
  builder.add(t, tx);
  return builder.build();
}

/// True when `v` sends some message in round `t` of `s`.
bool sends_in_round(const Schedule& s, std::size_t t, graph::Vertex v) {
  const auto rounds = test::rounds_of(s);
  return t < rounds.size() &&
         std::any_of(rounds[t].begin(), rounds[t].end(),
                     [&](const model::Tx& tx) { return tx.sender == v; });
}

TEST(ValidatorNegative, DuplicateReceiverInOneRound) {
  const Fixture f(graph::star(8));

  // Find a round where some receiver x has a neighbor w that is idle as a
  // sender; w additionally sending its own message to x makes x receive
  // twice that round.  w always holds its origin message, and stays
  // adjacent, so no earlier rule can fire instead.
  bool corrupted = false;
  for (model::RoundCursor round(f.sol.schedule); !corrupted && round.next();) {
    const std::size_t t = round.index();
    for (const model::Tx& tx : round.txs()) {
      for (const graph::Vertex x : f.sol.schedule.receivers(tx)) {
        for (const graph::Vertex w : f.tree.neighbors(x)) {
          if (w == tx.sender || sends_in_round(f.sol.schedule, t, w)) {
            continue;
          }
          const Schedule bad =
              with_tuple(f.sol.schedule, t, {f.initial[w], w, {x}});
          const auto report = f.validate(bad);
          EXPECT_FALSE(report.ok);
          EXPECT_NE(report.error.find("receives two messages in one round"),
                    std::string::npos)
              << report.error;
          corrupted = true;
          break;
        }
        if (corrupted) break;
      }
      if (corrupted) break;
    }
  }
  ASSERT_TRUE(corrupted) << "no corruptible (round, receiver) pair found";
}

TEST(ValidatorNegative, NonAdjacentSend) {
  const Fixture f(graph::star(8));

  // Retarget the first transmission at a non-neighbor of its sender.
  bool corrupted = false;
  const Schedule bad = rewrite(f.sol.schedule, [&](std::size_t, auto& tx) {
    if (corrupted) return;
    for (graph::Vertex y = 0; y < f.tree.vertex_count(); ++y) {
      if (y != tx.sender && !f.tree.has_edge(tx.sender, y)) {
        tx.receivers = {y};
        corrupted = true;
        return;
      }
    }
  });
  ASSERT_TRUE(corrupted) << "no non-adjacent retarget found";
  const auto report = f.validate(bad);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("not adjacent to sender"), std::string::npos)
      << report.error;
}

TEST(ValidatorNegative, SendBeforeHold) {
  const Fixture f(graph::fig4_network());

  // In round 0 every processor holds exactly its own message; an idle
  // processor w sending some *other* message is a hold violation (checked
  // before any receiver rule, so the reason is unambiguous).
  graph::Vertex w = graph::kNoVertex;
  for (graph::Vertex v = 0; v < f.tree.vertex_count(); ++v) {
    if (!sends_in_round(f.sol.schedule, 0, v)) {
      w = v;
      break;
    }
  }
  ASSERT_NE(w, graph::kNoVertex) << "every processor sends in round 0";
  const model::Message foreign =
      f.initial[w == 0 ? 1 : 0];  // a message w does not hold at time 0
  ASSERT_NE(foreign, f.initial[w]);
  const Schedule bad = with_tuple(
      f.sol.schedule, 0, {foreign, w, {f.tree.neighbors(w).front()}});
  const auto report = f.validate(bad);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("sender does not hold the message"),
            std::string::npos)
      << report.error;
}

TEST(ValidatorNegative, MulticastRejectedUnderTelephoneModel) {
  const Fixture f(graph::star(8));

  // On a star the down phase must multicast (fan-out > 1), so the very
  // same schedule that passes the multicast model violates |D| = 1.
  ASSERT_GE(f.sol.schedule.max_fanout(), 2u);
  const auto report =
      f.validate(f.sol.schedule, model::telephone_model());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("multicast under telephone model"),
            std::string::npos)
      << report.error;
}

TEST(ValidatorNegative, ErrorReasonsAreDistinct) {
  // The four corruption modes above must be distinguishable by substring;
  // guard the message wording the other tests rely on.
  const std::vector<std::string> reasons = {
      "receives two messages in one round",
      "not adjacent to sender",
      "sender does not hold the message",
      "multicast under telephone model",
  };
  for (std::size_t i = 0; i < reasons.size(); ++i) {
    for (std::size_t j = i + 1; j < reasons.size(); ++j) {
      EXPECT_EQ(reasons[i].find(reasons[j]), std::string::npos);
      EXPECT_EQ(reasons[j].find(reasons[i]), std::string::npos);
    }
  }
}

}  // namespace
}  // namespace mg
