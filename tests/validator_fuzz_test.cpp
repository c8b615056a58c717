// Adversarial tests of the validator itself: start from a known-valid
// ConcurrentUpDown schedule and apply random single-point mutations; the
// validator must reject every mutation that actually breaks a rule and
// keep accepting benign ones.  This guards the test oracle the whole suite
// leans on.
//
// The differential half pins the flat-matrix validator to the one it
// replaced (reference_validator.h): every `ValidationReport` field, the
// exact error string included, must match under all five communication
// models, with completion required and not, on mutated, hand-made,
// model-adapted, random radio, repeated and weighted schedules.
#include <gtest/gtest.h>

#include <optional>

#include "gossip/concurrent_updown.h"
#include "gossip/repeated.h"
#include "gossip/solve.h"
#include "gossip/weighted.h"
#include "graph/generators.h"
#include "model/comm_model.h"
#include "model/legalize.h"
#include "model/validator.h"
#include "reference_validator.h"
#include "support/rng.h"
#include "test_util.h"

namespace mg::model {
namespace {

struct Mutation {
  Schedule schedule;
  bool must_be_invalid = false;
};

/// Applies one random mutation, of kind `kind` (0-3) or else a random
/// one; returns the mutated schedule and whether it is guaranteed to
/// violate a rule.
Mutation mutate(const Schedule& base, Rng& rng, graph::Vertex n,
                std::optional<std::uint64_t> kind = std::nullopt) {
  // Pick a random transmission.
  const auto rounds = test::rounds_of(base);
  std::vector<std::pair<std::size_t, std::size_t>> index;
  for (std::size_t t = 0; t < rounds.size(); ++t) {
    for (std::size_t e = 0; e < rounds[t].size(); ++e) {
      index.emplace_back(t, e);
    }
  }
  const auto [t, e] = index[rng.below(index.size())];

  ScheduleBuilder mutated;
  const auto copy_all_except = [&](auto&& replace) {
    for (std::size_t tt = 0; tt < rounds.size(); ++tt) {
      for (std::size_t ee = 0; ee < rounds[tt].size(); ++ee) {
        const Transmission tx = test::transmission_of(base, rounds[tt][ee]);
        if (tt == t && ee == e) {
          replace(tt, tx);
        } else {
          mutated.add(tt, tx);
        }
      }
    }
  };

  switch (kind ? *kind : rng.below(4)) {
    case 0: {
      // Drop the transmission entirely: the gossip cannot complete (every
      // ConcurrentUpDown transmission delivers at least one new message).
      copy_all_except([&](std::size_t, const Transmission&) {});
      return {mutated.build(), true};
    }
    case 1: {
      // Duplicate it in the same round: the sender sends twice.
      copy_all_except([&](std::size_t tt, const Transmission& original) {
        mutated.add(tt, original);
        mutated.add(tt, original);
      });
      return {mutated.build(), true};
    }
    case 2: {
      // Retarget one receiver to the sender itself: self-delivery.
      copy_all_except([&](std::size_t tt, const Transmission& original) {
        Transmission changed = original;
        changed.receivers[0] = original.sender;
        std::sort(changed.receivers.begin(), changed.receivers.end());
        changed.receivers.erase(std::unique(changed.receivers.begin(),
                                            changed.receivers.end()),
                                changed.receivers.end());
        mutated.add(tt, changed);
      });
      return {mutated.build(), true};
    }
    default: {
      // Replace the message with one the sender provably does not hold at
      // time t: a message from OUTSIDE its subtree before any arrives
      // (only safe to assert at t == 0 for non-root senders); otherwise
      // fall back to the drop mutation.
      if (t == 0) {
        copy_all_except([&](std::size_t tt, const Transmission& original) {
          Transmission changed = original;
          changed.message = (original.message + n / 2) % n;
          mutated.add(tt, changed);
        });
        return {mutated.build(), true};
      }
      copy_all_except([&](std::size_t, const Transmission&) {});
      return {mutated.build(), true};
    }
  }
}

TEST(ValidatorFuzz, MutationsAreCaught) {
  Rng rng(20260706);
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<graph::Vertex>(5 + rng.below(30));
    Rng graph_rng(rng());
    const auto g = graph::random_connected_gnp(
        n, 3.0 / static_cast<double>(n), graph_rng);
    const auto sol = gossip::solve_gossip(g);
    ASSERT_TRUE(sol.report.ok);
    const auto tree_graph = sol.instance.tree().as_graph();
    const auto initial = sol.instance.initial();

    auto mutation = mutate(sol.schedule, rng, n);
    const auto report =
        validate_schedule(tree_graph, mutation.schedule, initial);
    if (mutation.must_be_invalid) {
      EXPECT_FALSE(report.ok)
          << "trial " << trial << ": mutation slipped through";
    }
  }
}

TEST(ValidatorFuzz, TimeShiftForwardPreservesRulesButDelaysCausality) {
  // Shifting a whole valid schedule one round later keeps it valid (all
  // relative timings preserved).
  const auto g = graph::grid(3, 4);
  const auto sol = gossip::solve_gossip(g);
  ScheduleBuilder builder;
  for (RoundCursor round(sol.schedule); round.next();) {
    const std::size_t t = round.index();
    for (const Tx& tx : round.txs()) {
      builder.add(t + 1, tx.message, tx.sender, sol.schedule.receivers(tx));
    }
  }
  const Schedule shifted = builder.build();
  const auto report = validate_schedule(sol.instance.tree().as_graph(),
                                        shifted, sol.instance.initial());
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(shifted.total_time(), sol.schedule.total_time() + 1);
}

TEST(ValidatorFuzz, TimeShiftBackwardBreaksCausality) {
  // Pulling every round one earlier makes some forward come before its
  // arrival (the relay chains are tight), so the validator must object.
  const auto g = graph::grid(3, 4);
  const auto sol = gossip::solve_gossip(g);
  ScheduleBuilder builder;
  for (RoundCursor round(sol.schedule); round.next();) {
    for (const Tx& tx : round.txs()) {
      if (round.index() == 0) continue;
      builder.add(round.index() - 1, tx.message, tx.sender,
                  sol.schedule.receivers(tx));
    }
  }
  const Schedule shifted = builder.build();
  // Round-0 transmissions are dropped; even so the earlier rounds now
  // forward messages before receipt.
  const auto report = validate_schedule(sol.instance.tree().as_graph(),
                                        shifted, sol.instance.initial());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("does not hold"), std::string::npos)
      << report.error;
}

TEST(ValidatorFuzz, ReceiverSwapAcrossRoundsCaught) {
  // Moving one multicast a round earlier collides with that round's
  // receive slots or breaks causality; across many seeds the validator
  // must never accept a move that creates a double receive.
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const auto n = static_cast<graph::Vertex>(6 + rng.below(20));
    Rng graph_rng(rng());
    const auto g = graph::random_connected_gnp(
        n, 3.0 / static_cast<double>(n), graph_rng);
    const auto sol = gossip::solve_gossip(g);
    ASSERT_TRUE(sol.report.ok);
    if (sol.instance.radius() < 2) continue;  // depth-1: the move can stay
                                              // legal (root holds msg 0)

    // Move the last round's transmission into round 0.
    ScheduleBuilder builder;
    const std::size_t last = sol.schedule.round_count() - 1;
    for (RoundCursor round(sol.schedule); round.next();) {
      const std::size_t t = round.index();
      for (const Tx& tx : round.txs()) {
        builder.add(t == last ? 0 : t, tx.message, tx.sender,
                    sol.schedule.receivers(tx));
      }
    }
    const Schedule moved = builder.build();
    const auto report = validate_schedule(sol.instance.tree().as_graph(),
                                          moved, sol.instance.initial());
    // The last round relays message 0 down at depth >= 1, long after its
    // arrival -- moving it to round 0 always breaks the hold rule (or a
    // receive slot).  Either way: invalid.
    EXPECT_FALSE(report.ok) << "trial " << trial;
  }
}


// ---- Differential battery: the validator against its reference ---------

void expect_same_report(const ValidationReport& got,
                        const ValidationReport& want) {
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.error, want.error);
  EXPECT_EQ(got.completion_time, want.completion_time);
  EXPECT_EQ(got.total_time, want.total_time);
  EXPECT_EQ(got.collided, want.collided);
}

/// Compares `validate_schedule_general` with the reference under every
/// built-in model, completion required and not.
void expect_general_matches(
    const graph::Graph& g, const Schedule& s,
    const std::vector<std::vector<Message>>& initial_sets,
    std::size_t message_count) {
  for (const CommModel* model : all_models()) {
    for (const bool complete : {true, false}) {
      SCOPED_TRACE(model->name() + (complete ? " complete" : " partial"));
      const ValidatorOptions options{.require_completion = complete,
                                     .model = model};
      expect_same_report(
          validate_schedule_general(g, s, initial_sets, message_count,
                                    options),
          test::reference_validate_schedule_general(g, s, initial_sets,
                                                    message_count, options));
    }
  }
}

/// Compares `validate_schedule` (and the general form on the same
/// singleton sets) with the reference under every built-in model,
/// completion required and not.  Returns the multicast report with
/// completion required.
ValidationReport expect_matches(const graph::Graph& g, const Schedule& s,
                                const std::vector<Message>& initial = {}) {
  for (const CommModel* model : all_models()) {
    for (const bool complete : {true, false}) {
      SCOPED_TRACE(model->name() + (complete ? " complete" : " partial"));
      const ValidatorOptions options{.require_completion = complete,
                                     .model = model};
      expect_same_report(
          validate_schedule(g, s, initial, options),
          test::reference_validate_schedule(g, s, initial, options));
    }
  }
  if (initial.empty() || initial.size() == g.vertex_count()) {
    std::vector<std::vector<Message>> sets(g.vertex_count());
    for (graph::Vertex v = 0; v < g.vertex_count(); ++v) {
      sets[v] = {initial.empty() ? v : initial[v]};
    }
    expect_general_matches(g, s, sets, g.vertex_count());
  }
  return validate_schedule(g, s, initial);
}

Schedule build(std::initializer_list<std::pair<std::size_t, Transmission>>
                   tuples) {
  ScheduleBuilder builder;
  for (const auto& [t, tx] : tuples) builder.add(t, tx);
  return builder.build();
}

TEST(ValidatorDifferential, EveryMutationKindOnEveryFamily) {
  Rng rng(20261017);
  for (const auto& family : test::families()) {
    SCOPED_TRACE(family.name);
    const auto g = family.make(5);
    const auto sol = gossip::solve_gossip(g);
    ASSERT_TRUE(sol.report.ok) << sol.report.error;
    const auto tree = sol.instance.tree().as_graph();
    const auto initial = sol.instance.initial();
    expect_matches(tree, sol.schedule, initial);
    for (std::uint64_t kind = 0; kind < 4; ++kind) {
      for (int trial = 0; trial < 3; ++trial) {
        SCOPED_TRACE("kind " + std::to_string(kind));
        const Mutation mutation =
            mutate(sol.schedule, rng, g.vertex_count(), kind);
        const ValidationReport report =
            expect_matches(tree, mutation.schedule, initial);
        if (mutation.must_be_invalid) {
          EXPECT_FALSE(report.ok);
        }
      }
    }
  }
}

TEST(ValidatorDifferential, LargerGossipSchedules) {
  // Every family at a larger knob (the grid and torus need multi-word hold
  // rows, n > 64), and every other algorithm's schedule on a 9×9 grid.
  for (const auto& family : test::families()) {
    SCOPED_TRACE(family.name);
    const auto sol = gossip::solve_gossip(family.make(12));
    expect_matches(sol.instance.tree().as_graph(), sol.schedule,
                   sol.instance.initial());
  }
  for (const gossip::Algorithm algorithm :
       {gossip::Algorithm::kSimple, gossip::Algorithm::kUpDown,
        gossip::Algorithm::kTelephone}) {
    const auto sol = gossip::solve_gossip(graph::grid(9, 9), algorithm);
    expect_matches(sol.instance.tree().as_graph(), sol.schedule,
                   sol.instance.initial());
  }
}

TEST(ValidatorDifferential, NonAdjacentReceiverAtEveryPosition) {
  // Sender 0 neighbors 2, 4 and 6; the offender sits first, in the middle,
  // last, past the end of the row, and twice (the first one is named).
  const graph::Graph g = graph::Graph::from_edges(
      8, std::vector<graph::Edge>{{0, 2}, {0, 4}, {0, 6}, {1, 2}, {3, 4},
                                  {5, 6}, {6, 7}});
  const std::vector<std::pair<std::vector<Vertex>, Vertex>> cases = {
      {{1, 4, 6}, 1}, {{2, 3, 6}, 3}, {{2, 4, 5}, 5},
      {{2, 4, 6, 7}, 7}, {{1, 3, 6}, 1}, {{2, 5}, 5}};
  for (const auto& [receivers, offender] : cases) {
    const Schedule s = build({{0, {0, 0, receivers}}});
    const ValidationReport report = expect_matches(g, s);
    EXPECT_EQ(report.error, "receiver " + std::to_string(offender) +
                                " not adjacent to sender at round 0, msg 0 "
                                "from 0");
  }
  // A non-adjacent receiver is named before a later self-delivery or
  // out-of-range receiver, and after an earlier one.
  expect_matches(g, build({{0, {6, 6, {1, 6}}}}));
  expect_matches(g, build({{0, {6, 6, {5, 6}}}}));
  expect_matches(g, build({{0, {6, 6, {5, 9}}}}));
  expect_matches(g, build({{0, {6, 6, {1, 9}}}}));
  expect_matches(g, build({{0, {0, 0, {0, 1}}}}));
}

TEST(ValidatorDifferential, EveryRuleViolation) {
  const graph::Graph g = graph::path(4);  // 0 - 1 - 2 - 3
  const std::vector<Schedule> cases = {
      build({{0, {0, 0, {1}}}, {1, {0, 1, {1}}}}),     // self-delivery
      build({{0, {0, 1, {0, 1, 2}}}}),                 // self in a multicast
      build({{0, {0, 9, {1}}}}),                       // sender range
      build({{1, {0, 0, {1}}}, {1, {7, 1, {2}}}}),     // message range
      build({{0, {1, 1, {0, 2, 9}}}}),                 // receiver range
      build({{0, {1, 1, {0}}}, {0, {1, 1, {2}}}}),     // double send
      build({{0, {0, 0, {1}}}, {0, {2, 2, {1}}}}),     // double receive
      build({{0, {1, 1, {0, 2}}}, {0, {3, 3, {2}}}}),  // double in multicast
      build({{0, {2, 1, {0}}}}),                       // sender lacks m
      build({{0, {0, 0, {1}}}, {0, {0, 1, {2}}}}),     // forward too early
      build({{0, {0, 0, {1}}}, {1, {0, 1, {2}}}}),     // incomplete gossip
      build({{0, {1, 1, {0, 2}}}, {0, {3, 3, {2}}},    // radio collision
             {0, {0, 0, {1}}}}),
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    EXPECT_FALSE(expect_matches(g, cases[i]).ok);
  }
  // Initial assignments: permuted, out of range, wrong size.
  const Schedule exchange = build({{0, {3, 0, {1}}}, {0, {0, 1, {0}}}});
  expect_matches(g, exchange, {3, 0, 1, 2});
  expect_matches(g, exchange, {3, 0, 4, 2});
  expect_matches(g, exchange, {3, 0, 1});
}

TEST(ValidatorDifferential, EmptyScheduleAndEmptyInnerRounds) {
  const graph::Graph g = graph::path(3);
  expect_matches(g, Schedule{});
  expect_matches(graph::path(1), Schedule{});
  // Rounds 2 and 3 stay empty.
  const Schedule gapped = build({{0, {1, 1, {0, 2}}}, {1, {0, 0, {1}}},
                                 {4, {0, 1, {2}}}, {4, {2, 2, {1}}},
                                 {5, {2, 1, {0}}}});
  ASSERT_EQ(gapped.round_count(), 6u);
  const ValidationReport report = expect_matches(g, gapped);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.total_time, 6u);
}

TEST(ValidatorDifferential, AdaptedSchedulesUnderEveryModel) {
  // Each model's legalization of a gossip schedule; the radio and beep
  // ones collide at unintended receivers.
  std::size_t collided = 0;
  for (const auto& family : test::families()) {
    SCOPED_TRACE(family.name);
    const auto sol = gossip::solve_gossip(family.make(5));
    const auto tree = sol.instance.tree().as_graph();
    for (const CommModel* model : all_models()) {
      const Schedule adapted =
          adapt_schedule(tree, sol.schedule, *model).schedule;
      expect_matches(tree, adapted, sol.instance.initial());
      collided += validate_schedule(tree, adapted, sol.instance.initial(),
                                    {.model = model})
                      .collided;
    }
  }
  EXPECT_GT(collided, 0u);
}

TEST(ValidatorDifferential, RandomBroadcastChannelRounds) {
  // Random full-neighborhood transmissions: collisions and half-duplex
  // losses under radio/beep, rule violations under the other models.
  Rng rng(17);
  std::size_t collided = 0;
  std::size_t accepted = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const auto n = static_cast<graph::Vertex>(4 + rng.below(12));
    Rng graph_rng(rng());
    const auto g = graph::random_connected_gnp(
        n, 3.0 / static_cast<double>(n), graph_rng);
    ScheduleBuilder builder;
    for (std::size_t t = 0; t < 2 * std::size_t{n}; ++t) {
      for (graph::Vertex v = 0; v < n; ++v) {
        if (!rng.chance(0.3)) continue;
        // Mostly the sender's own message, which it always holds.
        const auto m = rng.chance(0.95) ? v : static_cast<Message>(
                                                  rng.below(n));
        builder.add(t, m, v, g.neighbors(v));
      }
    }
    const Schedule s = builder.build();
    expect_matches(g, s);
    for (const CommModel* model : {&radio_model(), &beep_model()}) {
      const ValidationReport report = validate_schedule(
          g, s, {}, {.require_completion = false, .model = model});
      collided += report.collided;
      accepted += report.ok ? 1 : 0;
    }
  }
  EXPECT_GT(collided, 0u);
  EXPECT_GT(accepted, 0u);
}

TEST(ValidatorDifferential, GeneralFormWithMoreMessagesThanProcessors) {
  // Repeated gossip: copies * n messages, several per processor.
  const auto instance = gossip::Instance::from_network(graph::grid(3, 4));
  for (const bool pipelined : {false, true}) {
    const auto repeated = gossip::repeated_gossip(instance, 3, pipelined);
    ASSERT_GT(repeated.message_count, instance.vertex_count());
    const auto tree = instance.tree().as_graph();
    expect_general_matches(tree, repeated.schedule, repeated.initial_sets,
                           repeated.message_count);
    // Duplicate ids inside a set, and one id out of range.
    auto duplicated = repeated.initial_sets;
    duplicated[0].push_back(duplicated[0].front());
    duplicated[3].insert(duplicated[3].begin(), duplicated[3].back());
    expect_general_matches(tree, repeated.schedule, duplicated,
                           repeated.message_count);
    auto out_of_range = repeated.initial_sets;
    out_of_range[5].push_back(
        static_cast<Message>(repeated.message_count));
    expect_general_matches(tree, repeated.schedule, out_of_range,
                           repeated.message_count);
    // One set too few, and a dropped holding (incomplete at the end).
    auto short_sets = repeated.initial_sets;
    short_sets.pop_back();
    expect_general_matches(tree, repeated.schedule, short_sets,
                           repeated.message_count);
    auto dropped = repeated.initial_sets;
    dropped[2].pop_back();
    expect_general_matches(tree, repeated.schedule, dropped,
                           repeated.message_count);
  }

  // Weighted gossip projected onto the real processors: each holds its
  // chain's messages; chain-internal hops vanish, and a real processor may
  // now send or receive twice in one round.
  const auto g = graph::cycle(6);
  const auto weighted = gossip::weighted_gossip(g, {3, 1, 2, 1, 2, 1});
  ASSERT_GT(weighted.total_messages, g.vertex_count());
  const auto& labels = weighted.virtual_instance.labels();
  std::vector<std::vector<Message>> sets(g.vertex_count());
  for (graph::Vertex u = 0; u < weighted.real_of.size(); ++u) {
    sets[weighted.real_of[u]].push_back(labels.label(u));
  }
  ScheduleBuilder projected;
  for (RoundCursor round(weighted.schedule); round.next();) {
    const std::size_t t = round.index();
    for (const Tx& tx : round.txs()) {
      const Vertex sender = weighted.real_of[tx.sender];
      std::vector<Vertex> receivers;
      for (const Vertex r : weighted.schedule.receivers(tx)) {
        if (weighted.real_of[r] != sender) {
          receivers.push_back(weighted.real_of[r]);
        }
      }
      std::sort(receivers.begin(), receivers.end());
      receivers.erase(std::unique(receivers.begin(), receivers.end()),
                      receivers.end());
      if (!receivers.empty()) projected.add(t, tx.message, sender, receivers);
    }
  }
  const Schedule real = projected.build();
  expect_general_matches(g, real, sets, weighted.total_messages);
  // The virtual schedule itself on the virtual tree.
  expect_matches(weighted.virtual_instance.tree().as_graph(),
                 weighted.schedule, weighted.virtual_instance.initial());
}

}  // namespace
}  // namespace mg::model
