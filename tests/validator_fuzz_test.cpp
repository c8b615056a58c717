// Adversarial tests of the validator itself: start from a known-valid
// ConcurrentUpDown schedule and apply random single-point mutations; the
// validator must reject every mutation that actually breaks a rule and
// keep accepting benign ones.  This guards the test oracle the whole suite
// leans on.
#include <gtest/gtest.h>

#include "gossip/concurrent_updown.h"
#include "gossip/solve.h"
#include "graph/generators.h"
#include "model/validator.h"
#include "support/rng.h"
#include "test_util.h"

namespace mg::model {
namespace {

struct Mutation {
  Schedule schedule;
  bool must_be_invalid = false;
};

/// Applies one random mutation; returns the mutated schedule and whether
/// it is guaranteed to violate a rule.
Mutation mutate(const Schedule& base, Rng& rng, graph::Vertex n) {
  // Pick a random transmission.
  std::vector<std::pair<std::size_t, std::size_t>> index;
  for (std::size_t t = 0; t < base.round_count(); ++t) {
    for (std::size_t e = 0; e < base.round(t).size(); ++e) {
      index.emplace_back(t, e);
    }
  }
  const auto [t, e] = index[rng.below(index.size())];

  ScheduleBuilder mutated;
  const auto copy_all_except = [&](auto&& replace) {
    for (std::size_t tt = 0; tt < base.round_count(); ++tt) {
      for (std::size_t ee = 0; ee < base.round(tt).size(); ++ee) {
        const Transmission tx = test::transmission_of(base, base.round(tt)[ee]);
        if (tt == t && ee == e) {
          replace(tt, tx);
        } else {
          mutated.add(tt, tx);
        }
      }
    }
  };

  switch (rng.below(4)) {
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
  for (std::size_t t = 0; t < sol.schedule.round_count(); ++t) {
    for (const Tx& tx : sol.schedule.round(t)) {
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
  for (std::size_t t = 1; t < sol.schedule.round_count(); ++t) {
    for (const Tx& tx : sol.schedule.round(t)) {
      builder.add(t - 1, tx.message, tx.sender, sol.schedule.receivers(tx));
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
    for (std::size_t t = 0; t < sol.schedule.round_count(); ++t) {
      for (const Tx& tx : sol.schedule.round(t)) {
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

}  // namespace
}  // namespace mg::model
