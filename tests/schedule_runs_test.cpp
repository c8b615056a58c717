// The run battery.  A schedule stores runs, and `model::RoundCursor` must
// give back every round exactly as the add sequence put it: the stored-order
// oracle in reference_schedule.h, a plain vector of rounds filled by the
// same adds.  Covered: random tuple and run sequences added in round order,
// shuffled and sender by sender, with duplicate senders, descending rounds
// and empty inner rounds; runs cut by a round that does not ascend; the
// 64-bit counts; and a round trip through the builder of every producer's
// output (the golden corpus's algorithms, the repair planners, the
// legalizer and the dist capture).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dist/runtime.h"
#include "fault/fault.h"
#include "gossip/concurrent_updown.h"
#include "gossip/instance.h"
#include "gossip/online.h"
#include "gossip/recovery.h"
#include "gossip/solve.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "model/legalize.h"
#include "model/schedule.h"
#include "reference_schedule.h"
#include "sim/network_sim.h"
#include "support/bitset.h"
#include "support/contracts.h"
#include "support/rng.h"

namespace mg::model {
namespace {

/// One add: a run of `len` rounds, a tuple when len == 1.
struct Add {
  std::size_t t0 = 0;
  std::size_t len = 1;
  Transmission tx;
};

/// `adds` built as given, or with every run split into its tuples in
/// place.
Schedule build(const std::vector<Add>& adds, bool as_tuples) {
  ScheduleBuilder builder;
  for (const Add& add : adds) {
    const Transmission& tx = add.tx;
    if (!as_tuples) {
      builder.add_run(add.t0, add.len, tx.message, tx.sender, tx.receivers);
      continue;
    }
    for (std::size_t k = 0; k < add.len; ++k) {
      builder.add(add.t0 + k, tx.message + static_cast<Message>(k),
                  tx.sender, tx.receivers);
    }
  }
  return builder.build();
}

test::ReferenceSchedule oracle_of(const std::vector<Add>& adds) {
  test::ReferenceSchedule oracle;
  for (const Add& add : adds) {
    oracle.add_run(add.t0, add.len, add.tx.message, add.tx.sender,
                   add.tx.receivers);
  }
  return oracle;
}

/// The cursor gives back the oracle's rounds tuple for tuple, and every
/// count agrees.
void expect_matches(const Schedule& s, const test::ReferenceSchedule& oracle,
                    const std::string& what) {
  EXPECT_TRUE(test::transmissions_of(s) == oracle.rounds) << what;
  EXPECT_EQ(s.round_count(), oracle.rounds.size()) << what;
  EXPECT_EQ(s.total_time(), oracle.rounds.size()) << what;
  EXPECT_EQ(s.transmission_count(), oracle.transmission_count()) << what;
  EXPECT_EQ(s.delivery_count(), oracle.delivery_count()) << what;
  EXPECT_EQ(s.max_fanout(), oracle.max_fanout()) << what;
  EXPECT_EQ(s.is_telephone(), oracle.is_telephone()) << what;
}

/// Adds as runs store exactly what their tuples added one by one store,
/// and both read back as the oracle.
void expect_battery(const std::vector<Add>& adds, const std::string& what) {
  const Schedule runs = build(adds, false);
  const Schedule tuples = build(adds, true);
  EXPECT_TRUE(runs == tuples) << what;
  EXPECT_EQ(runs.run_count(), tuples.run_count()) << what;
  expect_matches(runs, oracle_of(adds), what);
}

/// A few receiver sets, so that neighboring tuples often continue a run.
const std::vector<std::vector<Vertex>>& receiver_pool() {
  static const std::vector<std::vector<Vertex>> pool = {
      {1}, {2, 3}, {0, 4, 5}, {6}, {1, 2, 3, 4, 5, 6, 7}};
  return pool;
}

/// Random adds in rounds drawn from `rounds` (gaps leave inner rounds
/// empty): senders below `senders`, so rounds repeat senders; messages that
/// often continue the sender's last add; one add in `run_share` a run of up
/// to 6 rounds.
std::vector<Add> random_adds(Rng& rng, std::size_t count,
                             const std::vector<std::size_t>& rounds,
                             Vertex senders, double run_share) {
  std::vector<Add> adds;
  std::vector<std::pair<std::size_t, Message>> last(senders, {0, 0});
  for (std::size_t i = 0; i < count; ++i) {
    Add add;
    add.tx.sender = static_cast<Vertex>(rng.below(senders));
    add.len = rng.chance(run_share) ? 1 + rng.below(6) : 1;
    const auto [end, next] = last[add.tx.sender];
    if (rng.chance(0.5)) {
      add.t0 = end;  // continues the sender's last add
      add.tx.message = next;
    } else {
      add.t0 = rounds[rng.below(rounds.size())];
      add.tx.message = static_cast<Message>(rng.below(6));
    }
    add.tx.receivers = receiver_pool()[rng.below(rng.chance(0.8) ? 2 : 5)];
    last[add.tx.sender] = {add.t0 + add.len,
                           add.tx.message + static_cast<Message>(add.len)};
    adds.push_back(std::move(add));
  }
  return adds;
}

TEST(ScheduleRuns, RandomSequencesMatchTheOracle) {
  Rng rng(0x52554e53ULL);
  const std::vector<std::size_t> dense = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<std::size_t> gaps = {0, 1, 4, 5, 9, 10, 11, 17};
  for (int trial = 0; trial < 400; ++trial) {
    const std::string what = "trial " + std::to_string(trial);
    const auto& rounds = trial % 2 == 0 ? dense : gaps;
    const Vertex senders = 1 + static_cast<Vertex>(rng.below(6));
    std::vector<Add> adds =
        random_adds(rng, 1 + rng.below(40), rounds, senders,
                    trial % 3 == 0 ? 0.0 : 0.4);
    expect_battery(adds, what + " as drawn");
    rng.shuffle(adds);
    expect_battery(adds, what + " shuffled");
    std::stable_sort(adds.begin(), adds.end(), [](const Add& a, const Add& b) {
      return a.t0 < b.t0;
    });
    expect_battery(adds, what + " in round order");
  }
}

TEST(ScheduleRuns, SenderBySenderSequencesMatchTheOracle) {
  // Each sender's adds in round order without overlap, senders rising: the
  // order ConcurrentUpDown hands its runs over in.
  Rng rng(0x5e4d0ULL);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Add> adds;
    const Vertex senders = 1 + static_cast<Vertex>(rng.below(8));
    for (Vertex s = 0; s < senders; ++s) {
      if (rng.chance(0.2)) continue;
      std::size_t t = rng.below(3);
      Message m = static_cast<Message>(rng.below(5));
      for (std::size_t k = rng.below(5); k > 0; --k) {
        Add add;
        add.t0 = t;
        add.len = 1 + rng.below(5);
        add.tx = {m, s, receiver_pool()[rng.below(rng.chance(0.7) ? 2 : 5)]};
        // The next add continues this one, or starts after a gap.
        t = add.t0 + add.len + (rng.chance(0.5) ? 0 : rng.below(3));
        m = rng.chance(0.7) ? m + static_cast<Message>(add.len)
                            : static_cast<Message>(rng.below(5));
        adds.push_back(std::move(add));
      }
    }
    const std::string what = "trial " + std::to_string(trial);
    expect_battery(adds, what);
    // Their tuples in round order take the other way through the builder
    // and, every round ascending either way, store the same arrays.
    std::vector<Add> tuples;
    for (const Add& add : adds) {
      for (std::size_t k = 0; k < add.len; ++k) {
        tuples.push_back({add.t0 + k, 1,
                          {add.tx.message + static_cast<Message>(k),
                           add.tx.sender, add.tx.receivers}});
      }
    }
    std::stable_sort(tuples.begin(), tuples.end(),
                     [](const Add& a, const Add& b) { return a.t0 < b.t0; });
    EXPECT_TRUE(build(tuples, true) == build(adds, false)) << what;
  }
}

TEST(ScheduleRuns, RunCutByARoundThatDoesNotAscend) {
  // Sender 1 sends 10..15 to {2} in rounds 0..5, and sender 8 sends 20..25
  // to {3} alongside.  Round 3 also holds 7 -> {4} added after 4 -> {5}, so
  // it descends: both runs are cut there, and round 3 comes back in
  // insertion order.
  const std::vector<Add> adds = {{0, 6, {10, 1, {2}}},
                                 {3, 1, {0, 7, {4}}},
                                 {3, 1, {0, 4, {5}}},
                                 {0, 6, {20, 8, {3}}}};
  expect_battery(adds, "descending round 3");
  const Schedule s = build(adds, false);
  EXPECT_EQ(s.run_count(), 8u);  // 2 runs, each cut in 3, plus 2 tuples
  const auto rounds = test::rounds_of(s);
  ASSERT_EQ(rounds.size(), 6u);
  std::vector<Vertex> round3;
  for (const Tx& tx : rounds[3]) round3.push_back(tx.sender);
  EXPECT_EQ(round3, (std::vector<Vertex>{1, 7, 4, 8}));
  std::vector<Vertex> round4;
  for (const Tx& tx : rounds[4]) round4.push_back(tx.sender);
  EXPECT_EQ(round4, (std::vector<Vertex>{1, 8}));

  // A sender sending twice in a round cuts its runs the same way.
  expect_battery({{0, 5, {0, 2, {1}}}, {2, 1, {9, 2, {3}}}},
                 "duplicate sender in round 2");
  // An empty round between two runs that would continue keeps them apart.
  expect_battery({{0, 2, {0, 2, {1}}}, {3, 2, {3, 2, {1}}}},
                 "gap at round 2");
}

TEST(ScheduleRuns, FewTuplesOverManyRounds) {
  // A few adds, out of round order, spread over 10^5 rounds.
  expect_battery({{100000, 1, {1, 3, {2}}},
                  {5, 1, {0, 7, {1}}},
                  {100000, 1, {4, 2, {6}}},
                  {99999, 2, {0, 1, {2, 3}}}},
                 "sparse start rounds");
}

TEST(ScheduleRuns, AddRunStoresWhatItsTuplesStore) {
  // Adjacent continuing runs merge whichever way they were added.
  const std::vector<Vertex> d = {1, 4};
  ScheduleBuilder whole;
  whole.add_run(2, 6, 5, 3, d);
  ScheduleBuilder halves;
  halves.add_run(2, 2, 5, 3, d);
  halves.add_run(4, 4, 7, 3, d);
  ScheduleBuilder tuples;
  for (std::size_t k = 0; k < 6; ++k) {
    tuples.add(2 + k, static_cast<Message>(5 + k), 3, d);
  }
  const Schedule a = whole.build();
  EXPECT_EQ(a.run_count(), 1u);
  EXPECT_EQ(a.transmission_count(), 6u);
  EXPECT_EQ(a.delivery_count(), 12u);
  EXPECT_EQ(a.round_count(), 8u);
  EXPECT_TRUE(a == halves.build());
  EXPECT_TRUE(a == tuples.build());
}

TEST(ScheduleRuns, CountsAreSixtyFourBitSums) {
  // Three runs of 2^31 rounds: 3 * 2^31 transmissions from three stored
  // runs, past what a 32-bit tuple count could hold.
  const std::size_t len = std::size_t{1} << 31;
  const std::vector<Vertex> d = {9};
  ScheduleBuilder builder;
  for (Vertex s = 0; s < 3; ++s) builder.add_run(0, len, 0, s, d);
  const Schedule s = builder.build();
  EXPECT_EQ(s.run_count(), 3u);
  EXPECT_EQ(s.round_count(), len);
  EXPECT_EQ(s.transmission_count(), 3 * std::uint64_t{len});
  EXPECT_EQ(s.delivery_count(), 3 * std::uint64_t{len});
  RoundCursor round(s);
  ASSERT_TRUE(round.next());
  EXPECT_EQ(round.txs().size(), 3u);
}

TEST(ScheduleRuns, AddRunContracts) {
  ScheduleBuilder builder;
  const std::vector<Vertex> d = {1};
  EXPECT_THROW(builder.add_run(0, 0, 0, 0, d), ContractViolation);
  // The last round index must stay below 2^32 - 1; checked before anything
  // is stored, without forming a sum that could wrap.
  EXPECT_THROW(builder.add_run(0xffffffffULL, 1, 0, 0, d), ContractViolation);
  EXPECT_THROW(builder.add_run(1, 0xffffffffULL, 0, 0, d), ContractViolation);
  EXPECT_THROW(builder.add_run(SIZE_MAX, 2, 0, 0, d), ContractViolation);
  builder.add_run(0, 0xfffffffeULL, 0, 0, d);
  builder.add_run(0xfffffffeULL, 1, 0, 1, d);
  // So must the last message id.
  EXPECT_THROW(builder.add_run(0, 3, 0xfffffffeU, 2, d), ContractViolation);
  EXPECT_THROW(builder.add_run(0, 1, 0, 2, std::vector<Vertex>{}),
               ContractViolation);
  const Schedule s = builder.build();  // rejected adds left no trace
  EXPECT_EQ(s.run_count(), 2u);
  EXPECT_EQ(s.round_count(), 0xffffffffULL);
  EXPECT_EQ(s.transmission_count(), 0xffffffffULL);
}

TEST(ScheduleRuns, TuplesPastThirtyTwoBitsFailBeforeExpanding) {
  // Runs that did not come sender by sender are stored from their tuples.
  // Each add below fits, but their tuples, or those tuples' receiver entries,
  // would pass 32-bit indices: `build()` fails before expanding a run.
  const std::vector<Vertex> one = {9};
  ScheduleBuilder tuples;
  tuples.add_run(0, std::size_t{1} << 31, 0, 1, one);
  tuples.add_run(0, std::size_t{1} << 31, 0, 0, one);
  EXPECT_THROW(static_cast<void>(tuples.build()), ContractViolation);

  std::vector<Vertex> wide(std::size_t{1} << 11);
  for (std::size_t i = 0; i < wide.size(); ++i) {
    wide[i] = static_cast<Vertex>(i);
  }
  ScheduleBuilder entries;
  entries.add_run(0, std::size_t{1} << 21, 0, 1, wide);
  entries.add_run(0, std::size_t{1} << 21, 0, 0, wide);
  EXPECT_THROW(static_cast<void>(entries.build()), ContractViolation);

  // The same runs sender by sender are stored as two runs.
  ScheduleBuilder runs;
  runs.add_run(0, std::size_t{1} << 21, 0, 0, wide);
  runs.add_run(0, std::size_t{1} << 21, 0, 1, wide);
  const Schedule s = runs.build();
  EXPECT_EQ(s.run_count(), 2u);
  EXPECT_EQ(s.delivery_count(), std::uint64_t{1} << 33);
}

/// Every tuple of `s` re-added in stored order, in reverse round order, and,
/// when every round ascends, as each sender's maximal runs: each stores the
/// same arrays, and the cursor reads back what the oracle holds.
void expect_round_trip(const Schedule& s, const std::string& name) {
  SCOPED_TRACE(name);
  const auto rounds = test::transmissions_of(s);
  test::ReferenceSchedule oracle;
  ScheduleBuilder forward;
  ScheduleBuilder backward;
  for (std::size_t t = 0; t < rounds.size(); ++t) {
    for (const Transmission& tx : rounds[t]) {
      oracle.add(t, tx);
      forward.add(t, tx);
    }
    for (const Transmission& tx : rounds[rounds.size() - 1 - t]) {
      backward.add(rounds.size() - 1 - t, tx);
    }
  }
  EXPECT_TRUE(forward.build() == s);
  EXPECT_TRUE(backward.build() == s);
  expect_matches(s, oracle, name);

  bool ascends = true;
  Vertex senders = 0;
  for (const auto& round : rounds) {
    for (std::size_t i = 0; i < round.size(); ++i) {
      ascends = ascends && (i == 0 || round[i - 1].sender < round[i].sender);
      senders = std::max(senders, round[i].sender + 1);
    }
  }
  if (!ascends) return;
  std::vector<std::vector<Add>> by_sender(senders);
  for (std::size_t t = 0; t < rounds.size(); ++t) {
    for (const Transmission& tx : rounds[t]) {
      std::vector<Add>& own = by_sender[tx.sender];
      if (!own.empty() && own.back().t0 + own.back().len == t &&
          own.back().tx.message + own.back().len == tx.message &&
          own.back().tx.receivers == tx.receivers) {
        ++own.back().len;
      } else {
        own.push_back({t, 1, tx});
      }
    }
  }
  ScheduleBuilder runs;
  std::size_t added = 0;
  for (const auto& own : by_sender) {
    for (const Add& add : own) {
      runs.add_run(add.t0, add.len, add.tx.message, add.tx.sender,
                   add.tx.receivers);
      ++added;
    }
  }
  const Schedule rebuilt = runs.build();
  EXPECT_TRUE(rebuilt == s);
  EXPECT_EQ(added, s.run_count());  // maximal runs are what is stored
}

TEST(ScheduleRuns, EveryProducerRoundTrips) {
  Rng rng(0x9a7c4ULL);
  const std::vector<std::pair<std::string, graph::Graph>> graphs = {
      {"petersen", graph::petersen()},
      {"fig4", graph::fig4_network()},
      {"grid5x4", graph::grid(5, 4)},
      {"geometric40", graph::random_geometric(40, 0.3, rng)},
      {"tree30", graph::random_tree(30, rng)}};
  for (const auto& [name, g] : graphs) {
    for (const gossip::Algorithm algorithm :
         {gossip::Algorithm::kSimple, gossip::Algorithm::kUpDown,
          gossip::Algorithm::kConcurrentUpDown,
          gossip::Algorithm::kTelephone}) {
      expect_round_trip(gossip::solve_gossip(g, algorithm).schedule,
                        name + "/" + gossip::algorithm_name(algorithm));
    }
    const auto instance = gossip::Instance::from_network(g);
    gossip::ConcurrentUpDownOptions no_lookahead;
    no_lookahead.lookahead_at_time_zero = false;
    expect_round_trip(gossip::concurrent_updown(instance, no_lookahead),
                      name + "/no_lookahead");
    expect_round_trip(gossip::propagate_up(instance), name + "/up");
    expect_round_trip(gossip::propagate_down(instance), name + "/down");
    expect_round_trip(gossip::run_online(instance), name + "/online");
    const model::Schedule schedule = gossip::concurrent_updown(instance);
    const graph::Graph tree = instance.tree().as_graph();
    for (const CommModel* model : all_models()) {
      expect_round_trip(adapt_schedule(tree, schedule, *model).schedule,
                        name + "/adapt/" + model->name());
    }

    // The central repair planner on the holds a faulty run leaves.
    fault::FaultPlan plan;
    plan.drop_rate(0.2).seed(rng());
    sim::SimOptions options;
    options.faults = &plan;
    const BitMatrix holds =
        sim::simulate(tree, schedule, instance.initial(), options)
            .final_holds;
    expect_round_trip(gossip::partial_completion_schedule(g, holds),
                      name + "/partial");
  }

  {
    // Every repair of one self-healing run.
    const graph::Graph g = graph::random_geometric(40, 0.3, rng);
    fault::FaultPlan plan;
    plan.drop_rate(0.2).seed(rng()).crash(11, 6);
    gossip::RecoveryOptions options;
    options.max_attempts = 12;
    const auto outcome = gossip::solve_with_recovery(g, plan, options);
    ASSERT_FALSE(outcome.repairs.empty());
    for (std::size_t i = 0; i < outcome.repairs.size(); ++i) {
      expect_round_trip(outcome.repairs[i], "repair " + std::to_string(i));
    }
  }

  {
    // The dist capture: emergent and repair schedules of actors under drops
    // and a crashed root.
    const graph::Graph g = graph::random_geometric(48, 0.25, rng);
    const gossip::Instance instance = gossip::Instance::from_network(g);
    const std::size_t horizon = g.vertex_count() + instance.radius();
    fault::FaultPlan plan;
    plan.drop_rate(0.01).seed(rng()).crash(instance.tree().root(),
                                           horizon / 2);
    dist::RuntimeOptions options;
    options.faults = &plan;
    dist::ActorRuntime runtime(instance, g, options);
    runtime.use_online_rule();
    const dist::RunReport run = runtime.run(horizon);
    expect_round_trip(run.emergent, "dist/emergent");
    expect_round_trip(run.repair, "dist/repair");
    const dist::DistOutcome timetable =
        dist::run_distributed(g, gossip::Algorithm::kSimple, {});
    expect_round_trip(timetable.run.emergent, "dist/timetable");
  }
}

}  // namespace
}  // namespace mg::model
