// Exercises the shrinker (shrinker.h) on schedules, as the sequence of
// their transmissions, and pins shrunk regressions:
//
//  * fuzz sweep — seeded scheduler × model combinations whose legalized
//    schedules must all satisfy their model validator; any failure is
//    shrunk to a minimal schedule and printed as a paste-able snippet
//    before the test fails;
//  * shrinker mechanics — a deliberately corrupted legalized schedule
//    shrinks down to exactly the offending transmission;
//  * pinned regressions — minimal hand-written schedules locking each
//    model's characteristic rejection (and direct addressing's
//    characteristic acceptance) with their exact error strings.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gossip/solve.h"
#include "graph/generators.h"
#include "model/comm_model.h"
#include "model/legalize.h"
#include "model/validator.h"
#include "reference_schedule.h"
#include "shrinker.h"
#include "support/rng.h"

namespace mg {
namespace {

graph::Graph make_graph(std::uint64_t seed) {
  Rng rng(0x5817ULL * (seed + 1));
  const auto n = static_cast<graph::Vertex>(5 + (seed * 11) % 28);
  switch (seed % 3) {
    case 0:
      return graph::random_connected_gnp(n, 3.0 / static_cast<double>(n),
                                         rng);
    case 1:
      return graph::random_tree(n, rng);
    default:
      return graph::random_geometric(n, 0.35, rng);
  }
}

/// One transmission and its round: what the shrinker reduces a schedule
/// to.  Failures are prefix-monotone in (round, stored) order, because the
/// validator rejects at the first offending transmission.
using Sent = std::pair<std::size_t, model::Transmission>;

std::vector<Sent> sends_of(const model::Schedule& schedule) {
  std::vector<Sent> sends;
  const auto rounds = test::transmissions_of(schedule);
  for (std::size_t t = 0; t < rounds.size(); ++t) {
    for (const model::Transmission& tx : rounds[t]) sends.emplace_back(t, tx);
  }
  return sends;
}

model::Schedule schedule_of(const std::vector<Sent>& sends) {
  model::ScheduleBuilder builder;
  for (const auto& [t, tx] : sends) builder.add(t, tx);
  return builder.build();
}

/// Rejection of the sends on `g` by the model validator (legality only, not
/// completion), with the initial assignment the schedule was built for.
auto rejected_by(const graph::Graph& g, const model::CommModel& m,
                 std::vector<model::Message> initial) {
  return [&g, &m, initial = std::move(initial)](
             const std::vector<Sent>& sends) {
    model::ValidatorOptions options;
    options.model = &m;
    options.require_completion = false;
    return !model::validate_schedule(g, schedule_of(sends), initial, options)
                .ok;
  };
}

/// Renders a shrunk schedule as a paste-able C++ regression case.
std::string regression_snippet(const test::Shrunk<Sent>& shrunk,
                               const model::Schedule& original,
                               const std::string& graph_expr) {
  const model::Schedule schedule = schedule_of(shrunk.items);
  std::ostringstream out;
  out << "// shrunk model regression: " << schedule.transmission_count()
      << " of " << shrunk.original_size << " transmissions, "
      << schedule.round_count() << " of " << original.round_count()
      << " rounds\n";
  out << "const graph::Graph g = " << graph_expr << ";\n";
  out << "model::ScheduleBuilder builder;\n";
  for (const auto& [t, tx] : shrunk.items) {
    out << "builder.add(" << t << ", {" << tx.message << ", " << tx.sender
        << ", {";
    for (std::size_t i = 0; i < tx.receivers.size(); ++i) {
      if (i > 0) out << ", ";
      out << tx.receivers[i];
    }
    out << "}});\n";
  }
  out << "const model::Schedule schedule = builder.build();\n";
  return out.str();
}

// Every legalized schedule must satisfy its model validator; a failure is
// shrunk and printed before failing the test, so the regression arrives
// pre-minimized.
TEST(ModelShrinker, FuzzLegalizedSchedulesValidate) {
  constexpr std::uint64_t kSeeds = 18;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const graph::Graph g = make_graph(seed);
    const auto algorithm = static_cast<gossip::Algorithm>(seed % 4);
    const gossip::Solution sol = gossip::solve_gossip(g, algorithm);
    ASSERT_TRUE(sol.report.ok) << sol.report.error;
    const graph::Graph tree = sol.instance.tree().as_graph();

    for (const model::CommModel* m : model::all_models()) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                   gossip::algorithm_name(algorithm) + " model=" + m->name());
      const auto adapted = model::adapt_schedule(tree, sol.schedule, *m);
      model::ValidatorOptions options;
      options.model = m;
      const auto report = model::validate_schedule(
          tree, adapted.schedule, sol.instance.initial(), options);
      if (!report.ok) {
        const auto shrunk =
            test::shrink(sends_of(adapted.schedule),
                         rejected_by(tree, *m, sol.instance.initial()));
        std::fprintf(stderr, "%s\n",
                     regression_snippet(shrunk, adapted.schedule,
                                        "<tree of seed " +
                                            std::to_string(seed) + ">")
                         .c_str());
      }
      EXPECT_TRUE(report.ok) << report.error;
    }
  }
}

// Corrupt the first broadcast of a legalized radio schedule (clip its
// receiver set, so it no longer covers the sender's neighborhood) and
// check the shrinker isolates exactly that transmission.  The predicate
// matches the corruption's failure *shape* — the radio neighborhood error —
// so cascading hold violations introduced by elision cannot masquerade as
// the regression under investigation.
TEST(ModelShrinker, ShrinksCorruptedScheduleToOffender) {
  const graph::Graph g = graph::grid(4, 4);
  const gossip::Solution sol =
      gossip::solve_gossip(g, gossip::Algorithm::kConcurrentUpDown);
  ASSERT_TRUE(sol.report.ok) << sol.report.error;
  const graph::Graph tree = sol.instance.tree().as_graph();
  const auto adapted =
      model::adapt_schedule(tree, sol.schedule, model::radio_model());

  // Rebuild the schedule with the first multi-receiver broadcast of round 0
  // clipped to a single receiver.
  model::ScheduleBuilder builder;
  bool clipped = false;
  model::Message offender_message = 0;
  graph::Vertex offender_sender = 0;
  for (model::RoundCursor round(adapted.schedule); round.next();) {
    const std::size_t t = round.index();
    for (const model::Tx& tx : round.txs()) {
      const auto receivers = adapted.schedule.receivers(tx);
      if (!clipped && t == 0 && receivers.size() > 1) {
        builder.add(t, tx.message, tx.sender, {receivers.front()});
        offender_message = tx.message;
        offender_sender = tx.sender;
        clipped = true;
      } else {
        builder.add(t, tx.message, tx.sender, receivers);
      }
    }
  }
  ASSERT_TRUE(clipped) << "no multi-receiver broadcast in round 0";
  const model::Schedule corrupted = builder.build();

  const std::vector<model::Message> initial = sol.instance.initial();
  const auto neighborhood_error = [&tree,
                                   &initial](const std::vector<Sent>& sends) {
    model::ValidatorOptions options;
    options.model = &model::radio_model();
    options.require_completion = false;
    const auto report = model::validate_schedule(tree, schedule_of(sends),
                                                 initial, options);
    return !report.ok &&
           report.error.find("entire neighborhood") != std::string::npos;
  };
  const auto shrunk = test::shrink(sends_of(corrupted), neighborhood_error);
  ASSERT_TRUE(shrunk.reproduced);
  const model::Schedule minimal = schedule_of(shrunk.items);
  EXPECT_EQ(minimal.round_count(), 1u);
  ASSERT_EQ(minimal.transmission_count(), 1u);
  const model::Tx survivor = test::rounds_of(minimal).at(0).front();
  EXPECT_EQ(survivor.message, offender_message);
  EXPECT_EQ(survivor.sender, offender_sender);
  EXPECT_EQ(survivor.count, 1u);
}

// Pinned minimal regressions, one per model rule.  These are the kind of
// schedule the shrinker produces; pinning them with their exact error
// strings keeps the model-aware validator's diagnostics stable.
TEST(ModelShrinker, PinnedModelRegressions) {
  const graph::Graph path3 = graph::path(3);  // 0 - 1 - 2

  {
    // Telephone: |D| = 2 is a multicast.
    model::ScheduleBuilder builder;
    builder.add(0, {1, 1, {0, 2}});
    const model::Schedule schedule = builder.build();
    model::ValidatorOptions options;
    options.model = &model::telephone_model();
    options.require_completion = false;
    const auto report = model::validate_schedule(path3, schedule, {}, options);
    ASSERT_FALSE(report.ok);
    EXPECT_EQ(report.error,
              "multicast under telephone model at round 0, msg 1 from 1");
  }
  {
    // Radio: a transmission cannot address a subset of the neighborhood.
    model::ScheduleBuilder builder;
    builder.add(0, {1, 1, {0}});
    const model::Schedule schedule = builder.build();
    model::ValidatorOptions options;
    options.model = &model::radio_model();
    options.require_completion = false;
    const auto report = model::validate_schedule(path3, schedule, {}, options);
    ASSERT_FALSE(report.ok);
    EXPECT_EQ(report.error,
              "radio transmission must reach the sender's entire "
              "neighborhood at round 0, msg 1 from 1");
  }
  {
    // Radio collisions are legal but lossy: 0 and 2 transmit into 1
    // simultaneously, so 1 decodes nothing — the validator accepts the
    // schedule and reports both candidate deliveries as collided.
    model::ScheduleBuilder builder;
    builder.add(0, {0, 0, {1}});
    builder.add(0, {2, 2, {1}});
    const model::Schedule schedule = builder.build();
    model::ValidatorOptions options;
    options.model = &model::radio_model();
    options.require_completion = false;
    const auto report = model::validate_schedule(path3, schedule, {}, options);
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.collided, 2u);
  }
  {
    // Direct addressing accepts the send the multicast model rejects:
    // 0 and 2 are not adjacent in the path.
    model::ScheduleBuilder builder;
    builder.add(0, {0, 0, {2}});
    const model::Schedule schedule = builder.build();
    model::ValidatorOptions multicast_options;
    multicast_options.require_completion = false;
    const auto rejected =
        model::validate_schedule(path3, schedule, {}, multicast_options);
    ASSERT_FALSE(rejected.ok);
    EXPECT_EQ(rejected.error,
              "receiver 2 not adjacent to sender at round 0, msg 0 from 0");

    model::ValidatorOptions direct_options;
    direct_options.model = &model::direct_model();
    direct_options.require_completion = false;
    const auto accepted =
        model::validate_schedule(path3, schedule, {}, direct_options);
    EXPECT_TRUE(accepted.ok) << accepted.error;
  }
}

}  // namespace
}  // namespace mg
