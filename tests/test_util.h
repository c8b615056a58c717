// Shared helpers for the test suite: graph-family factories keyed by name
// (used by the parameterized sweeps) and schedule-checking shorthands.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "gossip/instance.h"
#include "gossip/solve.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "model/validator.h"
#include "reference_schedule.h"
#include "support/rng.h"

namespace mg::test {

/// A named family generator for parameterized sweeps: maps a size knob to a
/// concrete connected graph.  The knob is not always the vertex count
/// (grids take a side length, hypercubes a dimension).
struct Family {
  std::string name;
  graph::Graph (*make)(graph::Vertex knob);
};

inline graph::Graph make_random_tree(graph::Vertex knob) {
  Rng rng(0x5eedULL + knob);
  return graph::random_tree(knob, rng);
}

inline graph::Graph make_random_gnp(graph::Vertex knob) {
  Rng rng(0xabcdULL + knob);
  return graph::random_connected_gnp(knob, 3.0 / static_cast<double>(knob),
                                     rng);
}

inline graph::Graph make_random_geometric(graph::Vertex knob) {
  Rng rng(0x9e0ULL + knob);
  return graph::random_geometric(knob, 0.25, rng);
}

/// The standard family table used by most sweeps.
inline const std::vector<Family>& families() {
  static const std::vector<Family> table = {
      {"path", [](graph::Vertex n) { return graph::path(n); }},
      {"cycle", [](graph::Vertex n) { return graph::cycle(n); }},
      {"star", [](graph::Vertex n) { return graph::star(n); }},
      {"complete", [](graph::Vertex n) { return graph::complete(n); }},
      {"binary_tree", [](graph::Vertex n) { return graph::k_ary_tree(n, 2); }},
      {"ternary_tree", [](graph::Vertex n) { return graph::k_ary_tree(n, 3); }},
      {"grid", [](graph::Vertex n) { return graph::grid(n, n); }},
      {"torus", [](graph::Vertex n) {
         return graph::torus(std::max<graph::Vertex>(n, 3),
                             std::max<graph::Vertex>(n, 3));
       }},
      {"caterpillar", [](graph::Vertex n) { return graph::caterpillar(n, 3); }},
      {"random_tree", make_random_tree},
      {"random_gnp", make_random_gnp},
      {"random_geometric", make_random_geometric},
  };
  return table;
}

/// The owning value of a stored tuple of `schedule`, for tests that rewrite
/// schedules tuple by tuple.
inline model::Transmission transmission_of(const model::Schedule& schedule,
                                           const model::Tx& tx) {
  const auto receivers = schedule.receivers(tx);
  return {tx.message, tx.sender, {receivers.begin(), receivers.end()}};
}

/// Validates a gossip schedule produced on `instance`'s tree network and
/// returns the report; fails the current test on violation.
inline model::ValidationReport expect_valid_gossip(
    const gossip::Instance& instance, const model::Schedule& schedule,
    const model::CommModel& model = model::multicast_model()) {
  model::ValidatorOptions options;
  options.model = &model;
  auto report = model::validate_schedule(instance.tree().as_graph(), schedule,
                                         instance.initial(), options);
  EXPECT_TRUE(report.ok) << report.error;
  return report;
}

/// Tuple-for-tuple equality in stored order, receivers included; returns
/// the rounds compared.
inline std::size_t expect_same_stored(const model::Schedule& expected,
                                      const model::Schedule& actual) {
  EXPECT_EQ(expected.round_count(), actual.round_count());
  std::size_t rounds = 0;
  for (model::RoundCursor ea(expected), eb(actual); ea.next() && eb.next();
       ++rounds) {
    const std::size_t t = ea.index();
    const auto a = ea.txs();
    const auto b = eb.txs();
    EXPECT_EQ(a.size(), b.size()) << "round " << t;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      const auto ra = expected.receivers(a[i]);
      const auto rb = actual.receivers(b[i]);
      EXPECT_TRUE(a[i].sender == b[i].sender &&
                  a[i].message == b[i].message &&
                  std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
          << "round " << t << " tuple " << i;
    }
  }
  return rounds;
}

}  // namespace mg::test
