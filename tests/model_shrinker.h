// Fuzz-style schedule shrinker for communication-model failures: when a
// scheduler × model × seed combination produces a schedule the model
// validator rejects (or any other deterministic predicate flags), reduce it
// to a minimal reproducing schedule before anyone has to read it.  Same
// two-phase recipe as churn_shrinker.h:
//
//   1. *round-prefix bisection* — every round prefix of a schedule is
//      itself a schedule, and validator failures are prefix-monotone (the
//      validator rejects at the first offending transmission), so
//      binary-search the shortest failing prefix;
//   2. *transmission elision* — walk the surviving prefix's transmissions
//      backwards and drop every transmission whose removal keeps the
//      schedule failing (unlike a churn stream, the trigger need not be the
//      last transmission — the validator stops at the first offender, which
//      can sit mid-round — so every position is tried and the predicate
//      alone decides; a sub-multiset of a schedule is always structurally
//      legal, so there is no legality re-check either).
//
// `regression_snippet` renders the survivor as a paste-able C++ builder;
// shrunk cases get pinned in model_shrinker_test.cpp.
#pragma once

#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "model/schedule.h"

namespace mg::test {

/// True when `schedule` on `g` reproduces the failure under investigation.
/// Must be deterministic.
using ScheduleFailurePredicate = std::function<bool(
    const graph::Graph& g, const model::Schedule& schedule)>;

struct ScheduleShrinkResult {
  model::Schedule schedule;  ///< minimal reproducing schedule
  std::size_t original_rounds = 0;
  std::size_t original_transmissions = 0;
  bool reproduced = false;  ///< false: the full schedule never failed
};

/// The first `rounds` rounds of `schedule`.
inline model::Schedule schedule_prefix(const model::Schedule& schedule,
                                       std::size_t rounds) {
  model::ScheduleBuilder out;
  for (model::RoundCursor round(schedule);
       round.next() && round.index() < rounds;) {
    for (const model::Tx& tx : round.txs()) {
      out.add(round.index(), tx.message, tx.sender, schedule.receivers(tx));
    }
  }
  return out.build();
}

/// `schedule` with the transmission at flat position `skip` removed (flat
/// order: rounds ascending, transmissions in round order).
inline model::Schedule elide_transmission(const model::Schedule& schedule,
                                          std::size_t skip) {
  model::ScheduleBuilder out;
  std::size_t flat = 0;
  for (model::RoundCursor round(schedule); round.next();) {
    const std::size_t t = round.index();
    for (const model::Tx& tx : round.txs()) {
      if (flat++ != skip) {
        out.add(t, tx.message, tx.sender, schedule.receivers(tx));
      }
    }
  }
  return out.build();
}

inline ScheduleShrinkResult shrink_schedule(
    const graph::Graph& g, model::Schedule schedule,
    const ScheduleFailurePredicate& fails) {
  ScheduleShrinkResult result;
  result.original_rounds = schedule.round_count();
  result.original_transmissions = schedule.transmission_count();
  if (!fails(g, schedule)) return result;  // reproduced stays false
  result.reproduced = true;

  // Phase 1: shortest failing round prefix, by bisection.
  std::size_t lo = 1;
  std::size_t hi = schedule.round_count();  // known to fail
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (fails(g, schedule_prefix(schedule, mid))) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  schedule = schedule_prefix(schedule, hi);

  // Phase 2: elide transmissions, backwards so earlier removals never
  // shift a position still to be tried.
  for (std::size_t i = schedule.transmission_count(); i-- > 0;) {
    if (schedule.transmission_count() <= 1) break;
    model::Schedule shorter = elide_transmission(schedule, i);
    if (fails(g, shorter)) schedule = std::move(shorter);
  }

  result.schedule = std::move(schedule);
  return result;
}

/// Renders a shrunk schedule as a paste-able C++ regression case.
inline std::string regression_snippet(const ScheduleShrinkResult& shrunk,
                                      const std::string& graph_expr) {
  std::ostringstream out;
  out << "// shrunk model regression: "
      << shrunk.schedule.transmission_count() << " of "
      << shrunk.original_transmissions << " transmissions, "
      << shrunk.schedule.round_count() << " of " << shrunk.original_rounds
      << " rounds\n";
  out << "const graph::Graph g = " << graph_expr << ";\n";
  out << "model::ScheduleBuilder builder;\n";
  for (model::RoundCursor round(shrunk.schedule); round.next();) {
    const std::size_t t = round.index();
    for (const model::Tx& tx : round.txs()) {
      out << "builder.add(" << t << ", {" << tx.message << ", " << tx.sender
          << ", {";
      const auto receivers = shrunk.schedule.receivers(tx);
      for (std::size_t i = 0; i < receivers.size(); ++i) {
        if (i > 0) out << ", ";
        out << receivers[i];
      }
      out << "}});\n";
    }
  }
  out << "const model::Schedule schedule = builder.build();\n";
  return out.str();
}

}  // namespace mg::test
