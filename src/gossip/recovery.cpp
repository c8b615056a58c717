#include "gossip/recovery.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "gossip/want_counts.h"
#include "model/validator.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "support/contracts.h"

namespace mg::gossip {

using model::Message;

namespace {

constexpr std::uint32_t kNoComponent = static_cast<std::uint32_t>(-1);

/// Connected components of the alive-induced subgraph, plus each
/// component's knowledge closure (the union of its members' hold sets) —
/// the most any flood inside the component can deliver.
struct SurvivorClosure {
  std::vector<std::uint32_t> component;  ///< kNoComponent for dead vertices
  BitMatrix closure;                     ///< row c: component c's closure
};

SurvivorClosure survivor_closure(const graph::Graph& g,
                                 const BitMatrix& holds,
                                 const std::vector<char>& alive) {
  const graph::Vertex n = g.vertex_count();
  SurvivorClosure result;
  result.component.assign(n, kNoComponent);
  std::uint32_t components = 0;
  std::vector<graph::Vertex> queue;
  for (graph::Vertex start = 0; start < n; ++start) {
    if (!alive[start] || result.component[start] != kNoComponent) continue;
    result.component[start] = components;
    queue.assign(1, start);
    while (!queue.empty()) {
      const graph::Vertex v = queue.back();
      queue.pop_back();
      for (graph::Vertex u : g.neighbors(v)) {
        if (alive[u] && result.component[u] == kNoComponent) {
          result.component[u] = components;
          queue.push_back(u);
        }
      }
    }
    ++components;
  }
  result.closure = BitMatrix(components, holds.bits());
  for (graph::Vertex v = 0; v < n; ++v) {
    if (result.component[v] == kNoComponent) continue;
    const auto from = holds.row(v);
    const auto into = result.closure.row(result.component[v]);
    for (std::size_t w = 0; w < into.size(); ++w) into[w] |= from[w];
  }
  return result;
}

/// Pairs still deliverable: live vertices below their component closure.
std::size_t outstanding_pairs(const SurvivorClosure& sc,
                              const BitMatrix& holds,
                              const std::vector<char>& alive) {
  std::size_t outstanding = 0;
  for (std::size_t v = 0; v < holds.rows(); ++v) {
    if (!alive[v]) continue;
    outstanding += sc.closure.count(sc.component[v]) - holds.count(v);
  }
  return outstanding;
}

}  // namespace

std::vector<std::vector<Message>> holds_to_initial_sets(
    const BitMatrix& holds) {
  std::vector<std::vector<Message>> sets(holds.rows());
  for (std::size_t v = 0; v < holds.rows(); ++v) {
    const auto words = holds.row(v);
    for (std::size_t w = 0; w < words.size(); ++w) {
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        sets[v].push_back(static_cast<Message>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
      }
    }
  }
  return sets;
}

model::Schedule partial_completion_schedule(const graph::Graph& g,
                                            const BitMatrix& holds,
                                            const std::vector<char>& alive) {
  const graph::Vertex n = g.vertex_count();
  MG_EXPECTS(holds.rows() == n);
  const std::size_t message_count = holds.bits();
  std::vector<char> live = alive;
  if (live.empty()) live.assign(n, 1);
  MG_EXPECTS(live.size() == n);

  const SurvivorClosure sc = survivor_closure(g, holds, live);
  BitMatrix state = holds;
  std::size_t outstanding = outstanding_pairs(sc, state, live);

  // Each sender counts, per message, the free live neighbors that lack
  // it; no count exceeds the maximum degree.
  std::size_t max_degree = 0;
  for (graph::Vertex v = 0; v < n; ++v) {
    max_degree = std::max(max_degree, g.neighbors(v).size());
  }
  WantCounts wants(state.row_words(), max_degree);
  std::vector<graph::Vertex> receivers;

  model::ScheduleBuilder schedule;
  std::size_t t = 0;
  const std::size_t safety_limit = message_count * n + 8;
  std::vector<char> receiving(n, 0);
  std::vector<std::pair<graph::Vertex, Message>> arrivals;
  while (outstanding > 0) {
    MG_ASSERT_MSG(t < safety_limit, "greedy completion failed to converge");
    std::fill(receiving.begin(), receiving.end(), 0);
    arrivals.clear();

    for (graph::Vertex v = 0; v < n; ++v) {
      if (!live[v]) continue;
      // Send the held message wanted by the most currently-free live
      // neighbors, smallest id on ties.  Any message v holds is inside its
      // neighbors' closure (same component), so "u misses m" is exactly
      // "u wants m".
      wants.clear();
      bool wanted = false;
      for (const graph::Vertex u : g.neighbors(v)) {
        if (!live[u] || receiving[u]) continue;
        wanted |= wants.add_missing(state.row(v), state.row(u));
      }
      if (!wanted) continue;
      const Message best_message = wants.argmax();
      receivers.clear();
      for (const graph::Vertex u : g.neighbors(v)) {
        if (live[u] && !receiving[u] && !state.test(u, best_message)) {
          receivers.push_back(u);
          receiving[u] = 1;
          arrivals.emplace_back(u, best_message);
        }
      }
      schedule.add(t, best_message, v, receivers);
    }

    MG_ASSERT_MSG(!arrivals.empty(),
                  "no progress toward the achievable closure");
    for (const auto& [u, m] : arrivals) {
      state.set(u, m);
      --outstanding;
    }
    ++t;
  }
  return schedule.build();
}

model::Schedule greedy_completion_schedule(const graph::Graph& g,
                                           const BitMatrix& holds) {
  const graph::Vertex n = g.vertex_count();
  MG_EXPECTS(holds.rows() == n);
  const std::size_t message_count = holds.bits();

  // Full completion needs every component to reach every message; on a
  // connected graph that is every message being known somewhere.
  const std::vector<char> live(n, 1);
  const SurvivorClosure sc = survivor_closure(g, holds, live);
  for (std::size_t c = 0; c < sc.closure.rows(); ++c) {
    MG_EXPECTS_MSG(sc.closure.count(c) == message_count,
                   "a message is known to no processor of a component");
  }

  return partial_completion_schedule(g, holds, live);
}

HoldVerdict hold_verdict(const graph::Graph& g, const BitMatrix& holds,
                         const std::vector<char>& alive) {
  const graph::Vertex n = g.vertex_count();
  MG_EXPECTS(holds.rows() == n && alive.size() == n);
  const std::size_t message_count = holds.bits();
  HoldVerdict out;
  out.missing.assign(n, 0);
  std::size_t live_count = 0;
  std::size_t held_pairs = 0;
  for (graph::Vertex v = 0; v < n; ++v) {
    const std::size_t held = holds.count(v);
    out.missing[v] = message_count - held;
    if (!alive[v]) {
      out.crashed.push_back(v);
      continue;
    }
    ++live_count;
    held_pairs += held;
  }
  out.complete = live_count > 0 && held_pairs == live_count * message_count;
  out.recovered =
      outstanding_pairs(survivor_closure(g, holds, alive), holds, alive) == 0;
  out.coverage = live_count == 0
                     ? 0.0
                     : static_cast<double>(held_pairs) /
                           (static_cast<double>(live_count) *
                            static_cast<double>(message_count));
  return out;
}

RecoveryOutcome solve_with_recovery(const graph::Graph& g,
                                    const fault::FaultPlan& plan,
                                    const RecoveryOptions& options) {
  RecoveryOutcome out(solve_gossip(g, options.algorithm));
  const graph::Graph tree = out.base.instance.tree().as_graph();
  const graph::Vertex n = g.vertex_count();
  const std::size_t message_count = n;

  // Phase 1: the offline schedule meets the fabric.
  sim::SimOptions base_options;
  base_options.faults = &plan;
  out.faulty_run = sim::simulate(tree, out.base.schedule,
                                 out.base.instance.initial(), base_options);

  BitMatrix holds = out.faulty_run.final_holds;
  std::size_t clock = out.base.schedule.round_count();  // absolute round

  // Phase 2: bounded self-healing.  Each attempt replans a greedy
  // completion flood on the current survivor graph and executes it under
  // the continuing fault plan; holds only grow, so attempts converge
  // toward the achievable closure (or exhaust the budget trying).
  while (out.attempts < options.max_attempts) {
    MG_OBS_SPAN(attempt_span, "recovery.attempt");
    MG_OBS_SCOPE_HIST(attempt_hist, "recovery.attempt_ns");
    const std::vector<char> alive = plan.alive_at(clock, n);
    model::Schedule repair = partial_completion_schedule(g, holds, alive);
    if (repair.round_count() == 0) break;  // achievable closure reached

    if (options.extra_round_budget > 0) {
      if (out.extra_rounds >= options.extra_round_budget) break;
      const std::size_t remaining =
          options.extra_round_budget - out.extra_rounds;
      if (repair.round_count() > remaining) {
        model::ScheduleBuilder truncated;
        for (model::RoundCursor round(repair);
             round.next() && round.index() < remaining;) {
          for (const model::Tx& tx : round.txs()) {
            truncated.add(round.index(), tx.message, tx.sender,
                          repair.receivers(tx));
          }
        }
        repair = truncated.build();
      }
    }

    // The repair must itself be a legal multicast schedule (rules only;
    // completion is checked on the final state, not per attempt).
    model::ValidatorOptions validator_options;
    validator_options.require_completion = false;
    const auto repair_report = model::validate_schedule_general(
        g, repair, holds_to_initial_sets(holds), message_count,
        validator_options);
    out.repairs_valid = out.repairs_valid && repair_report.ok;

    sim::SimOptions repair_options;
    if (options.faults_during_recovery) {
      repair_options.faults = &plan;
      repair_options.fault_round_offset = clock;
    }
    holds = sim::simulate_from_holds(g, repair, std::move(holds),
                                     repair_options)
                .final_holds;

    const std::size_t repair_rounds = repair.round_count();
    out.repairs.push_back(std::move(repair));
    out.extra_rounds += repair_rounds;
    clock += repair_rounds;
    ++out.attempts;
    MG_OBS_ADD("recovery.invocations", 1);
    MG_OBS_ADD("recovery.extra_rounds", repair_rounds);
  }

  // Phase 3: the verdict, on the final survivor graph.
  static_cast<HoldVerdict&>(out) =
      hold_verdict(g, holds, plan.alive_at(clock, n));
  return out;
}

}  // namespace mg::gossip
