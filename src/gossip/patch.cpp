#include "gossip/patch.h"

#include <utility>

#include "gossip/recovery.h"
#include "obs/registry.h"
#include "sim/network_sim.h"
#include "support/bitset.h"
#include "support/contracts.h"

namespace mg::gossip {

namespace {

/// The filter+replay pass shared by both entry points: walk the old
/// schedule round by round, tracking exact hold state under the *new*
/// topology, and keep only transmissions the mutated network can carry
/// AND whose sender actually holds the message.  The second condition is
/// the cascade: striking one transmission starves its receivers, which
/// silently invalidates their own later sends — the validator enforces
/// rule 5, so the patch must strike those too, transitively.
///
/// Receive-before-send semantics match the validator and simulator: a
/// message arriving at time t may be forwarded at time t.
PatchResult filter_and_replay(const graph::Graph& g,
                              const model::Schedule& old_schedule,
                              BitMatrix holds) {
  const graph::Vertex n = g.vertex_count();
  MG_EXPECTS(holds.rows() == n);
  const std::size_t message_count = holds.bits();
  PatchResult result;

  model::ScheduleBuilder filtered;
  std::vector<graph::Vertex> kept;
  std::vector<std::pair<graph::Vertex, model::Message>> arrivals;
  std::vector<std::pair<graph::Vertex, model::Message>> next_arrivals;
  for (std::size_t t = 0; t < old_schedule.round_count(); ++t) {
    for (const auto& [receiver, message] : arrivals) {
      holds.set(receiver, message);
    }
    arrivals.clear();
    for (const model::Tx& tx : old_schedule.round(t)) {
      if (tx.sender >= n || tx.message >= message_count ||
          !holds.test(tx.sender, tx.message)) {
        ++result.dropped_transmissions;
        continue;
      }
      kept.clear();
      for (graph::Vertex r : old_schedule.receivers(tx)) {
        if (r < n && g.has_edge(tx.sender, r)) {
          kept.push_back(r);
        } else {
          ++result.trimmed_receivers;
        }
      }
      if (kept.empty()) {
        ++result.dropped_transmissions;
        continue;
      }
      for (graph::Vertex r : kept) next_arrivals.emplace_back(r, tx.message);
      filtered.add(t, tx.message, tx.sender, kept);
    }
    std::swap(arrivals, next_arrivals);
    next_arrivals.clear();
  }
  for (const auto& [receiver, message] : arrivals) {
    holds.set(receiver, message);
  }
  result.schedule = filtered.build();
  result.base_rounds = result.schedule.total_time();

  result.complete = true;
  for (graph::Vertex v = 0; v < n; ++v) {
    result.complete = result.complete && holds.count(v) == message_count;
  }
  if (!result.complete) {
    // Repair: greedy completion from the exact degraded state, spliced
    // after the filtered horizon.  On a connected graph every message is
    // still known somewhere (its origin holds it from time 0), so the
    // achievable closure is everything and the repair completes.
    const model::Schedule repair = partial_completion_schedule(g, holds);
    result.repair_rounds = repair.total_time();
    result.complete =
        sim::simulate_from_holds(g, repair, std::move(holds)).completed;
    result.schedule.append(repair, result.base_rounds);
  }

  MG_OBS_ADD("churn.patch.calls", 1);
  if (result.trimmed_receivers > 0) {
    MG_OBS_ADD("churn.patch.trimmed_receivers", result.trimmed_receivers);
  }
  if (result.dropped_transmissions > 0) {
    MG_OBS_ADD("churn.patch.dropped_transmissions",
               result.dropped_transmissions);
  }
  if (result.repair_rounds > 0) {
    MG_OBS_ADD("churn.patch.repairs", 1);
    MG_OBS_ADD("churn.patch.repair_rounds", result.repair_rounds);
  }
  return result;
}

}  // namespace

PatchResult patch_schedule(const graph::Graph& g,
                           const model::Schedule& old_schedule,
                           const std::vector<model::Message>& initial) {
  MG_OBS_SCOPE_TIMER(patch_timer, "churn.patch_ns");
  const graph::Vertex n = g.vertex_count();
  MG_EXPECTS(initial.empty() || initial.size() == n);
  BitMatrix holds(n, n);
  for (graph::Vertex v = 0; v < n; ++v) {
    holds.set(v, initial.empty() ? v : initial[v]);
  }
  return filter_and_replay(g, old_schedule, std::move(holds));
}

PatchResult patch_schedule_from_holds(const graph::Graph& g,
                                      const model::Schedule& old_schedule,
                                      const BitMatrix& initial_holds) {
  MG_OBS_SCOPE_TIMER(patch_timer, "churn.patch_ns");
  return filter_and_replay(g, old_schedule, initial_holds);
}

}  // namespace mg::gossip
