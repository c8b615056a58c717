#include "churn/solver.h"

#include <utility>

#include "gossip/concurrent_updown.h"
#include "gossip/instance.h"
#include "obs/registry.h"

namespace mg::churn {

ChurnSolver::ChurnSolver(graph::Graph g0, ChurnSolverOptions /*options*/,
                         engine::Engine* engine, ThreadPool* pool)
    : engine_(engine), pool_(pool), graph_(std::move(g0)) {
  resolve(tree::min_depth_spanning_tree(graph_.snapshot(), pool_));
}

void ChurnSolver::resolve(tree::RootedTree rooted) {
  gossip::Instance instance(std::move(rooted));
  schedule_ = gossip::concurrent_updown(instance);
  initial_ = instance.initial();
  ++stats_.resolves;
  MG_OBS_ADD("churn.solver.resolves", 1);
}

ApplyReport ChurnSolver::apply(const ChurnEvent& event) {
  MG_OBS_SCOPE_TIMER(apply_timer, "churn.solver.apply_ns");
  ApplyReport report;
  report.event = event;

  // 2. Fingerprint-delta invalidation targets the *pre-mutation* graph:
  // that is the entry the mutation made stale.
  const std::uint64_t old_fingerprint =
      engine_ ? engine::graph_fingerprint(graph_.snapshot()) : 0;

  // 1. Mutate.
  (void)apply_event(graph_, event);
  const graph::Graph& g = graph_.snapshot();

  if (engine_ != nullptr) {
    report.invalidated = engine_->invalidate(old_fingerprint);
    stats_.invalidated += report.invalidated;
  }

  // 3. The §3.1 tree of the mutated graph.
  tree::RootedTree rebuilt;
  {
    MG_OBS_SCOPE_HIST(retree_hist, "churn.retree_ns");
    rebuilt = tree::min_depth_spanning_tree(g, pool_);
  }
  report.fresh_bound =
      static_cast<std::size_t>(g.vertex_count()) + rebuilt.height();

  // 4. Reschedule on it.  perfbench reads this histogram as
  // `churn.reschedule_ms`.
  {
    MG_OBS_SCOPE_HIST(reschedule_hist, "churn.patch_ns");
    resolve(std::move(rebuilt));
  }
  report.resolved = true;
  report.schedule_time = schedule_.total_time();

  ++stats_.events;
  MG_OBS_ADD("churn.solver.events", 1);
  return report;
}

}  // namespace mg::churn
