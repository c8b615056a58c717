#include "churn/solver.h"

#include <utility>

#include "gossip/concurrent_updown.h"
#include "gossip/instance.h"
#include "obs/registry.h"

namespace mg::churn {

ChurnSolver::ChurnSolver(graph::Graph g0, ChurnSolverOptions /*options*/,
                         engine::Engine* engine, ThreadPool* pool)
    : engine_(engine), graph_(std::move(g0)), tree_(graph_.snapshot(), pool) {
  resolve();
}

void ChurnSolver::resolve() {
  // The maintained tree is already a minimum-depth spanning tree of the
  // current topology, so this pays only the schedule construction — never
  // a second center search.
  gossip::Instance instance(tree_.tree());
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
  const auto [u, v] = apply_event(graph_, event);
  const graph::Graph& g = graph_.snapshot();

  if (engine_ != nullptr) {
    report.invalidated = engine_->invalidate(old_fingerprint);
    stats_.invalidated += report.invalidated;
  }

  // 3. Incremental tree maintenance.
  {
    MG_OBS_SCOPE_HIST(retree_hist, "churn.retree_ns");
    switch (event.kind) {
      case EventKind::kAddEdge:
        report.tree_report = tree_.on_edge_added(g, u, v);
        break;
      case EventKind::kRemoveEdge:
        report.tree_report = tree_.on_edge_removed(g, u, v);
        break;
      case EventKind::kAddNode:
      case EventKind::kRemoveNode:
        report.tree_report = tree_.on_node_event(g);
        break;
    }
  }

  // 4. Reschedule on the maintained tree.  perfbench reads this histogram
  // as `churn.reschedule_ms`.
  {
    MG_OBS_SCOPE_HIST(reschedule_hist, "churn.patch_ns");
    resolve();
  }
  report.resolved = true;
  report.fresh_bound =
      static_cast<std::size_t>(g.vertex_count()) + tree_.radius();
  report.schedule_time = schedule_.total_time();

  ++stats_.events;
  MG_OBS_ADD("churn.solver.events", 1);
  return report;
}

}  // namespace mg::churn
