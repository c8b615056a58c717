// What the repository benchmark's `churn` workload reads of a churn event's
// tree step.  `churn::ChurnSolver` rebuilds the §3.1 minimum-depth spanning
// tree from scratch on every event, so every report reads kFullRebuild and
// no extra BFS sweep (the rebuild's sweeps are counted in
// `tree.center_scan_bfs`).
//
// Only perfbench needs these types: it includes this header and indexes its
// `tree.path.*` shares 0-4 by `MaintenancePath`.  Dropping them changes the
// benchmark, which is a change of its own.
#pragma once

#include <cstdint>

namespace mg::tree {

/// How a churn event's tree was obtained; the values are perfbench's
/// `tree.path.*` indices.  Every event takes kFullRebuild.
enum class MaintenancePath : std::uint8_t {
  kNoop,
  kParentPatch,
  kSubtreeRepair,
  kRecenter,
  kFullRebuild,
};

struct MaintenanceReport {
  MaintenancePath path = MaintenancePath::kFullRebuild;
  std::uint64_t bfs_runs = 0;  ///< BFS sweeps beyond the rebuild's own
};

}  // namespace mg::tree
