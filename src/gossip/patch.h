// Schedule *patching* under topology churn: instead of re-solving gossip
// from scratch after an edge flip, keep the already-compiled schedule,
// strike the transmissions the mutated network can no longer carry, and
// splice a `partial_completion_schedule` repair onto the tail to close
// whatever gap the strikes opened.
//
// The pipeline (see docs/CHURN.md):
//   1. *filter*  — drop every (m, l, D) receiver no longer adjacent to the
//      sender (edge removals), and whole transmissions whose D set empties;
//      edge insertions strike nothing, so their patch is the old schedule
//      verbatim.
//   2. *replay*  — the filter tracks exact hold state while it walks the
//      rounds (receive-before-send, matching the simulator), which both
//      yields the degraded hold state for free and lets strikes *cascade*:
//      a transmission whose sender never received the message — because an
//      upstream delivery was struck — is struck too, transitively, keeping
//      the output valid under the model's "sender holds the message" rule.
//   3. *repair*  — if gossip no longer completes, append the greedy
//      completion schedule for that hold state after the filtered horizon.
// The result is a valid schedule on the mutated graph (rule conflicts
// cannot appear: filtering only shrinks rounds, and the repair occupies
// rounds of its own), typically within a handful of repair rounds of the
// original — and orders of magnitude cheaper than a fresh solve (pinned by
// bench/churn_bench's patched-vs-resolve gate).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "model/schedule.h"
#include "support/bitset.h"

namespace mg::gossip {

/// What `patch_schedule` did to the old schedule.
struct PatchResult {
  model::Schedule schedule;  ///< patched schedule, valid on the new graph
  /// Receivers struck from surviving transmissions (no longer adjacent).
  std::size_t trimmed_receivers = 0;
  /// Transmissions dropped whole (sender invalid or D set emptied).
  std::size_t dropped_transmissions = 0;
  /// Rounds of the filtered base schedule (repair starts after these).
  std::size_t base_rounds = 0;
  /// Rounds of the spliced repair tail (0 when the filtered schedule still
  /// completes on its own).
  std::size_t repair_rounds = 0;
  /// True when the patched schedule completes gossip on the new graph —
  /// always, for a connected graph, unless a repair was impossible.
  bool complete = false;
};

/// Patches `old_schedule` (built for some previous topology) so it
/// completes gossip on the *current* graph `g`.  `initial[v]` is the
/// message processor v holds at time 0 (empty = identity, matching
/// `sim::simulate`).  Requires message ids < g.vertex_count(); schedules
/// that predate a node event must be re-solved, not patched (the churn
/// solver enforces this).
[[nodiscard]] PatchResult patch_schedule(
    const graph::Graph& g, const model::Schedule& old_schedule,
    const std::vector<model::Message>& initial = {});

/// Same pipeline, but seeded from an explicit per-vertex hold state —
/// `initial_holds.test(v, m)` iff processor v holds message m at time 0,
/// one row per vertex.  This is the entry point for non-gossip message
/// universes (e.g. patching a broadcast schedule, where every hold row has
/// a single message id); completion means every vertex holds every id in
/// the universe.
[[nodiscard]] PatchResult patch_schedule_from_holds(
    const graph::Graph& g, const model::Schedule& old_schedule,
    const BitMatrix& initial_holds);

}  // namespace mg::gossip
