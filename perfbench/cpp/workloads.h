// The four workloads.  Each one runs its checker self-test, sets up from
// --seed (timed, several times), measures its closed loop for --seconds,
// checks every op's output, and fills `report`: end-to-end metrics when
// untraced, per-layer metrics when traced.
#pragma once

#include "common.h"

namespace perfbench {

/// One caller, ~20 networks at n ~ 1000: solve_gossip + simulate.
void run_solve(const Args& args, Report& report);
/// Two callers on one Engine over a zipf stream of small networks.
void run_serve(const Args& args, Report& report);
/// One caller applying edge events to a ChurnSolver on a 16x16 grid.
void run_churn(const Args& args, Report& report);
/// One caller running the dist actors under drops and a crash, n ~ 256.
void run_heal(const Args& args, Report& report);

}  // namespace perfbench
