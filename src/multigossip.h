// Umbrella header for the multigossip library: gossiping (all-to-all
// broadcast) in the multicasting communication environment, after
//
//   T. F. Gonzalez, "Gossiping in the Multicasting Communication
//   Environment", IPPS 2001 (journal version: "An Efficient Algorithm for
//   Gossiping in the Multicasting Communication Environment").
//
// Typical use:
//
//   #include "multigossip.h"
//   auto g = mg::graph::random_geometric(100, 0.2, rng);
//   auto solution = mg::gossip::solve_gossip(g);   // n + radius rounds
//
// Layered structure (each header is independently includable):
//   support/  contracts, RNG, bitset, thread pool, table formatting
//   graph/    CSR graphs, generators, named paper networks, properties,
//             Hamiltonian search, products, enumeration, I/O
//   tree/     rooted trees, BFS / minimum-depth spanning trees, DFS labels
//   model/    schedules, the communication-model validator, statistics
//   fault/    composable fault plans: drops, crash-stop, per-edge delays
//   gossip/   the paper's algorithms and extensions, incl. self-healing
//   dist/     distributed online execution: per-processor actors, the
//             round-synchronized message bus, decentralized recovery, and
//             the differential gate against the central schedule
//   engine/   concurrent batch solver: sharded LRU schedule cache keyed by
//             graph fingerprint, single-flight miss coalescing,
//             fingerprint-delta invalidation
//   churn/    dynamic topology: seeded churn feeds, the mutable CSR
//             overlay, incremental spanning-tree maintenance, and the
//             online churn solver that re-synthesizes on the maintained
//             tree after every event
//   mmc/      the multimessage-multicasting generalization
//   sim/      round-based execution, traces, fault injection, randomized
//             rumor spreading
#pragma once

#include "graph/enumeration.h"       // IWYU pragma: export
#include "graph/generators.h"        // IWYU pragma: export
#include "graph/graph.h"             // IWYU pragma: export
#include "graph/hamiltonian.h"       // IWYU pragma: export
#include "graph/interconnect.h"      // IWYU pragma: export
#include "graph/io.h"                // IWYU pragma: export
#include "graph/named.h"             // IWYU pragma: export
#include "graph/product.h"           // IWYU pragma: export
#include "graph/properties.h"        // IWYU pragma: export
#include "churn/feed.h"              // IWYU pragma: export
#include "churn/solver.h"            // IWYU pragma: export
#include "dist/actor.h"              // IWYU pragma: export
#include "dist/mailbox.h"            // IWYU pragma: export
#include "dist/runtime.h"            // IWYU pragma: export
#include "engine/engine.h"           // IWYU pragma: export
#include "fault/fault.h"             // IWYU pragma: export
#include "gossip/bounded_fanout.h"   // IWYU pragma: export
#include "gossip/bounds.h"           // IWYU pragma: export
#include "gossip/collectives.h"      // IWYU pragma: export
#include "gossip/broadcast.h"        // IWYU pragma: export
#include "gossip/classification.h"   // IWYU pragma: export
#include "gossip/concurrent_updown.h"  // IWYU pragma: export
#include "gossip/hamiltonian_gossip.h"  // IWYU pragma: export
#include "gossip/instance.h"         // IWYU pragma: export
#include "gossip/line_optimal.h"     // IWYU pragma: export
#include "gossip/online.h"           // IWYU pragma: export
#include "gossip/optimal_search.h"   // IWYU pragma: export
#include "gossip/recovery.h"         // IWYU pragma: export
#include "gossip/repeated.h"         // IWYU pragma: export
#include "gossip/simple.h"           // IWYU pragma: export
#include "gossip/solve.h"            // IWYU pragma: export
#include "gossip/telephone.h"        // IWYU pragma: export
#include "gossip/timetable.h"        // IWYU pragma: export
#include "gossip/updown.h"           // IWYU pragma: export
#include "gossip/weighted.h"         // IWYU pragma: export
#include "mmc/greedy.h"              // IWYU pragma: export
#include "mmc/problem.h"             // IWYU pragma: export
#include "model/comm_model.h"        // IWYU pragma: export
#include "model/legalize.h"          // IWYU pragma: export
#include "model/schedule.h"          // IWYU pragma: export
#include "model/stats.h"             // IWYU pragma: export
#include "model/validator.h"         // IWYU pragma: export
#include "sim/network_sim.h"         // IWYU pragma: export
#include "sim/randomized.h"          // IWYU pragma: export
#include "support/rng.h"             // IWYU pragma: export
#include "support/thread_pool.h"     // IWYU pragma: export
#include "tree/labeling.h"           // IWYU pragma: export
#include "tree/spanning_tree.h"      // IWYU pragma: export
