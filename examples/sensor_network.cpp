// Sensor-network scenario (§2's wireless motivation): "a transmission with
// power r^alpha reaches all receivers at a distance r" — multicast for
// free.  A random geometric deployment in the unit square gossips its
// sensor readings; we compare the multicast schedule against the telephone
// baseline and simulate a lossy round to show the completion impact.
//
//   $ ./sensor_network [n] [radius] [seed]
#include <cstdio>
#include <cstdlib>

#include "fault/fault.h"
#include "gossip/solve.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "sim/network_sim.h"
#include "support/rng.h"

int main(int argc, char** argv) {
  using namespace mg;
  const auto n = static_cast<graph::Vertex>(argc > 1 ? std::atoi(argv[1]) : 60);
  const double radius = argc > 2 ? std::atof(argv[2]) : 0.22;
  const auto seed = static_cast<std::uint64_t>(
      argc > 3 ? std::atoll(argv[3]) : 0x5e45);

  Rng rng(seed);
  const auto field = graph::random_geometric(n, radius, rng);
  const auto metrics = graph::compute_metrics(field);
  std::printf(
      "sensor field: %u nodes, %zu radio links, network radius %u, hop "
      "diameter %u\n\n",
      field.vertex_count(), field.edge_count(), metrics.radius,
      metrics.diameter);

  // All-to-all dissemination of sensor readings = gossiping.
  const auto multicast = gossip::solve_gossip(field);
  const auto telephone =
      gossip::solve_gossip(field, gossip::Algorithm::kTelephone);
  if (!multicast.report.ok || !telephone.report.ok) {
    std::printf("validation failed\n");
    return 1;
  }
  std::printf("multicast (ConcurrentUpDown): %4zu rounds  (n + r = %u)\n",
              multicast.schedule.total_time(), n + metrics.radius);
  std::printf("telephone baseline:           %4zu rounds  (%.2fx slower)\n\n",
              telephone.schedule.total_time(),
              static_cast<double>(telephone.schedule.total_time()) /
                  static_cast<double>(multicast.schedule.total_time()));

  // Energy proxy: one transmission = one radio wake-up, regardless of how
  // many neighbors hear it (that is the §2 wireless argument).
  std::printf("radio transmissions: multicast %zu vs telephone %zu\n\n",
              multicast.schedule.transmission_count(),
              telephone.schedule.transmission_count());

  // Fault drill: the busiest relay misses one send slot.
  const auto root = multicast.instance.tree().root();
  fault::FaultPlan plan;
  plan.drop(multicast.schedule.total_time() / 2, root);
  sim::SimOptions faulty;
  faulty.faults = &plan;
  const auto degraded =
      sim::simulate(multicast.instance.tree().as_graph(), multicast.schedule,
                    multicast.instance.initial(), faulty);
  std::size_t starved = 0;
  for (const auto missing : degraded.missing) starved += missing > 0 ? 1 : 0;
  std::printf(
      "fault drill: dropping the sink's transmission at round %zu leaves "
      "%zu/%u\nsensors with incomplete data (%zu forwards silently skipped) "
      "-- a fixed\nschedule has no retransmission, so upper layers must "
      "re-run the gossip.\n",
      multicast.schedule.total_time() / 2, starved, n,
      degraded.skipped_sends);
  return 0;
}
