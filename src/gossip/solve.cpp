#include "gossip/solve.h"

#include "gossip/concurrent_updown.h"
#include "gossip/simple.h"
#include "gossip/telephone.h"
#include "gossip/updown.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "support/contracts.h"

namespace mg::gossip {

std::string algorithm_name(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kSimple:
      return "Simple";
    case Algorithm::kUpDown:
      return "UpDown";
    case Algorithm::kConcurrentUpDown:
      return "ConcurrentUpDown";
    case Algorithm::kTelephone:
      return "Telephone";
  }
  MG_ASSERT_MSG(false, "unknown algorithm");
  return {};
}

model::Schedule run_algorithm(const Instance& instance, Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kSimple:
      return simple_gossip(instance);
    case Algorithm::kUpDown:
      return updown_gossip(instance);
    case Algorithm::kConcurrentUpDown:
      return concurrent_updown(instance);
    case Algorithm::kTelephone:
      return telephone_gossip(instance);
  }
  MG_ASSERT_MSG(false, "unknown algorithm");
  return {};
}

Solution solve_gossip(const graph::Graph& g, Algorithm algorithm,
                      ThreadPool* pool) {
  MG_OBS_SPAN(solve_span, "gossip.solve_gossip");
  MG_OBS_SCOPE_HIST(solve_hist, "gossip.solve_ns");
#if MG_OBS_ENABLED
  const std::string name = algorithm_name(algorithm);
  MG_OBS_ADD("gossip." + name + ".runs", 1);
  MG_OBS_SCOPE_TIMER(solve_timer, "gossip." + name + ".solve_ns");
#endif
  Instance instance = [&] {
    MG_OBS_SCOPE_TIMER(build_span, "gossip.phase.build_instance_ns");
    return Instance::from_network(g, pool);
  }();
  model::Schedule schedule = [&] {
    MG_OBS_SCOPE_TIMER(run_span, "gossip.phase.run_algorithm_ns");
    return run_algorithm(instance, algorithm);
  }();
  model::ValidatorOptions options;
  if (algorithm == Algorithm::kTelephone) {
    options.model = &model::telephone_model();
  }
  // Communications run on the tree network (§3): validate against it.
  model::ValidationReport report = [&] {
    MG_OBS_SCOPE_TIMER(validate_span, "gossip.phase.validate_ns");
    return model::validate_schedule(instance.tree().as_graph(), schedule,
                                    instance.initial(), options);
  }();
#if MG_OBS_ENABLED
  MG_OBS_ADD("gossip." + name + ".rounds", schedule.total_time());
  MG_OBS_ADD("gossip." + name + ".transmissions",
             schedule.transmission_count());
  MG_OBS_ADD("gossip." + name + ".deliveries", schedule.delivery_count());
#endif
  return Solution{std::move(instance), algorithm, std::move(schedule),
                  std::move(report)};
}

}  // namespace mg::gossip
