#include "mmc/greedy.h"

#include <algorithm>
#include <numeric>

#include "support/contracts.h"

namespace mg::mmc {

model::Schedule greedy_mmc_schedule(const MmcInstance& instance) {
  const graph::Vertex n = instance.processor_count();

  // Pending work: per message, the destinations not yet served.
  std::vector<std::vector<graph::Vertex>> pending(instance.message_count());
  std::vector<std::vector<model::Message>> by_sender(n);
  std::size_t outstanding = 0;
  for (const auto& message : instance.messages()) {
    pending[message.id] = message.destinations;
    by_sender[message.source].push_back(message.id);
    outstanding += message.destinations.size();
  }

  model::ScheduleBuilder schedule;
  std::size_t t = 0;
  const std::size_t safety_limit =
      4 * instance.degree() * instance.degree() + 4 * n + 16;
  std::vector<char> receiving(n, 0);
  std::vector<graph::Vertex> sender_order(n);
  std::iota(sender_order.begin(), sender_order.end(), graph::Vertex{0});

  while (outstanding > 0) {
    MG_ASSERT_MSG(t < safety_limit, "greedy MMC failed to converge");
    std::fill(receiving.begin(), receiving.end(), 0);

    // Most loaded senders first: remaining deliveries they still owe.
    std::sort(sender_order.begin(), sender_order.end(),
              [&](graph::Vertex a, graph::Vertex b) {
                auto load = [&](graph::Vertex v) {
                  std::size_t total = 0;
                  for (model::Message m : by_sender[v]) {
                    total += pending[m].size();
                  }
                  return total;
                };
                const auto la = load(a);
                const auto lb = load(b);
                return la != lb ? la > lb : a < b;
              });

    bool progressed = false;
    for (graph::Vertex v : sender_order) {
      // Choose the pending message with the most free destinations.
      model::Message best = 0;
      std::size_t best_free = 0;
      for (model::Message m : by_sender[v]) {
        std::size_t free = 0;
        for (graph::Vertex d : pending[m]) free += receiving[d] ? 0u : 1u;
        if (free > best_free) {
          best_free = free;
          best = m;
        }
      }
      if (best_free == 0) continue;
      std::vector<graph::Vertex> receivers;
      for (graph::Vertex d : pending[best]) {
        if (!receiving[d]) {
          receivers.push_back(d);
          receiving[d] = 1;
        }
      }
      std::erase_if(pending[best], [&](graph::Vertex d) {
        return std::binary_search(receivers.begin(), receivers.end(), d);
      });
      outstanding -= receivers.size();
      schedule.add(t, best, v, receivers);
      progressed = true;
    }
    MG_ASSERT_MSG(progressed, "greedy MMC stalled");
    ++t;
  }
  return schedule.build();
}

}  // namespace mg::mmc
