#include "model/stats.h"

#include <algorithm>

#include "support/contracts.h"

namespace mg::model {

ScheduleStats compute_stats(graph::Vertex n, const Schedule& schedule) {
  ScheduleStats stats;
  stats.rounds = schedule.total_time();
  stats.sends_per_processor.assign(n, 0);
  stats.receives_per_processor.assign(n, 0);
  stats.per_round.assign(schedule.round_count(), {});

  for (RoundCursor cursor(schedule); cursor.next();) {
    auto& round = stats.per_round[cursor.index()];
    for (const Tx& tx : cursor.txs()) {
      MG_EXPECTS(tx.sender < n);
      ++stats.transmissions;
      ++round.senders;
      ++stats.sends_per_processor[tx.sender];
      const std::size_t fanout = tx.count;
      stats.deliveries += fanout;
      round.deliveries += fanout;
      round.receivers += fanout;
      stats.max_fanout = std::max(stats.max_fanout, fanout);
      if (stats.fanout_histogram.size() <= fanout) {
        stats.fanout_histogram.resize(fanout + 1, 0);
      }
      ++stats.fanout_histogram[fanout];
      for (graph::Vertex r : schedule.receivers(tx)) {
        MG_EXPECTS(r < n);
        ++stats.receives_per_processor[r];
      }
    }
  }

  if (stats.transmissions > 0) {
    stats.mean_fanout = static_cast<double>(stats.deliveries) /
                        static_cast<double>(stats.transmissions);
  }
  const double capacity =
      static_cast<double>(n) * static_cast<double>(stats.rounds);
  if (capacity > 0) {
    stats.receive_utilization =
        static_cast<double>(stats.deliveries) / capacity;
    stats.send_utilization =
        static_cast<double>(stats.transmissions) / capacity;
  }
  return stats;
}

}  // namespace mg::model
