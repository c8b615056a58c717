#include "gossip/repeated.h"

#include <algorithm>

#include "gossip/concurrent_updown.h"
#include "support/contracts.h"

namespace mg::gossip {

namespace {

/// Per-processor busy-time masks (one bit per round).
struct BusyMasks {
  std::vector<std::vector<std::uint64_t>> send;     // [vertex][word]
  std::vector<std::vector<std::uint64_t>> receive;  // [vertex][word]
  std::size_t rounds = 0;
};

BusyMasks busy_masks(graph::Vertex n, const model::Schedule& schedule) {
  BusyMasks masks;
  masks.rounds = schedule.round_count();
  const std::size_t words = (masks.rounds + 63) / 64 + 1;
  masks.send.assign(n, std::vector<std::uint64_t>(words, 0));
  masks.receive.assign(n, std::vector<std::uint64_t>(words, 0));
  for (model::RoundCursor round(schedule); round.next();) {
    const std::size_t t = round.index();
    for (const model::Tx& tx : round.txs()) {
      masks.send[tx.sender][t >> 6] |= std::uint64_t{1} << (t & 63);
      for (graph::Vertex r : schedule.receivers(tx)) {
        // Receive happens at t + 1; the mask stores the *receive* round.
        masks.receive[r][(t + 1) >> 6] |= std::uint64_t{1} << ((t + 1) & 63);
      }
    }
  }
  return masks;
}

/// True when `mask` shifted by `shift` overlaps itself.
bool self_overlap(const std::vector<std::uint64_t>& mask, std::size_t shift) {
  const std::size_t word_shift = shift >> 6;
  const unsigned bit_shift = shift & 63;
  for (std::size_t w = 0; w + word_shift < mask.size(); ++w) {
    std::uint64_t shifted = mask[w] << bit_shift;
    if (bit_shift != 0 && w > 0) {
      shifted |= mask[w - 1] >> (64 - bit_shift);
    }
    if ((shifted & mask[w + word_shift]) != 0) return true;
  }
  return false;
}

}  // namespace

std::size_t pipeline_period(graph::Vertex n, const model::Schedule& schedule) {
  const std::size_t horizon = schedule.total_time();
  if (horizon == 0) return 1;
  const auto masks = busy_masks(n, schedule);
  for (std::size_t period = 1; period <= horizon; ++period) {
    bool feasible = true;
    for (std::size_t shift = period; shift <= horizon && feasible;
         shift += period) {
      for (graph::Vertex v = 0; v < n && feasible; ++v) {
        if (self_overlap(masks.send[v], shift) ||
            self_overlap(masks.receive[v], shift)) {
          feasible = false;
        }
      }
    }
    if (feasible) return period;
  }
  return horizon;
}

RepeatedGossipResult repeated_gossip(const Instance& instance,
                                     std::size_t copies, bool pipelined) {
  MG_EXPECTS(copies >= 1);
  const graph::Vertex n = instance.vertex_count();
  const model::Schedule base = concurrent_updown(instance);

  RepeatedGossipResult result;
  result.copies = copies;
  result.period =
      pipelined ? pipeline_period(n, base) : std::max<std::size_t>(
                                                 base.total_time(), 1);
  result.message_count = copies * static_cast<std::size_t>(n);
  model::ScheduleBuilder schedule;
  for (std::size_t c = 0; c < copies; ++c) {
    const std::size_t offset = c * result.period;
    const auto message_base = static_cast<model::Message>(c * n);
    for (model::RoundCursor round(base); round.next();) {
      for (const model::Tx& tx : round.txs()) {
        schedule.add(offset + round.index(), message_base + tx.message,
                     tx.sender, base.receivers(tx));
      }
    }
  }
  result.schedule = schedule.build();
  result.total_time = result.schedule.total_time();
  result.amortized_time =
      static_cast<double>(result.total_time) / static_cast<double>(copies);

  result.initial_sets.assign(n, {});
  for (graph::Vertex v = 0; v < n; ++v) {
    for (std::size_t c = 0; c < copies; ++c) {
      result.initial_sets[v].push_back(
          static_cast<model::Message>(c * n + instance.labels().label(v)));
    }
  }
  return result;
}

}  // namespace mg::gossip
