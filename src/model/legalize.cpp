#include "model/legalize.h"

#include <algorithm>
#include <cstdint>

#include "support/bitset.h"
#include "support/contracts.h"

namespace mg::model {

namespace {

using graph::Vertex;

/// One packed sub-round under a broadcast-channel model: the transmitting
/// senders plus the deliveries the source schedule intends (and the packer
/// therefore guarantees collision-free).
struct SubRound {
  std::vector<const Tx*> txs;
  std::vector<Vertex> senders;
  std::vector<Vertex> intended;  ///< receivers the source schedule aims at
};

/// True when adding the full-neighborhood broadcast of `sender` (intended
/// for `receivers`) to `sub` keeps every intended delivery — existing and
/// new — decodable: no intended receiver transmits, and each hears exactly
/// one transmitting neighbor.
bool fits_broadcast_subround(const graph::Graph& g, Vertex sender,
                             std::span<const Vertex> receivers,
                             const SubRound& sub) {
  for (const Vertex r : receivers) {
    // New intended receiver r must not transmit and must not hear any
    // already-admitted sender.
    for (const Vertex s : sub.senders) {
      if (r == s || g.has_edge(s, r)) return false;
    }
  }
  for (const Vertex r : sub.intended) {
    // Existing intended receiver r must not start hearing the sender too,
    // and the sender transmitting must not deafen a delivery aimed at it.
    if (r == sender || g.has_edge(sender, r)) return false;
  }
  return true;
}

Schedule legalize_telephone(const Schedule& schedule) {
  ScheduleBuilder out;
  std::size_t offset = 0;
  for (RoundCursor round(schedule); round.next();) {
    std::size_t width = 1;
    for (const Tx& tx : round.txs()) {
      width = std::max<std::size_t>(width, tx.count);
    }
    for (const Tx& tx : round.txs()) {
      const auto receivers = schedule.receivers(tx);
      for (std::size_t k = 0; k < receivers.size(); ++k) {
        out.add(offset + k, tx.message, tx.sender, {receivers[k]});
      }
    }
    offset += width;
  }
  return out.build();
}

Schedule legalize_broadcast_channel(const graph::Graph& g,
                                    const Schedule& schedule) {
  ScheduleBuilder out;
  std::size_t offset = 0;
  std::vector<SubRound> block;
  for (RoundCursor round(schedule); round.next();) {
    block.clear();
    for (const Tx& tx : round.txs()) {
      const auto receivers = schedule.receivers(tx);
      SubRound* slot = nullptr;
      for (SubRound& sub : block) {
        if (fits_broadcast_subround(g, tx.sender, receivers, sub)) {
          slot = &sub;
          break;
        }
      }
      if (slot == nullptr) {
        // A transmission always fits alone: D is a subset of N(sender), a
        // lone transmitter is every listener's only transmitting neighbor.
        block.emplace_back();
        slot = &block.back();
      }
      slot->txs.push_back(&tx);
      slot->senders.push_back(tx.sender);
      slot->intended.insert(slot->intended.end(), receivers.begin(),
                            receivers.end());
    }
    if (block.empty()) block.emplace_back();  // keep source pacing
    for (std::size_t k = 0; k < block.size(); ++k) {
      for (const Tx* tx : block[k].txs) {
        out.add(offset + k, tx->message, tx->sender,
                g.neighbors(tx->sender));
      }
    }
    offset += block.size();
  }
  return out.build();
}

}  // namespace

AdaptResult adapt_schedule(const graph::Graph& g, const Schedule& schedule,
                           const CommModel& model) {
  AdaptResult result;
  switch (model.kind()) {
    case ModelKind::kMulticast:
    case ModelKind::kDirect:
      // Direct addressing relaxes the adjacency rule only: every
      // multicast-legal schedule is already legal.
      result.schedule = schedule;
      break;
    case ModelKind::kTelephone:
      result.schedule = legalize_telephone(schedule);
      break;
    case ModelKind::kRadio:
    case ModelKind::kBeep:
      result.schedule = legalize_broadcast_channel(g, schedule);
      break;
  }
  result.structural_rounds = result.schedule.total_time();
  result.model_rounds =
      model.model_time(result.structural_rounds, g.vertex_count());
  const std::size_t src = schedule.total_time();
  result.stretch =
      result.structural_rounds > src ? result.structural_rounds - src : 0;
  return result;
}

Schedule direct_ring_schedule(graph::Vertex n,
                              const std::vector<Message>& initial) {
  MG_EXPECTS(initial.empty() || initial.size() == n);
  ScheduleBuilder out;
  if (n < 2) return out.build();
  const auto message_of = [&](Vertex origin) {
    return initial.empty() ? static_cast<Message>(origin) : initial[origin];
  };
  // Round t: node i forwards the message originating at ring position
  // i - t to node i + 1; it received that message at time t (t > 0), so
  // the relay is exactly receive-before-send tight.
  for (std::size_t t = 0; t + 1 < n; ++t) {
    for (Vertex i = 0; i < n; ++i) {
      const Vertex origin =
          static_cast<Vertex>((i + n - (t % n)) % n);
      out.add(t, message_of(origin), i, {static_cast<Vertex>((i + 1) % n)});
    }
  }
  return out.build();
}

Schedule radio_greedy_schedule(const graph::Graph& g,
                               const std::vector<Message>& initial) {
  const Vertex n = g.vertex_count();
  MG_EXPECTS(initial.empty() || initial.size() == n);
  ScheduleBuilder out;
  if (n < 2) return out.build();

  BitMatrix hold(n, n);
  std::vector<std::size_t> known(n, 1);
  for (Vertex v = 0; v < n; ++v) hold.set(v, initial.empty() ? v : initial[v]);

  struct Candidate {
    Vertex sender = 0;
    Message message = 0;
    std::size_t score = 0;  ///< neighbors currently lacking the message
  };
  std::vector<Candidate> candidates;
  std::vector<Message> next_m(n, 0);  // per-sender fair rotation pointer
  std::vector<std::uint64_t> useful(hold.row_words(), 0);
  // Closed-neighborhood occupancy for the 2-hop independence rule,
  // round-stamped so no per-round clear is needed.
  std::vector<std::size_t> occupied(n, SIZE_MAX);

  std::size_t complete = 0;
  for (Vertex v = 0; v < n; ++v) complete += known[v] == n ? 1u : 0u;

  for (std::size_t t = 0; complete < n; ++t) {
    candidates.clear();
    for (Vertex v = 0; v < n; ++v) {
      const auto hv = hold.row(v);
      bool any = false;
      std::fill(useful.begin(), useful.end(), 0);
      for (const Vertex r : g.neighbors(v)) {
        const auto hr = hold.row(r);
        for (std::size_t w = 0; w < useful.size(); ++w) {
          useful[w] |= hv[w] & ~hr[w];
          any = any || useful[w] != 0;
        }
      }
      if (!any) continue;
      // First useful message at or after the rotation pointer (wrapping),
      // so low-id messages do not starve the rest of the flood.
      Message chosen = static_cast<Message>(n);
      for (std::size_t step = 0; step < 2; ++step) {
        const Message lo = step == 0 ? next_m[v] : 0;
        const Message hi = step == 0 ? static_cast<Message>(n) : next_m[v];
        for (Message m = lo; m < hi; ++m) {
          if ((useful[m >> 6] >> (m & 63)) & 1) {
            chosen = m;
            break;
          }
        }
        if (chosen < n) break;
      }
      MG_ASSERT(chosen < n);
      std::size_t score = 0;
      for (const Vertex r : g.neighbors(v)) {
        score += hold.test(r, chosen) ? 0u : 1u;
      }
      candidates.push_back({v, chosen, score});
    }
    // A connected incomplete network always has a knowledge frontier.
    MG_ASSERT(!candidates.empty());
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.score > b.score;
                     });
    bool sent = false;
    for (const Candidate& c : candidates) {
      if (occupied[c.sender] == t) continue;
      bool clash = false;
      for (const Vertex r : g.neighbors(c.sender)) {
        if (occupied[r] == t) {
          clash = true;
          break;
        }
      }
      if (clash) continue;
      occupied[c.sender] = t;
      for (const Vertex r : g.neighbors(c.sender)) occupied[r] = t;
      const auto neighbors = g.neighbors(c.sender);
      out.add(t, c.message, c.sender, neighbors);
      next_m[c.sender] = static_cast<Message>((c.message + 1) % n);
      sent = true;
      // Deliveries land at t + 1; applying them before round t + 1's
      // candidate scan is exactly receive-before-send.
      for (const Vertex r : neighbors) {
        if (!hold.test(r, c.message)) {
          hold.set(r, c.message);
          if (++known[r] == n) ++complete;
        }
      }
    }
    MG_ASSERT(sent);  // the top candidate always fits an empty round
  }
  return out.build();
}

}  // namespace mg::model
