#include "gossip/optimal_search.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <tuple>

#include "support/contracts.h"

namespace mg::gossip {

namespace {

using graph::Vertex;
using model::Message;

class Searcher {
 public:
  Searcher(const graph::Graph& g, std::size_t max_time,
           const ExactSearchOptions& options)
      : g_(g),
        n_(g.vertex_count()),
        horizon_(max_time),
        options_(options),
        hold_(n_) {
    for (Vertex v = 0; v < n_; ++v) hold_[v] = std::uint64_t{1} << v;
    full_ = n_ == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n_) - 1;
  }

  ExactSearchResult run() {
    ExactSearchResult result;
    const bool found = search_round(0);
    result.nodes_explored = nodes_;
    if (found) {
      result.status = graph::SearchStatus::kFound;
      result.schedule = build_schedule();
    } else {
      result.status = nodes_ >= options_.node_budget
                          ? graph::SearchStatus::kBudget
                          : graph::SearchStatus::kExhausted;
    }
    return result;
  }

 private:
  struct Receive {
    Vertex receiver = 0;
    Vertex sender = 0;
    Message message = 0;
  };

  bool complete() const {
    for (Vertex v = 0; v < n_; ++v) {
      if (hold_[v] != full_) return false;
    }
    return true;
  }

  /// Per-round search context; each round owns its context so backtracking
  /// across round boundaries never clobbers a caller's state.
  struct RoundCtx {
    std::size_t t = 0;
    std::vector<Vertex> order;          // receivers, tightest-slack first
    std::vector<std::size_t> missing;   // per-vertex messages still needed
    std::vector<std::int64_t> sender_msg;  // per-sender chosen message
    std::vector<Receive> moves;
  };

  bool search_round(std::size_t t) {
    if (complete()) return true;
    if (t >= horizon_) return false;
    if (++nodes_ >= options_.node_budget) return false;

    RoundCtx ctx;
    ctx.t = t;
    const std::size_t remaining = horizon_ - t;  // receive slots left
    ctx.missing.resize(n_);
    for (Vertex v = 0; v < n_; ++v) {
      ctx.missing[v] = n_ - static_cast<std::size_t>(std::popcount(hold_[v]));
      if (ctx.missing[v] > remaining) return false;
    }
    ctx.order.resize(n_);
    std::iota(ctx.order.begin(), ctx.order.end(), Vertex{0});
    std::sort(ctx.order.begin(), ctx.order.end(), [&](Vertex a, Vertex b) {
      return ctx.missing[a] > ctx.missing[b];
    });
    ctx.sender_msg.assign(n_, kUnassigned);
    return assign_receiver(ctx, 0);
  }

  /// Assigns a receive (or a deliberate idle) to ctx.order[idx], recursing
  /// over the remaining receivers and then into the next round.
  bool assign_receiver(RoundCtx& ctx, std::size_t idx) {
    if (idx == n_) {
      // Round complete: apply arrivals (received at t+1, usable at t+1).
      for (const auto& mv : ctx.moves) {
        hold_[mv.receiver] |= std::uint64_t{1} << mv.message;
      }
      history_.push_back(ctx.moves);
      if (search_round(ctx.t + 1)) return true;
      history_.pop_back();
      for (const auto& mv : ctx.moves) {
        // Roll back: the bits were new by the WLOG-new-delivery pruning.
        hold_[mv.receiver] &= ~(std::uint64_t{1} << mv.message);
      }
      return false;
    }
    if (nodes_ >= options_.node_budget) return false;

    const Vertex v = ctx.order[idx];
    const std::size_t slack = horizon_ - ctx.t - ctx.missing[v];

    // Try every useful incoming (sender, message).
    for (Vertex u : g_.neighbors(v)) {
      if (ctx.sender_msg[u] != kUnassigned) {
        if (options_.telephone) continue;
        // Multicast: u may add v as another receiver of the same message.
        const auto m = static_cast<Message>(ctx.sender_msg[u]);
        if (hold_[v] & (std::uint64_t{1} << m)) continue;
        ctx.moves.push_back({v, u, m});
        if (assign_receiver(ctx, idx + 1)) return true;
        ctx.moves.pop_back();
        if (nodes_ >= options_.node_budget) return false;
        continue;
      }
      std::uint64_t candidates = hold_[u] & ~hold_[v];
      while (candidates != 0) {
        const auto m = static_cast<Message>(std::countr_zero(candidates));
        candidates &= candidates - 1;
        ctx.sender_msg[u] = m;
        ctx.moves.push_back({v, u, m});
        if (assign_receiver(ctx, idx + 1)) return true;
        ctx.moves.pop_back();
        ctx.sender_msg[u] = kUnassigned;
        if (nodes_ >= options_.node_budget) return false;
      }
    }

    // Idle is allowed only when v still has spare receive slots.
    if (slack >= 1) {
      return assign_receiver(ctx, idx + 1);
    }
    return false;
  }

  model::Schedule build_schedule() const {
    model::ScheduleBuilder schedule;
    for (std::size_t t = 0; t < history_.size(); ++t) {
      // Group the round's receives by sender into multicasts.
      std::vector<Receive> moves = history_[t];
      std::sort(moves.begin(), moves.end(),
                [](const Receive& a, const Receive& b) {
                  return std::tie(a.sender, a.receiver) <
                         std::tie(b.sender, b.receiver);
                });
      for (std::size_t idx = 0; idx < moves.size();) {
        std::vector<Vertex> receivers;
        const Vertex sender = moves[idx].sender;
        const Message message = moves[idx].message;
        while (idx < moves.size() && moves[idx].sender == sender) {
          MG_ASSERT(moves[idx].message == message);
          receivers.push_back(moves[idx].receiver);
          ++idx;
        }
        schedule.add(t, message, sender, receivers);
      }
    }
    return schedule.build();
  }

  static constexpr std::int64_t kUnassigned = -1;

  const graph::Graph& g_;
  Vertex n_;
  std::size_t horizon_;
  ExactSearchOptions options_;
  std::uint64_t full_ = 0;
  std::uint64_t nodes_ = 0;
  std::vector<std::uint64_t> hold_;
  std::vector<std::vector<Receive>> history_;
};

}  // namespace

ExactSearchResult exact_gossip_search(const graph::Graph& g,
                                      std::size_t max_time,
                                      const ExactSearchOptions& options) {
  MG_EXPECTS(g.vertex_count() >= 2 && g.vertex_count() <= 64);
  return Searcher(g, max_time, options).run();
}

}  // namespace mg::gossip
