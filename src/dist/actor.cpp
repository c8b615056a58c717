#include "dist/actor.h"

#include <algorithm>
#include <bit>

#include "support/contracts.h"

namespace mg::dist {

using graph::Vertex;
using model::Message;

std::vector<std::unique_ptr<TimetableRule>> TimetableRule::for_all(
    const model::Schedule& schedule, graph::Vertex n) {
  std::vector<std::unique_ptr<TimetableRule>> rules;
  rules.reserve(n);
  for (Vertex v = 0; v < n; ++v) {
    rules.push_back(std::make_unique<TimetableRule>(v));
  }
  for (model::RoundCursor round(schedule); round.next();) {
    for (const model::Tx& tx : round.txs()) {
      if (tx.sender >= n) continue;
      TimetableRule& rule = *rules[tx.sender];
      const auto receivers = schedule.receivers(tx);
      rule.rows_.push_back(
          {round.index(), tx.message, rule.receivers_.size(), receivers.size()});
      rule.receivers_.insert(rule.receivers_.end(), receivers.begin(),
                             receivers.end());
    }
  }
  return rules;
}

std::optional<model::Transmission> TimetableRule::decide(std::size_t t) {
  if (next_ >= rows_.size() || rows_[next_].time != t) return std::nullopt;
  const Row& row = rows_[next_++];
  const auto first =
      receivers_.begin() + static_cast<std::ptrdiff_t>(row.first);
  return model::Transmission{
      row.message, self_,
      {first, first + static_cast<std::ptrdiff_t>(row.count)}};
}

ProcessorActor::ProcessorActor(Vertex self, Vertex n, Message initial,
                               std::vector<Vertex> neighbors,
                               std::unique_ptr<LocalRule> rule)
    : self_(self),
      n_(n),
      neighbors_(std::move(neighbors)),
      rule_(std::move(rule)),
      holds_(1, n),
      first_trace_(n, ~std::uint64_t{0}) {
  holds_.set(0, initial);
  first_trace_[initial] = 0;
}

void ProcessorActor::absorb(std::size_t t,
                            const std::vector<Envelope>& inbox) {
  learn(inbox);
  for (const Envelope& e : inbox) {
    if (e.kind == Envelope::Kind::kData) {
      rule_->observe(t, e.message, e.from_parent);
    }
  }
}

Outbox ProcessorActor::step_main(std::size_t t,
                                 const std::vector<Envelope>& inbox) {
  absorb(t, inbox);
  Outbox out;
  if (auto tx = rule_->decide(t)) {
    if (holds_.test(0, tx->message)) {
      out.data_cause = first_trace_[tx->message];
      out.data = std::move(tx);
    } else {
      // Physical constraint: the rule scheduled a relay of a message this
      // actor never received (a fault's downstream cascade).
      out.skipped = true;
      out.data = std::move(tx);
    }
  }
  return out;
}

void ProcessorActor::learn(const std::vector<Envelope>& inbox) {
  // Copies in one inbox arrived together, so nothing here depends on the
  // order the bus shuffled them into: a new message's first arrival is its
  // lowest trace id in this inbox, and the digest's parent becomes the
  // highest of those first arrivals.
  for (const Envelope& e : inbox) {
    if (e.kind == Envelope::Kind::kData && !holds_.test(0, e.message)) {
      first_trace_[e.message] = std::min(first_trace_[e.message], e.trace);
    }
  }
  bool changed = false;
  for (const Envelope& e : inbox) {
    if (e.kind != Envelope::Kind::kData || holds_.test(0, e.message)) continue;
    holds_.set(0, e.message);
    const std::uint64_t first = first_trace_[e.message];
    last_trace_ = changed ? std::max(last_trace_, first) : first;
    changed = true;
  }
}

Outbox ProcessorActor::step_digest(std::span<std::uint64_t> snapshot) {
  const auto words = holds_.row(0);
  MG_EXPECTS(snapshot.size() == words.size());
  std::copy(words.begin(), words.end(), snapshot.begin());
  Outbox out;
  out.control_cause = last_trace_;
  Envelope& digest = out.control.emplace();
  digest.kind = Envelope::Kind::kDigest;
  digest.sender = self_;
  digest.digest = snapshot;
  out.control_to = neighbors_;
  return out;
}

Outbox ProcessorActor::step_grant(const std::vector<Envelope>& inbox) {
  Outbox out;
  quiescent_ = true;
  // Delayed data envelopes (per-edge fault delays) can land on any flip of
  // the recovery cycle; fold them in before deciding what is still wanted.
  learn(inbox);
  if (complete()) return out;

  // Which live neighbor offers the most messages I lack?  (A neighbor
  // whose digest is absent is presumed crashed.)
  // Offers count word by word; a digest shorter than the hold set offers
  // nothing past its end, and bits past message n_ - 1 never count.
  const auto mine = holds_.row(0);
  const std::uint64_t last_word_mask =
      n_ % 64 == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << (n_ % 64)) - 1;
  Vertex best = graph::kNoVertex;
  std::size_t best_offered = 0;
  Message best_request = 0;
  std::uint64_t best_trace = 0;
  for (const Envelope& e : inbox) {
    if (e.kind != Envelope::Kind::kDigest) continue;
    std::size_t offered = 0;
    Message lowest = 0;
    const std::size_t words = std::min(e.digest.size(), mine.size());
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t offer = e.digest[w] & ~mine[w];
      if (w + 1 == mine.size()) offer &= last_word_mask;
      if (offer == 0) continue;
      if (offered == 0) {
        lowest = static_cast<Message>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(offer)));
      }
      offered += static_cast<std::size_t>(std::popcount(offer));
    }
    if (offered > best_offered ||
        (offered == best_offered && offered > 0 && e.sender < best)) {
      best = e.sender;
      best_offered = offered;
      best_request = lowest;
      best_trace = e.trace;
    }
  }
  if (best_offered == 0) return out;  // nothing wanted is on offer: quiesce

  quiescent_ = false;
  out.control_cause = best_trace;  // the digest that won the reservation
  Envelope& grant = out.control.emplace();
  grant.kind = Envelope::Kind::kGrant;
  grant.sender = self_;
  grant.message = best_request;
  granted_ = best;
  out.control_to = std::span(&granted_, 1);
  return out;
}

Outbox ProcessorActor::step_data(const std::vector<Envelope>& inbox) {
  Outbox out;
  learn(inbox);
  // Votes as (requested message, granter) pairs, sorted so the tally does
  // not depend on the inbox's shuffled order.  The longest run of one
  // message wins (ties: the lowest message); its granters, already
  // ascending, are the receivers.
  votes_.clear();
  for (const Envelope& e : inbox) {
    if (e.kind != Envelope::Kind::kGrant) continue;
    MG_ASSERT_MSG(holds_.test(0, e.message),
                  "grant requested a message the digest never offered");
    votes_.emplace_back(e.message, e.sender);
  }
  if (votes_.empty()) return out;
  std::sort(votes_.begin(), votes_.end());
  std::size_t first = 0;
  std::size_t count = 0;
  for (std::size_t i = 0, j = 0; i < votes_.size(); i = j) {
    while (j < votes_.size() && votes_[j].first == votes_[i].first) ++j;
    if (j - i > count) {
      first = i;
      count = j - i;
    }
  }
  model::Transmission tx;
  tx.message = votes_[first].first;
  tx.sender = self_;
  for (std::size_t k = first; k < first + count; ++k) {
    tx.receivers.push_back(votes_[k].second);
  }
  out.data_cause = first_trace_[tx.message];
  out.data = std::move(tx);
  return out;
}

}  // namespace mg::dist
