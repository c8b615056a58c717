#include "dist/actor.h"

#include <algorithm>
#include <bit>

#include "support/contracts.h"

namespace mg::dist {

using graph::Vertex;
using model::Message;

namespace {

/// Whether the hold row `words` holds message m.
bool holds_message(std::span<const std::uint64_t> words, Message m) {
  return (words[m / 64] >> (m % 64) & 1) != 0;
}

}  // namespace

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
      first_trace_(n, ~std::uint64_t{0}),
      lacks_(holds_.row_words(), neighbors_.size()),
      serve_counts_(holds_.row_words(), neighbors_.size()) {
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
  digest.message = offer_;
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

  // One pass over the live neighbors' digests (a neighbor whose digest is
  // absent is presumed crashed), word by word: what a digest offers that
  // this actor lacks decides the grant, and what this actor holds that the
  // digest lacks is counted toward the next offer.  Bits past message
  // n_ - 1 never count.
  const auto mine = holds_.row(0);
  const std::size_t words = mine.size();
  const std::uint64_t past_last =
      n_ % 64 == 0 ? 0 : ~std::uint64_t{0} << (n_ % 64);
  struct Choice {
    Vertex sender = graph::kNoVertex;
    std::size_t offered = 0;
    Message request = kNoOffer;  ///< kNoOffer: the lowest message offered
    std::span<const std::uint64_t> digest;
    std::uint64_t trace = 0;
  };
  // The largest offer, then the lowest sender.
  const auto consider = [](Choice& best, const Choice& c) {
    if (c.offered > best.offered ||
        (c.offered == best.offered && c.sender < best.sender)) {
      best = c;
    }
  };
  Choice announced;  // among digests announcing an offer this actor lacks
  Choice any;        // among all digests
  lacks_.clear();
  digests_.clear();
  for (const Envelope& e : inbox) {
    if (e.kind != Envelope::Kind::kDigest) continue;
    MG_EXPECTS(e.digest.size() == words);
    digests_.emplace_back(e.sender, e.digest);
    std::size_t offered = 0;
    for (std::size_t w = 0; w < words; ++w) {
      lacks_.add(w, mine[w] & ~e.digest[w]);
      std::uint64_t offer = e.digest[w] & ~mine[w];
      if (w + 1 == words) offer &= ~past_last;
      if (offer != 0) offered += static_cast<std::size_t>(std::popcount(offer));
    }
    if (offered == 0) continue;
    Choice c{e.sender, offered, kNoOffer, e.digest, e.trace};
    consider(any, c);
    if (e.message < n_ && holds_message(e.digest, e.message) &&
        !holds_.test(0, e.message)) {
      c.request = e.message;
      consider(announced, c);
    }
  }
  Choice& best = announced.offered > 0 ? announced : any;
  if (best.offered == 0) return out;  // nothing wanted is on offer: quiesce
  // The lowest message offered: `offered` counted only messages below n_,
  // and any of them sits below the padding bits of its word.
  for (std::size_t w = 0; best.request == kNoOffer; ++w) {
    const std::uint64_t offer = best.digest[w] & ~mine[w];
    if (offer != 0) {
      best.request = static_cast<Message>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(offer)));
    }
  }

  quiescent_ = false;
  out.control_cause = best.trace;  // the digest that won the reservation
  Envelope& grant = out.control.emplace();
  grant.kind = Envelope::Kind::kGrant;
  grant.sender = self_;
  grant.message = best.request;
  granted_ = best.sender;
  out.control_to = std::span(&granted_, 1);
  return out;
}

Outbox ProcessorActor::step_data(const std::vector<Envelope>& inbox) {
  Outbox out;
  learn(inbox);
  // Count, per held message, the granters whose digests of this cycle
  // lack it.  A granter's digest lacks its requested message (the grant is
  // newer than the digest), so some count is non-zero.  Sums do not depend
  // on the inbox's shuffled order.
  const auto mine = holds_.row(0);
  granters_.clear();
  for (const Envelope& e : inbox) {
    if (e.kind != Envelope::Kind::kGrant) continue;
    if (granters_.empty()) serve_counts_.clear();
    MG_ASSERT_MSG(holds_.test(0, e.message),
                  "grant requested a message the digest never offered");
    const auto digest =
        std::find_if(digests_.begin(), digests_.end(),
                     [&](const auto& d) { return d.first == e.sender; });
    MG_ASSERT_MSG(digest != digests_.end(),
                  "grant from a neighbor whose digest was never read");
    MG_ASSERT_MSG(!holds_message(digest->second, e.message),
                  "grant requested a message its granter's digest holds");
    serve_counts_.add_missing(mine, digest->second);
    granters_.push_back(*digest);
  }
  if (!granters_.empty()) {
    // The message the most granters lack (ties: the lowest id), to exactly
    // the granters that lack it, in ascending order.
    model::Transmission tx;
    tx.message = serve_counts_.argmax();
    tx.sender = self_;
    std::sort(granters_.begin(), granters_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [granter, digest] : granters_) {
      if (!holds_message(digest, tx.message)) tx.receivers.push_back(granter);
    }
    lacks_.remove(tx.message, tx.receivers.size());
    out.data_cause = first_trace_[tx.message];
    out.data = std::move(tx);
  }
  // Next cycle's offer: the message the most neighbors lacked, less the
  // pairs just served.
  offer_ = lacks_.any() ? lacks_.argmax() : kNoOffer;
  return out;
}

}  // namespace mg::dist
