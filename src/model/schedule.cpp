#include "model/schedule.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>
#include <utility>

#include "support/contracts.h"

namespace mg::model {

namespace {

constexpr std::uint64_t kMaxIndex = std::numeric_limits<std::uint32_t>::max();

/// Lexicographic (sender, message, receivers) order over one schedule.
bool canonical_less(const Schedule& s, const Tx& a, const Tx& b) {
  if (a.sender != b.sender) return a.sender < b.sender;
  if (a.message != b.message) return a.message < b.message;
  const auto ra = s.receivers(a);
  const auto rb = s.receivers(b);
  return std::lexicographical_compare(ra.begin(), ra.end(), rb.begin(),
                                      rb.end());
}

}  // namespace

std::size_t Schedule::stored_bytes() const {
  return starts_.size() * sizeof(Start) + runs_.size() * sizeof(Run) +
         receivers_.size() * sizeof(Vertex);
}

std::size_t Schedule::max_fanout() const {
  std::size_t fanout = 0;
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    fanout = std::max<std::size_t>(fanout, run_end(i) - runs_[i].first);
  }
  return fanout;
}

bool Schedule::is_telephone() const {
  // Every run has a receiver, so one entry per run means singletons only.
  return receivers_.size() == runs_.size();
}

std::string Schedule::to_string() const {
  std::ostringstream out;
  for (RoundCursor round(*this); round.next();) {
    if (round.txs().empty()) continue;
    out << "t=" << round.index() << ":";
    for (const Tx& tx : round.txs()) {
      out << "  msg " << tx.message << ": " << tx.sender << " -> {";
      const auto d = receivers(tx);
      for (std::size_t r = 0; r < d.size(); ++r) {
        out << (r ? ", " : "") << d[r];
      }
      out << "}";
    }
    out << '\n';
  }
  return out.str();
}

bool RoundCursor::next() {
  const Schedule& s = *schedule_;
  if (round_ + 1 >= s.rounds_) return false;
  const auto t = static_cast<std::uint32_t>(++round_);
  if (reach_ <= t) count_ = 0;  // every run ended
  std::size_t first = 0;
  std::size_t last = 0;
  if (start_ < s.starts_.size() && s.starts_[start_].round == t) {
    first = s.starts_[start_].first;
    last = ++start_ < s.starts_.size() ? s.starts_[start_].first
                                       : s.runs_.size();
  }
  const std::size_t fresh = last - first;
  // With no run going on, the runs starting in round t are the round,
  // verbatim (whether or not it ascends); else the runs going on send their
  // next message, the rest ended, and the new runs, which then ascend, merge
  // in by sender: in place without new runs, into the other buffer with.
  const bool merge = count_ > 0 && fresh > 0;
  if (live_.size() < count_ + fresh) {
    live_.resize(count_ + fresh);
    end_.resize(live_.size());
  }
  if (merge && merged_.size() < live_.size()) {
    merged_.resize(live_.size());
    merged_end_.resize(live_.size());
  }
  const Tx* const live = live_.data();
  const std::uint32_t* const end = end_.data();
  Tx* const out = merge ? merged_.data() : live_.data();
  std::uint32_t* const out_end = merge ? merged_end_.data() : end_.data();
  std::size_t kept = 0;
  std::size_t i = 0;
  for (std::size_t r = first; r < last; ++r) {
    const Schedule::Run& run = s.runs_[r];
    for (; i < count_ && live[i].sender < run.sender; ++i) {
      if (end[i] == t) continue;
      out[kept] = live[i];
      ++out[kept].message;
      out_end[kept++] = end[i];
    }
    out[kept] = {run.m0, run.sender, run.first, s.run_end(r) - run.first};
    out_end[kept++] = t + run.len;
    reach_ = std::max(reach_, t + run.len);
  }
  for (; i < count_; ++i) {
    if (end[i] == t) continue;
    out[kept] = live[i];
    ++out[kept].message;
    out_end[kept++] = end[i];
  }
  if (merge) {
    live_.swap(merged_);
    end_.swap(merged_end_);
  }
  count_ = kept;
  return true;
}

void ScheduleBuilder::add_run(std::size_t t0, std::size_t len, Message m0,
                              Vertex sender,
                              std::span<const Vertex> receivers) {
  MG_EXPECTS_MSG(!receivers.empty(), "transmission must have receivers");
  for (std::size_t i = 1; i < receivers.size(); ++i) {
    MG_EXPECTS_MSG(receivers[i - 1] < receivers[i],
                   "receiver set must be sorted and duplicate-free");
  }
  MG_EXPECTS_MSG(len > 0, "a run has at least one round");
  // The last round, t0 + len - 1, stays below 2^32 - 1.
  MG_EXPECTS_MSG(t0 < kMaxIndex && len <= kMaxIndex - t0,
                 "round index exceeds 32 bits");
  MG_EXPECTS_MSG(len - 1 <= kMaxIndex - m0, "message id exceeds 32 bits");
  MG_EXPECTS_MSG(items_.size() < kMaxIndex &&
                     receivers.size() <= kMaxIndex - receivers_.size(),
                 "schedule exceeds 32-bit offsets");
  by_sender_ = by_sender_ &&
               (items_.empty() || items_.back().sender < sender ||
                (items_.back().sender == sender &&
                 std::uint64_t{items_.back().t0} + items_.back().len <= t0));
  items_.push_back({static_cast<std::uint32_t>(t0),
                    static_cast<std::uint32_t>(len), m0, sender,
                    static_cast<std::uint32_t>(receivers_.size()),
                    static_cast<std::uint32_t>(receivers.size())});
  receivers_.insert(receivers_.end(), receivers.begin(), receivers.end());
}

void ScheduleBuilder::reserve(std::size_t runs, std::size_t receivers) {
  MG_EXPECTS_MSG(runs <= kMaxIndex && receivers <= kMaxIndex,
                 "schedule exceeds 32-bit offsets");
  items_.reserve(runs);
  receivers_.reserve(receivers);
}

bool ScheduleBuilder::continues(const Item& run, const Item& next) const {
  return next.sender == run.sender &&
         std::uint64_t{run.t0} + run.len == next.t0 &&
         std::uint64_t{run.m0} + run.len == next.m0 &&
         std::equal(receivers_.begin() + run.first,
                    receivers_.begin() + run.first + run.count,
                    receivers_.begin() + next.first,
                    receivers_.begin() + next.first + next.count);
}

std::vector<std::uint32_t> ScheduleBuilder::by_start(
    const std::vector<Item>& items) {
  std::uint32_t last = 0;
  bool sorted = true;
  for (std::size_t i = 0; i < items.size(); ++i) {
    sorted = sorted && (i == 0 || items[i - 1].t0 <= items[i].t0);
    last = std::max(last, items[i].t0);
  }
  if (sorted) return {};
  // Counting sort: per-round counts, their prefix sums, then every item into
  // its round's next slot.
  std::vector<std::uint32_t> order(items.size());
  std::vector<std::uint32_t> next(std::size_t{last} + 2, 0);
  for (const Item& item : items) ++next[item.t0 + 1];
  std::partial_sum(next.begin(), next.end(), next.begin());
  for (std::size_t i = 0; i < items.size(); ++i) {
    order[next[items[i].t0]++] = static_cast<std::uint32_t>(i);
  }
  return order;
}

void ScheduleBuilder::push_run(Schedule& out, const Item& run) const {
  if (out.starts_.empty() || out.starts_.back().round != run.t0) {
    out.starts_.push_back(
        {run.t0, static_cast<std::uint32_t>(out.runs_.size())});
  }
  out.runs_.push_back({run.m0, run.sender, run.len,
                       static_cast<std::uint32_t>(out.receivers_.size())});
  out.receivers_.insert(out.receivers_.end(), receivers_.begin() + run.first,
                        receivers_.begin() + run.first + run.count);
}

void ScheduleBuilder::store_by_sender(Schedule& out) {
  // At most one run per sender in any round, senders rising in insertion
  // order: every round ascends, so a run only merges with the one before.
  std::size_t kept = 0;
  std::size_t entries = 0;
  for (const Item& item : items_) {
    if (kept > 0 && continues(items_[kept - 1], item)) {
      items_[kept - 1].len += item.len;
    } else {
      items_[kept++] = item;
      entries += item.count;
    }
  }
  items_.resize(kept);
  // By start round, senders ascending inside each.
  const std::vector<std::uint32_t> order = by_start(items_);
  out.runs_.reserve(kept);
  out.receivers_.reserve(entries);
  for (std::size_t i = 0; i < kept; ++i) {
    push_run(out, items_[order.empty() ? i : order[i]]);
  }
}

void ScheduleBuilder::store_by_round(Schedule& out) const {
  // Every tuple on its own, by round, keeping insertion order inside a
  // round: each round's tuples in stored order.  (Only `add_run` calls that
  // did not come sender by sender leave a run to expand.)  At worst every
  // tuple is stored as a run with its own receivers, and that must fit the
  // 32-bit indices before anything is allocated.
  std::uint64_t tuples = 0;
  std::uint64_t entries = 0;
  for (const Item& item : items_) {
    tuples += item.len;
    entries += std::uint64_t{item.len} * item.count;
  }
  MG_EXPECTS_MSG(tuples <= kMaxIndex && entries <= kMaxIndex,
                 "schedule exceeds 32-bit offsets");
  std::vector<Item> expanded;
  if (tuples > items_.size()) {
    expanded.reserve(tuples);
    for (const Item& item : items_) {
      for (std::uint32_t k = 0; k < item.len; ++k) {
        expanded.push_back({item.t0 + k, 1, item.m0 + k, item.sender,
                            item.first, item.count});
      }
    }
  }
  const std::vector<Item>& added = expanded.empty() ? items_ : expanded;
  const std::vector<std::uint32_t> order = by_start(added);
  const auto tuple = [&](std::size_t i) -> const Item& {
    return added[order.empty() ? i : order[i]];
  };
  // Room for a run per tuple, given back below if most of it stayed unused.
  out.runs_.reserve(added.size());
  out.receivers_.reserve(entries);
  // A tuple continues the run of the previous round's tuple from the same
  // sender when both rounds ascend; both rounds are then sender-sorted, so
  // one forward scan of the previous round finds it.
  std::vector<std::uint32_t> prev;  // per tuple of the previous round: its run
  std::vector<std::uint32_t> cur;
  std::size_t prev_begin = 0;
  std::size_t prev_end = 0;
  bool prev_ascends = false;
  for (std::size_t b = 0; b < added.size();) {
    const std::uint32_t t = tuple(b).t0;
    std::size_t e = b + 1;
    bool ascends = true;
    for (; e < added.size() && tuple(e).t0 == t; ++e) {
      ascends = ascends && tuple(e - 1).sender < tuple(e).sender;
    }
    const bool after =
        ascends && prev_ascends && tuple(prev_begin).t0 + 1 == t;
    cur.clear();
    std::size_t p = prev_begin;
    for (std::size_t i = b; i < e; ++i) {
      if (after) {
        while (p < prev_end && tuple(p).sender < tuple(i).sender) ++p;
        if (p < prev_end && continues(tuple(p), tuple(i))) {
          cur.push_back(prev[p - prev_begin]);
          ++out.runs_[cur.back()].len;
          continue;
        }
      }
      cur.push_back(static_cast<std::uint32_t>(out.runs_.size()));
      push_run(out, tuple(i));
    }
    prev.swap(cur);
    prev_begin = b;
    prev_end = e;
    prev_ascends = ascends;
    b = e;
  }
  if (2 * out.runs_.size() < out.runs_.capacity()) {
    out.runs_.shrink_to_fit();
    out.receivers_.shrink_to_fit();
  }
}

Schedule ScheduleBuilder::build() {
  ScheduleBuilder in = std::exchange(*this, ScheduleBuilder{});
  Schedule out;
  if (in.items_.empty()) return out;
  if (in.by_sender_) {
    in.store_by_sender(out);
  } else {
    in.store_by_round(out);
  }
  for (std::size_t k = 0; k < out.starts_.size(); ++k) {
    const std::size_t last = k + 1 < out.starts_.size()
                                 ? out.starts_[k + 1].first
                                 : out.runs_.size();
    for (std::size_t i = out.starts_[k].first; i < last; ++i) {
      const Schedule::Run& run = out.runs_[i];
      out.rounds_ = std::max(out.rounds_, out.starts_[k].round + run.len);
      out.transmissions_ += run.len;
      out.deliveries_ += std::uint64_t{run.len} * (out.run_end(i) - run.first);
    }
  }
  return out;
}

std::vector<Tx> canonical_round(const Schedule& schedule,
                                std::span<const Tx> round) {
  std::vector<Tx> txs(round.begin(), round.end());
  std::sort(txs.begin(), txs.end(), [&](const Tx& a, const Tx& b) {
    return canonical_less(schedule, a, b);
  });
  return txs;
}

bool equivalent(const Schedule& a, const Schedule& b) {
  // The last round is never empty, so equal schedules have equal lengths.
  if (a.round_count() != b.round_count()) return false;
  RoundCursor ra(a);
  RoundCursor rb(b);
  while (ra.next() && rb.next()) {
    if (ra.txs().size() != rb.txs().size()) return false;
    const std::vector<Tx> ca = canonical_round(a, ra.txs());
    const std::vector<Tx> cb = canonical_round(b, rb.txs());
    for (std::size_t i = 0; i < ca.size(); ++i) {
      const auto da = a.receivers(ca[i]);
      const auto db = b.receivers(cb[i]);
      if (ca[i].sender != cb[i].sender || ca[i].message != cb[i].message ||
          !std::equal(da.begin(), da.end(), db.begin(), db.end())) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace mg::model
