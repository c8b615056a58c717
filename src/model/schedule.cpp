#include "model/schedule.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "support/contracts.h"

namespace mg::model {

namespace {

constexpr std::uint64_t kMaxOffset = std::numeric_limits<std::uint32_t>::max();

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

void Schedule::trim() {
  while (round_count() > 0 &&
         offsets_[offsets_.size() - 2] == offsets_.back()) {
    offsets_.pop_back();
  }
  if (offsets_.size() == 1) offsets_.clear();
}

void Schedule::append(const Schedule& tail, std::size_t offset) {
  const std::size_t own = round_count();
  const std::size_t rounds = std::max(own, offset + tail.round_count());
  if (rounds == 0) return;
  MG_EXPECTS_MSG(&tail != this, "a schedule cannot be appended to itself");
  MG_EXPECTS_MSG(tx_.size() + tail.tx_.size() <= kMaxOffset &&
                     receivers_.size() + tail.receivers_.size() <= kMaxOffset,
                 "schedule exceeds 32-bit offsets");
  // Round t is this schedule's tuples, then the tail's.  Receiver runs keep
  // their positions, the tail's moved past this schedule's.
  const auto receiver_base = static_cast<std::uint32_t>(receivers_.size());
  std::vector<std::uint32_t> offsets(rounds + 1, 0);
  std::vector<Tx> txs;
  txs.reserve(tx_.size() + tail.tx_.size());
  for (std::size_t t = 0; t < rounds; ++t) {
    if (t < own) {
      for (const Tx& tx : round(t)) txs.push_back(tx);
    }
    if (t >= offset && t - offset < tail.round_count()) {
      for (Tx tx : tail.round(t - offset)) {
        tx.first += receiver_base;
        txs.push_back(tx);
      }
    }
    offsets[t + 1] = static_cast<std::uint32_t>(txs.size());
  }
  offsets_ = std::move(offsets);
  tx_ = std::move(txs);
  receivers_.insert(receivers_.end(), tail.receivers_.begin(),
                    tail.receivers_.end());
}

std::size_t Schedule::total_time() const {
  for (std::size_t t = round_count(); t > 0; --t) {
    if (offsets_[t - 1] != offsets_[t]) return t;
  }
  return 0;
}

std::size_t Schedule::max_fanout() const {
  std::size_t fanout = 0;
  for (const Tx& tx : tx_) fanout = std::max<std::size_t>(fanout, tx.count);
  return fanout;
}

bool Schedule::is_telephone() const {
  return std::all_of(tx_.begin(), tx_.end(),
                     [](const Tx& tx) { return tx.count == 1; });
}

std::string Schedule::to_string() const {
  std::ostringstream out;
  for (std::size_t t = 0; t < round_count(); ++t) {
    if (round(t).empty()) continue;
    out << "t=" << t << ":";
    for (const Tx& tx : round(t)) {
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

void ScheduleBuilder::stage(std::size_t t, Message message, Vertex sender,
                            std::span<const Vertex> receivers) {
  MG_EXPECTS_MSG(mode_ == Mode::kStaging, "add() while counting");
  MG_EXPECTS_MSG(t < kMaxIndex, "round index exceeds 32 bits");
  MG_EXPECTS_MSG(staged_tx_.size() < kMaxIndex &&
                     staged_receivers_.size() + receivers.size() <= kMaxIndex,
                 "schedule exceeds 32-bit offsets");
  staged_round_.push_back(static_cast<std::uint32_t>(t));
  staged_tx_.push_back({message, sender,
                        static_cast<std::uint32_t>(staged_receivers_.size()),
                        static_cast<std::uint32_t>(receivers.size())});
  staged_receivers_.insert(staged_receivers_.end(), receivers.begin(),
                           receivers.end());
}

void ScheduleBuilder::grow(std::size_t t) {
  MG_EXPECTS_MSG(mode_ != Mode::kFilling && staged_tx_.empty(),
                 "count() after add() or allocate()");
  MG_EXPECTS_MSG(t < kMaxIndex, "round index exceeds 32 bits");
  mode_ = Mode::kCounting;
  if (t >= slots_.size()) slots_.resize(t + 1);
}

void ScheduleBuilder::allocate() {
  MG_EXPECTS_MSG(mode_ != Mode::kFilling && staged_tx_.empty(),
                 "allocate() twice or after add()");
  mode_ = Mode::kFilling;
  out_ = Schedule{};
  if (slots_.empty()) return;
  // Prefix sums turn each round's counts into its slot ranges.
  out_.offsets_.resize(slots_.size() + 1);
  std::uint64_t txs = 0;
  std::uint64_t deliveries = 0;
  for (std::size_t t = 0; t < slots_.size(); ++t) {
    Slots& s = slots_[t];
    out_.offsets_[t] = static_cast<std::uint32_t>(txs);
    const std::uint64_t round_txs = s.end_tx;
    const std::uint64_t round_deliveries = s.end_rx;
    MG_EXPECTS_MSG(txs + round_txs <= kMaxIndex &&
                       deliveries + round_deliveries <= kMaxIndex,
                   "schedule exceeds 32-bit offsets");
    s = {static_cast<std::uint32_t>(txs),
         static_cast<std::uint32_t>(txs + round_txs),
         static_cast<std::uint32_t>(deliveries),
         static_cast<std::uint32_t>(deliveries + round_deliveries)};
    txs += round_txs;
    deliveries += round_deliveries;
  }
  out_.offsets_.back() = static_cast<std::uint32_t>(txs);
  out_.tx_.resize(txs);
  out_.receivers_.resize(deliveries);
}

Schedule ScheduleBuilder::build() {
  if (mode_ == Mode::kStaging) {
    // The counting pass over the staged tuples, then the placing pass.
    const std::vector<std::uint32_t> rounds = std::exchange(staged_round_, {});
    const std::vector<Tx> txs = std::exchange(staged_tx_, {});
    const std::vector<Vertex> receivers = std::exchange(staged_receivers_, {});
    for (std::size_t i = 0; i < txs.size(); ++i) {
      count(rounds[i], txs[i].count);
    }
    allocate();
    for (std::size_t i = 0; i < txs.size(); ++i) {
      const Tx& tx = txs[i];
      place(rounds[i], tx.message, tx.sender,
            std::span<const Vertex>(receivers).subspan(tx.first, tx.count));
    }
  } else if (mode_ == Mode::kCounting) {
    allocate();
  }
  for (const Slots& s : slots_) {
    MG_ENSURES(s.next_tx == s.end_tx && s.next_rx == s.end_rx);
  }
  Schedule out = std::move(out_);
  *this = ScheduleBuilder{};
  return out;
}

std::vector<Tx> canonical_round(const Schedule& schedule, std::size_t t) {
  if (t >= schedule.round_count()) return {};
  const auto round = schedule.round(t);
  std::vector<Tx> txs(round.begin(), round.end());
  std::sort(txs.begin(), txs.end(), [&](const Tx& a, const Tx& b) {
    return canonical_less(schedule, a, b);
  });
  return txs;
}

bool equivalent(const Schedule& a, const Schedule& b) {
  const std::size_t rounds = std::max(a.round_count(), b.round_count());
  for (std::size_t t = 0; t < rounds; ++t) {
    const std::vector<Tx> ra = canonical_round(a, t);
    const std::vector<Tx> rb = canonical_round(b, t);
    if (ra.size() != rb.size()) return false;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      const auto da = a.receivers(ra[i]);
      const auto db = b.receivers(rb[i]);
      if (ra[i].sender != rb[i].sender || ra[i].message != rb[i].message ||
          !std::equal(da.begin(), da.end(), db.begin(), db.end())) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace mg::model
