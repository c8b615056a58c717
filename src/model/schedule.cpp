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
  // The last round index must stay below 2^32 - 1, as in
  // `ScheduleBuilder::add`; tested without forming a sum that could wrap,
  // before anything is allocated.
  MG_EXPECTS_MSG(offset <= kMaxOffset - tail.round_count(),
                 "round index exceeds 32 bits");
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

void ScheduleBuilder::reserve(std::size_t rounds, std::size_t transmissions,
                              std::size_t deliveries) {
  MG_EXPECTS_MSG(rounds <= kMaxIndex && transmissions <= kMaxIndex &&
                     deliveries <= kMaxIndex,
                 "schedule exceeds 32-bit offsets");
  out_.offsets_.reserve(rounds + 1);
  out_.tx_.reserve(transmissions);
  out_.receivers_.reserve(deliveries);
}

void ScheduleBuilder::stage(std::size_t t) {
  if (staged_round_.empty()) {
    const std::vector<std::uint32_t> offsets = std::exchange(out_.offsets_, {});
    for (std::size_t r = 0; r + 1 < offsets.size(); ++r) {
      staged_round_.insert(staged_round_.end(), offsets[r + 1] - offsets[r],
                           static_cast<std::uint32_t>(r));
    }
  }
  staged_round_.push_back(static_cast<std::uint32_t>(t));
}

Schedule ScheduleBuilder::build() {
  Schedule out = std::move(out_);
  const std::vector<std::uint32_t> rounds = std::move(staged_round_);
  *this = ScheduleBuilder{};
  if (rounds.empty()) return out;
  // Counting sort by round: per-round tuple and delivery counts, their
  // prefix sums, then every tuple into its round's next slot.
  const std::size_t round_count =
      *std::max_element(rounds.begin(), rounds.end()) + std::size_t{1};
  Schedule sorted;
  sorted.offsets_.assign(round_count + 1, 0);
  std::vector<std::uint32_t> next_rx(round_count + 1, 0);
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    ++sorted.offsets_[rounds[i] + 1];
    next_rx[rounds[i] + 1] += out.tx_[i].count;
  }
  for (std::size_t r = 1; r <= round_count; ++r) {
    sorted.offsets_[r] += sorted.offsets_[r - 1];
    next_rx[r] += next_rx[r - 1];
  }
  std::vector<std::uint32_t> next_tx(sorted.offsets_.begin(),
                                     sorted.offsets_.end() - 1);
  sorted.tx_.resize(out.tx_.size());
  sorted.receivers_.resize(out.receivers_.size());
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Tx& tx = out.tx_[i];
    std::uint32_t& rx = next_rx[rounds[i]];
    sorted.tx_[next_tx[rounds[i]]++] = {tx.message, tx.sender, rx, tx.count};
    std::copy_n(out.receivers_.begin() + tx.first, tx.count,
                sorted.receivers_.begin() + rx);
    rx += tx.count;
  }
  return sorted;
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
