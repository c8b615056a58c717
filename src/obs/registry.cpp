#include "obs/registry.h"

#include <algorithm>

namespace mg::obs {

std::uint64_t Snapshot::counter(std::string_view name) const {
  const auto it = std::find_if(
      counters.begin(), counters.end(),
      [&](const auto& entry) { return entry.first == name; });
  return it == counters.end() ? 0 : it->second;
}

HistogramSnapshot Snapshot::histogram(std::string_view name) const {
  const auto it = std::find_if(
      histograms.begin(), histograms.end(),
      [&](const auto& entry) { return entry.first == name; });
  return it == histograms.end() ? HistogramSnapshot{} : it->second;
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Timer& Registry::timer(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  const auto it = timers_.find(name);
  if (it != timers_.end()) return *it->second;
  return *timers_.emplace(std::string(name), std::make_unique<Timer>())
              .first->second;
}

Histogram& Registry::histogram(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_.emplace(std::string(name), std::make_unique<Histogram>())
              .first->second;
}

void Registry::reset() {
  const std::scoped_lock lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, t] : timers_) t->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  const std::scoped_lock lock(mutex_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.timers.reserve(timers_.size());
  for (const auto& [name, t] : timers_) {
    snap.timers.emplace_back(name, TimerSnapshot{t->total_ns(), t->count()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, h->snapshot());
  }
  return snap;
}

}  // namespace mg::obs
