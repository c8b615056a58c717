#include "obs/sampler.h"

#include <algorithm>
#include <ostream>

#include "obs/json.h"

namespace mg::obs {

Sampler::Sampler(Registry& registry, SamplerOptions options)
    : registry_(registry),
      options_(options),
      epoch_(std::chrono::steady_clock::now()) {
  if (options_.capacity == 0) options_.capacity = 1;
  if (options_.cadence <= std::chrono::milliseconds::zero()) {
    options_.cadence = std::chrono::milliseconds(1);
  }
}

Sampler::~Sampler() { stop(); }

bool Sampler::start() {
#if !MG_OBS_ENABLED
  return false;  // compiled out: no thread, no samples, ever
#else
  const std::lock_guard<std::mutex> lock(mutex_);
  if (running_) return false;
  running_ = true;
  stop_requested_ = false;
  thread_ = std::thread([this] { run_loop(); });
  return true;
#endif
}

void Sampler::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  const std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
}

bool Sampler::running() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

std::uint64_t Sampler::samples_taken() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return taken_;
}

void Sampler::sample_now() {
  // Snapshot outside the sampler lock: the registry has its own mutex and
  // a snapshot can be slow next to a ring push.
  Sample sample;
  sample.snapshot = registry_.snapshot();
  const auto now = std::chrono::steady_clock::now();
  sample.t_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_)
          .count());

  const std::lock_guard<std::mutex> lock(mutex_);
  if (!ring_.empty()) sample.dt_ns = sample.t_ns - ring_.back().t_ns;
  // Counter deltas against the previous sample; both sides are sorted by
  // name (registry maps), so one merge pass suffices.
  sample.counter_deltas.reserve(sample.snapshot.counters.size());
  std::size_t j = 0;
  for (const auto& [name, value] : sample.snapshot.counters) {
    while (j < last_counters_.size() && last_counters_[j].first < name) ++j;
    const std::uint64_t previous =
        (j < last_counters_.size() && last_counters_[j].first == name)
            ? last_counters_[j].second
            : 0;
    // A registry reset between samples makes the counter look smaller;
    // clamp to zero rather than wrapping.
    sample.counter_deltas.emplace_back(
        name, value >= previous ? value - previous : 0);
  }
  last_counters_ = sample.snapshot.counters;
  ring_.push_back(std::move(sample));
  while (ring_.size() > options_.capacity) ring_.pop_front();
  ++taken_;
}

std::vector<Sample> Sampler::series() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

void Sampler::write_json(std::ostream& out) const {
  const std::vector<Sample> samples = series();
  JsonWriter w(out);
  w.begin_object();
  w.field("schema_version", 1);
  w.field("cadence_ms",
          static_cast<std::uint64_t>(options_.cadence.count()));
  w.field("capacity", static_cast<std::uint64_t>(options_.capacity));
  w.field("samples_taken", samples_taken());
  w.key("samples").begin_array();
  for (const Sample& s : samples) {
    w.begin_object();
    w.field("t_ns", s.t_ns);
    w.field("dt_ns", s.dt_ns);
    w.key("counters").begin_object();
    for (const auto& [name, v] : s.snapshot.counters) w.field(name, v);
    w.end_object();
    w.key("counter_deltas").begin_object();
    for (const auto& [name, v] : s.counter_deltas) w.field(name, v);
    w.end_object();
    w.key("histograms").begin_object();
    for (const auto& [name, h] : s.snapshot.histograms) {
      w.key(name).begin_object();
      w.field("count", h.count);
      w.field("p50", h.p50);
      w.field("p90", h.p90);
      w.field("p99", h.p99);
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void Sampler::run_loop() {
  // The first sample is taken before the stop flag is read, so a started
  // sampler always records at least one sample, even when stop() wins the
  // race with the thread's start-up.
  std::unique_lock<std::mutex> lock(mutex_);
  do {
    lock.unlock();
    sample_now();
    lock.lock();
    cv_.wait_for(lock, options_.cadence, [this] { return stop_requested_; });
  } while (!stop_requested_);
}

}  // namespace mg::obs
