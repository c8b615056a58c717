#include "obs/span.h"

#include <algorithm>
#include <chrono>
#include <cstring>

namespace mg::obs {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-thread nesting depth.  Tracer-agnostic on purpose: a test tracer
/// nested inside global-tracer spans still sees a consistent bracketing.
thread_local std::uint32_t t_depth = 0;

}  // namespace

SpanTracer::SpanTracer(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      epoch_ns_(steady_now_ns()) {}

void SpanTracer::set_enabled(bool enabled) {
  if (enabled) {
    std::call_once(ring_built_, [this] {
      ring_storage_ = std::make_unique<BoundedRing<Span>>(capacity_);
      ring_.store(ring_storage_.get(), std::memory_order_release);
    });
  }
  enabled_.store(enabled, std::memory_order_release);
}

SpanTracer& SpanTracer::global() {
  static SpanTracer instance;
  return instance;
}

std::uint64_t SpanTracer::now_ns() const {
  return steady_now_ns() - epoch_ns_;
}

std::uint32_t SpanTracer::this_thread_id() {
  static std::atomic<std::uint32_t> counter{0};
  thread_local const std::uint32_t id =
      counter.fetch_add(1, std::memory_order_relaxed) + 1;
  return id;
}

void SpanTracer::record(std::string_view name, std::uint32_t thread,
                        std::uint32_t depth, std::uint64_t start_ns,
                        std::uint64_t end_ns) {
  BoundedRing<Span>* ring = ring_.load(std::memory_order_acquire);
  if (ring == nullptr) return;
  ring->record([&](Span& span) {
    const std::size_t copy = std::min(name.size(), kMaxNameLength);
    std::memcpy(span.name, name.data(), copy);
    span.name[copy] = '\0';
    span.thread = thread;
    span.depth = depth;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
  });
}

std::vector<SpanTracer::Span> SpanTracer::snapshot() const {
  const BoundedRing<Span>* ring = ring_.load(std::memory_order_acquire);
  if (ring == nullptr) return {};
  std::vector<Span> spans = ring->snapshot();
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;  // parent before its same-start children
  });
  return spans;
}

ScopeSpan::ScopeSpan(SpanTracer& tracer, std::string_view name) {
  if (!tracer.enabled()) return;  // disabled: one atomic load, nothing else
  tracer_ = &tracer;
  name_ = name;
  depth_ = t_depth++;
  start_ns_ = tracer.now_ns();
}

ScopeSpan::~ScopeSpan() {
  if (tracer_ == nullptr) return;
  --t_depth;
  tracer_->record(name_, SpanTracer::this_thread_id(), depth_, start_ns_,
                  tracer_->now_ns());
}

}  // namespace mg::obs
