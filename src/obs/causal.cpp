#include "obs/causal.h"

#include <algorithm>

namespace mg::obs {

CausalTracer::CausalTracer(std::size_t capacity) : ring_(capacity) {}

CausalTracer& CausalTracer::global() {
  static CausalTracer instance;
  return instance;
}

std::vector<CausalTracer::Event> CausalTracer::snapshot() const {
  std::vector<Event> events = ring_.snapshot();
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.id < b.id;
  });
  return events;
}

}  // namespace mg::obs
