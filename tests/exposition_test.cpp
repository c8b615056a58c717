// mg::obs exposition + sampler tests (ISSUE 10): the Prometheus text
// renderer (name sanitization, label escaping, cumulative bucket series,
// summary consistency, byte-stable ordering), the JSON exposition's
// round-trip through the repo's JSON reader, and the background Sampler's
// delta semantics, ring eviction, and both off switches.  Every test here
// must also pass with -DMG_OBS=OFF: snapshots are built from local metric
// objects (always compiled), and the compiled-out differences (sampler
// start(), macro no-ops) are asserted per MG_OBS_ENABLED.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "support/json_read.h"

namespace mg::obs {
namespace {

using support::JsonValue;
using support::parse_json;

// ---------------------------------------------------------------------------
// Name sanitization and label escaping

TEST(Exposition, PrometheusNameSanitizes) {
  EXPECT_EQ(prometheus_name("engine.cache.hits"), "engine_cache_hits");
  EXPECT_EQ(prometheus_name("dist.msgs-sent"), "dist_msgs_sent");
  EXPECT_EQ(prometheus_name("already_fine:ns"), "already_fine:ns");
  EXPECT_EQ(prometheus_name("churn.patch ns"), "churn_patch_ns");
  // A leading digit gains a '_' prefix (names must not start with one).
  EXPECT_EQ(prometheus_name("2phase.rounds"), "_2phase_rounds");
  EXPECT_EQ(prometheus_name(""), "");
}

TEST(Exposition, LabelEscapePerSpec) {
  EXPECT_EQ(prometheus_label_escape("plain"), "plain");
  EXPECT_EQ(prometheus_label_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(prometheus_label_escape("quo\"te"), "quo\\\"te");
  EXPECT_EQ(prometheus_label_escape("new\nline"), "new\\nline");
  EXPECT_EQ(prometheus_label_escape("all\\\"\n"), "all\\\\\\\"\\n");
}

// ---------------------------------------------------------------------------
// Prometheus rendering

std::string render(const Snapshot& snapshot,
                   const PrometheusExposition& sink) {
  std::ostringstream out;
  sink.expose(snapshot, out);
  return out.str();
}

TEST(Exposition, CounterSeries) {
  Snapshot snap;
  snap.counters.emplace_back("engine.cache.hits", 42);
  const std::string text = render(snap, PrometheusExposition{});
  EXPECT_EQ(text,
            "# TYPE mg_engine_cache_hits counter\n"
            "mg_engine_cache_hits 42\n");
}

TEST(Exposition, TimerSummarySeries) {
  Snapshot snap;
  snap.timers.emplace_back("solve.total", TimerSnapshot{3500, 7});
  const std::string text = render(snap, PrometheusExposition{});
  EXPECT_EQ(text,
            "# TYPE mg_solve_total summary\n"
            "mg_solve_total_sum 3500\n"
            "mg_solve_total_count 7\n");
}

TEST(Exposition, StaticLabelsSortedAndEscaped) {
  // Labels given out of order, with a value needing every escape; the
  // rendered block must sort by key and escape at write time.
  const std::vector<std::pair<std::string, std::string>> labels = {
      {"suite", "we\"ird\nvalue\\"}, {"host", "runner-1"}};
  PrometheusExposition sink(labels);
  Snapshot snap;
  snap.counters.emplace_back("x", 1);
  const std::string text = render(snap, sink);
  EXPECT_EQ(text,
            "# TYPE mg_x counter\n"
            "mg_x{host=\"runner-1\",suite=\"we\\\"ird\\nvalue\\\\\"} 1\n");
}

TEST(Exposition, HistogramCumulativeBucketsAreMonotone) {
  Histogram h;
  for (const std::uint64_t v : {1ull, 1ull, 2ull, 3ull, 100ull, 100000ull,
                                7ull, 900ull, 900ull, 12345678ull}) {
    h.record(v);
  }
  const HistogramSnapshot hist = h.snapshot();
  Snapshot snap;
  snap.histograms.emplace_back("lat.ns", hist);
  const std::string text = render(snap, PrometheusExposition{});

  // Walk the rendered _bucket lines: `le` bounds strictly ascending,
  // cumulative counts non-decreasing, +Inf closing at the full count.
  std::istringstream lines(text);
  std::string line;
  std::uint64_t previous_le = 0;
  std::uint64_t previous_cumulative = 0;
  bool saw_inf = false;
  std::size_t bucket_lines = 0;
  while (std::getline(lines, line)) {
    const std::string prefix = "mg_lat_ns_bucket{le=\"";
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    ++bucket_lines;
    const std::size_t close = line.find('"', prefix.size());
    ASSERT_NE(close, std::string::npos) << line;
    const std::string le = line.substr(prefix.size(), close - prefix.size());
    const std::uint64_t cumulative =
        std::stoull(line.substr(line.rfind(' ') + 1));
    EXPECT_GE(cumulative, previous_cumulative) << line;
    previous_cumulative = cumulative;
    if (le == "+Inf") {
      saw_inf = true;
      EXPECT_EQ(cumulative, hist.count);
    } else {
      ASSERT_FALSE(saw_inf) << "+Inf must close the series: " << line;
      const std::uint64_t bound = std::stoull(le);
      EXPECT_GT(bound, previous_le) << line;
      previous_le = bound;
    }
  }
  EXPECT_TRUE(saw_inf);
  EXPECT_GE(bucket_lines, 2u);

  // Summary lines agree with the snapshot the buckets came from.
  EXPECT_NE(text.find("mg_lat_ns_sum " + std::to_string(hist.sum) + "\n"),
            std::string::npos);
  EXPECT_NE(text.find("mg_lat_ns_count " + std::to_string(hist.count) + "\n"),
            std::string::npos);
}

TEST(Exposition, ByteStableAcrossRuns) {
  Histogram h;
  h.record(5);
  h.record(5000);
  Snapshot snap;
  snap.counters.emplace_back("a.count", 1);
  snap.counters.emplace_back("b.count", 2);
  snap.timers.emplace_back("t", TimerSnapshot{10, 1});
  snap.histograms.emplace_back("h", h.snapshot());
  const std::vector<std::pair<std::string, std::string>> forward = {
      {"host", "a"}, {"suite", "x"}};
  const std::vector<std::pair<std::string, std::string>> reversed = {
      {"suite", "x"}, {"host", "a"}};
  const PrometheusExposition sink(forward);
  EXPECT_EQ(render(snap, sink), render(snap, sink));
  // Same labels in the opposite construction order render identically.
  const PrometheusExposition swapped(reversed);
  EXPECT_EQ(render(snap, sink), render(snap, swapped));
}

TEST(Exposition, ContentTypes) {
  EXPECT_EQ(PrometheusExposition{}.content_type(),
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_EQ(JsonExposition{}.content_type(), "application/json");
}

TEST(Exposition, JsonRoundTripThroughParser) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  Snapshot snap;
  snap.counters.emplace_back("sends", 17);
  snap.timers.emplace_back("solve", TimerSnapshot{250, 3});
  snap.histograms.emplace_back("lat", h.snapshot());

  std::ostringstream out;
  JsonExposition{}.expose(snap, out);
  const std::string text = out.str();
  const JsonValue doc = parse_json(text);
  EXPECT_EQ(doc.at("counters").at("sends").as_u64(), 17u);
  EXPECT_EQ(doc.at("timers").at("solve").at("total_ns").as_u64(), 250u);
  EXPECT_EQ(doc.at("timers").at("solve").at("count").as_u64(), 3u);
  EXPECT_EQ(doc.at("histograms").at("lat").at("count").as_u64(), 100u);
  EXPECT_EQ(doc.at("histograms").at("lat").at("min").as_u64(), 1u);
  EXPECT_EQ(doc.at("histograms").at("lat").at("max").as_u64(), 100u);
}

// ---------------------------------------------------------------------------
// Sampler

TEST(Sampler, DeltasAgainstPreviousSample) {
  Registry registry;
  Sampler sampler(registry, {std::chrono::milliseconds(50), 8});
  registry.counter("work.items").add(10);
  sampler.sample_now();
  registry.counter("work.items").add(5);
  registry.counter("late.arrival").add(2);
  sampler.sample_now();

  const std::vector<Sample> series = sampler.series();
  ASSERT_EQ(series.size(), 2u);
  // First sample deltas from zero; second from the first.
  EXPECT_EQ(series[0].dt_ns, 0u);
  ASSERT_EQ(series[0].counter_deltas.size(), 1u);
  EXPECT_EQ(series[0].counter_deltas[0].first, "work.items");
  EXPECT_EQ(series[0].counter_deltas[0].second, 10u);
  ASSERT_EQ(series[1].counter_deltas.size(), 2u);
  // Sorted by name: a counter first seen in this sample deltas from zero.
  EXPECT_EQ(series[1].counter_deltas[0].first, "late.arrival");
  EXPECT_EQ(series[1].counter_deltas[0].second, 2u);
  EXPECT_EQ(series[1].counter_deltas[1].first, "work.items");
  EXPECT_EQ(series[1].counter_deltas[1].second, 5u);
  EXPECT_GE(series[1].t_ns, series[0].t_ns);
}

TEST(Sampler, RegistryResetClampsDeltasToZero) {
  Registry registry;
  Sampler sampler(registry, {std::chrono::milliseconds(50), 8});
  registry.counter("c").add(10);
  sampler.sample_now();
  registry.reset();
  registry.counter("c").add(3);  // value 3 < previous 10
  sampler.sample_now();
  const std::vector<Sample> series = sampler.series();
  ASSERT_EQ(series.size(), 2u);
  ASSERT_EQ(series[1].counter_deltas.size(), 1u);
  EXPECT_EQ(series[1].counter_deltas[0].second, 0u) << "must clamp, not wrap";
}

TEST(Sampler, RingEvictsOldestAtCapacity) {
  Registry registry;
  Sampler sampler(registry, {std::chrono::milliseconds(50), 4});
  for (int i = 0; i < 10; ++i) {
    registry.counter("tick").add(1);
    sampler.sample_now();
  }
  EXPECT_EQ(sampler.samples_taken(), 10u);
  const std::vector<Sample> series = sampler.series();
  ASSERT_EQ(series.size(), 4u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].t_ns, series[i - 1].t_ns) << "oldest first";
  }
  // The survivors are the last four samples: counter values 7..10.
  EXPECT_EQ(series.front().snapshot.counter("tick"), 7u);
  EXPECT_EQ(series.back().snapshot.counter("tick"), 10u);
}

TEST(Sampler, RuntimeNullRegistryYieldsEmptySamples) {
  Registry registry;
  registry.set_enabled(false);
  Sampler sampler(registry, {std::chrono::milliseconds(50), 8});
  registry.counter("ghost").add(99);  // scratch cell: never registered
  sampler.sample_now();
  const std::vector<Sample> series = sampler.series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_TRUE(series[0].snapshot.counters.empty());
  EXPECT_TRUE(series[0].counter_deltas.empty());
}

TEST(Sampler, StartStopRespectsCompileSwitch) {
  Registry registry;
  Sampler sampler(registry, {std::chrono::milliseconds(1), 16});
  const bool started = sampler.start();
  const bool compiled_in = MG_OBS_ENABLED != 0;
  if (compiled_in) {
    ASSERT_TRUE(started);
    EXPECT_TRUE(sampler.running());
    EXPECT_FALSE(sampler.start()) << "second start() while running";
    sampler.stop();
    EXPECT_FALSE(sampler.running());
    sampler.stop();  // idempotent
    EXPECT_GE(sampler.samples_taken(), 1u);
  } else {
    // Compiled out: no thread is ever created and nothing is sampled.
    EXPECT_FALSE(started);
    EXPECT_FALSE(sampler.running());
    EXPECT_EQ(sampler.samples_taken(), 0u);
  }
}

TEST(Sampler, EveryStartRecordsASample) {
  // stop() right after start() races the thread's start-up; whichever
  // wins, a started sampler has taken at least one sample.
  if (MG_OBS_ENABLED == 0) GTEST_SKIP() << "observability compiled out";
  Registry registry;
  Sampler sampler(registry, {std::chrono::milliseconds(1), 4});
  for (std::uint64_t i = 1; i <= 10'000; ++i) {
    ASSERT_TRUE(sampler.start());
    sampler.stop();
    ASSERT_GE(sampler.samples_taken(), i) << "start/stop cycle " << i;
  }
}

TEST(Sampler, WriteJsonRoundTripsThroughParser) {
  Registry registry;
  Sampler sampler(registry, {std::chrono::milliseconds(25), 8});
  registry.counter("sends").add(4);
  registry.histogram("lat").record(123);
  sampler.sample_now();
  registry.counter("sends").add(6);
  sampler.sample_now();

  std::ostringstream out;
  sampler.write_json(out);
  const std::string text = out.str();
  const JsonValue doc = parse_json(text);
  EXPECT_EQ(doc.at("schema_version").as_u64(), 1u);
  EXPECT_EQ(doc.at("cadence_ms").as_u64(), 25u);
  EXPECT_EQ(doc.at("samples_taken").as_u64(), 2u);
  const auto& samples = doc.at("samples");
  ASSERT_EQ(samples.kind, JsonValue::Kind::kArray);
  ASSERT_EQ(samples.array.size(), 2u);
  EXPECT_EQ(samples.array[0].at("counters").at("sends").as_u64(), 4u);
  EXPECT_EQ(samples.array[1].at("counters").at("sends").as_u64(), 10u);
  EXPECT_EQ(samples.array[1].at("counter_deltas").at("sends").as_u64(), 6u);
  EXPECT_EQ(samples.array[0].at("histograms").at("lat").at("count").as_u64(),
            1u);
}

}  // namespace
}  // namespace mg::obs
