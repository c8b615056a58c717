// mg::obs unit tests: metric primitives (counters, timers, histograms),
// the registry, the span tracer and its Chrome-trace exporter, and — per
// the no-external-dependency rule — full round-trips of every JSON
// emitter through the repo's JSON reader
// (support/json_read.h), so the emitted grammar is checked field-by-field
// rather than by eyeball.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gossip/solve.h"
#include "graph/generators.h"
#include "obs/bounded_ring.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "sim/network_sim.h"
#include "support/json_read.h"

namespace mg::obs {
namespace {

using support::JsonValue;
using support::parse_json;

TEST(Metrics, CounterAndTimerAccumulate) {
  Counter c;
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);

  Timer t;
  t.record_ns(100);
  t.record_ns(250);
  EXPECT_EQ(t.total_ns(), 350u);
  EXPECT_EQ(t.count(), 2u);
}

TEST(Metrics, ScopeTimerRecordsOneSpan) {
  Timer t;
  { ScopeTimer span(t); }
  EXPECT_EQ(t.count(), 1u);
}

// ---------------------------------------------------------------------------
// Histogram

TEST(Histogram, BucketBoundariesAreExact) {
  // Values below 2 * kSubBuckets are their own bucket: exact.
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), v);
    EXPECT_EQ(Histogram::bucket_lower_bound(v), v);
  }
  // Every bucket's lower bound must map back to that bucket, and the value
  // just below it to the previous bucket — the boundaries are exact.
  for (std::size_t i = 1; i < Histogram::kBucketCount; ++i) {
    const std::uint64_t lo = Histogram::bucket_lower_bound(i);
    EXPECT_EQ(Histogram::bucket_index(lo), i) << "lower bound of bucket " << i;
    EXPECT_EQ(Histogram::bucket_index(lo - 1), i - 1)
        << "value below bucket " << i;
  }
  // Spot-check the log-bucket shape: 8 sub-buckets per octave, <= 12.5%
  // relative width.
  EXPECT_EQ(Histogram::bucket_index(16), Histogram::bucket_index(17));
  EXPECT_NE(Histogram::bucket_index(17), Histogram::bucket_index(18));
  const std::size_t top =
      Histogram::bucket_index(std::numeric_limits<std::uint64_t>::max());
  EXPECT_LT(top, Histogram::kBucketCount);
}

TEST(Histogram, SingleValueQuantilesAreExact) {
  Histogram h;
  h.record(12345);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 12345u);
  EXPECT_EQ(snap.min, 12345u);
  EXPECT_EQ(snap.max, 12345u);
  // The quantile comes from a log bucket but is clamped into [min, max],
  // so a single-value histogram reports that value exactly.
  EXPECT_EQ(snap.p50, 12345u);
  EXPECT_EQ(snap.p99, 12345u);
}

TEST(Histogram, QuantilesOrderAndBound) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_LE(snap.p50, snap.p90);
  EXPECT_LE(snap.p90, snap.p99);
  EXPECT_LE(snap.p99, snap.max);
  // p50 of uniform 1..1000 is ~500; the log buckets guarantee <= 12.5%
  // relative error on the bucket bound.
  EXPECT_GE(snap.p50, 440u);
  EXPECT_LE(snap.p50, 576u);
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  Histogram h;
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_EQ(snap.p50, 0u);
  EXPECT_EQ(snap.p90, 0u);
  EXPECT_EQ(snap.p99, 0u);
}

TEST(Histogram, ConcurrentRecordingLosesNothing) {
  Histogram h;
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record(t * kPerThread + i);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const HistogramSnapshot snap = h.snapshot();
  // Total-count identity: relaxed atomics may not order, but they never
  // lose an increment.
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  constexpr std::uint64_t n = kThreads * kPerThread;
  EXPECT_EQ(snap.sum, n * (n - 1) / 2);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, n - 1);
  EXPECT_LE(snap.p50, snap.p99);
}

TEST(Histogram, ResetForgetsEverything) {
  Histogram h;
  h.record(7);
  h.record(1 << 20);
  h.reset();
  EXPECT_EQ(h.snapshot().count, 0u);
  h.record(5);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.min, 5u);
  EXPECT_EQ(snap.max, 5u);
}

TEST(Histogram, ScopeHistRecordsOneSample) {
  Histogram h;
  { ScopeHist scope(h); }
  EXPECT_EQ(h.snapshot().count, 1u);
}

// ---------------------------------------------------------------------------
// Registry

TEST(Registry, NamedMetricsAreStable) {
  Registry r;
  Counter& a = r.counter("a");
  a.add(3);
  EXPECT_EQ(&r.counter("a"), &a);  // same object on re-lookup
  EXPECT_EQ(r.snapshot().counter("a"), 3u);
  EXPECT_EQ(r.snapshot().counter("missing"), 0u);

  r.reset();
  EXPECT_EQ(r.snapshot().counter("a"), 0u);  // zeroed, still registered
  EXPECT_EQ(r.snapshot().counters.size(), 1u);
}

TEST(Registry, NamedHistogramsSnapshotAndReset) {
  Registry r;
  Histogram& h = r.histogram("lat");
  EXPECT_EQ(&r.histogram("lat"), &h);
  h.record(100);
  h.record(200);
  EXPECT_EQ(r.snapshot().histogram("lat").count, 2u);
  EXPECT_EQ(r.snapshot().histogram("missing").count, 0u);
  r.reset();
  EXPECT_EQ(r.snapshot().histogram("lat").count, 0u);
  EXPECT_EQ(r.snapshot().histograms.size(), 1u);  // name stays registered
}

// ---------------------------------------------------------------------------
// JSON writer

TEST(Json, EscapeCoversControlAndQuotes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(Json, WriterRoundTripsNestedDocument) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.field("text", "with \"quotes\" and\nnewline");
  w.field("count", std::uint64_t{18446744073709551615ull});
  w.field("negative", std::int64_t{-7});
  w.field("ratio", 0.5);
  w.field("flag", true);
  w.key("nothing").null();
  w.key("list").begin_array().value(1).value(2).value(3).end_array();
  w.key("nested").begin_object().field("deep", "yes").end_object();
  w.key("empty_obj").begin_object().end_object();
  w.key("empty_arr").begin_array().end_array();
  w.end_object();
  ASSERT_TRUE(w.done());

  const JsonValue doc = parse_json(out.str());
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(doc.at("text").string, "with \"quotes\" and\nnewline");
  EXPECT_EQ(doc.at("negative").number, -7.0);
  EXPECT_EQ(doc.at("ratio").number, 0.5);
  EXPECT_TRUE(doc.at("flag").boolean);
  EXPECT_EQ(doc.at("nothing").kind, JsonValue::Kind::kNull);
  ASSERT_EQ(doc.at("list").array.size(), 3u);
  EXPECT_EQ(doc.at("list").array[1].as_u64(), 2u);
  EXPECT_EQ(doc.at("nested").at("deep").string, "yes");
  EXPECT_TRUE(doc.at("empty_obj").object.empty());
  EXPECT_TRUE(doc.at("empty_arr").array.empty());
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.field("nan", std::nan(""));
  w.field("pos_inf", std::numeric_limits<double>::infinity());
  w.field("neg_inf", -std::numeric_limits<double>::infinity());
  w.field("finite", 1.5);
  w.end_object();
  ASSERT_TRUE(w.done());

  const JsonValue doc = parse_json(out.str());
  EXPECT_EQ(doc.at("nan").kind, JsonValue::Kind::kNull);
  EXPECT_EQ(doc.at("pos_inf").kind, JsonValue::Kind::kNull);
  EXPECT_EQ(doc.at("neg_inf").kind, JsonValue::Kind::kNull);
  EXPECT_EQ(doc.at("finite").number, 1.5);
}

// ---------------------------------------------------------------------------
// Span tracer

TEST(Span, DisabledTracerRecordsNothing) {
  SpanTracer tracer(16);
  ASSERT_FALSE(tracer.enabled());  // opt-in
  { ScopeSpan s(tracer, "ghost"); }
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(Span, RingIsBuiltOnFirstEnable) {
  // Until tracing is first enabled there is no ring: the tracer reads as
  // an empty one of its full capacity, and a direct record is not kept.
  SpanTracer tracer(3);
  EXPECT_EQ(tracer.capacity(), 3u);
  tracer.record("early", 1, 0, 0, 1);
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(tracer.snapshot().empty());
  tracer.clear();
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(SpanTracer(0).capacity(), 1u);
  // Enabled, disabled and enabled again: one ring keeps every span.
  tracer.set_enabled(true);
  { ScopeSpan s(tracer, "first"); }
  tracer.set_enabled(false);
  { ScopeSpan s(tracer, "ghost"); }
  tracer.set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    ScopeSpan s(tracer, "again");
  }
  EXPECT_EQ(tracer.capacity(), 3u);
  EXPECT_EQ(tracer.recorded(), 3u);
  EXPECT_EQ(tracer.dropped(), 1u);
  EXPECT_STREQ(tracer.snapshot().front().name, "first");
}

TEST(Span, NestedSpansAreBracketedAndMonotonic) {
  SpanTracer tracer(16);
  tracer.set_enabled(true);
  {
    ScopeSpan outer(tracer, "outer");
    {
      ScopeSpan inner(tracer, "inner");
    }
    {
      ScopeSpan sibling(tracer, "sibling");
    }
  }
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Sorted by start; the parent's interval strictly contains each child's.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0u);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].depth, 1u);
    EXPECT_GE(spans[i].start_ns, spans[0].start_ns);
    EXPECT_LE(spans[i].end_ns, spans[0].end_ns);
    EXPECT_LE(spans[i].start_ns, spans[i].end_ns);
    EXPECT_EQ(spans[i].thread, spans[0].thread);
  }
  // Siblings do not overlap and appear in order.
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_STREQ(spans[2].name, "sibling");
  EXPECT_LE(spans[1].end_ns, spans[2].start_ns);
}

TEST(Span, RingDropsWhenFullAndCounts) {
  SpanTracer tracer(4);
  tracer.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    ScopeSpan s(tracer, "tiny");
  }
  EXPECT_EQ(tracer.recorded(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  EXPECT_EQ(tracer.snapshot().size(), 4u);
  tracer.clear();
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  {
    ScopeSpan s(tracer, "after_clear");
  }
  EXPECT_EQ(tracer.recorded(), 1u);
}

TEST(BoundedRing, FullRingDropsAndClearForgets) {
  BoundedRing<int> ring(3);
  for (int i = 0; i < 5; ++i) ring.record([i](int& slot) { slot = i; });
  EXPECT_EQ(ring.recorded(), 3u);
  EXPECT_EQ(ring.dropped(), 2u);
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{0, 1, 2}));
  ring.clear();
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
  ring.record([](int& slot) { slot = 7; });
  EXPECT_EQ(ring.snapshot(), std::vector<int>{7});
}

TEST(Span, LongNamesAreTruncatedNotRejected) {
  SpanTracer tracer(4);
  tracer.set_enabled(true);
  const std::string longname(100, 'x');
  tracer.record(longname, 1, 0, 0, 1);
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(std::string(spans[0].name),
            std::string(SpanTracer::kMaxNameLength, 'x'));
}

TEST(Span, ConcurrentRecordingKeepsPerThreadNesting) {
  SpanTracer tracer(1024);
  tracer.set_enabled(true);
  constexpr unsigned kThreads = 4;
  constexpr int kIters = 32;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kIters; ++i) {
        ScopeSpan outer(tracer, "outer");
        ScopeSpan inner(tracer, "inner");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), kThreads * kIters * 2u);
  EXPECT_EQ(tracer.dropped(), 0u);
  // Per thread: every inner span nests in some outer span of that thread.
  for (const auto& span : spans) {
    if (std::string_view(span.name) != "inner") continue;
    bool contained = false;
    for (const auto& outer : spans) {
      if (outer.thread == span.thread &&
          std::string_view(outer.name) == "outer" &&
          outer.start_ns <= span.start_ns && span.end_ns <= outer.end_ns) {
        contained = true;
        break;
      }
    }
    EXPECT_TRUE(contained) << "orphan inner span on thread " << span.thread;
  }
}

// ---------------------------------------------------------------------------
// Chrome trace export

TEST(TraceExport, EmitsValidChromeTraceJson) {
  SpanTracer tracer(64);
  tracer.set_enabled(true);
  {
    ScopeSpan outer(tracer, "solve");
    ScopeSpan inner(tracer, "bfs");
  }
  std::ostringstream out;
  write_chrome_trace(out, tracer);

  const JsonValue doc = parse_json(out.str());
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::Kind::kArray);
  ASSERT_EQ(events.array.size(), 2u);
  for (const JsonValue& e : events.array) {
    EXPECT_EQ(e.at("ph").string, "X");  // complete events
    EXPECT_EQ(e.at("cat").string, "mg");
    EXPECT_GE(e.at("dur").number, 0.0);
    EXPECT_GE(e.at("ts").number, 0.0);
    EXPECT_EQ(e.at("pid").as_u64(), 1u);
    EXPECT_GE(e.at("tid").as_u64(), 1u);
  }
  // Snapshot order puts the parent first; ts/dur must bracket the child
  // (microsecond rounding can only shrink the child into the parent).
  const JsonValue& parent = events.array[0];
  const JsonValue& child = events.array[1];
  EXPECT_EQ(parent.at("name").string, "solve");
  EXPECT_EQ(child.at("name").string, "bfs");
  EXPECT_LE(parent.at("ts").number, child.at("ts").number + 1e-3);
  EXPECT_GE(parent.at("ts").number + parent.at("dur").number + 1e-3,
            child.at("ts").number + child.at("dur").number);
  EXPECT_EQ(child.at("args").at("depth").as_u64(), 1u);
}

TEST(TraceExport, EmptyTracerStillProducesValidDocument) {
  SpanTracer tracer(4);
  std::ostringstream out;
  write_chrome_trace(out, tracer);
  const JsonValue doc = parse_json(out.str());
  EXPECT_TRUE(doc.at("traceEvents").array.empty());
}

// ---------------------------------------------------------------------------
// Streaming trace sinks

TEST(Trace, SinksObserveSimulatedRun) {
  const auto g = graph::cycle(8);
  const auto sol = gossip::solve_gossip(g);
  ASSERT_TRUE(sol.report.ok);
  const auto tree = sol.instance.tree().as_graph();

  CountingTraceSink counting;
  std::ostringstream jsonl;
  JsonLinesTraceSink lines(jsonl);

  sim::SimOptions options;
  options.sink = &counting;
  const auto result =
      sim::simulate(tree, sol.schedule, sol.instance.initial(), options);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(counting.sends(), sol.schedule.transmission_count());
  EXPECT_EQ(counting.receives(), sol.schedule.delivery_count());
  EXPECT_EQ(counting.total(), counting.sends() + counting.receives());

  options.sink = &lines;
  (void)sim::simulate(tree, sol.schedule, sol.instance.initial(), options);
  std::istringstream in(jsonl.str());
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(in, line)) {
    const JsonValue event = parse_json(line);
    ASSERT_EQ(event.kind, JsonValue::Kind::kObject);
    const std::string& kind = event.at("kind").string;
    EXPECT_TRUE(kind == "send" || kind == "receive");
    if (kind == "send") {
      EXPECT_GE(event.at("fanout").as_u64(), 1u);
    }
    ++parsed;
  }
  EXPECT_EQ(parsed, counting.total());
}

}  // namespace
}  // namespace mg::obs
