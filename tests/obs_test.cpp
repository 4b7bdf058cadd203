// src/obs: span recording and thread attribution, Chrome-trace JSON
// well-formedness (round-trip parsed by the shared JSON parser), metric
// counter/gauge/histogram semantics (including concurrent increments —
// exercised under the sanitizer CI legs), and phase timelines.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "json/json.hpp"

using namespace syndcim;

namespace {

/// Fresh obs state for every test: the tracer/metrics singletons are
/// process-global, so tests scrub them and restore the disabled default.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::tracer().clear();
    obs::metrics().clear();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::tracer().clear();
    obs::metrics().clear();
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

TEST_F(ObsTest, DisabledRecordsNothing) {
  const std::size_t before = obs::tracer().event_count();
  {
    OBS_SPAN("should.not.appear");
  }
  EXPECT_EQ(obs::tracer().event_count(), before);
}

TEST_F(ObsTest, SpanNestingIsContained) {
  obs::set_enabled(true);
  {
    OBS_SPAN("outer");
    {
      OBS_SPAN("inner");
    }
  }
  const auto spans = obs::tracer().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const obs::RecordedSpan* outer = nullptr;
  const obs::RecordedSpan* inner = nullptr;
  for (const auto& s : spans) {
    if (s.ev.name == "outer") outer = &s;
    if (s.ev.name == "inner") inner = &s;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Same thread; the inner interval sits inside the outer one.
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_GE(inner->ev.start_ns, outer->ev.start_ns);
  EXPECT_LE(inner->ev.start_ns + inner->ev.dur_ns,
            outer->ev.start_ns + outer->ev.dur_ns);
}

TEST_F(ObsTest, ThreadAttribution) {
  obs::set_enabled(true);
  obs::tracer().set_thread_name("obs-test-main");
  {
    OBS_SPAN("on.main");
  }
  std::thread t([] {
    obs::tracer().set_thread_name("obs-test-worker");
    OBS_SPAN("on.worker");
  });
  t.join();

  int main_tid = -1, worker_tid = -1;
  for (const auto& s : obs::tracer().snapshot()) {
    if (s.ev.name == "on.main") {
      main_tid = s.tid;
      EXPECT_EQ(s.thread_name, "obs-test-main");
    }
    if (s.ev.name == "on.worker") {
      worker_tid = s.tid;
      EXPECT_EQ(s.thread_name, "obs-test-worker");
    }
  }
  ASSERT_GE(main_tid, 0);
  ASSERT_GE(worker_tid, 0);
  EXPECT_NE(main_tid, worker_tid);
}

TEST_F(ObsTest, DynamicSpanNamesAndManyEventsCrossChunks) {
  obs::set_enabled(true);
  // More events than one chunk holds, to cover the spill path.
  for (int i = 0; i < 3000; ++i) {
    obs::SpanGuard span("bulk." + std::to_string(i % 7));
  }
  EXPECT_GE(obs::tracer().event_count(), 3000u);
}

TEST_F(ObsTest, TraceJsonRoundTrips) {
  obs::set_enabled(true);
  const std::string thread_name = "json \"escaped\" \\ name";
  std::vector<std::string> span_names = {"phase.one", "phase\nwith\tescapes"};
  obs::tracer().set_thread_name(thread_name);
  {
    OBS_SPAN("phase.one");
    OBS_SPAN("phase\nwith\tescapes");
  }
  const std::string text = obs::tracer().to_json();
  json::JsonValue root;
  std::string err;
  ASSERT_TRUE(json::json_parse(text, &root, &err)) << err << "\n" << text;
  ASSERT_TRUE(root.is_object());
  ASSERT_NE(root.find("format"), nullptr);
  EXPECT_EQ(root.find("format")->as_string(), "syndcim-trace");
  ASSERT_NE(root.find("version"), nullptr);
  EXPECT_EQ(root.find("version")->as_number(), 1.0);
  const json::JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  std::size_t complete = 0, meta = 0;
  std::vector<std::string> decoded_spans;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const json::JsonValue& e = events->at(i);
    ASSERT_TRUE(e.is_object());
    ASSERT_NE(e.find("ph"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    ASSERT_NE(e.find("name"), nullptr);
    if (e.find("ph")->as_string() == "X") {
      ++complete;
      ASSERT_NE(e.find("ts"), nullptr);
      ASSERT_NE(e.find("dur"), nullptr);
      EXPECT_GE(e.find("dur")->as_number(), 0.0);
      decoded_spans.push_back(e.find("name")->as_string());
    } else if (e.find("ph")->as_string() == "M") {
      ++meta;
      EXPECT_EQ(e.find("name")->as_string(), "thread_name");
      // The escaped thread name decodes back to the original bytes.
      ASSERT_NE(e.find("args"), nullptr);
      ASSERT_NE(e.find("args")->find("name"), nullptr);
      EXPECT_EQ(e.find("args")->find("name")->as_string(), thread_name);
    }
  }
  EXPECT_EQ(complete, 2u);
  EXPECT_EQ(meta, 1u);
  std::sort(span_names.begin(), span_names.end());
  std::sort(decoded_spans.begin(), decoded_spans.end());
  EXPECT_EQ(decoded_spans, span_names);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST_F(ObsTest, CounterAndGaugeBasics) {
  obs::Counter& c = obs::metrics().counter("test.counter.inc");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same counter.
  EXPECT_EQ(obs::metrics().counter("test.counter.inc").value(), 42u);

  obs::Gauge& g = obs::metrics().gauge("test.gauge.set");
  g.set(2.5);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(obs::metrics().gauge("test.gauge.set").value(), -1.25);
}

TEST_F(ObsTest, HistogramBucketBoundaries) {
  // bucket i counts v <= bounds[i]; above the last bound -> overflow.
  obs::Histogram& h =
      obs::metrics().histogram("test.hist.bounds", {1.0, 10.0, 100.0});
  ASSERT_EQ(h.bucket_count(), 4u);
  h.observe(0.5);    // bucket 0
  h.observe(1.0);    // bucket 0 (inclusive upper bound)
  h.observe(1.0001); // bucket 1
  h.observe(10.0);   // bucket 1
  h.observe(99.9);   // bucket 2
  h.observe(100.0);  // bucket 2
  h.observe(100.5);  // overflow
  h.observe(1e9);    // overflow
  EXPECT_EQ(h.count_in_bucket(0), 2u);
  EXPECT_EQ(h.count_in_bucket(1), 2u);
  EXPECT_EQ(h.count_in_bucket(2), 2u);
  EXPECT_EQ(h.count_in_bucket(3), 2u);
  EXPECT_EQ(h.total_count(), 8u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 99.9 + 100.0 + 100.5 + 1e9,
              1e-3);
}

TEST_F(ObsTest, ConcurrentCounterIncrementsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kIncsPerThread = 20000;
  obs::Counter& c = obs::metrics().counter("test.counter.concurrent");
  obs::Histogram& h =
      obs::metrics().histogram("test.hist.concurrent", {0.5});
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kIncsPerThread; ++i) {
        c.inc();
        h.observe(static_cast<double>(i & 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kIncsPerThread);
  EXPECT_EQ(h.total_count(),
            static_cast<std::uint64_t>(kThreads) * kIncsPerThread);
  EXPECT_EQ(h.count_in_bucket(0), h.count_in_bucket(1));
}

TEST_F(ObsTest, ConcurrentSpansFromManyThreadsAllLand) {
  obs::set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 500;
  const std::size_t before = obs::tracer().event_count();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        OBS_SPAN("concurrent.span");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(obs::tracer().event_count() - before,
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
}

TEST_F(ObsTest, MetricsJsonRoundTrips) {
  obs::metrics().counter("dse.cache.hit").inc(7);
  obs::metrics().gauge("compile.rss.peak_kb").set(12345.0);
  obs::Histogram& h =
      obs::metrics().histogram("dse.pool.queue_depth", {1.0, 2.0});
  h.observe(0.0);
  h.observe(5.0);

  const std::string text = obs::metrics().to_json();
  json::JsonValue root;
  std::string err;
  ASSERT_TRUE(json::json_parse(text, &root, &err)) << err << "\n" << text;
  ASSERT_NE(root.find("format"), nullptr);
  EXPECT_EQ(root.find("format")->as_string(), "syndcim-metrics");
  ASSERT_NE(root.find("version"), nullptr);
  EXPECT_EQ(root.find("version")->as_number(), 1.0);

  const json::JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("dse.cache.hit"), nullptr);
  EXPECT_EQ(counters->find("dse.cache.hit")->as_number(), 7.0);

  const json::JsonValue* gauges = root.find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->find("compile.rss.peak_kb"), nullptr);
  EXPECT_EQ(gauges->find("compile.rss.peak_kb")->as_number(), 12345.0);

  const json::JsonValue* hists = root.find("histograms");
  ASSERT_NE(hists, nullptr);
  const json::JsonValue* hd = hists->find("dse.pool.queue_depth");
  ASSERT_NE(hd, nullptr);
  ASSERT_NE(hd->find("bounds"), nullptr);
  ASSERT_EQ(hd->find("bounds")->size(), 2u);
  ASSERT_NE(hd->find("counts"), nullptr);
  ASSERT_EQ(hd->find("counts")->size(), 3u);
  EXPECT_EQ(hd->find("counts")->at(0).as_number(), 1.0);
  EXPECT_EQ(hd->find("counts")->at(2).as_number(), 1.0);
  ASSERT_NE(hd->find("count"), nullptr);
  EXPECT_EQ(hd->find("count")->as_number(), 2.0);
}

TEST_F(ObsTest, EmptyRegistryJsonIsWellFormed) {
  const std::string text = obs::metrics().to_json();
  json::JsonValue root;
  std::string err;
  ASSERT_TRUE(json::json_parse(text, &root, &err)) << err << "\n" << text;
  ASSERT_NE(root.find("counters"), nullptr);
  EXPECT_TRUE(root.find("counters")->members().empty());
}

// ---------------------------------------------------------------------------
// Phase timelines
// ---------------------------------------------------------------------------

TEST_F(ObsTest, PhaseTimelineRecordsOrderedPhases) {
  obs::PhaseTimeline tl;
  {
    obs::PhaseScope a(tl, "rtlgen");
  }
  {
    obs::PhaseScope b(tl, "sta");
  }
  ASSERT_EQ(tl.phases.size(), 2u);
  EXPECT_EQ(tl.phases[0].name, "rtlgen");
  EXPECT_EQ(tl.phases[1].name, "sta");
  EXPECT_GE(tl.phases[1].start_ms, tl.phases[0].start_ms);
  EXPECT_GE(tl.phases[0].dur_ms, 0.0);
  ASSERT_NE(tl.find("sta"), nullptr);
  EXPECT_EQ(tl.find("nope"), nullptr);
#if defined(__linux__)
  EXPECT_GT(tl.phases[0].rss_peak_kb, 0);
#endif

  // Timeline JSON parses and carries the recorded names.
  json::JsonValue root;
  std::string err;
  ASSERT_TRUE(json::json_parse(tl.to_json(), &root, &err))
      << err << "\n" << tl.to_json();
  ASSERT_TRUE(root.is_array());
  ASSERT_EQ(root.size(), 2u);
  EXPECT_EQ(root.at(0).find("name")->as_string(), "rtlgen");
  EXPECT_EQ(root.at(1).find("name")->as_string(), "sta");
}

TEST_F(ObsTest, PhaseScopeEmitsTraceSpanWhenEnabled) {
  obs::set_enabled(true);
  obs::PhaseTimeline tl;
  {
    obs::PhaseScope p(tl, "floorplan");
  }
  bool found = false;
  for (const auto& s : obs::tracer().snapshot()) {
    found = found || s.ev.name == "compile.floorplan";
  }
  EXPECT_TRUE(found);
  // The RSS gauge was refreshed by the scope.
  EXPECT_EQ(obs::metrics().gauge("compile.rss.peak_kb").value(),
            static_cast<double>(tl.phases[0].rss_peak_kb));
}
