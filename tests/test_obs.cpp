#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace ipso::obs {
namespace {

/// Every test runs with the global switch restored afterwards: the rest of
/// the suite must observe obs disabled (the default).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    MetricsRegistry::global().reset();
    Tracer::global().clear();
  }
  void TearDown() override {
    set_enabled(false);
    MetricsRegistry::global().reset();
    Tracer::global().clear();
  }
};

TEST_F(ObsTest, CounterAccumulates) {
  const Counter c("test.counter.basic");
  c.add();
  c.add(2.5);
  const auto snap = MetricsRegistry::global().snapshot();
  ASSERT_TRUE(snap.counters.count("test.counter.basic"));
  EXPECT_DOUBLE_EQ(snap.counters.at("test.counter.basic"), 3.5);
}

TEST_F(ObsTest, GaugeIsLastWriteWins) {
  const Gauge g("test.gauge.basic");
  g.set(10.0);
  g.set(4.0);
  const auto snap = MetricsRegistry::global().snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.gauge.basic"), 4.0);
}

TEST_F(ObsTest, HistogramCountsSumAndQuantiles) {
  const Histogram h("test.hist.basic");
  for (int i = 0; i < 100; ++i) h.observe(1.0);  // all in one bucket
  const auto snap = MetricsRegistry::global().snapshot();
  const HistogramStats& s = snap.histograms.at("test.hist.basic");
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.sum, 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 1.0);
  // Bucket-midpoint resolution: the quantile lands in [1, 2).
  EXPECT_GE(s.quantile(0.5), 1.0);
  EXPECT_LT(s.quantile(0.5), 2.0);
}

TEST_F(ObsTest, SameNameYieldsSameInstrument) {
  const Counter a("test.counter.shared");
  const Counter b("test.counter.shared");
  a.add(1.0);
  b.add(2.0);
  const auto snap = MetricsRegistry::global().snapshot();
  EXPECT_DOUBLE_EQ(snap.counters.at("test.counter.shared"), 3.0);
}

TEST_F(ObsTest, UpdatesAreDroppedWhileDisabled) {
  const Counter c("test.counter.gated");
  set_enabled(false);
  c.add(100.0);
  set_enabled(true);
  c.add(1.0);
  const auto snap = MetricsRegistry::global().snapshot();
  EXPECT_DOUBLE_EQ(snap.counters.at("test.counter.gated"), 1.0);
}

TEST_F(ObsTest, ConcurrentCountersMergeExactly) {
  // Thread-local shards: concurrent adds of integers must merge without
  // loss (each shard is only written by its owner).
  const Counter c("test.counter.mt");
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add(1.0);
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = MetricsRegistry::global().snapshot();
  EXPECT_DOUBLE_EQ(snap.counters.at("test.counter.mt"),
                   static_cast<double>(kThreads) * kAdds);
}

TEST_F(ObsTest, RegistryCapReturnsInvalidInstrument) {
  MetricsRegistry reg;
  std::size_t last = 0;
  for (std::size_t i = 0; i < kMaxGauges; ++i) {
    std::string name = "g";
    name += std::to_string(i);
    last = reg.gauge_id(name);
    EXPECT_NE(last, kInvalidInstrument);
  }
  EXPECT_EQ(reg.gauge_id("one-too-many"), kInvalidInstrument);
  // Updates against the sentinel must be safely ignored.
  reg.gauge_set(kInvalidInstrument, 1.0);
}

TEST_F(ObsTest, ScopedSpanLandsOnThreadTrack) {
  { ScopedSpan span("unit span", "test"); }
  const auto spans = Tracer::global().spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "unit span");
  EXPECT_EQ(spans[0].category, "test");
  EXPECT_GE(spans[0].end_us, spans[0].start_us);
  const auto tracks = Tracer::global().tracks();
  ASSERT_LT(spans[0].track, tracks.size());
  EXPECT_FALSE(tracks[spans[0].track].simulated);
}

TEST_F(ObsTest, SimulatedSpanUsesCallerTimestamps) {
  const std::uint32_t track = make_sim_track("sim-track");
  ASSERT_NE(track, Tracer::kInvalidTrack);
  record_span(track, "sim span", "test", 1.5, 2.5, "\"attr\":\"Wp\"");
  const auto spans = Tracer::global().spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].start_us, 1.5e6);
  EXPECT_DOUBLE_EQ(spans[0].end_us, 2.5e6);
  EXPECT_TRUE(Tracer::global().tracks()[track].simulated);
}

TEST_F(ObsTest, RingOverwritesOldestAndCountsDrops) {
  Tracer small(4);
  const SpanRecord base{"s", "t", "", 0, 0.0, 1.0};
  for (int i = 0; i < 6; ++i) {
    SpanRecord rec = base;  // named "s"
    rec.name += std::to_string(i);
    small.record(rec);
  }
  const auto spans = small.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().name, "s2");  // s0, s1 overwritten
  EXPECT_EQ(spans.back().name, "s5");
  EXPECT_EQ(small.dropped(), 2u);
}

TEST_F(ObsTest, ChromeTraceIsWellFormedAndMonotone) {
  const std::uint32_t track = make_sim_track("job");
  record_span(track, "stage b", "test", 1.0, 2.0);
  record_span(track, "stage a", "test", 0.0, 1.0);
  record_span(track, "whole job", "test", 0.0, 2.0);
  { ScopedSpan span("real work", "test"); }

  const std::string json = chrome_trace_json();
  // Structural spot-checks (the CI validator parses it for real).
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);

  // B/E balance per event stream: count markers.
  const auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"B\""), count("\"ph\":\"E\""));
  EXPECT_EQ(count("\"ph\":\"B\""), 4u);
}

TEST_F(ObsTest, MetricsExportersIncludeEveryKind) {
  Counter("test.exp.counter").add(2.0);
  Gauge("test.exp.gauge").set(7.0);
  Histogram("test.exp.hist").observe(0.5);
  const auto snap = MetricsRegistry::global().snapshot();

  const std::string json = metrics_json(snap);
  EXPECT_NE(json.find("test.exp.counter"), std::string::npos);
  EXPECT_NE(json.find("test.exp.gauge"), std::string::npos);
  EXPECT_NE(json.find("test.exp.hist"), std::string::npos);

  const std::string csv = metrics_csv(snap);
  EXPECT_NE(csv.find("counter,test.exp.counter"), std::string::npos);
  EXPECT_NE(csv.find("gauge,test.exp.gauge"), std::string::npos);
  EXPECT_NE(csv.find("histogram,test.exp.hist"), std::string::npos);
}

TEST_F(ObsTest, ResetClearsValuesButKeepsNames) {
  const Counter c("test.counter.reset");
  c.add(5.0);
  MetricsRegistry::global().reset();
  c.add(1.0);  // handle id survives the reset
  const auto snap = MetricsRegistry::global().snapshot();
  EXPECT_DOUBLE_EQ(snap.counters.at("test.counter.reset"), 1.0);
}

TEST(ObsDisabled, TraceSessionWithEmptyPathIsInert) {
  {
    TraceSession session{std::string()};
    EXPECT_FALSE(session.active());
    EXPECT_FALSE(enabled());
  }
  EXPECT_FALSE(enabled());
}

}  // namespace
}  // namespace ipso::obs
