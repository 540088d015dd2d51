// Observability-layer unit suite: the metrics registry's typed accessors,
// the latency histogram's clamping buckets and value sum, the span tracer's
// aggregate timings + bounded event ring, the NullSpanTracer compile-away
// contract, and the DiagnosticsReport JSON emitter (its exact bytes are
// pinned, so every finite double must print in full precision).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/diagnostics.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "sca/report.hpp"

using namespace reveal;
using namespace reveal::obs;

namespace {

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(ObsRegistry, CounterGetOrRegisterAndAdd) {
  Registry reg;
  const Registry::Id a = reg.counter("segmentation.retries");
  const Registry::Id again = reg.counter("segmentation.retries");
  EXPECT_EQ(a, again);  // get-or-register: one entry per name
  reg.add(a);
  reg.add(a, 41);
  EXPECT_EQ(reg.counter_value("segmentation.retries"), 42u);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_TRUE(reg.contains("segmentation.retries"));
  EXPECT_FALSE(reg.contains("segmentation.retriez"));
  EXPECT_EQ(reg.kind("segmentation.retries"), MetricKind::kCounter);
}

TEST(ObsRegistry, GaugeKeepsMaximum) {
  Registry reg;
  const Registry::Id g = reg.gauge("capture.trace_samples.max");
  reg.set_max(g, 100.0);
  reg.set_max(g, 50.0);  // smaller value must not shrink the gauge
  EXPECT_EQ(reg.gauge_value("capture.trace_samples.max"), 100.0);
  reg.set_max(g, 250.0);
  EXPECT_EQ(reg.gauge_value("capture.trace_samples.max"), 250.0);
}

TEST(ObsRegistry, GaugeMaxOfNegativesIsNotZero) {
  // gauge_set must distinguish "never set" from max == 0: a gauge fed only
  // negative values reports the largest of them, not a phantom zero.
  Registry reg;
  const Registry::Id g = reg.gauge("drift.max");
  reg.set_max(g, -5.0);
  reg.set_max(g, -9.0);
  EXPECT_EQ(reg.gauge_value("drift.max"), -5.0);
}

TEST(ObsRegistry, HistogramBucketsClampAtTheEdges) {
  Registry reg;
  const Registry::Id h = reg.histogram("quality", 0.0, 1.0, 4);
  reg.observe(h, -3.0);   // below lo -> first bucket
  reg.observe(h, 0.0);    // lo -> first bucket
  reg.observe(h, 0.30);   // second bucket [0.25, 0.5)
  reg.observe(h, 0.99);   // last bucket
  reg.observe(h, 1.0);    // hi is outside the half-open range -> clamps last
  reg.observe(h, 7.0);    // above hi -> last bucket
  const LatencyHistogram& hist = reg.histogram_values("quality");
  EXPECT_EQ(hist.counts(), (std::vector<std::uint64_t>{2, 1, 0, 3}));
  EXPECT_EQ(hist.total(), 6u);
  // The compensated sum may differ from the naive left-to-right float sum
  // in the last ulp.
  EXPECT_DOUBLE_EQ(hist.sum(), -3.0 + 0.0 + 0.30 + 0.99 + 1.0 + 7.0);
}

TEST(ObsRegistry, HistogramSumExcludesNonFinite) {
  LatencyHistogram hist(0.0, 1.0, 4);
  hist.add(0.5);
  hist.add(std::numeric_limits<double>::quiet_NaN());
  hist.add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(hist.total(), 3u);  // every observation is still counted...
  EXPECT_EQ(hist.sum(), 0.5);   // ...but only finite values enter the sum
}

TEST(ObsRegistry, HistogramCountsNaNInFirstBucket) {
  // A NaN observation (e.g. a quality score from a degenerate segment) must
  // still be *counted* — silently dropping it would desynchronize the
  // histogram total from the attempt counters.
  LatencyHistogram hist(0.0, 1.0, 8);
  hist.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(hist.count(0), 1u);
  EXPECT_EQ(hist.total(), 1u);
}

TEST(ObsRegistry, KindConflictThrows) {
  Registry reg;
  (void)reg.counter("x");
  EXPECT_THROW((void)reg.gauge("x"), std::logic_error);
  EXPECT_THROW((void)reg.histogram("x", 0.0, 1.0, 4), std::logic_error);
  EXPECT_THROW((void)reg.gauge_value("x"), std::logic_error);
  EXPECT_THROW((void)reg.counter_value("nonexistent"), std::out_of_range);
}

TEST(ObsRegistry, HistogramRelayoutThrows) {
  Registry reg;
  (void)reg.histogram("h", 0.0, 1.0, 10);
  EXPECT_NO_THROW((void)reg.histogram("h", 0.0, 1.0, 10));  // same layout: fine
  EXPECT_THROW((void)reg.histogram("h", 0.0, 2.0, 10), std::logic_error);
  EXPECT_THROW((void)reg.histogram("h", 0.0, 1.0, 5), std::logic_error);
}

TEST(ObsRegistry, NamesAreSortedRegardlessOfRegistrationOrder) {
  Registry reg;
  (void)reg.counter("zeta");
  (void)reg.counter("alpha");
  (void)reg.gauge("mid");
  (void)reg.counter("beta");
  EXPECT_EQ(reg.names(MetricKind::kCounter),
            (std::vector<std::string>{"alpha", "beta", "zeta"}));
  EXPECT_EQ(reg.names(MetricKind::kGauge), (std::vector<std::string>{"mid"}));
}

// ---------------------------------------------------------------------------
// SpanTracer
// ---------------------------------------------------------------------------

TEST(ObsSpanTracer, RecordAggregatesPerStage) {
  SpanTracer tracer;
  tracer.record(Stage::kSegmentation, 0, 100, 150);  // 50 ns
  tracer.record(Stage::kSegmentation, 1, 200, 230);  // 30 ns
  tracer.record(Stage::kSegmentation, 2, 300, 380);  // 80 ns
  const StageTiming& t = tracer.timing(Stage::kSegmentation);
  EXPECT_EQ(t.count, 3u);
  EXPECT_EQ(t.total_ns, 160u);
  EXPECT_EQ(t.min_ns, 30u);
  EXPECT_EQ(t.max_ns, 80u);
  EXPECT_EQ(tracer.timing(Stage::kCapture).count, 0u);
}

TEST(ObsSpanTracer, RingKeepsNewestEventsOldestFirst) {
  SpanTracer tracer(3);
  for (std::uint32_t i = 0; i < 5; ++i) {
    tracer.record(Stage::kCapture, i, 10 * i, 10 * i + 1);
  }
  EXPECT_EQ(tracer.dropped(), 2u);  // events 0 and 1 were overwritten
  const std::vector<SpanEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].index, 2u);
  EXPECT_EQ(events[1].index, 3u);
  EXPECT_EQ(events[2].index, 4u);
  // Aggregate timings are unaffected by ring eviction.
  EXPECT_EQ(tracer.timing(Stage::kCapture).count, 5u);
}

TEST(ObsSpanTracer, ZeroRingCapacityThrows) {
  EXPECT_THROW(SpanTracer tracer(0), std::invalid_argument);
}

TEST(ObsSpanTracer, ScopedSpanRecordsOnDestruction) {
  SpanTracer tracer;
  {
    auto span = tracer.span(Stage::kHints, 7);
    EXPECT_EQ(tracer.timing(Stage::kHints).count, 0u);  // still open
  }
  EXPECT_EQ(tracer.timing(Stage::kHints).count, 1u);
  const std::vector<SpanEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].stage, Stage::kHints);
  EXPECT_EQ(events[0].index, 7u);
  EXPECT_GE(events[0].end_ns, events[0].begin_ns);
}

TEST(ObsSpanTracer, MovedFromSpanDoesNotDoubleRecord) {
  SpanTracer tracer;
  {
    auto outer = tracer.span(Stage::kEstimation);
    auto inner = std::move(outer);
    (void)inner;
  }
  EXPECT_EQ(tracer.timing(Stage::kEstimation).count, 1u);
}

TEST(ObsSpanTracer, MergeCombinesTimingsAndReplaysEvents) {
  SpanTracer a(8);
  a.record(Stage::kCapture, 0, 0, 10);
  SpanTracer b(8);
  b.record(Stage::kCapture, 1, 100, 140);
  b.record(Stage::kClassification, 1, 140, 141);

  a.merge(b);
  EXPECT_EQ(a.timing(Stage::kCapture).count, 2u);
  EXPECT_EQ(a.timing(Stage::kCapture).total_ns, 50u);
  EXPECT_EQ(a.timing(Stage::kCapture).min_ns, 10u);
  EXPECT_EQ(a.timing(Stage::kCapture).max_ns, 40u);
  EXPECT_EQ(a.timing(Stage::kClassification).count, 1u);
  const std::vector<SpanEvent> events = a.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].index, 0u);  // own event first, then the replay
  EXPECT_EQ(events[1].index, 1u);
}

TEST(ObsSpanTracer, NullTracerIsCompileTimeOff) {
  static_assert(!NullSpanTracer::kEnabled);
  static_assert(SpanTracer::kEnabled);
  // The null span is an empty object: instrumented pipeline code
  // instantiated with NullSpanTracer carries no stores and no clock reads.
  static_assert(sizeof(NullSpanTracer::Span) == 1);
  const NullSpanTracer tracer;
  auto span = tracer.span(Stage::kSegmentation, 3);
  (void)span;
}

// ---------------------------------------------------------------------------
// DiagnosticsReport JSON
// ---------------------------------------------------------------------------

DiagnosticsReport tricky_report() {
  DiagnosticsReport r;
  r.stages.push_back({"segmentation", 3, 160, 30, 80});
  r.stages.push_back({"classification", 1, 42, 42, 42});
  r.counters.push_back({"capture.count", 48});
  r.counters.push_back({"hints.perfect", 0});
  // Doubles chosen to break a lossy emitter: a non-dyadic fraction, the
  // largest finite double, a denormal, and a negative with many digits.
  r.gauges.push_back({"g.tenth", 0.1});
  r.gauges.push_back({"g.huge", 1.7976931348623157e308});
  r.gauges.push_back({"g.denormal", 4.9406564584124654e-324});
  r.gauges.push_back({"g.negative", -123456.78901234567});
  DiagnosticsReport::HistogramRow h;
  h.name = "segmentation.window_quality";
  h.lo = 0.0;
  h.hi = 1.0;
  h.counts = {5, 0, 17, 2};
  h.sum = 13.700000000000001;
  r.histograms.push_back(h);
  r.confusion.push_back({-3, -3, 101});
  r.confusion.push_back({-3, 5, 2});
  r.confusion.push_back({0, 0, 640});
  r.dropped_events = 9;
  return r;
}

TEST(ObsDiagnostics, TrickyReportJsonBytesArePinned) {
  // The --diag files are read by other tools, so the emitter's bytes are the
  // schema: key order, layout, and %.17g doubles (shortest digits that read
  // back to the same double, exponent form at the extremes).
  EXPECT_EQ(tricky_report().to_json(), R"({
  "dropped_events": 9,
  "stages": [
    {"stage": "segmentation", "count": 3, "total_ns": 160, "min_ns": 30, "max_ns": 80},
    {"stage": "classification", "count": 1, "total_ns": 42, "min_ns": 42, "max_ns": 42}
  ],
  "counters": [
    {"name": "capture.count", "value": 48},
    {"name": "hints.perfect", "value": 0}
  ],
  "gauges": [
    {"name": "g.tenth", "value": 0.10000000000000001},
    {"name": "g.huge", "value": 1.7976931348623157e+308},
    {"name": "g.denormal", "value": 4.9406564584124654e-324},
    {"name": "g.negative", "value": -123456.78901234567}
  ],
  "histograms": [
    {"name": "segmentation.window_quality", "lo": 0, "hi": 1, "counts": [5, 0, 17, 2], "sum": 13.700000000000001}
  ],
  "confusion": [
    {"truth": -3, "predicted": -3, "count": 101},
    {"truth": -3, "predicted": 5, "count": 2},
    {"truth": 0, "predicted": 0, "count": 640}
  ]
}
)");
}

TEST(ObsDiagnostics, EmptyReportJsonBytesArePinned) {
  // Every section is present even when empty, so a reader can index the six
  // top-level keys unconditionally.
  EXPECT_EQ(DiagnosticsReport{}.to_json(), R"({
  "dropped_events": 0,
  "stages": [],
  "counters": [],
  "gauges": [],
  "histograms": [],
  "confusion": []
}
)");
}

TEST(ObsDiagnostics, MakeReportOrdersSectionsAndSkipsIdleStages) {
  Registry reg;
  reg.add(reg.counter("zeta"), 1);
  reg.add(reg.counter("alpha"), 2);
  reg.set_max(reg.gauge("peak"), 3.5);
  reg.observe(reg.histogram("q", 0.0, 1.0, 2), 0.75);

  SpanTracer tracer;
  tracer.record(Stage::kClassification, 0, 10, 25);

  sca::ConfusionMatrix cm;
  cm.add(1, 1);
  cm.add(1, -2);
  cm.add(-2, -2);

  const DiagnosticsReport report = make_report(reg, &tracer, &cm);

  // Only the stage that ran appears; rows keep pipeline order semantics.
  ASSERT_EQ(report.stages.size(), 1u);
  EXPECT_EQ(report.stages[0].stage, "classification");
  EXPECT_EQ(report.stages[0].count, 1u);
  EXPECT_EQ(report.stages[0].total_ns, 15u);

  ASSERT_EQ(report.counters.size(), 2u);
  EXPECT_EQ(report.counters[0].name, "alpha");  // name order, not registration
  EXPECT_EQ(report.counters[1].name, "zeta");

  ASSERT_EQ(report.gauges.size(), 1u);
  EXPECT_EQ(report.gauges[0].value, 3.5);

  ASSERT_EQ(report.histograms.size(), 1u);
  EXPECT_EQ(report.histograms[0].counts, (std::vector<std::uint64_t>{0, 1}));

  // Confusion rows are truth-major, zero-count cells omitted.
  ASSERT_EQ(report.confusion.size(), 3u);
  EXPECT_EQ(report.confusion[0].truth, -2);
  EXPECT_EQ(report.confusion[0].predicted, -2);
  EXPECT_EQ(report.confusion[0].count, 1u);
  EXPECT_EQ(report.confusion[1].truth, 1);
  EXPECT_EQ(report.confusion[1].predicted, -2);
  EXPECT_EQ(report.confusion[2].truth, 1);
  EXPECT_EQ(report.confusion[2].predicted, 1);

  // Null tracer / confusion leave their sections empty.
  const DiagnosticsReport bare = make_report(reg, nullptr, nullptr);
  EXPECT_TRUE(bare.stages.empty());
  EXPECT_TRUE(bare.confusion.empty());
  EXPECT_EQ(bare.counters.size(), 2u);
}

}  // namespace
