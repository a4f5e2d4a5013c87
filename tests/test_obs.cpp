// Tests for fpm::obs — metrics primitives (counter, gauge, log-bucket
// histogram), the process-global registry under a 16-thread hammer, and
// the span tracer's Chrome trace_event JSON export (round-trip through a
// minimal parser, including nesting of child spans inside parents).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fpm/obs/metrics.hpp"
#include "fpm/obs/trace.hpp"
#include "stress_harness.hpp"

namespace fpm::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal Chrome-trace reader: enough JSON to round-trip our exporter.
// ---------------------------------------------------------------------------

struct ParsedEvent {
    std::string name;
    std::string ph;
    double ts = 0.0;   // microseconds
    double dur = 0.0;  // microseconds
    std::int64_t tid = -1;
    bool has_arg = false;
    std::uint64_t arg = 0;
};

/// Extracts the string value following `"key":` inside `object`.
std::string string_field(const std::string& object, const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    const auto at = object.find(needle);
    if (at == std::string::npos) {
        return {};
    }
    auto from = object.find('"', at + needle.size());
    EXPECT_NE(from, std::string::npos) << object;
    ++from;
    const auto to = object.find('"', from);
    EXPECT_NE(to, std::string::npos) << object;
    return object.substr(from, to - from);
}

double number_field(const std::string& object, const std::string& key,
                    double fallback) {
    const std::string needle = "\"" + key + "\":";
    const auto at = object.find(needle);
    if (at == std::string::npos) {
        return fallback;
    }
    return std::strtod(object.c_str() + at + needle.size(), nullptr);
}

/// Splits the traceEvents array into top-level `{...}` objects and
/// decodes the fields our exporter writes.  EXPECT-fails on anything
/// structurally off (unterminated array/object, missing fields).
std::vector<ParsedEvent> parse_chrome_trace(const std::string& json) {
    std::vector<ParsedEvent> events;
    const auto array_at = json.find("\"traceEvents\":[");
    EXPECT_NE(array_at, std::string::npos) << json.substr(0, 200);
    if (array_at == std::string::npos) {
        return events;
    }
    std::size_t i = array_at + std::string("\"traceEvents\":[").size();
    int depth = 0;
    std::size_t object_start = 0;
    for (; i < json.size(); ++i) {
        const char ch = json[i];
        if (ch == '{') {
            if (depth++ == 0) {
                object_start = i;
            }
        } else if (ch == '}') {
            EXPECT_GT(depth, 0);
            if (--depth == 0) {
                const std::string object =
                    json.substr(object_start, i - object_start + 1);
                ParsedEvent event;
                event.name = string_field(object, "name");
                event.ph = string_field(object, "ph");
                event.ts = number_field(object, "ts", -1.0);
                event.dur = number_field(object, "dur", -1.0);
                event.tid =
                    static_cast<std::int64_t>(number_field(object, "tid", -1.0));
                event.has_arg = object.find("\"args\"") != std::string::npos;
                if (event.has_arg) {
                    event.arg = static_cast<std::uint64_t>(
                        number_field(object, "v", 0.0));
                }
                events.push_back(std::move(event));
            }
        } else if (ch == ']' && depth == 0) {
            return events;  // end of traceEvents
        }
    }
    ADD_FAILURE() << "unterminated traceEvents array";
    return events;
}

// ---------------------------------------------------------------------------
// Metrics primitives
// ---------------------------------------------------------------------------

TEST(CounterTest, AddsAndResets) {
    Counter counter;
    EXPECT_EQ(counter.value(), 0U);
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42U);
    counter.reset();
    EXPECT_EQ(counter.value(), 0U);
}

TEST(GaugeTest, TracksLevelAndHighWatermark) {
    Gauge gauge;
    gauge.set(5);
    gauge.add(3);
    EXPECT_EQ(gauge.value(), 8);
    EXPECT_EQ(gauge.max(), 8);
    gauge.add(-6);
    EXPECT_EQ(gauge.value(), 2);
    EXPECT_EQ(gauge.max(), 8);  // watermark sticks
    gauge.reset();
    EXPECT_EQ(gauge.value(), 0);
    EXPECT_EQ(gauge.max(), 0);
}

TEST(HistogramTest, QuantilesWithinLogBucketError) {
    Histogram histogram;
    EXPECT_EQ(histogram.snapshot().count, 0U);

    // 1..1000 microseconds, uniformly: p50 ~ 500us, p95 ~ 950us.
    for (int i = 1; i <= 1000; ++i) {
        histogram.record(static_cast<double>(i) * 1e-6);
    }
    const HistogramSnapshot snapshot = histogram.snapshot();
    EXPECT_EQ(snapshot.count, 1000U);
    EXPECT_DOUBLE_EQ(snapshot.min, 1e-6);
    EXPECT_DOUBLE_EQ(snapshot.max, 1e-3);
    EXPECT_NEAR(snapshot.sum, 500.5 * 1e-3, 1e-9);
    // Log buckets guarantee <= ~9% relative error per observation.
    EXPECT_NEAR(snapshot.p50, 500e-6, 0.1 * 500e-6);
    EXPECT_NEAR(snapshot.p95, 950e-6, 0.1 * 950e-6);
    EXPECT_NEAR(snapshot.p99, 990e-6, 0.1 * 990e-6);
    EXPECT_LE(snapshot.p50, snapshot.p95);
    EXPECT_LE(snapshot.p95, snapshot.p99);

    histogram.reset();
    EXPECT_EQ(histogram.snapshot().count, 0U);
}

TEST(HistogramTest, ClampsPathologicalValues) {
    Histogram histogram;
    histogram.record(0.0);
    histogram.record(-3.0);
    histogram.record(std::nan(""));
    histogram.record(1e12);  // beyond the top octave
    const HistogramSnapshot snapshot = histogram.snapshot();
    EXPECT_EQ(snapshot.count, 4U);
    // Quantiles stay inside the observed [min, max] window.
    EXPECT_GE(snapshot.p99, snapshot.min);
    EXPECT_LE(snapshot.p99, snapshot.max);
}

TEST(HistogramTest, SingleValueQuantilesAreExact) {
    Histogram histogram;
    histogram.record(0.125);
    const HistogramSnapshot snapshot = histogram.snapshot();
    // min/max clamping makes a single observation exact.
    EXPECT_DOUBLE_EQ(snapshot.p50, 0.125);
    EXPECT_DOUBLE_EQ(snapshot.p99, 0.125);
}

TEST(MetricsRegistryTest, StableReferencesAndSnapshot) {
    auto& registry = MetricsRegistry::global();
    Counter& counter = registry.counter("test.obs.registry.counter");
    Gauge& gauge = registry.gauge("test.obs.registry.gauge");
    Histogram& histogram = registry.histogram("test.obs.registry.histogram");
    counter.reset();
    gauge.reset();
    histogram.reset();

    EXPECT_EQ(&registry.counter("test.obs.registry.counter"), &counter);
    EXPECT_EQ(&registry.gauge("test.obs.registry.gauge"), &gauge);
    EXPECT_EQ(&registry.histogram("test.obs.registry.histogram"), &histogram);

    counter.add(7);
    gauge.set(9);
    histogram.record(0.5);
    const auto snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.counters.at("test.obs.registry.counter"), 7U);
    EXPECT_EQ(snapshot.gauges.at("test.obs.registry.gauge"), 9);
    EXPECT_EQ(snapshot.histograms.at("test.obs.registry.histogram").count, 1U);
}

// The concurrency suite (also run under sanitizers / -L stress): 16
// threads hammer one counter, one gauge, one histogram and the registry
// lookup path; totals must come out exact for the counted instruments.
TEST(ObsStress, SixteenThreadMetricsHammer) {
    auto& registry = MetricsRegistry::global();
    Counter& counter = registry.counter("test.obs.hammer.counter");
    Gauge& gauge = registry.gauge("test.obs.hammer.gauge");
    Histogram& histogram = registry.histogram("test.obs.hammer.histogram");
    counter.reset();
    gauge.reset();
    histogram.reset();

    constexpr std::size_t kThreads = 16;
    constexpr std::size_t kOpsPerThread = 20'000;
    fpm::test::run_concurrently(kThreads, [&](std::size_t t) {
        for (std::size_t i = 0; i < kOpsPerThread; ++i) {
            counter.add();
            gauge.add(1);
            gauge.add(-1);
            histogram.record(1e-6 * static_cast<double>(1 + (i + t) % 1000));
            // Lookup path under contention must return the same instrument.
            if (i % 256 == 0) {
                EXPECT_EQ(&registry.counter("test.obs.hammer.counter"),
                          &counter);
            }
        }
    });

    EXPECT_EQ(counter.value(), kThreads * kOpsPerThread);
    EXPECT_EQ(gauge.value(), 0);
    EXPECT_GE(gauge.max(), 1);
    const auto snapshot = histogram.snapshot();
    EXPECT_EQ(snapshot.count, kThreads * kOpsPerThread);
    EXPECT_GE(snapshot.p50, snapshot.min);
    EXPECT_LE(snapshot.p99, snapshot.max);
}

// The first observations of a fresh histogram race each other: every
// extreme published by one thread must survive the others, so min/max
// equal the true extremes in every round.  The threads move through the
// rounds in lockstep (a spin barrier), so they collide on each fresh
// histogram.
TEST(ObsStress, FirstObservationsKeepTheTrueExtremes) {
    constexpr std::size_t kThreads = 16;
    constexpr std::size_t kRounds = 1000;
    std::vector<Histogram> histograms(kRounds);
    std::atomic<std::size_t> arrived{0};
    fpm::test::run_concurrently(kThreads, [&](std::size_t t) {
        for (std::size_t r = 0; r < kRounds; ++r) {
            arrived.fetch_add(1);
            while (arrived.load() < (r + 1) * kThreads) {
                std::this_thread::yield();
            }
            histograms[r].record(1e-3 * static_cast<double>(t + 1));
        }
    });

    for (std::size_t r = 0; r < kRounds; ++r) {
        const auto snapshot = histograms[r].snapshot();
        ASSERT_EQ(snapshot.count, kThreads) << r;
        EXPECT_EQ(snapshot.min, 1e-3) << r;
        EXPECT_EQ(snapshot.max, 1e-3 * static_cast<double>(kThreads)) << r;
    }
    const HistogramSnapshot empty = Histogram{}.snapshot();
    EXPECT_EQ(empty.min, 0.0);
    EXPECT_EQ(empty.max, 0.0);
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

TEST(SpanTest, DisabledTracingRecordsNothing) {
    disable_tracing();
    const std::uint64_t dropped_before = trace_events_dropped();
    {
        Span span("test.obs.disabled");
    }
    std::ostringstream out;
    write_chrome_trace(out);
    EXPECT_EQ(out.str().find("test.obs.disabled"), std::string::npos);
    EXPECT_EQ(trace_events_dropped(), dropped_before);
}

TEST(SpanTest, ChromeTraceJsonRoundTripsWithNesting) {
    enable_tracing("/tmp/fpmpart_test_obs_trace.json");
    {
        Span parent("test.obs.parent", 64);
        for (int i = 0; i < 3; ++i) {
            Span child("test.obs.child");
        }
    }
    disable_tracing();

    std::ostringstream out;
    const std::size_t written = write_chrome_trace(out);
    EXPECT_GE(written, 4U);
    const std::string json = out.str();
    const auto events = parse_chrome_trace(json);
    EXPECT_EQ(events.size(), written);

    const ParsedEvent* parent = nullptr;
    std::vector<const ParsedEvent*> children;
    for (const auto& event : events) {
        EXPECT_EQ(event.ph, "X") << event.name;  // complete events only
        EXPECT_GE(event.ts, 0.0) << event.name;
        EXPECT_GE(event.dur, 0.0) << event.name;
        EXPECT_GE(event.tid, 0) << event.name;
        if (event.name == "test.obs.parent") {
            parent = &event;
        } else if (event.name == "test.obs.child") {
            children.push_back(&event);
        }
    }
    ASSERT_NE(parent, nullptr);
    ASSERT_EQ(children.size(), 3U);
    EXPECT_TRUE(parent->has_arg);
    EXPECT_EQ(parent->arg, 64U);

    // Nesting: every child interval lies inside the parent interval, on
    // the same thread, and the parent is at least as long as each child.
    for (const ParsedEvent* child : children) {
        EXPECT_EQ(child->tid, parent->tid);
        EXPECT_GE(child->ts, parent->ts);
        EXPECT_LE(child->ts + child->dur, parent->ts + parent->dur + 1e-3);
        EXPECT_LE(child->dur, parent->dur);
    }
}

TEST(SpanTest, FlushWritesConfiguredPath) {
    const std::string path = "/tmp/fpmpart_test_obs_flush.json";
    std::remove(path.c_str());
    enable_tracing(path);
    {
        Span span("test.obs.flush");
    }
    const std::size_t written = flush_trace();
    disable_tracing();
    EXPECT_GE(written, 1U);

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("test.obs.flush"), std::string::npos);
    std::remove(path.c_str());
}

// 16 threads record spans concurrently while one flusher repeatedly
// exports — the tracer's release/acquire publication must keep this
// clean under TSan (ctest -L stress).
TEST(ObsStress, SixteenThreadSpanHammerWithConcurrentFlush) {
    enable_tracing("/tmp/fpmpart_test_obs_span_hammer.json");
    std::atomic<bool> stop{false};
    std::thread flusher([&stop]() {
        while (!stop.load(std::memory_order_relaxed)) {
            std::ostringstream sink;
            write_chrome_trace(sink);
        }
    });

    constexpr std::size_t kThreads = 16;
    constexpr std::size_t kSpansPerThread = 2'000;
    fpm::test::run_concurrently(kThreads, [&](std::size_t t) {
        for (std::size_t i = 0; i < kSpansPerThread; ++i) {
            Span span("test.obs.hammer.span", t);
        }
    });
    stop.store(true, std::memory_order_relaxed);
    flusher.join();
    disable_tracing();

    std::ostringstream out;
    write_chrome_trace(out);
    const auto events = parse_chrome_trace(out.str());
    std::size_t hammer_events = 0;
    for (const auto& event : events) {
        if (event.name == "test.obs.hammer.span") {
            ++hammer_events;
        }
    }
    // Everything recorded (or accounted for as dropped on full buffers).
    EXPECT_GE(hammer_events + trace_events_dropped(),
              kThreads * kSpansPerThread);
}

} // namespace
} // namespace fpm::obs
