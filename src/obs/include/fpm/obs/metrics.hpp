/// \file metrics.hpp
/// \brief Low-overhead process-wide metrics: counters, gauges, histograms.
///
/// The paper's whole argument rests on measuring where time goes
/// (per-device kernel timing, contention analysis, per-process
/// profiles); this module gives the runtime and the serving stack the
/// same visibility at production cost.  Every primitive is thread-safe
/// and wait-free on the write path — a relaxed atomic increment — so the
/// hot paths (thread pool, request engine, partitioner) can stay
/// instrumented unconditionally.
///
/// Histogram uses fixed logarithmic buckets (8 per octave above a 1 ns
/// reference), so a record() is one log2 plus one relaxed increment and
/// quantile readout (p50/p95/p99) is a bucket walk with <= 9 % relative
/// error.  MetricsRegistry is the process-global name -> instrument map;
/// instrumentation sites resolve their instruments once (function-local
/// static references) and then never touch the registry lock again.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace fpm::obs {

/// Monotonically increasing event count.  Wait-free.
class Counter {
public:
    void add(std::uint64_t n = 1) noexcept {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, bytes in flight) with a
/// high-watermark.  Wait-free.
class Gauge {
public:
    void set(std::int64_t value) noexcept {
        value_.store(value, std::memory_order_relaxed);
        update_max(value);
    }
    void add(std::int64_t delta) noexcept {
        const std::int64_t now =
            value_.fetch_add(delta, std::memory_order_relaxed) + delta;
        update_max(now);
    }
    [[nodiscard]] std::int64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::int64_t max() const noexcept {
        return max_.load(std::memory_order_relaxed);
    }
    void reset() noexcept {
        value_.store(0, std::memory_order_relaxed);
        max_.store(0, std::memory_order_relaxed);
    }

private:
    void update_max(std::int64_t candidate) noexcept {
        std::int64_t seen = max_.load(std::memory_order_relaxed);
        while (candidate > seen &&
               !max_.compare_exchange_weak(seen, candidate,
                                           std::memory_order_relaxed)) {
        }
    }

    std::atomic<std::int64_t> value_{0};
    std::atomic<std::int64_t> max_{0};
};

/// Point-in-time view of a Histogram.
struct HistogramSnapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< 0 when empty
    double max = 0.0;
    double p50 = 0.0;  ///< log-bucket quantiles, <= ~9 % relative error
    double p95 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;  ///< tail quantile the load generator reports

    [[nodiscard]] double mean() const noexcept {
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
};

/// Fixed log-bucket histogram of positive values; see file comment.
/// The value unit is the caller's (name the metric accordingly, e.g.
/// "*_seconds"); the bucketed range is [1e-9, 1e-9 * 2^44) ~ 1 ns to
/// ~4.9 h when the unit is seconds, clamped at both ends.
class Histogram {
public:
    static constexpr double kReference = 1e-9;
    static constexpr std::size_t kBucketsPerOctave = 8;
    static constexpr std::size_t kOctaves = 44;
    static constexpr std::size_t kBuckets = kBucketsPerOctave * kOctaves + 1;

    /// Records one observation.  Non-finite and negative values clamp to
    /// the reference bucket.  Thread-safe, lock-free.
    void record(double value) noexcept;

    [[nodiscard]] std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }

    /// Consistent-enough view under concurrent writers (counters are read
    /// relaxed; quantiles derive from the bucket walk).
    [[nodiscard]] HistogramSnapshot snapshot() const;

    void reset() noexcept;

private:
    [[nodiscard]] static std::size_t bucket_of(double value) noexcept;
    [[nodiscard]] static double bucket_midpoint(std::size_t bucket) noexcept;

    std::atomic<std::uint64_t> buckets_[kBuckets] = {};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    /// Extremes start at the identity of their CAS loop (values are
    /// clamped to >= 0); snapshot() reports 0 for both when empty.
    static constexpr double kEmptyMin = std::numeric_limits<double>::infinity();
    std::atomic<double> min_{kEmptyMin};
    std::atomic<double> max_{0.0};
};

/// Process-global name -> instrument map.  Lookup takes a mutex; cache
/// the returned reference (instruments are never destroyed or moved for
/// the life of the process).
class MetricsRegistry {
public:
    [[nodiscard]] static MetricsRegistry& global();

    [[nodiscard]] Counter& counter(std::string_view name);
    [[nodiscard]] Gauge& gauge(std::string_view name);
    [[nodiscard]] Histogram& histogram(std::string_view name);

    /// All current instruments, by name.
    struct Snapshot {
        std::map<std::string, std::uint64_t> counters;
        std::map<std::string, std::int64_t> gauges;
        std::map<std::string, HistogramSnapshot> histograms;
    };
    [[nodiscard]] Snapshot snapshot() const;

    /// Zeroes every instrument *in place* (references stay valid) — for
    /// tests; never removes instruments.
    void reset_values();

private:
    MetricsRegistry() = default;

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

} // namespace fpm::obs
