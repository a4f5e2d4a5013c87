#include "fpm/obs/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace fpm::obs {

namespace {

/// fetch_add for atomic<double> via CAS (portable pre-C++20-TS targets).
void atomic_add(std::atomic<double>& target, double delta) noexcept {
    double seen = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(seen, seen + delta,
                                         std::memory_order_relaxed)) {
    }
}

void atomic_min(std::atomic<double>& target, double candidate) noexcept {
    double seen = target.load(std::memory_order_relaxed);
    while (candidate < seen &&
           !target.compare_exchange_weak(seen, candidate,
                                         std::memory_order_relaxed)) {
    }
}

void atomic_max(std::atomic<double>& target, double candidate) noexcept {
    double seen = target.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !target.compare_exchange_weak(seen, candidate,
                                         std::memory_order_relaxed)) {
    }
}

} // namespace

std::size_t Histogram::bucket_of(double value) noexcept {
    if (!std::isfinite(value) || value <= kReference) {
        return 0;
    }
    const double octaves = std::log2(value / kReference);
    const auto bucket = static_cast<std::size_t>(
        1.0 + octaves * static_cast<double>(kBucketsPerOctave));
    return bucket >= kBuckets ? kBuckets - 1 : bucket;
}

double Histogram::bucket_midpoint(std::size_t bucket) noexcept {
    if (bucket == 0) {
        return kReference;
    }
    // Geometric midpoint of [2^((b-1)/8), 2^(b/8)) times the reference.
    const double octaves = (static_cast<double>(bucket) - 0.5) /
                           static_cast<double>(kBucketsPerOctave);
    return kReference * std::exp2(octaves);
}

void Histogram::record(double value) noexcept {
    buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    const double clean = std::isfinite(value) && value > 0.0 ? value : 0.0;
    atomic_add(sum_, clean);
    count_.fetch_add(1, std::memory_order_relaxed);
    // CAS only, from +inf/0: a plain store seeding the first observation
    // could overwrite an extreme a racing second observation published.
    atomic_min(min_, clean);
    atomic_max(max_, clean);
}

HistogramSnapshot Histogram::snapshot() const {
    HistogramSnapshot snap;
    std::uint64_t per_bucket[kBuckets];
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        per_bucket[i] = buckets_[i].load(std::memory_order_relaxed);
        total += per_bucket[i];
    }
    snap.count = total;
    snap.sum = sum_.load(std::memory_order_relaxed);
    if (total == 0) {
        return snap;
    }
    snap.max = max_.load(std::memory_order_relaxed);
    // A racing record() may have bumped its bucket but not yet min_.
    snap.min = std::min(min_.load(std::memory_order_relaxed), snap.max);

    const auto quantile = [&](double q) {
        const auto rank = static_cast<std::uint64_t>(
            q * static_cast<double>(total - 1));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            seen += per_bucket[i];
            if (seen > rank) {
                double value = bucket_midpoint(i);
                // The observed extremes are exact; clamp the bucket
                // estimate into them.
                value = std::max(value, snap.min);
                value = std::min(value, snap.max);
                return value;
            }
        }
        return snap.max;
    };
    snap.p50 = quantile(0.50);
    snap.p95 = quantile(0.95);
    snap.p99 = quantile(0.99);
    snap.p999 = quantile(0.999);
    return snap;
}

void Histogram::reset() noexcept {
    for (auto& bucket : buckets_) {
        bucket.store(0, std::memory_order_relaxed);
    }
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(kEmptyMin, std::memory_order_relaxed);
    max_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::global() {
    static MetricsRegistry instance;
    return instance;
}

Counter& MetricsRegistry::counter(std::string_view name) {
    std::lock_guard lock(mutex_);
    const auto it = counters_.find(name);
    if (it != counters_.end()) {
        return *it->second;
    }
    return *counters_.emplace(std::string(name), std::make_unique<Counter>())
                .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
    std::lock_guard lock(mutex_);
    const auto it = gauges_.find(name);
    if (it != gauges_.end()) {
        return *it->second;
    }
    return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
                .first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
    std::lock_guard lock(mutex_);
    const auto it = histograms_.find(name);
    if (it != histograms_.end()) {
        return *it->second;
    }
    return *histograms_.emplace(std::string(name), std::make_unique<Histogram>())
                .first->second;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
    std::lock_guard lock(mutex_);
    Snapshot snap;
    for (const auto& [name, counter] : counters_) {
        snap.counters.emplace(name, counter->value());
    }
    for (const auto& [name, gauge] : gauges_) {
        snap.gauges.emplace(name, gauge->value());
    }
    for (const auto& [name, histogram] : histograms_) {
        snap.histograms.emplace(name, histogram->snapshot());
    }
    return snap;
}

void MetricsRegistry::reset_values() {
    std::lock_guard lock(mutex_);
    for (const auto& entry : counters_) {
        entry.second->reset();
    }
    for (const auto& entry : gauges_) {
        entry.second->reset();
    }
    for (const auto& entry : histograms_) {
        entry.second->reset();
    }
}

} // namespace fpm::obs
