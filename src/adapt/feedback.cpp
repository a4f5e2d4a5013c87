#include "fpm/adapt/feedback.hpp"

#include <cmath>
#include <limits>

#include "fpm/common/error.hpp"

namespace fpm::adapt {

FeedbackIngestor::FeedbackIngestor(const AdaptConfig& config)
    : config_(config) {
    FPM_CHECK(config.min_samples >= 1, "min_samples must be >= 1");
    FPM_CHECK(config.max_samples >= config.min_samples,
              "max_samples must be >= min_samples");
    FPM_CHECK(config.target_relative_error > 0.0,
              "target_relative_error must be positive");
    FPM_CHECK(config.bucket_resolution > 0.0,
              "bucket_resolution must be positive");
    FPM_CHECK(config.max_buckets >= 1, "max_buckets must be >= 1");
    reliability_.min_repetitions = config.min_samples;
    reliability_.max_repetitions = config.max_samples;
    reliability_.target_relative_error = config.target_relative_error;
}

IngestResult FeedbackIngestor::add(std::int64_t device, double problem_size,
                                   double seconds) {
    FPM_CHECK(device >= 0, "device index must be non-negative");
    FPM_CHECK(problem_size > 0.0, "problem size must be positive");
    FPM_CHECK(seconds > 0.0, "measured time must be positive");
    const double speed = problem_size / seconds;
    FPM_CHECK(std::isfinite(speed) && speed > 0.0,
              "observed speed (problem size / measured time) must be finite "
              "and positive");

    const std::int64_t region = static_cast<std::int64_t>(std::floor(
        std::log(problem_size) / std::log1p(config_.bucket_resolution)));
    const BucketKey key{device, region};

    if (buckets_.find(key) == buckets_.end() &&
        buckets_.size() >= config_.max_buckets) {
        // Evidence budget: drop the thinnest bucket to admit the new one.
        auto victim = buckets_.begin();
        for (auto it = buckets_.begin(); it != buckets_.end(); ++it) {
            if (it->second.speed.count() < victim->second.speed.count()) {
                victim = it;
            }
        }
        buckets_.erase(victim);
    }

    Bucket& bucket = buckets_[key];
    bucket.speed.add(speed);
    bucket.size.add(problem_size);
    ++total_;

    IngestResult result;
    result.key = key;
    result.samples = bucket.speed.count();
    result.x = bucket.size.mean();
    result.speed = bucket.speed.mean();
    const measure::Summary summary = bucket.speed.summary();
    if (measure::is_reliable(summary, reliability_)) {
        result.reliable = true;
    } else if (summary.count >= config_.max_samples) {
        result.reliable = true;
        result.forced = true;
    }
    return result;
}

void FeedbackIngestor::consume(const BucketKey& key) { buckets_.erase(key); }

void FeedbackIngestor::clear() { buckets_.clear(); }

} // namespace fpm::adapt
