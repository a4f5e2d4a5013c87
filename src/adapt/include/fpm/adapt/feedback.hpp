/// \file feedback.hpp
/// \brief Streaming accumulation of served-execution samples.
///
/// The paper builds FPMs from offline sweeps that repeat each point
/// "until the results are statistically reliable"; the ingestor applies
/// the same bar to runtime feedback.  Samples are bucketed per (device,
/// geometric size-region), each bucket keeps Welford streaming stats of
/// the observed speed s = x / t, and a bucket is *reliable* once it
/// meets measure::is_reliable — at which point the refiner may fold its
/// mean into the model and the bucket is consumed (bounded staleness:
/// evidence never lingers half-used).
#pragma once

#include <cstdint>
#include <map>

#include "fpm/adapt/adapt_config.hpp"
#include "fpm/measure/reliable.hpp"

namespace fpm::adapt {

/// One (device, size-region) accumulation bucket.
struct BucketKey {
    std::int64_t device = 0;
    std::int64_t region = 0;  ///< floor(log(x) / log(1 + resolution))

    auto operator<=>(const BucketKey&) const = default;
};

/// Outcome of ingesting one sample.
struct IngestResult {
    BucketKey key;
    std::uint64_t samples = 0;  ///< bucket sample count after this add
    bool reliable = false;      ///< bucket meets the CI criterion now
    bool forced = false;        ///< accepted only because max_samples hit
    double x = 0.0;             ///< bucket mean problem size
    double speed = 0.0;         ///< bucket mean observed speed
};

/// See file comment.  Not thread-safe: AdaptEngine serialises access.
class FeedbackIngestor {
public:
    /// Throws fpm::Error on inconsistent config (min > max, non-positive
    /// resolution/target, zero bucket budget).
    explicit FeedbackIngestor(const AdaptConfig& config);

    /// Ingests one measurement (x > 0 blocks in `seconds` > 0 wall time,
    /// with a finite positive speed x / seconds; fpm::Error otherwise)
    /// and reports the owning bucket's state.  When the bucket budget is
    /// exhausted the bucket with the least evidence is dropped first.
    IngestResult add(std::int64_t device, double problem_size,
                     double seconds);

    /// Drops a bucket after its mean was folded into the model, so the
    /// next window accumulates fresh evidence.
    void consume(const BucketKey& key);

    [[nodiscard]] std::size_t buckets() const noexcept {
        return buckets_.size();
    }
    [[nodiscard]] std::uint64_t total_samples() const noexcept {
        return total_;
    }

    /// Forgets everything (a hot reload invalidated the evidence).
    void clear();

private:
    struct Bucket {
        measure::RunningStats speed;
        measure::RunningStats size;
    };

    AdaptConfig config_;
    measure::ReliabilityOptions reliability_;
    std::map<BucketKey, Bucket> buckets_;
    std::uint64_t total_ = 0;
};

} // namespace fpm::adapt
