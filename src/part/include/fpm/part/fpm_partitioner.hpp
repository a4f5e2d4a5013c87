/// \file fpm_partitioner.hpp
/// \brief FPM-based geometric data-partitioning (Lastovetsky & Reddy).
///
/// Given speed functions s_1..s_p and a total workload n, the algorithm
/// finds shares x_1..x_p with sum x_i = n such that all devices finish
/// simultaneously: x_i / s_i(x_i) = T for every device with x_i > 0.
/// Geometrically, the solution points (x_i, s_i(x_i)) lie on one straight
/// line through the origin; the algorithm bisects on the execution time T
/// (equivalently, the slope of that line).  Because each device's monotone
/// execution-time envelope x(T) is non-decreasing in T, the total assigned
/// work sum_i x_i(T) is monotone and the bisection converges to any
/// requested tolerance.
///
/// Devices with a finite maximum problem size (a GPU without out-of-core
/// support) simply saturate at that maximum; the algorithm remains correct
/// as long as the total capacity covers n, and throws otherwise.
#pragma once

#include <span>
#include <vector>

#include "fpm/part/partition.hpp"

namespace fpm::part {

/// Options for the geometric bisection.
struct FpmPartitionOptions {
    /// Relative tolerance on the assigned total: |sum x_i - n| <= tol * n.
    double tolerance = 1e-9;
    std::size_t max_iterations = 200;
    /// Grid resolution of the monotone time envelopes.
    std::size_t envelope_samples_per_segment = 8;

    /// Optional fixed per-invocation overhead of each device (seconds):
    /// device i completes x units in c_i + x / s_i(x).  A device whose
    /// overhead alone exceeds the balanced time receives nothing — the
    /// partitioner decides *whether* to use a device, not only how much
    /// to give it (e.g. a GPU whose launch + staging cost dwarfs a tiny
    /// problem).  Empty = no overheads.  Must match the model count when
    /// non-empty.
    std::vector<double> fixed_overheads{};
};

/// Result of the continuous FPM partitioning.
struct FpmPartitionResult {
    Partition1D partition;
    double balanced_time = 0.0;  ///< the equalised execution time T
    std::size_t iterations = 0;  ///< bisection steps used
};

/// One monotone execution-time envelope per model, at
/// `samples_per_segment`.  They depend on the models alone, so a caller
/// that partitions the same models many times builds them once and
/// passes them to the envelope overload of partition_fpm().
[[nodiscard]] std::vector<core::MonotoneTime>
make_envelopes(std::span<const core::SpeedFunction> models,
               std::size_t samples_per_segment =
                   FpmPartitionOptions{}.envelope_samples_per_segment);

/// Computes the balanced continuous partition.  Throws fpm::Error when the
/// combined capacity of all devices cannot hold `total`.  Builds the
/// envelopes (make_envelopes at options.envelope_samples_per_segment)
/// and delegates to the overload below.
FpmPartitionResult partition_fpm(std::span<const core::SpeedFunction> models,
                                 double total,
                                 const FpmPartitionOptions& options = {});

/// The same bisection on prebuilt envelopes: envelopes[i] must be
/// models[i]'s, built at options.envelope_samples_per_segment.  Returns
/// bit-for-bit what the models-only overload returns.  Throws fpm::Error
/// when the envelope count differs from the model count or an envelope
/// has another resolution.
FpmPartitionResult partition_fpm(std::span<const core::SpeedFunction> models,
                                 std::span<const core::MonotoneTime> envelopes,
                                 double total,
                                 const FpmPartitionOptions& options = {});

} // namespace fpm::part
