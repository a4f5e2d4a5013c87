#include "fpm/part/fpm_partitioner.hpp"

#include <algorithm>
#include <cmath>

#include "fpm/common/error.hpp"
#include "fpm/obs/metrics.hpp"
#include "fpm/obs/trace.hpp"

namespace fpm::part {

namespace {

struct FpmMetrics {
    obs::Counter& calls;
    obs::Counter& iterations;
    obs::Counter& unconverged;
    obs::Histogram& iterations_per_call;

    static const FpmMetrics& get() {
        static auto& registry = obs::MetricsRegistry::global();
        static const FpmMetrics metrics{
            registry.counter("part.fpm.calls"),
            registry.counter("part.fpm.iterations"),
            registry.counter("part.fpm.unconverged"),
            registry.histogram("part.fpm.iterations_per_call")};
        return metrics;
    }
};

} // namespace

std::vector<core::MonotoneTime>
make_envelopes(std::span<const core::SpeedFunction> models,
               std::size_t samples_per_segment) {
    std::vector<core::MonotoneTime> envelopes;
    envelopes.reserve(models.size());
    for (const auto& model : models) {
        envelopes.emplace_back(model, samples_per_segment);
    }
    return envelopes;
}

FpmPartitionResult partition_fpm(std::span<const core::SpeedFunction> models,
                                 double total,
                                 const FpmPartitionOptions& options) {
    const auto envelopes =
        make_envelopes(models, options.envelope_samples_per_segment);
    return partition_fpm(models, envelopes, total, options);
}

FpmPartitionResult partition_fpm(std::span<const core::SpeedFunction> models,
                                 std::span<const core::MonotoneTime> envelopes,
                                 double total,
                                 const FpmPartitionOptions& options) {
    obs::Span span("part.fpm_partition",
                   static_cast<std::uint64_t>(std::max(total, 0.0)));
    FPM_CHECK(!models.empty(), "need at least one device");
    FPM_CHECK(envelopes.size() == models.size(),
              "need exactly one envelope per model");
    for (const auto& envelope : envelopes) {
        FPM_CHECK(envelope.samples_per_segment() ==
                      options.envelope_samples_per_segment,
                  "envelopes were built at another resolution");
    }
    FPM_CHECK(total >= 0.0, "total workload must be non-negative");
    FPM_CHECK(options.tolerance > 0.0, "tolerance must be positive");
    FPM_CHECK(options.max_iterations >= 1, "need at least one iteration");
    FPM_CHECK(options.fixed_overheads.empty() ||
                  options.fixed_overheads.size() == models.size(),
              "fixed_overheads must be empty or match the model count");
    for (const double overhead : options.fixed_overheads) {
        FPM_CHECK(overhead >= 0.0, "overheads must be non-negative");
    }
    auto overhead_of = [&](std::size_t i) {
        return options.fixed_overheads.empty() ? 0.0
                                               : options.fixed_overheads[i];
    };

    const std::size_t p = models.size();
    FpmPartitionResult result;
    result.partition.share.assign(p, 0.0);
    if (total == 0.0) {
        return result;
    }

    double capacity = 0.0;
    for (const auto& envelope : envelopes) {
        capacity += envelope.max_problem();
    }
    FPM_CHECK(capacity >= total,
              "combined device capacity cannot hold the requested workload");

    // A device with fixed overhead c solves x units in c + t_env(x): its
    // share at deadline T is x(max(0, T - c)); a device whose overhead
    // alone exceeds T stays idle.
    auto assigned_at = [&](double t) {
        double sum = 0.0;
        for (std::size_t i = 0; i < envelopes.size(); ++i) {
            const double budget = t - overhead_of(i);
            if (budget > 0.0) {
                sum += envelopes[i].invert(budget);
            }
        }
        return sum;
    };

    // Bracket the balanced time T.  An upper bound: the fastest single
    // device running everything it can hold; grow geometrically until the
    // assignment covers the total.
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t i = 0; i < models.size(); ++i) {
        const double probe = std::min(total, envelopes[i].max_problem());
        if (probe > 0.0) {
            const double t = models[i].time(probe) + overhead_of(i);
            if (std::isfinite(t)) {
                hi = std::max(hi, t);
            }
        }
    }
    if (hi == 0.0) {
        hi = 1.0;
    }
    std::size_t guard = 0;
    while (assigned_at(hi) < total && guard++ < 128) {
        hi *= 2.0;
    }
    FPM_CHECK(assigned_at(hi) >= total,
              "could not bracket the balanced execution time");

    // Bisection on T; sum_i x_i(T) is monotone non-decreasing.
    double assigned = 0.0;
    bool converged = false;
    for (std::size_t it = 0; it < options.max_iterations; ++it) {
        const double mid = 0.5 * (lo + hi);
        assigned = assigned_at(mid);
        result.iterations = it + 1;
        if (std::fabs(assigned - total) <= options.tolerance * total) {
            hi = mid;
            converged = true;
            break;
        }
        if (assigned < total) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    const FpmMetrics& metrics = FpmMetrics::get();
    metrics.calls.add();
    metrics.iterations.add(result.iterations);
    metrics.iterations_per_call.record(
        static_cast<double>(result.iterations));
    if (!converged) {
        metrics.unconverged.add();
    }

    result.balanced_time = hi;
    double sum = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
        const double budget = hi - overhead_of(i);
        result.partition.share[i] = budget > 0.0 ? envelopes[i].invert(budget)
                                                 : 0.0;
        sum += result.partition.share[i];
    }

    // Normalise the residual rounding of the bisection onto unbounded
    // devices proportionally, so the shares add up to the total exactly.
    if (sum > 0.0) {
        const double scale = total / sum;
        double rescaled = 0.0;
        for (std::size_t i = 0; i < p; ++i) {
            double share = result.partition.share[i] * scale;
            share = std::min(share, envelopes[i].max_problem());
            result.partition.share[i] = share;
            rescaled += share;
        }
        // Any capacity clamping leftovers go to the first device that can
        // take them.
        double leftover = total - rescaled;
        for (std::size_t i = 0; i < p && leftover > 1e-12; ++i) {
            const double room =
                envelopes[i].max_problem() - result.partition.share[i];
            const double take = std::min(room, leftover);
            result.partition.share[i] += take;
            leftover -= take;
        }
    }

    return result;
}

} // namespace fpm::part
