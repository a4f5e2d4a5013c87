// Seeded fuzz/property tests across the partitioning stack: randomly
// generated device populations and workloads must uphold the library's
// invariants, and the column-layout DP must match an exhaustive oracle on
// small instances.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "fpm/common/rng.hpp"
#include "fpm/part/column2d.hpp"
#include "fpm/part/fpm_partitioner.hpp"
#include "fpm/part/integer.hpp"

namespace fpm::part {
namespace {

using core::SpeedFunction;
using core::SpeedPoint;

/// A random plausible speed function: ramp to a peak, optional cliff,
/// optional capacity bound.
SpeedFunction random_model(Rng& rng, std::string name) {
    const double peak = rng.uniform(5.0, 500.0);
    const double ramp_half = rng.uniform(0.5, 20.0);
    const bool has_cliff = rng.uniform() < 0.4;
    const double cliff_at = rng.uniform(50.0, 2000.0);
    const double cliff_keep = rng.uniform(0.2, 0.7);
    const bool bounded = rng.uniform() < 0.2;
    const double bound = rng.uniform(500.0, 4000.0);

    std::vector<SpeedPoint> points;
    for (double x = 2.0; x <= 4000.0; x *= 1.6) {
        if (bounded && x > bound) {
            break;
        }
        double speed = peak * x / (x + ramp_half);
        if (has_cliff && x > cliff_at) {
            speed *= cliff_keep;
        }
        points.push_back(SpeedPoint{x, speed});
    }
    if (points.size() < 2) {
        points = {SpeedPoint{1.0, peak}, SpeedPoint{2.0, peak}};
    }
    return SpeedFunction(std::move(points), std::move(name),
                         bounded ? bound
                                 : std::numeric_limits<double>::infinity());
}

TEST(FuzzPartition, InvariantsHoldAcrossRandomPopulations) {
    Rng rng(20120924);  // CLUSTER 2012 conference date
    for (int trial = 0; trial < 60; ++trial) {
        const std::size_t devices = 1 + rng.uniform_int(0, 7);
        std::vector<SpeedFunction> models;
        double capacity = 0.0;
        for (std::size_t i = 0; i < devices; ++i) {
            models.push_back(random_model(rng, "d" + std::to_string(i)));
            capacity += models.back().max_problem();
            if (std::isinf(capacity)) {
                capacity = std::numeric_limits<double>::infinity();
            }
        }
        const double total =
            std::min(rng.uniform(1.0, 6000.0),
                     std::isinf(capacity) ? 6000.0 : 0.95 * capacity);

        const auto result = partition_fpm(models, total);
        // Conservation.
        ASSERT_NEAR(result.partition.total(), total, 1e-5 * total)
            << "trial " << trial;
        for (std::size_t i = 0; i < devices; ++i) {
            // Non-negativity and capacity.
            ASSERT_GE(result.partition.share[i], 0.0) << "trial " << trial;
            ASSERT_LE(result.partition.share[i],
                      models[i].max_problem() * (1.0 + 1e-9))
                << "trial " << trial;
        }
        // The true makespan never exceeds the balanced-time estimate by
        // much (monotone-envelope slack only).
        const double span = makespan(models, result.partition.share);
        ASSERT_LE(span, result.balanced_time * 1.25 + 1e-9)
            << "trial " << trial;
    }
}

TEST(FuzzPartition, IntegerRoundingPreservesEverything) {
    Rng rng(777);
    for (int trial = 0; trial < 60; ++trial) {
        const std::size_t devices = 1 + rng.uniform_int(0, 5);
        std::vector<SpeedFunction> models;
        for (std::size_t i = 0; i < devices; ++i) {
            models.push_back(random_model(rng, "d" + std::to_string(i)));
        }
        double capacity = 0.0;
        for (const auto& model : models) {
            capacity += model.max_problem();
            if (std::isinf(capacity)) {
                capacity = std::numeric_limits<double>::infinity();
                break;
            }
        }
        const auto total = static_cast<std::int64_t>(
            std::min(rng.uniform(1.0, 3000.0),
                     std::isinf(capacity) ? 3000.0 : 0.9 * capacity));
        if (total < 1) {
            continue;
        }
        const auto continuous = partition_fpm(models, static_cast<double>(total));
        const auto blocks = round_partition(continuous.partition, total, models);
        ASSERT_EQ(blocks.total(), total) << "trial " << trial;
        for (std::size_t i = 0; i < devices; ++i) {
            ASSERT_GE(blocks.blocks[i], 0);
            ASSERT_LE(static_cast<double>(blocks.blocks[i]),
                      models[i].max_problem() + 1e-9);
        }
    }
}

/// The makespan-reducing local search as round_partition() ran it before
/// device times were cached: every step re-evaluates every device.  The
/// oracle the incremental version must agree with block for block.
IntPartition1D round_partition_oracle(const Partition1D& partition,
                                      std::int64_t total,
                                      std::span<const SpeedFunction> models,
                                      std::size_t max_moves = 256) {
    // Rounding and capacity repair: the moves the local search starts
    // from, which round_partition() also makes (and fewer than max_moves).
    IntPartition1D result = round_partition(partition, total, models, 0);
    const std::size_t p = result.blocks.size();
    auto capacity = [&](std::size_t i) { return models[i].max_problem(); };
    auto device_time = [&](std::size_t i, std::int64_t blocks) {
        return models[i].time(static_cast<double>(blocks));
    };
    for (std::size_t move = 0; move < max_moves; ++move) {
        std::size_t worst = p;
        double worst_time = 0.0;
        for (std::size_t i = 0; i < p; ++i) {
            if (result.blocks[i] > 0) {
                const double t = device_time(i, result.blocks[i]);
                if (t > worst_time) {
                    worst_time = t;
                    worst = i;
                }
            }
        }
        if (worst == p) {
            break;
        }
        std::size_t receiver = p;
        double receiver_time = worst_time;
        for (std::size_t j = 0; j < p; ++j) {
            if (j == worst) {
                continue;
            }
            if (static_cast<double>(result.blocks[j] + 1) > capacity(j)) {
                continue;
            }
            const double t = device_time(j, result.blocks[j] + 1);
            if (t < receiver_time) {
                receiver_time = t;
                receiver = j;
            }
        }
        if (receiver == p) {
            break;
        }
        result.blocks[worst] -= 1;
        result.blocks[receiver] += 1;
        const double new_makespan =
            makespan(models, std::span<const std::int64_t>(result.blocks));
        if (new_makespan >= worst_time) {
            result.blocks[worst] += 1;
            result.blocks[receiver] -= 1;
            break;
        }
    }
    return result;
}

TEST(FuzzPartition, IncrementalRoundingMatchesOracle) {
    // Random populations up to cluster size, ~20 % of devices capped and
    // ~30 % copies of an earlier device, as in a homogeneous cluster, so
    // device times tie.  The continuous shares are the FPM solution
    // blended with an even split, so the local search has imbalance to
    // remove and runs many moves.
    Rng rng(3074);
    std::size_t moved = 0;
    for (int trial = 0; trial < 120; ++trial) {
        const std::size_t devices = 1 + rng.uniform_int(0, 95);
        std::vector<SpeedFunction> models;
        double capacity = 0.0;
        for (std::size_t i = 0; i < devices; ++i) {
            std::string name = "d" + std::to_string(i);
            if (i > 0 && rng.uniform() < 0.3) {
                const SpeedFunction twin = models[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))];
                models.emplace_back(twin.points(), std::move(name),
                                    twin.max_problem());
            } else {
                models.push_back(random_model(rng, std::move(name)));
            }
            capacity += models.back().max_problem();
        }
        const double limit = 3000.0 * static_cast<double>(devices);
        const auto total = static_cast<std::int64_t>(std::min(
            rng.uniform(1.0, limit), std::isinf(capacity) ? limit : 0.9 * capacity));
        if (total < 1) {
            continue;
        }
        auto continuous =
            partition_fpm(models, static_cast<double>(total)).partition;
        const double blend = rng.uniform(0.0, 1.0);
        const double even = static_cast<double>(total) / static_cast<double>(devices);
        for (double& share : continuous.share) {
            share = blend * share + (1.0 - blend) * even;
        }
        // The blend keeps the sum; re-split it exactly so rounding sees
        // shares that add up to the total.
        const double scale = static_cast<double>(total) / continuous.total();
        for (double& share : continuous.share) {
            share *= scale;
        }
        const auto run = [&](auto&& round) -> std::vector<std::int64_t> {
            try {
                return round(continuous, total, models).blocks;
            } catch (const Error&) {
                return {};  // both must refuse the same inputs
            }
        };
        const auto want = run([](const auto& c, auto t, const auto& m) {
            return round_partition_oracle(c, t, m);
        });
        const auto got = run([](const auto& c, auto t, const auto& m) {
            return round_partition(c, t, m);
        });
        ASSERT_EQ(got, want) << "trial " << trial << " devices=" << devices;
        const auto start = run([](const auto& c, auto t, const auto& m) {
            return round_partition(c, t, m, 0);
        });
        moved += start == want ? 0 : 1;
    }
    // The comparison is only meaningful if the search actually moves.
    EXPECT_GT(moved, 20u);
}

/// Exhaustive oracle for the column-layout DP: minimal continuous
/// half-perimeter cost over ALL contiguous compositions of the sorted
/// devices into columns.
double brute_force_column_cost(const std::vector<double>& sorted_areas,
                               double n) {
    const std::size_t m = sorted_areas.size();
    double best = std::numeric_limits<double>::infinity();
    // Enumerate compositions via bitmask of cut positions.
    const std::size_t masks = 1U << (m - 1);
    for (std::size_t mask = 0; mask < masks; ++mask) {
        double cost = 0.0;
        std::size_t begin = 0;
        bool feasible = true;
        for (std::size_t i = 0; i <= m - 1; ++i) {
            const bool cut = (i == m - 1) || ((mask >> i) & 1U);
            if (!cut) {
                continue;
            }
            const std::size_t end = i + 1;
            const std::size_t count = end - begin;
            if (static_cast<double>(count) > n) {
                feasible = false;
                break;
            }
            double area = 0.0;
            for (std::size_t k = begin; k < end; ++k) {
                area += sorted_areas[k];
            }
            cost += static_cast<double>(count) * area / n + n;
            begin = end;
        }
        if (feasible) {
            best = std::min(best, cost);
        }
    }
    return best;
}

TEST(FuzzColumn2D, DpMatchesExhaustiveOracle) {
    Rng rng(424242);
    for (int trial = 0; trial < 40; ++trial) {
        const std::int64_t n = 4 + rng.uniform_int(0, 8);
        const std::size_t devices = 2 + rng.uniform_int(0, 3);

        // Random positive areas summing to n*n.
        std::vector<std::int64_t> areas(devices, 1);
        std::int64_t remaining = n * n - static_cast<std::int64_t>(devices);
        for (std::size_t i = 0; i + 1 < devices && remaining > 0; ++i) {
            const std::int64_t take = rng.uniform_int(0, remaining);
            areas[i] += take;
            remaining -= take;
        }
        areas[devices - 1] += remaining;

        const ColumnLayout layout = column_partition(n, areas);
        layout.validate();

        // The DP's *continuous* cost must equal the oracle; reconstruct it
        // from the column structure (continuous widths).
        std::vector<double> sorted_areas;
        for (const auto area : areas) {
            sorted_areas.push_back(static_cast<double>(area));
        }
        std::sort(sorted_areas.rbegin(), sorted_areas.rend());
        const double oracle =
            brute_force_column_cost(sorted_areas, static_cast<double>(n));

        const auto columns = layout.columns();
        double dp_cost = 0.0;
        for (std::size_t c = 0; c < columns.size(); ++c) {
            double column_area = 0.0;
            for (const std::size_t device : columns[c]) {
                column_area += static_cast<double>(areas[device]);
            }
            dp_cost += static_cast<double>(columns[c].size()) *
                           column_area / static_cast<double>(n) +
                       static_cast<double>(n);
        }
        ASSERT_NEAR(dp_cost, oracle, 1e-6 * oracle)
            << "trial " << trial << " n=" << n << " devices=" << devices;
    }
}

TEST(FuzzColumn2D, IntegerCostTracksContinuousCost) {
    // The integerised half-perimeter sum stays within a small additive
    // margin of the continuous DP cost (rounding shifts each rectangle by
    // at most one row/column).
    Rng rng(99);
    for (int trial = 0; trial < 30; ++trial) {
        const std::int64_t n = 10 + rng.uniform_int(0, 50);
        const std::size_t devices = 2 + rng.uniform_int(0, 6);
        std::vector<std::int64_t> areas(devices, 1);
        std::int64_t remaining = n * n - static_cast<std::int64_t>(devices);
        for (std::size_t i = 0; i + 1 < devices && remaining > 0; ++i) {
            const std::int64_t take = rng.uniform_int(0, remaining);
            areas[i] += take;
            remaining -= take;
        }
        areas[devices - 1] += remaining;

        const ColumnLayout layout = column_partition(n, areas);
        const auto columns = layout.columns();
        double continuous_cost = 0.0;
        for (std::size_t c = 0; c < columns.size(); ++c) {
            double column_area = 0.0;
            for (const std::size_t device : columns[c]) {
                column_area += static_cast<double>(areas[device]);
            }
            continuous_cost += static_cast<double>(columns[c].size()) *
                                   column_area / static_cast<double>(n) +
                               static_cast<double>(n);
        }
        ASSERT_LE(static_cast<double>(layout.comm_cost()),
                  continuous_cost + 2.0 * static_cast<double>(devices))
            << "trial " << trial;
    }
}

} // namespace
} // namespace fpm::part
