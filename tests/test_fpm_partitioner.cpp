// Tests for the FPM-based geometric partitioner (Lastovetsky & Reddy):
// conservation, balance, optimality against brute force, capacity limits
// and degenerate inputs.
#include <gtest/gtest.h>

#include <cmath>

#include "fpm/core/speed_function.hpp"
#include "fpm/part/fpm_partitioner.hpp"
#include "fpm/part/integer.hpp"

namespace fpm::part {
namespace {

using core::SpeedFunction;
using core::SpeedPoint;

std::vector<SpeedFunction> two_constant_devices() {
    return {SpeedFunction::constant(10.0, "slow"),
            SpeedFunction::constant(30.0, "fast")};
}

TEST(FpmPartitioner, ConstantSpeedsReduceToProportional) {
    const auto models = two_constant_devices();
    const auto result = partition_fpm(models, 400.0);
    EXPECT_NEAR(result.partition.share[0], 100.0, 1e-6);
    EXPECT_NEAR(result.partition.share[1], 300.0, 1e-6);
    EXPECT_NEAR(result.balanced_time, 10.0, 1e-6);
}

TEST(FpmPartitioner, SharesSumToTotal) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 5.0}, {100.0, 20.0}, {500.0, 18.0}}, "a"),
        SpeedFunction({{10.0, 50.0}, {300.0, 80.0}}, "b"),
        SpeedFunction::constant(7.0, "c"),
    };
    for (double total : {1.0, 57.0, 333.3, 4096.0}) {
        const auto result = partition_fpm(models, total);
        EXPECT_NEAR(result.partition.total(), total, 1e-6 * total)
            << "total=" << total;
        for (const double share : result.partition.share) {
            EXPECT_GE(share, 0.0);
        }
    }
}

TEST(FpmPartitioner, EqualisesExecutionTimes) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 5.0}, {100.0, 20.0}, {500.0, 25.0}}, "a"),
        SpeedFunction({{10.0, 40.0}, {400.0, 90.0}}, "b"),
    };
    const auto result = partition_fpm(models, 600.0);
    const double t0 = models[0].time(result.partition.share[0]);
    const double t1 = models[1].time(result.partition.share[1]);
    EXPECT_NEAR(t0, t1, 0.05 * std::max(t0, t1));
    EXPECT_NEAR(result.balanced_time, std::max(t0, t1),
                0.05 * std::max(t0, t1));
}

TEST(FpmPartitioner, NearOptimalAgainstBruteForce) {
    // Discretised exhaustive search over all splits of 200 blocks between
    // two non-trivial devices; the geometric solution's makespan must be
    // within a hair of the discrete optimum.
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{5.0, 8.0}, {50.0, 30.0}, {200.0, 26.0}}, "cpu"),
        SpeedFunction({{5.0, 60.0}, {80.0, 90.0}, {120.0, 40.0}}, "gpu"),
    };
    const std::int64_t total = 200;

    double best = 1e300;
    for (std::int64_t x = 0; x <= total; ++x) {
        const std::vector<double> shares = {static_cast<double>(x),
                                            static_cast<double>(total - x)};
        best = std::min(best, makespan(models, shares));
    }

    const auto result = partition_fpm(models, static_cast<double>(total));
    const double achieved = makespan(models, result.partition.share);
    EXPECT_LE(achieved, best * 1.02);
}

TEST(FpmPartitioner, BoundedDeviceSaturatesAtCapacity) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 100.0}, {50.0, 100.0}}, "gpu", 60.0),  // cap 60
        SpeedFunction::constant(1.0, "cpu"),
    };
    const auto result = partition_fpm(models, 200.0);
    EXPECT_LE(result.partition.share[0], 60.0 + 1e-9);
    EXPECT_NEAR(result.partition.total(), 200.0, 1e-6);
    // The slow CPU carries the overflow even though it is 100x slower.
    EXPECT_GE(result.partition.share[1], 140.0 - 1e-6);
}

TEST(FpmPartitioner, ThrowsWhenCapacityInsufficient) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 10.0}}, "g1", 50.0),
        SpeedFunction({{10.0, 10.0}}, "g2", 30.0),
    };
    EXPECT_THROW(partition_fpm(models, 100.0), fpm::Error);
    EXPECT_NO_THROW(partition_fpm(models, 80.0));
}

TEST(FpmPartitioner, SingleDeviceTakesAll) {
    const std::vector<SpeedFunction> models = {SpeedFunction::constant(3.0)};
    const auto result = partition_fpm(models, 42.0);
    EXPECT_NEAR(result.partition.share[0], 42.0, 1e-9);
    EXPECT_NEAR(result.balanced_time, 14.0, 1e-6);
}

TEST(FpmPartitioner, ZeroTotal) {
    const auto models = two_constant_devices();
    const auto result = partition_fpm(models, 0.0);
    EXPECT_DOUBLE_EQ(result.partition.total(), 0.0);
    EXPECT_DOUBLE_EQ(result.balanced_time, 0.0);
}

TEST(FpmPartitioner, Validation) {
    EXPECT_THROW(partition_fpm({}, 10.0), fpm::Error);
    const auto models = two_constant_devices();
    EXPECT_THROW(partition_fpm(models, -5.0), fpm::Error);
    FpmPartitionOptions options;
    options.tolerance = 0.0;
    EXPECT_THROW(partition_fpm(models, 10.0, options), fpm::Error);
}

TEST(FpmPartitioner, HandlesCliffDevices) {
    // A GPU-like device whose speed collapses past a memory limit: the
    // partitioner must not overload it (the paper's central claim).
    std::vector<SpeedPoint> gpu_points;
    for (double x = 10.0; x <= 1000.0; x += 30.0) {
        const double speed = (x <= 500.0) ? 90.0 : 25.0;
        gpu_points.push_back(SpeedPoint{x, speed});
    }
    const std::vector<SpeedFunction> models = {
        SpeedFunction(gpu_points, "gpu"),
        SpeedFunction::constant(30.0, "cpu"),
    };

    // Small problem: GPU is 3x the CPU, gets ~75 %.
    const auto small = partition_fpm(models, 400.0);
    EXPECT_GT(small.partition.share[0], 0.70 * 400.0);

    // Large problem: the balanced solution stops overloading the GPU.
    const auto large = partition_fpm(models, 1600.0);
    const double t_gpu = models[0].time(large.partition.share[0]);
    const double t_cpu = models[1].time(large.partition.share[1]);
    EXPECT_NEAR(t_gpu, t_cpu, 0.1 * std::max(t_gpu, t_cpu));
    // A CPM model built at small sizes (speed 90) would give the GPU 75 %
    // = 1200 blocks, taking 1200/25 = 48 s vs the balanced ~29 s.
    EXPECT_LT(std::max(t_gpu, t_cpu), 35.0);
}

TEST(FpmPartitioner, ManyDevicesStressAndConservation) {
    std::vector<SpeedFunction> models;
    for (int i = 0; i < 24; ++i) {
        models.push_back(
            SpeedFunction::constant(1.0 + static_cast<double>(i % 7)));
    }
    const auto result = partition_fpm(models, 10000.0);
    EXPECT_NEAR(result.partition.total(), 10000.0, 1e-3);
    // Faster devices get strictly more.
    EXPECT_GT(result.partition.share[6], result.partition.share[0]);
}

TEST(FpmPartitioner, FixedOverheadsShiftWorkAway) {
    // Two equal-speed devices, one with a heavy per-invocation overhead:
    // the balanced solution gives the cheap device strictly more.
    const std::vector<SpeedFunction> models = {
        SpeedFunction::constant(10.0, "cheap"),
        SpeedFunction::constant(10.0, "expensive"),
    };
    FpmPartitionOptions options;
    options.fixed_overheads = {0.0, 4.0};
    const auto result = partition_fpm(models, 200.0, options);
    EXPECT_NEAR(result.partition.total(), 200.0, 1e-6);
    EXPECT_GT(result.partition.share[0], result.partition.share[1] + 30.0);
    // Completion times (overhead + work) equalise.
    const double t0 = result.partition.share[0] / 10.0;
    const double t1 = 4.0 + result.partition.share[1] / 10.0;
    EXPECT_NEAR(t0, t1, 0.05 * t0);
}

TEST(FpmPartitioner, OverheadCanIdleADeviceEntirely) {
    // A tiny problem: the GPU-like device's launch overhead alone exceeds
    // what the cheap device needs for the whole workload.
    const std::vector<SpeedFunction> models = {
        SpeedFunction::constant(10.0, "cpu"),
        SpeedFunction::constant(100.0, "gpu"),
    };
    FpmPartitionOptions options;
    options.fixed_overheads = {0.0, 10.0};
    const auto result = partition_fpm(models, 5.0, options);  // 0.5 s on cpu
    EXPECT_NEAR(result.partition.share[0], 5.0, 1e-6);
    EXPECT_NEAR(result.partition.share[1], 0.0, 1e-6);
}

TEST(FpmPartitioner, OverheadValidation) {
    const auto models = two_constant_devices();
    FpmPartitionOptions options;
    options.fixed_overheads = {1.0};  // wrong length
    EXPECT_THROW(partition_fpm(models, 10.0, options), fpm::Error);
    options.fixed_overheads = {0.0, -1.0};
    EXPECT_THROW(partition_fpm(models, 10.0, options), fpm::Error);
}

TEST(FpmPartitioner, PrebuiltEnvelopesGiveTheSameResult) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 5.0}, {100.0, 20.0}, {500.0, 18.0}}, "a"),
        SpeedFunction({{10.0, 50.0}, {300.0, 80.0}}, "b", 250.0),
        SpeedFunction::constant(7.0, "c"),
    };
    const auto envelopes = make_envelopes(models);
    FpmPartitionOptions with_overheads;
    with_overheads.fixed_overheads = {0.0, 0.5, 2.0};
    for (const auto& options : {FpmPartitionOptions{}, with_overheads}) {
        for (const double total : {0.0, 57.0, 333.3, 4096.0}) {
            const auto built = partition_fpm(models, total, options);
            const auto prebuilt =
                partition_fpm(models, envelopes, total, options);
            EXPECT_EQ(prebuilt.partition.share, built.partition.share);
            EXPECT_EQ(prebuilt.balanced_time, built.balanced_time);
            EXPECT_EQ(prebuilt.iterations, built.iterations);
        }
    }
}

TEST(FpmPartitioner, PrebuiltEnvelopesAreValidated) {
    const auto models = two_constant_devices();
    const auto envelopes = make_envelopes(models);
    // One envelope per model, no more and no fewer.
    EXPECT_THROW(partition_fpm(models, std::span(envelopes).first(1), 10.0),
                 fpm::Error);
    const auto three = make_envelopes(
        std::vector<SpeedFunction>{models[0], models[1], models[0]});
    EXPECT_THROW(partition_fpm(models, three, 10.0), fpm::Error);
    // Envelopes of another resolution than the options ask for.
    FpmPartitionOptions finer;
    finer.envelope_samples_per_segment = 16;
    EXPECT_THROW(partition_fpm(models, envelopes, 10.0, finer), fpm::Error);
    EXPECT_NO_THROW(
        partition_fpm(models, make_envelopes(models, 16), 10.0, finer));
}

TEST(FpmPartitioner, IterationsReported) {
    const auto models = two_constant_devices();
    const auto result = partition_fpm(models, 100.0);
    EXPECT_GE(result.iterations, 1U);
    EXPECT_LE(result.iterations, 200U);
}

} // namespace
} // namespace fpm::part
