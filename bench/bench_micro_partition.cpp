// google-benchmark micro-benchmarks of the partitioning algorithms
// themselves: FPM geometric bisection, integer refinement and the 2-D
// column layout, across device counts.
#include <benchmark/benchmark.h>

#include "fpm/common/rng.hpp"
#include "fpm/part/column2d.hpp"
#include "fpm/part/fpm_partitioner.hpp"
#include "fpm/part/integer.hpp"

namespace {

using fpm::core::SpeedFunction;
using fpm::core::SpeedPoint;

std::vector<SpeedFunction> synthetic_devices(std::size_t count) {
    std::vector<SpeedFunction> models;
    fpm::Rng rng(count);
    for (std::size_t i = 0; i < count; ++i) {
        std::vector<SpeedPoint> points;
        const double peak = rng.uniform(20.0, 900.0);
        const double cliff = rng.uniform(400.0, 3000.0);
        for (double x = 8.0; x <= 5000.0; x *= 1.5) {
            const double speed =
                (x < cliff ? peak : 0.4 * peak) * x / (x + 10.0);
            points.push_back(SpeedPoint{x, speed});
        }
        models.emplace_back(std::move(points), "dev" + std::to_string(i));
    }
    return models;
}

void BM_FpmPartition(benchmark::State& state) {
    const auto models = synthetic_devices(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        const auto result = fpm::part::partition_fpm(models, 4900.0);
        benchmark::DoNotOptimize(result.partition.share.data());
    }
}
BENCHMARK(BM_FpmPartition)->Arg(2)->Arg(6)->Arg(24)->Arg(96);

// The same bisection on envelopes built once, as the partition service
// runs it: the difference to BM_FpmPartition is the per-call envelope
// construction.
void BM_FpmPartitionPrebuiltEnvelopes(benchmark::State& state) {
    const auto models = synthetic_devices(static_cast<std::size_t>(state.range(0)));
    const auto envelopes = fpm::part::make_envelopes(models);
    for (auto _ : state) {
        const auto result = fpm::part::partition_fpm(models, envelopes, 4900.0);
        benchmark::DoNotOptimize(result.partition.share.data());
    }
}
BENCHMARK(BM_FpmPartitionPrebuiltEnvelopes)->Arg(2)->Arg(6)->Arg(24)->Arg(96);

void BM_RoundPartition(benchmark::State& state) {
    const auto models = synthetic_devices(static_cast<std::size_t>(state.range(0)));
    const auto continuous = fpm::part::partition_fpm(models, 4900.0);
    for (auto _ : state) {
        const auto rounded =
            fpm::part::round_partition(continuous.partition, 4900, models);
        benchmark::DoNotOptimize(rounded.blocks.data());
    }
}
BENCHMARK(BM_RoundPartition)->Arg(6)->Arg(24)->Arg(96);

void BM_ColumnLayout(benchmark::State& state) {
    const auto devices = static_cast<std::size_t>(state.range(0));
    const std::int64_t n = 70;
    const auto models = synthetic_devices(devices);
    const auto continuous =
        fpm::part::partition_fpm(models, static_cast<double>(n) * n);
    const auto blocks =
        fpm::part::round_partition(continuous.partition, n * n, models);
    for (auto _ : state) {
        const auto layout = fpm::part::column_partition(n, blocks.blocks);
        benchmark::DoNotOptimize(layout.rects.data());
    }
}
BENCHMARK(BM_ColumnLayout)->Arg(2)->Arg(6)->Arg(24);

void BM_MonotoneEnvelope(benchmark::State& state) {
    const auto models = synthetic_devices(1);
    for (auto _ : state) {
        const fpm::core::MonotoneTime envelope(models[0]);
        benchmark::DoNotOptimize(envelope.invert(1.0));
    }
}
BENCHMARK(BM_MonotoneEnvelope);

} // namespace

BENCHMARK_MAIN();
