// Tests for the per-generation FPM envelope cache: a ModelSet builds its
// monotone time envelopes once, on the first request that needs them, and
// every plan computed from them is bit-for-bit the plan part::partition()
// computes from the models alone — on cluster-sized (96-device) sets, on
// sets with capacity-bounded GPUs, under a racing first use and across a
// republish that changes the content.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "fpm/app/cluster_app.hpp"
#include "fpm/core/fpm_builder.hpp"
#include "fpm/obs/metrics.hpp"
#include "fpm/part/request.hpp"
#include "fpm/serve/model_registry.hpp"
#include "fpm/serve/request_engine.hpp"
#include "fpm/sim/cluster.hpp"

namespace fpm::serve {
namespace {

using core::SpeedFunction;

/// FPMs of a 16-node sim::homogeneous_hybrid_cluster (96 devices), each
/// node's simulated timings perturbed by seeded noise.
std::vector<SpeedFunction> cluster_models(std::uint64_t noise_seed) {
    sim::SimOptions sim_options;
    sim_options.noise_sigma = 0.03;
    sim_options.noise_seed = noise_seed;
    sim::HybridCluster cluster(sim::homogeneous_hybrid_cluster(16),
                               sim_options);
    const auto sets = app::cluster_device_sets(cluster);
    core::FpmBuildOptions options;
    options.x_min = 4.0;
    options.x_max = 5200.0;
    options.initial_points = 14;
    options.max_points = 44;
    options.reliability.min_repetitions = 3;
    options.reliability.max_repetitions = 30;
    options.reliability.target_relative_error = 0.02;
    std::vector<SpeedFunction> models;
    for (auto& node : app::cluster_device_fpms(cluster, sets, options)) {
        for (auto& model : node) {
            models.push_back(std::move(model));
        }
    }
    return models;
}

/// The same devices with every GPU bounded to 40 % of its measured range,
/// as a GPU kernel without out-of-core support would be.
std::vector<SpeedFunction> capped_gpus(const std::vector<SpeedFunction>& models) {
    std::vector<SpeedFunction> capped;
    for (const auto& model : models) {
        const bool gpu = model.name().find("/v") != std::string::npos;
        const double cap = gpu ? 0.4 * model.points().back().x
                               : std::numeric_limits<double>::infinity();
        capped.emplace_back(model.points(), model.name(), cap);
    }
    return capped;
}

/// Largest n whose n*n workload the models can hold inside their
/// measured range.
std::int64_t n_max(const std::vector<SpeedFunction>& models) {
    double total = 0.0;
    for (const auto& model : models) {
        total += std::min(model.points().back().x, model.max_problem());
    }
    return static_cast<std::int64_t>(std::floor(std::sqrt(total)));
}

std::shared_ptr<ModelSet> make_set(std::vector<SpeedFunction> models) {
    auto set = std::make_shared<ModelSet>();
    set->name = "cluster";
    set->fingerprint = fingerprint_models(models);
    set->models = std::move(models);
    set->generation = 1;
    return set;
}

void expect_same_plan(const part::PartitionPlan& got,
                      const part::PartitionPlan& want) {
    EXPECT_EQ(got.n, want.n);
    EXPECT_EQ(got.algorithm, want.algorithm);
    EXPECT_EQ(got.with_layout, want.with_layout);
    EXPECT_EQ(got.blocks, want.blocks);
    EXPECT_EQ(got.layout.n, want.layout.n);
    ASSERT_EQ(got.layout.rects.size(), want.layout.rects.size());
    for (std::size_t i = 0; i < got.layout.rects.size(); ++i) {
        EXPECT_EQ(got.layout.rects[i].col0, want.layout.rects[i].col0);
        EXPECT_EQ(got.layout.rects[i].row0, want.layout.rects[i].row0);
        EXPECT_EQ(got.layout.rects[i].w, want.layout.rects[i].w);
        EXPECT_EQ(got.layout.rects[i].h, want.layout.rects[i].h);
    }
    EXPECT_EQ(got.balanced_time, want.balanced_time);
    EXPECT_EQ(got.makespan, want.makespan);
    EXPECT_EQ(got.comm_cost, want.comm_cost);
    EXPECT_EQ(got.iterations, want.iterations);
}

void expect_same_continuous(const part::FpmPartitionResult& got,
                            const part::FpmPartitionResult& want) {
    EXPECT_EQ(got.partition.share, want.partition.share);
    EXPECT_EQ(got.balanced_time, want.balanced_time);
    EXPECT_EQ(got.iterations, want.iterations);
}

/// Cached-envelope plans against the models-only library path, over n
/// spread across the set's feasible range, plus the continuous overload
/// with and without fixed per-device overheads.
void check_set_matches_library(const std::shared_ptr<ModelSet>& set) {
    const auto& models = set->models;
    ASSERT_EQ(models.size(), 96u);
    const std::int64_t top = n_max(models);
    ASSERT_GT(top, 64);
    for (std::int64_t n = 32; n <= top; n += (top - 32) / 23 + 1) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const PartitionPlan served =
            RequestEngine::compute_plan(*set, n, Algorithm::kFpm, true);
        expect_same_plan(served,
                         part::partition({models, n, Algorithm::kFpm, true}));
    }

    part::FpmPartitionOptions with_overheads;
    for (std::size_t i = 0; i < models.size(); ++i) {
        with_overheads.fixed_overheads.push_back(1e-4 * static_cast<double>(i % 7));
    }
    for (const double total : {1024.0, 0.5 * static_cast<double>(top * top)}) {
        for (const auto& options : {part::FpmPartitionOptions{}, with_overheads}) {
            expect_same_continuous(
                part::partition_fpm(models, set->envelopes(), total, options),
                part::partition_fpm(models, total, options));
        }
    }
}

TEST(EnvelopeCache, ClusterPlansMatchModelsOnlyPartition) {
    for (const std::uint64_t seed : {3u, 11u}) {
        SCOPED_TRACE("noise seed " + std::to_string(seed));
        check_set_matches_library(make_set(cluster_models(seed)));
    }
}

TEST(EnvelopeCache, CappedGpuPlansMatchModelsOnlyPartition) {
    const auto models = capped_gpus(cluster_models(5));
    std::size_t capped = 0;
    for (const auto& model : models) {
        capped += std::isfinite(model.max_problem()) ? 1 : 0;
    }
    ASSERT_GT(capped, 0u);
    ASSERT_LT(capped, models.size());
    check_set_matches_library(make_set(models));
}

TEST(EnvelopeCache, RacingFirstUseBuildsOnce) {
    const auto set = make_set(cluster_models(7));
    const auto& built =
        obs::MetricsRegistry::global().counter("serve.envelopes.built");
    const std::uint64_t before = built.value();

    constexpr std::size_t kThreads = 8;
    std::atomic<std::size_t> ready{0};
    std::vector<std::span<const core::MonotoneTime>> seen(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
                std::this_thread::yield();
            }
            seen[t] = set->envelopes();
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }

    EXPECT_EQ(built.value() - before, 1u);
    for (const auto& span : seen) {
        EXPECT_EQ(span.data(), seen.front().data());
        EXPECT_EQ(span.size(), set->models.size());
    }
    // Later calls return the same envelopes without building again.
    EXPECT_EQ(set->envelopes().data(), seen.front().data());
    EXPECT_EQ(built.value() - before, 1u);
}

TEST(EnvelopeCache, RepublishedContentIsPartitionedWithItsOwnEnvelopes) {
    const auto first = cluster_models(13);
    const auto second = capped_gpus(first);
    ModelRegistry registry;
    RequestEngine engine(registry, {.workers = 1});
    // Large enough that the capped GPUs of the second content saturate.
    const std::int64_t n = n_max(second);
    const PartitionRequest request{"cluster", n, Algorithm::kFpm, true};

    registry.put("cluster", first);
    std::weak_ptr<const ModelSet> old_generation = registry.get("cluster");
    const PartitionResponse before = engine.execute(request);
    EXPECT_FALSE(before.cache_hit);
    expect_same_plan(*before.plan,
                     part::partition({first, n, Algorithm::kFpm, true}));

    registry.put("cluster", second);
    // The superseded generation, and its envelopes with it, is freed.
    EXPECT_TRUE(old_generation.expired());
    const PartitionResponse after = engine.execute(request);
    EXPECT_FALSE(after.cache_hit);
    expect_same_plan(*after.plan,
                     part::partition({second, n, Algorithm::kFpm, true}));
    EXPECT_NE(after.plan->blocks, before.plan->blocks);
}

TEST(EnvelopeCache, NonFpmRequestsLeaveEnvelopesUnbuilt) {
    const auto set = make_set(cluster_models(17));
    const auto& built =
        obs::MetricsRegistry::global().counter("serve.envelopes.built");
    const std::uint64_t before = built.value();
    (void)RequestEngine::compute_plan(*set, 100, Algorithm::kCpm, true);
    (void)RequestEngine::compute_plan(*set, 100, Algorithm::kEven, true);
    EXPECT_EQ(built.value(), before);
}

} // namespace
} // namespace fpm::serve
