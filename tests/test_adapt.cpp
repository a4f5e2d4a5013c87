// fpm::adapt suite: streaming feedback ingestion under the library's
// statistical-reliability bar, monotone-safe model splicing with bounded
// updates, CUSUM drift detection, and the headline end-to-end scenario —
// a device slowing 2x mid-stream, detected from served-execution
// feedback alone, hot-republished, and the next served plan rebalancing
// to within tolerance of the oracle partition, bit-for-bit reproducible
// from a fixed seed.  Also covers the v4 FEEDBACK wire path, republish
// cache invalidation and chaos (adapt fault points armed: no hangs, no
// torn replies).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fpm/adapt/drift.hpp"
#include "fpm/adapt/engine.hpp"
#include "fpm/adapt/feedback.hpp"
#include "fpm/adapt/publisher.hpp"
#include "fpm/adapt/refiner.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/part/request.hpp"
#include "fpm/serve/client.hpp"
#include "fpm/serve/model_registry.hpp"
#include "fpm/serve/protocol.hpp"
#include "fpm/serve/request_engine.hpp"
#include "fpm/serve/server.hpp"
#include "fpm/sim/noise.hpp"

namespace fpm::adapt {
namespace {

using core::SpeedFunction;
using core::SpeedPoint;
using serve::Algorithm;
using serve::ModelRegistry;
using serve::RequestEngine;
using serve::Response;
using serve::ServeClient;
using serve::SocketServer;

/// Deterministic synthetic device set (same family as test_serve.cpp).
std::vector<SpeedFunction> synthetic_models(std::size_t devices,
                                            std::size_t points_per_model,
                                            double peak_scale) {
    std::vector<SpeedFunction> models;
    for (std::size_t d = 0; d < devices; ++d) {
        std::vector<SpeedPoint> points;
        const double peak = peak_scale * (40.0 + 17.0 * static_cast<double>(d));
        const double x_max = 6000.0;
        for (std::size_t p = 0; p < points_per_model; ++p) {
            const double x = 4.0 + (x_max - 4.0) * static_cast<double>(p) /
                                       static_cast<double>(points_per_model - 1);
            points.push_back(SpeedPoint{x, peak * x / (x + 25.0)});
        }
        models.emplace_back(std::move(points), "dev" + std::to_string(d));
    }
    return models;
}

/// Uninstalls any leftover fault plan when a test exits.
struct FaultGuard {
    ~FaultGuard() { fault::uninstall(); }
};

// ---------------------------------------------------------------------------
// FeedbackIngestor: bucketing and the reliability bar
// ---------------------------------------------------------------------------

TEST(AdaptIngestor, BucketsBecomeReliableAndAreConsumed) {
    AdaptConfig config;
    config.min_samples = 3;
    config.target_relative_error = 0.05;
    FeedbackIngestor ingestor(config);

    // Identical samples: reliable exactly at min_samples (zero variance).
    IngestResult result;
    for (int i = 0; i < 3; ++i) {
        result = ingestor.add(0, 1000.0, 2.0);
    }
    EXPECT_EQ(result.samples, 3u);
    EXPECT_TRUE(result.reliable);
    EXPECT_FALSE(result.forced);
    EXPECT_DOUBLE_EQ(result.speed, 500.0);
    EXPECT_DOUBLE_EQ(result.x, 1000.0);
    EXPECT_EQ(ingestor.total_samples(), 3u);

    // Consuming the bucket restarts its evidence from zero.
    ingestor.consume(result.key);
    EXPECT_EQ(ingestor.buckets(), 0u);
    result = ingestor.add(0, 1000.0, 2.0);
    EXPECT_EQ(result.samples, 1u);
    EXPECT_FALSE(result.reliable);
}

TEST(AdaptIngestor, DistinctDevicesAndSizeRegionsGetDistinctBuckets) {
    AdaptConfig config;
    FeedbackIngestor ingestor(config);
    const auto a = ingestor.add(0, 1000.0, 2.0);
    const auto b = ingestor.add(1, 1000.0, 2.0);
    const auto c = ingestor.add(0, 4000.0, 2.0);  // far-away size region
    EXPECT_NE(a.key, b.key);
    EXPECT_NE(a.key, c.key);
    EXPECT_EQ(ingestor.buckets(), 3u);

    // Nearby sizes share a region (resolution 0.25 => geometric bands;
    // 990 sits in 1000's band [1.25^30, 1.25^31) = [807.8, 1009.7)).
    const auto d = ingestor.add(0, 990.0, 2.0);
    EXPECT_EQ(d.key, a.key);
    EXPECT_EQ(d.samples, 2u);
}

TEST(AdaptIngestor, NoisyBucketIsForcedReliableAtMaxSamples) {
    AdaptConfig config;
    config.min_samples = 3;
    config.max_samples = 6;
    config.target_relative_error = 0.001;  // unreachable with this noise
    FeedbackIngestor ingestor(config);
    IngestResult result;
    for (int i = 0; i < 6; ++i) {
        const double seconds = (i % 2 == 0) ? 1.8 : 2.2;  // ~10% swing
        result = ingestor.add(0, 1000.0, seconds);
        if (i < 5) {
            EXPECT_FALSE(result.reliable) << "sample " << i;
        }
    }
    EXPECT_TRUE(result.reliable);
    EXPECT_TRUE(result.forced);
}

TEST(AdaptIngestor, BucketBudgetEvictsThinnestBucket) {
    AdaptConfig config;
    config.max_buckets = 2;
    FeedbackIngestor ingestor(config);
    ingestor.add(0, 100.0, 1.0);
    ingestor.add(0, 100.0, 1.0);  // device 0: two samples
    ingestor.add(1, 100.0, 1.0);  // device 1: one sample (thinnest)
    ingestor.add(2, 100.0, 1.0);  // evicts device 1's bucket
    EXPECT_EQ(ingestor.buckets(), 2u);
    // Device 1 restarts from zero; device 0 kept its evidence.
    EXPECT_EQ(ingestor.add(1, 100.0, 1.0).samples, 1u);
}

TEST(AdaptIngestor, RejectsNonsenseSamplesAndConfig) {
    AdaptConfig config;
    FeedbackIngestor ingestor(config);
    EXPECT_THROW(ingestor.add(-1, 100.0, 1.0), Error);
    EXPECT_THROW(ingestor.add(0, 0.0, 1.0), Error);
    EXPECT_THROW(ingestor.add(0, 100.0, 0.0), Error);
    // floor(log(x) / log1p(r)) of an infinite x does not fit the region's
    // int64_t, and x / seconds of a subnormal time is infinite.
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(ingestor.add(0, inf, 1.0), Error);
    EXPECT_THROW(ingestor.add(0, 16.0, inf), Error);
    EXPECT_THROW(ingestor.add(0, 16.0, 1e-320), Error);
    EXPECT_THROW(ingestor.add(0, std::nan(""), 1.0), Error);

    AdaptConfig bad;
    bad.min_samples = 5;
    bad.max_samples = 3;
    EXPECT_THROW(FeedbackIngestor{bad}, Error);
}

// ---------------------------------------------------------------------------
// SpeedFunction::spliced: monotone-interpolation safety
// ---------------------------------------------------------------------------

TEST(AdaptSplice, ReplacesNearbyPointsAndStaysSorted) {
    const SpeedFunction fn({{100.0, 10.0}, {200.0, 20.0}, {400.0, 30.0}},
                           "dev");
    // 210 is within 10% of 200: the old point is replaced, not joined.
    const SpeedFunction spliced = fn.spliced(210.0, 25.0, 0.1);
    ASSERT_EQ(spliced.points().size(), 3u);
    EXPECT_DOUBLE_EQ(spliced.points()[0].x, 100.0);
    EXPECT_DOUBLE_EQ(spliced.points()[1].x, 210.0);
    EXPECT_DOUBLE_EQ(spliced.points()[1].speed, 25.0);
    EXPECT_DOUBLE_EQ(spliced.points()[2].x, 400.0);
    EXPECT_TRUE(std::is_sorted(
        spliced.points().begin(), spliced.points().end(),
        [](const SpeedPoint& a, const SpeedPoint& b) { return a.x < b.x; }));
    EXPECT_EQ(spliced.name(), "dev");

    // Far from every knot: the point is inserted, nothing replaced.
    EXPECT_EQ(fn.spliced(300.0, 26.0, 0.1).points().size(), 4u);

    // Invalid splices are rejected outright.
    EXPECT_THROW(fn.spliced(0.0, 10.0), Error);
    EXPECT_THROW(fn.spliced(100.0, -1.0), Error);
    EXPECT_THROW(fn.spliced(100.0, 10.0, -0.5), Error);
}

TEST(AdaptSplice, HonoursMaxProblemBound) {
    const SpeedFunction bounded({{100.0, 10.0}, {200.0, 20.0}}, "gpu", 300.0);
    EXPECT_THROW(bounded.spliced(301.0, 15.0), Error);
    const auto at_cap = bounded.spliced(300.0, 15.0);
    EXPECT_DOUBLE_EQ(at_cap.max_problem(), 300.0);
    EXPECT_DOUBLE_EQ(at_cap.points().back().speed, 15.0);
}

// ---------------------------------------------------------------------------
// OnlineRefiner: bounded updates and the deadband
// ---------------------------------------------------------------------------

TEST(AdaptRefiner, ClampsStepAndSkipsDeadband) {
    AdaptConfig config;
    config.max_speed_step = 0.5;
    config.min_speed_change = 0.02;
    const OnlineRefiner refiner(config);
    auto models = synthetic_models(2, 16, 1.0);
    const double predicted = models[0].speed(1000.0);

    // An implausible 10x slowdown is clamped to a half-step.
    auto result = refiner.refine(models, 0, 1000.0, predicted / 10.0);
    EXPECT_TRUE(result.applied);
    EXPECT_DOUBLE_EQ(result.model_speed, predicted);
    EXPECT_NEAR(result.applied_speed, predicted * 0.5, 1e-12);
    EXPECT_NEAR(models[0].speed(1000.0), predicted * 0.5, 1e-9);

    // A within-deadband wobble is ignored entirely.
    auto fresh = synthetic_models(2, 16, 1.0);
    result = refiner.refine(fresh, 1, 1000.0,
                            fresh[1].speed(1000.0) * 1.01);
    EXPECT_FALSE(result.applied);
    EXPECT_NEAR(result.relative_error, 0.01, 1e-9);

    EXPECT_THROW(refiner.refine(models, 7, 1000.0, 1.0), Error);
}

// ---------------------------------------------------------------------------
// DriftDetector: threshold + CUSUM
// ---------------------------------------------------------------------------

TEST(AdaptDrift, CusumFiresOnSustainedErrorOnly) {
    AdaptConfig config;
    config.drift_threshold = 0.1;
    config.cusum_limit = 0.25;
    DriftDetector detector(config);

    // Small errors never accumulate: the CUSUM decays to zero.
    for (int i = 0; i < 20; ++i) {
        const auto decision = detector.observe(0, 0.02);
        EXPECT_FALSE(decision.drift);
        EXPECT_FALSE(decision.republish);
    }
    EXPECT_DOUBLE_EQ(detector.cusum(0), 0.0);

    // Sustained 20% error: drift immediately, republish on the 3rd
    // window (0.1 excess per window against a 0.25 limit).
    EXPECT_TRUE(detector.observe(0, 0.2).drift);
    EXPECT_FALSE(detector.observe(0, 0.2).republish);
    EXPECT_TRUE(detector.observe(0, 0.2).republish);

    // Devices are independent; reset clears everything.
    EXPECT_DOUBLE_EQ(detector.cusum(1), 0.0);
    detector.reset();
    EXPECT_DOUBLE_EQ(detector.cusum(0), 0.0);
    EXPECT_THROW(detector.observe(0, -0.1), Error);
}

// ---------------------------------------------------------------------------
// Republish invalidation: fingerprint-keyed plans must not survive
// ---------------------------------------------------------------------------

TEST(AdaptInvalidate, EraseFingerprintDropsAllShapesOfThatContent) {
    serve::PartitionCache cache(16);
    auto make_plan = [](std::uint64_t fingerprint, std::int64_t n,
                        Algorithm algorithm) {
        auto plan = std::make_shared<serve::PartitionPlan>();
        plan->key = serve::PlanKey{fingerprint, n, algorithm, true};
        return plan;
    };
    for (std::int64_t n : {8, 16, 32}) {
        cache.put(serve::PlanKey{111, n, Algorithm::kFpm, true},
                  make_plan(111, n, Algorithm::kFpm));
    }
    cache.put(serve::PlanKey{111, 8, Algorithm::kEven, false},
              make_plan(111, 8, Algorithm::kEven));
    cache.put(serve::PlanKey{222, 8, Algorithm::kFpm, true},
              make_plan(222, 8, Algorithm::kFpm));

    EXPECT_EQ(cache.erase_fingerprint(111), 4u);
    EXPECT_EQ(cache.stats().size, 1u);
    EXPECT_NE(cache.get(serve::PlanKey{222, 8, Algorithm::kFpm, true}),
              nullptr);
    EXPECT_EQ(cache.erase_fingerprint(111), 0u);  // idempotent
}

TEST(AdaptInvalidate, RepublishForcesRecomputeOfCachedPlans) {
    ModelRegistry registry;
    const auto before = registry.put("hybrid", synthetic_models(3, 24, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 64});

    (void)engine.execute({"hybrid", 40, Algorithm::kFpm, true});
    const auto cached = engine.execute({"hybrid", 40, Algorithm::kFpm, true});
    EXPECT_TRUE(cached.cache_hit);

    // Republish changed content under the same name (what the publisher
    // does): the cached plan keyed on the old fingerprint must go.
    ModelPublisher publisher(engine);
    auto refined = synthetic_models(3, 24, 1.0);
    refined[0] = refined[0].scaled(0.5);
    const auto after =
        publisher.publish("hybrid", std::move(refined), before->fingerprint);
    EXPECT_NE(after->fingerprint, before->fingerprint);
    EXPECT_GT(after->generation, before->generation);

    const auto recomputed =
        engine.execute({"hybrid", 40, Algorithm::kFpm, true});
    EXPECT_FALSE(recomputed.cache_hit);
    EXPECT_EQ(recomputed.plan->generation, after->generation);
    EXPECT_NE(recomputed.plan->blocks, cached.plan->blocks);
}

// ---------------------------------------------------------------------------
// End-to-end: device slows 2x mid-stream, the loop notices and rebalances
// ---------------------------------------------------------------------------

struct ScenarioOutcome {
    std::vector<std::int64_t> final_blocks;
    std::uint64_t republishes = 0;
    std::uint64_t reliable_windows = 0;
    double final_true_makespan = 0.0;
};

/// Serves PARTITION + FEEDBACK rounds against an in-process engine.
/// Device 0's *real* speed halves after `slow_after` rounds; the served
/// models only learn about it through feedback.
ScenarioOutcome run_drift_scenario(std::uint64_t seed) {
    constexpr std::int64_t kN = 48;
    constexpr int kRounds = 24;
    constexpr int kSlowAfter = 4;
    constexpr std::size_t kDevices = 3;

    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(kDevices, 24, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 64});

    AdaptConfig config;
    config.min_samples = 3;
    config.target_relative_error = 0.05;
    config.drift_threshold = 0.1;
    config.cusum_limit = 0.25;
    AdaptEngine adapter(engine, config);

    // Ground truth starts equal to the served models...
    std::vector<SpeedFunction> truth = synthetic_models(kDevices, 24, 1.0);

    sim::NoiseModel noise(0.01, seed);
    std::vector<sim::NoiseModel> streams;
    for (std::size_t d = 0; d < kDevices; ++d) {
        streams.push_back(noise.split());
    }

    ScenarioOutcome outcome;
    std::vector<std::int64_t> blocks;
    for (int round = 0; round < kRounds; ++round) {
        if (round == kSlowAfter) {
            // ...until device 0 silently halves mid-stream (thermal
            // throttling, a contending tenant — the serve side cannot see
            // why, only the feedback).
            truth[0] = truth[0].scaled(0.5);
        }
        const auto response =
            engine.execute({"hybrid", kN, Algorithm::kFpm, true});
        blocks = response.plan->blocks;
        for (std::size_t d = 0; d < kDevices; ++d) {
            if (blocks[d] <= 0) {
                continue;
            }
            const double x = static_cast<double>(blocks[d]);
            for (std::uint64_t s = 0; s < config.min_samples; ++s) {
                const double seconds = streams[d].apply(truth[d].time(x));
                const auto reply = adapter.ingest(
                    {"hybrid", static_cast<std::int64_t>(d), x, seconds});
                outcome.reliable_windows += reply.reliable ? 1 : 0;
                outcome.republishes += reply.republished ? 1 : 0;
            }
        }
    }

    outcome.final_blocks = blocks;
    for (std::size_t d = 0; d < kDevices; ++d) {
        outcome.final_true_makespan =
            std::max(outcome.final_true_makespan,
                     truth[d].time(static_cast<double>(blocks[d])));
    }
    return outcome;
}

TEST(AdaptEndToEnd, DriftIsDetectedRepublishedAndRebalanced) {
    const ScenarioOutcome outcome = run_drift_scenario(1234);
    EXPECT_GE(outcome.reliable_windows, 1u);
    ASSERT_GE(outcome.republishes, 1u)
        << "sustained 2x drift never triggered a republish";

    // Oracle: the partition the library computes when handed the true
    // post-slowdown models directly.
    auto truth = synthetic_models(3, 24, 1.0);
    truth[0] = truth[0].scaled(0.5);
    const auto oracle = part::partition({truth, 48, Algorithm::kFpm, true});
    ASSERT_GT(oracle.makespan, 0.0);

    // The adapted plan's *true* makespan lands within 5% of the oracle's.
    EXPECT_LE(outcome.final_true_makespan, oracle.makespan * 1.05)
        << "adapted plan still skewed after republish";

    // And the adapted plan moved real work off the slowed device.
    const auto stale = part::partition(
        {synthetic_models(3, 24, 1.0), 48, Algorithm::kFpm, true});
    EXPECT_LT(outcome.final_blocks[0], stale.blocks[0]);
}

TEST(AdaptEndToEnd, ReplayIsBitForBitDeterministic) {
    const ScenarioOutcome first = run_drift_scenario(7);
    const ScenarioOutcome second = run_drift_scenario(7);
    EXPECT_EQ(first.final_blocks, second.final_blocks);
    EXPECT_EQ(first.republishes, second.republishes);
    EXPECT_EQ(first.reliable_windows, second.reliable_windows);
    EXPECT_DOUBLE_EQ(first.final_true_makespan, second.final_true_makespan);
}

// ---------------------------------------------------------------------------
// External reloads invalidate accumulated evidence
// ---------------------------------------------------------------------------

TEST(AdaptEngineTest, ExternalReloadResyncsWorkingModels) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(2, 16, 1.0));
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 16});
    AdaptConfig config;
    config.min_samples = 3;
    AdaptEngine adapter(engine, config);

    // Two samples of evidence, then an operator hot reload.
    (void)adapter.ingest({"hybrid", 0, 1000.0, 2.0});
    (void)adapter.ingest({"hybrid", 0, 1000.0, 2.0});
    registry.put("hybrid", synthetic_models(2, 16, 2.0));

    // The stale evidence must not complete a reliable window against the
    // new content: the bucket restarts at one sample.
    const auto reply = adapter.ingest({"hybrid", 0, 1000.0, 2.0});
    EXPECT_EQ(reply.samples, 1u);
    EXPECT_FALSE(reply.reliable);
    EXPECT_EQ(adapter.stats().resyncs, 1u);
}

TEST(AdaptEngineTest, RejectsUnknownSetsAndBadDevices) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(2, 16, 1.0));
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 16});
    AdaptEngine adapter(engine, AdaptConfig{});
    EXPECT_THROW((void)adapter.ingest({"missing", 0, 100.0, 1.0}), Error);
    EXPECT_THROW((void)adapter.ingest({"hybrid", 2, 100.0, 1.0}), Error);
    EXPECT_THROW((void)adapter.ingest({"hybrid", 0, -5.0, 1.0}), Error);
    // A speed x / seconds that is not finite and positive is rejected
    // before any state changes (decode already rejects a non-finite x
    // or time; a subnormal time decodes).
    const double inf = std::numeric_limits<double>::infinity();
    const std::uint64_t samples = adapter.stats().samples;  // process-wide
    EXPECT_THROW((void)adapter.ingest({"hybrid", 0, inf, 1.0}), Error);
    EXPECT_THROW((void)adapter.ingest({"hybrid", 0, 16.0, inf}), Error);
    EXPECT_THROW((void)adapter.ingest({"hybrid", 0, 16.0, 1e-320}), Error);
    EXPECT_EQ(adapter.stats().samples, samples);
}

// ---------------------------------------------------------------------------
// Wire path: FEEDBACK over the reactor, STATS surfacing, enable/disable
// ---------------------------------------------------------------------------

TEST(AdaptWire, FeedbackRoundTripAndStatsCounters) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(2, 16, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 16});
    AdaptConfig config;
    config.min_samples = 2;
    AdaptEngine adapter(engine, config);

    SocketServer server(engine);
    server.start();
    {
        ServeClient client("127.0.0.1", server.port());
        auto reply = client.report_feedback({"hybrid", 0, 1000.0, 2.0});
        EXPECT_EQ(reply.model_set, "hybrid");
        EXPECT_EQ(reply.device, 0);
        EXPECT_EQ(reply.samples, 1u);
        EXPECT_FALSE(reply.reliable);
        reply = client.report_feedback({"hybrid", 0, 1000.0, 2.0});
        EXPECT_EQ(reply.samples, 2u);
        EXPECT_TRUE(reply.reliable);
        EXPECT_GE(reply.version, 1u);

        // STATS must carry every adapt_* field, and samples must count.
        const std::string raw = client.request("STATS");
        const auto stats = Response::decode(raw);
        ASSERT_EQ(stats.kind, Response::Kind::kStats);
        const std::uint64_t samples_seen = stats.stats.adapt_samples;
        std::size_t adapt_fields = 0;
        std::istringstream tokens(raw);
        for (std::string token; tokens >> token;) {
            if (token.rfind("adapt_", 0) == 0) {
                ++adapt_fields;
            }
        }
        EXPECT_GE(adapt_fields, 5u) << "expected adapt_samples, "
                                       "adapt_reliable, adapt_drift, "
                                       "adapt_republished, adapt_model_version";
        EXPECT_GE(samples_seen, 2u);
    }
    server.stop();
}

TEST(AdaptWire, FeedbackWithoutAdapterIsACleanTypedError) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(2, 16, 1.0));
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 16});
    EXPECT_FALSE(engine.feedback_enabled());

    const std::string reply =
        serve::handle_line(engine, "FEEDBACK hybrid 0 1000 2.0");
    EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply;
    EXPECT_NE(reply.find("feedback not enabled"), std::string::npos) << reply;

    // Installing and destroying an adapter enables and disables cleanly.
    {
        AdaptEngine adapter(engine, AdaptConfig{});
        EXPECT_TRUE(engine.feedback_enabled());
        EXPECT_EQ(serve::handle_line(engine, "FEEDBACK hybrid 0 1000 2.0")
                      .rfind("OK FEEDBACK", 0),
                  0u);
    }
    EXPECT_FALSE(engine.feedback_enabled());
}

// ---------------------------------------------------------------------------
// Chaos: adapt fault points armed, zero torn replies
// ---------------------------------------------------------------------------

TEST(AdaptChaos, InjectedAdaptFaultsNeverTearTheWire) {
    FaultGuard guard;
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(3, 16, 1.0));
    RequestEngine engine(registry, {.workers = 3, .cache_capacity = 32});
    AdaptConfig config;
    config.min_samples = 2;
    config.drift_threshold = 0.05;
    config.cusum_limit = 0.1;
    AdaptEngine adapter(engine, config);

    fault::install(fault::FaultPlan::parse(
        "seed=9,adapt.ingest=0.2,adapt.refine=0.3,adapt.publish=0.5,"
        "serve.compute=0.1"));

    SocketServer server(engine);
    server.start();
    std::uint64_t ok = 0;
    std::uint64_t err = 0;
    {
        ServeClient client("127.0.0.1", server.port());
        const auto truth = synthetic_models(3, 16, 1.0);
        std::vector<std::string> lines;
        for (int round = 0; round < 40; ++round) {
            lines.clear();
            for (std::int64_t d = 0; d < 3; ++d) {
                serve::Request request;
                request.kind = serve::Request::Kind::kFeedback;
                const double x = 500.0 + 100.0 * static_cast<double>(d);
                // Drifting samples so refine/publish paths actually run.
                request.feedback = {"hybrid", d, x,
                                    truth[static_cast<std::size_t>(d)]
                                            .time(x) *
                                        (1.5 + 0.01 * round)};
                lines.push_back(request.encode());
            }
            serve::Request partition;
            partition.kind = serve::Request::Kind::kPartition;
            partition.partition = {"hybrid", 30 + round % 4, Algorithm::kFpm,
                                   true};
            lines.push_back(partition.encode());

            // Every pipelined reply must decode as a complete typed
            // message: OK or ERR, never torn, never hung.
            const auto replies = client.pipeline(lines);
            ASSERT_EQ(replies.size(), lines.size());
            for (const auto& line : replies) {
                const auto response = Response::decode(line);
                if (response.kind == Response::Kind::kError) {
                    ++err;
                    EXPECT_FALSE(response.error.empty());
                } else {
                    ++ok;
                }
            }
        }
    }
    server.stop();
    EXPECT_GT(ok, 0u);
    EXPECT_GT(err, 0u) << "fault plan never fired; chaos proved nothing";
    EXPECT_GT(fault::point("adapt.ingest").injected(), 0u);
}

// ---------------------------------------------------------------------------
// Hot-path guard: feedback ingestion never blocks PARTITION serving
// ---------------------------------------------------------------------------

TEST(AdaptStress, PartitionsKeepServingUnderConcurrentFeedback) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(3, 16, 1.0));
    RequestEngine engine(registry, {.workers = 4, .cache_capacity = 64});
    AdaptConfig config;
    config.drift_threshold = 1e9;  // ingest-only: no republish churn
    AdaptEngine adapter(engine, config);

    SocketServer server(engine);
    server.start();
    std::atomic<bool> stop{false};
    std::thread feeder([&] {
        ServeClient noisy("127.0.0.1", server.port());
        while (!stop.load(std::memory_order_relaxed)) {
            (void)noisy.report_feedback({"hybrid", 1, 750.0, 0.5});
        }
    });
    {
        ServeClient client("127.0.0.1", server.port());
        const auto expected =
            engine.execute({"hybrid", 52, Algorithm::kFpm, true});
        for (int i = 0; i < 200; ++i) {
            const auto reply =
                client.partition({"hybrid", 52, Algorithm::kFpm, true});
            ASSERT_EQ(reply.blocks, expected.plan->blocks)
                << "feedback traffic changed a PARTITION answer";
        }
    }
    stop.store(true, std::memory_order_relaxed);
    feeder.join();
    server.stop();
    EXPECT_GT(adapter.stats().samples, 0u);
}

} // namespace
} // namespace fpm::adapt
