// Tests for the partition service: model registry versioning, LRU cache,
// wire protocol, request engine (cache + single-flight dedup) and the
// socket server/client integration — including the acceptance scenario:
// >= 32 concurrent requests over >= 2 model sets whose responses must
// match the direct library call bit-for-bit, with cache hits making
// repeated queries measurably faster than cold ones.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fpm/core/model_io.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/measure/timer.hpp"
#include "fpm/obs/trace.hpp"
#include "fpm/part/request.hpp"
#include "fpm/serve/client.hpp"
#include "fpm/serve/model_registry.hpp"
#include "fpm/serve/partition_cache.hpp"
#include "fpm/serve/protocol.hpp"
#include "fpm/serve/request_engine.hpp"
#include "fpm/serve/server.hpp"
#include "stress_harness.hpp"

namespace fpm::serve {
namespace {

using core::SpeedFunction;
using core::SpeedPoint;

/// Deterministic synthetic device set; `points_per_model` controls how
/// expensive a cold partition is (the envelopes resample every segment).
std::vector<SpeedFunction> synthetic_models(std::size_t devices,
                                            std::size_t points_per_model,
                                            double peak_scale) {
    std::vector<SpeedFunction> models;
    for (std::size_t d = 0; d < devices; ++d) {
        std::vector<SpeedPoint> points;
        const double peak = peak_scale * (40.0 + 17.0 * static_cast<double>(d));
        const double cliff = 900.0 + 400.0 * static_cast<double>(d);
        const double x_max = 6000.0;
        for (std::size_t p = 0; p < points_per_model; ++p) {
            const double x = 4.0 + (x_max - 4.0) * static_cast<double>(p) /
                                       static_cast<double>(points_per_model - 1);
            const double ramp = x / (x + 25.0);
            const double speed = (x < cliff ? peak : 0.45 * peak) * ramp;
            points.push_back(SpeedPoint{x, speed});
        }
        models.emplace_back(std::move(points),
                            "dev" + std::to_string(d) + "s" +
                                std::to_string(devices));
    }
    return models;
}

std::shared_ptr<const PartitionPlan> plan_of(double balanced = 1.0) {
    auto plan = std::make_shared<PartitionPlan>();
    plan->balanced_time = balanced;
    return plan;
}

TEST(Fingerprint, ContentDeterminesHash) {
    const auto a = synthetic_models(3, 16, 1.0);
    const auto b = synthetic_models(3, 16, 1.0);
    const auto c = synthetic_models(3, 16, 1.1);
    EXPECT_EQ(fingerprint_models(a), fingerprint_models(b));
    EXPECT_NE(fingerprint_models(a), fingerprint_models(c));
    EXPECT_NE(fingerprint_models(a),
              fingerprint_models(synthetic_models(4, 16, 1.0)));
}

TEST(Fingerprint, IndependentOfRegistryName) {
    ModelRegistry registry;
    const auto first = registry.put("alpha", synthetic_models(2, 8, 1.0));
    const auto second = registry.put("beta", synthetic_models(2, 8, 1.0));
    EXPECT_EQ(first->fingerprint, second->fingerprint);
    EXPECT_NE(first->generation, second->generation);
}

TEST(ModelRegistryTest, VersioningAndHotReload) {
    ModelRegistry registry;
    const auto v1 = registry.put("hybrid", synthetic_models(3, 8, 1.0));
    EXPECT_EQ(registry.size(), 1U);
    EXPECT_EQ(registry.get("hybrid")->generation, v1->generation);

    // Hot reload installs a new generation; the old snapshot stays valid
    // for whoever still holds it (in-flight requests).
    const auto v2 = registry.put("hybrid", synthetic_models(3, 8, 2.0));
    EXPECT_GT(v2->generation, v1->generation);
    EXPECT_EQ(registry.size(), 1U);
    EXPECT_EQ(registry.get("hybrid")->generation, v2->generation);
    EXPECT_EQ(v1->models.size(), 3U);  // old snapshot untouched
    EXPECT_NE(v1->fingerprint, v2->fingerprint);
}

TEST(ModelRegistryTest, Validation) {
    ModelRegistry registry;
    EXPECT_THROW(registry.put("", synthetic_models(1, 8, 1.0)), fpm::Error);
    EXPECT_THROW(registry.put("has space", synthetic_models(1, 8, 1.0)),
                 fpm::Error);
    EXPECT_THROW(registry.put("has,comma", synthetic_models(1, 8, 1.0)),
                 fpm::Error);
    EXPECT_THROW(registry.put("ok", {}), fpm::Error);
    EXPECT_THROW(registry.get("missing"), fpm::Error);
    EXPECT_EQ(registry.find("missing"), nullptr);
}

TEST(PartitionCacheTest, LruEvictionAndCounters) {
    PartitionCache cache(2);
    const PlanKey k1{1, 10, Algorithm::kFpm, true};
    const PlanKey k2{1, 20, Algorithm::kFpm, true};
    const PlanKey k3{1, 30, Algorithm::kFpm, true};

    EXPECT_EQ(cache.get(k1), nullptr);  // miss
    cache.put(k1, plan_of(1.0));
    cache.put(k2, plan_of(2.0));
    EXPECT_NE(cache.get(k1), nullptr);  // hit, k1 now most recent
    cache.put(k3, plan_of(3.0));        // evicts k2 (least recent)
    EXPECT_EQ(cache.get(k2), nullptr);
    EXPECT_NE(cache.get(k3), nullptr);

    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 2U);
    EXPECT_EQ(stats.misses, 2U);
    EXPECT_EQ(stats.evictions, 1U);
    EXPECT_EQ(stats.size, 2U);

    cache.clear();
    EXPECT_EQ(cache.stats().size, 0U);
    EXPECT_THROW(PartitionCache(0), fpm::Error);
}

TEST(PartitionCacheTest, ShardingKeepsSemanticsAndSumsCounters) {
    // 3 stripes round up to 4 (power of two); every key of one
    // fingerprint lands on one stripe, so invalidation is single-shard.
    PartitionCache cache(8, 3);
    EXPECT_EQ(cache.shard_count(), 4U);

    constexpr std::uint64_t kFingerprints[] = {11, 22, 33, 44, 55};
    for (const std::uint64_t fp : kFingerprints) {
        cache.put(PlanKey{fp, 10, Algorithm::kFpm, true}, plan_of(1.0));
        cache.put(PlanKey{fp, 20, Algorithm::kFpm, true}, plan_of(2.0));
        EXPECT_NE(cache.get(PlanKey{fp, 10, Algorithm::kFpm, true}), nullptr);
        EXPECT_EQ(cache.get(PlanKey{fp, 99, Algorithm::kFpm, true}), nullptr);
    }

    // Per-shard counters sum field-wise to the global view.
    const auto global = cache.stats();
    const auto shards = cache.shard_stats();
    ASSERT_EQ(shards.size(), cache.shard_count());
    CacheStats sum;
    for (const auto& shard : shards) {
        sum.hits += shard.hits;
        sum.misses += shard.misses;
        sum.evictions += shard.evictions;
        sum.size += shard.size;
    }
    EXPECT_EQ(sum.hits, global.hits);
    EXPECT_EQ(sum.misses, global.misses);
    EXPECT_EQ(sum.evictions, global.evictions);
    EXPECT_EQ(sum.size, global.size);
    EXPECT_EQ(global.hits, 5U);
    EXPECT_EQ(global.misses, 5U);

    // Invalidating one fingerprint leaves every other one servable.
    cache.erase_fingerprint(33);
    EXPECT_EQ(cache.get(PlanKey{33, 10, Algorithm::kFpm, true}), nullptr);
    EXPECT_EQ(cache.get(PlanKey{33, 20, Algorithm::kFpm, true}), nullptr);
    EXPECT_NE(cache.get(PlanKey{22, 10, Algorithm::kFpm, true}), nullptr);
    EXPECT_NE(cache.get(PlanKey{44, 20, Algorithm::kFpm, true}), nullptr);

    EXPECT_THROW(PartitionCache(8, 0), fpm::Error);
}

TEST(PartitionCacheTest, KeyOrderingDiscriminatesEveryField) {
    const PlanKey base{7, 10, Algorithm::kFpm, true};
    PlanKey other = base;
    other.fingerprint = 8;
    EXPECT_NE(base, other);
    other = base;
    other.algorithm = Algorithm::kCpm;
    EXPECT_NE(base, other);
    other = base;
    other.with_layout = false;
    EXPECT_NE(base, other);
}

TEST(Protocol, AlgorithmNamesRoundTrip) {
    for (const Algorithm algorithm :
         {Algorithm::kFpm, Algorithm::kCpm, Algorithm::kEven}) {
        EXPECT_EQ(part::parse_algorithm(part::to_string(algorithm)), algorithm);
    }
    EXPECT_EQ(part::parse_algorithm("nope"), std::nullopt);
}

TEST(Protocol, DecodeRequest) {
    EXPECT_EQ(Request::decode("PING").kind, Request::Kind::kPing);
    EXPECT_EQ(Request::decode("QUIT").kind, Request::Kind::kQuit);
    EXPECT_EQ(Request::decode("STATS").kind, Request::Kind::kStats);
    EXPECT_EQ(Request::decode("MODELS").kind, Request::Kind::kModels);

    const Request load = Request::decode("LOAD hybrid /tmp/m.csv");
    EXPECT_EQ(load.kind, Request::Kind::kLoad);
    EXPECT_EQ(load.name, "hybrid");
    EXPECT_EQ(load.path, "/tmp/m.csv");

    const Request p = Request::decode("PARTITION hybrid 60 cpm nolayout");
    EXPECT_EQ(p.kind, Request::Kind::kPartition);
    EXPECT_EQ(p.partition.model_set, "hybrid");
    EXPECT_EQ(p.partition.n, 60);
    EXPECT_EQ(p.partition.algorithm, Algorithm::kCpm);
    EXPECT_FALSE(p.partition.with_layout);

    EXPECT_THROW(Request::decode(""), fpm::Error);
    EXPECT_THROW(Request::decode("FROB"), fpm::Error);
    EXPECT_THROW(Request::decode("PING extra"), fpm::Error);
    EXPECT_THROW(Request::decode("LOAD onlyname"), fpm::Error);
    EXPECT_THROW(Request::decode("PARTITION hybrid"), fpm::Error);
    EXPECT_THROW(Request::decode("PARTITION hybrid abc fpm"), fpm::Error);
    EXPECT_THROW(Request::decode("PARTITION hybrid 60x fpm"), fpm::Error);
    EXPECT_THROW(Request::decode("PARTITION hybrid -5 fpm"), fpm::Error);
    EXPECT_THROW(Request::decode("PARTITION hybrid 60 magic"), fpm::Error);
    EXPECT_THROW(Request::decode("PARTITION hybrid 60 fpm wat"), fpm::Error);
}

TEST(Protocol, RequestEncodeDecodeRoundTrip) {
    const char* lines[] = {"PING", "QUIT", "STATS", "MODELS",
                           "LOAD hybrid /tmp/m.csv",
                           "PARTITION hybrid 60 cpm nolayout",
                           "PARTITION hybrid 48 fpm"};
    for (const char* line : lines) {
        const Request request = Request::decode(line);
        EXPECT_EQ(request.encode(), line);
        // decode(encode()) is the identity on kinds.
        EXPECT_EQ(Request::decode(request.encode()).kind, request.kind);
    }
}

TEST(Protocol, ResponseEncodeDecodeRoundTrip) {
    {
        const Response error =
            Response::make_error(ErrorCode::kInternal, "it\nbroke");
        // The newline is sanitized out of the one-line reply.
        EXPECT_EQ(error.encode(), "ERR internal it broke");
        const Response decoded = Response::decode(error.encode());
        EXPECT_EQ(decoded.kind, Response::Kind::kError);
        EXPECT_EQ(decoded.error_code, ErrorCode::kInternal);
        EXPECT_EQ(decoded.error, "it broke");
    }
    {
        // A message-less typed error is the bare token on the wire and
        // round-trips to itself (`error` is never empty).
        const Response busy = Response::make_error(ErrorCode::kBusy);
        EXPECT_EQ(busy.encode(), "ERR busy");
        const Response decoded = Response::decode(busy.encode());
        EXPECT_EQ(decoded.error_code, ErrorCode::kBusy);
        EXPECT_EQ(decoded.error, "busy");
        EXPECT_EQ(decoded.encode(), "ERR busy");
    }
    {
        Response pong;
        pong.kind = Response::Kind::kPong;
        pong.version = kProtocolVersion;
        const Response decoded = Response::decode(pong.encode());
        EXPECT_EQ(decoded.kind, Response::Kind::kPong);
        EXPECT_EQ(decoded.version, kProtocolVersion);
    }
    {
        Response loaded;
        loaded.kind = Response::Kind::kLoaded;
        loaded.loaded = LoadedReply{"hybrid", 3, 7, 0xdeadbeefcafef00dULL};
        const Response decoded = Response::decode(loaded.encode());
        EXPECT_EQ(decoded.kind, Response::Kind::kLoaded);
        EXPECT_EQ(decoded.loaded.name, "hybrid");
        EXPECT_EQ(decoded.loaded.models, 3U);
        EXPECT_EQ(decoded.loaded.generation, 7U);
        EXPECT_EQ(decoded.loaded.fingerprint, 0xdeadbeefcafef00dULL);
    }
    {
        Response models;
        models.kind = Response::Kind::kModels;
        models.sets = {ModelSetInfo{"a", 1, 2}, ModelSetInfo{"b", 3, 4}};
        const Response decoded = Response::decode(models.encode());
        ASSERT_EQ(decoded.sets.size(), 2U);
        EXPECT_EQ(decoded.sets[1].name, "b");
        EXPECT_EQ(decoded.sets[1].generation, 3U);
        EXPECT_EQ(decoded.sets[1].models, 4U);
    }
    EXPECT_THROW(Response::decode("OK WAT"), fpm::Error);
    EXPECT_THROW(Response::decode("nope"), fpm::Error);
}

TEST(Protocol, HandleLineBasics) {
    ModelRegistry registry;
    registry.put("tiny", synthetic_models(2, 8, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 8});

    EXPECT_EQ(handle_line(engine, "PING"),
              "OK PONG v" + std::to_string(kProtocolVersion));
    EXPECT_EQ(handle_line(engine, "QUIT"), "OK BYE");
    EXPECT_EQ(handle_line(engine, "BOGUS").rfind("ERR ", 0), 0U);
    EXPECT_EQ(handle_line(engine, "PARTITION missing 10 fpm").rfind("ERR ", 0),
              0U);

    const std::string models = handle_line(engine, "MODELS");
    EXPECT_NE(models.find("OK MODELS count=1"), std::string::npos);
    EXPECT_NE(models.find("tiny:"), std::string::npos);

    const std::string reply = handle_line(engine, "PARTITION tiny 16 fpm");
    const PartitionReply parsed = parse_partition_reply(reply);
    EXPECT_EQ(parsed.model, "tiny");
    EXPECT_EQ(parsed.n, 16);
    EXPECT_EQ(parsed.blocks.size(), 2U);
    EXPECT_EQ(parsed.rects.size(), 2U);

    // Two PARTITION lines hit the engine (the failed one still counts);
    // the STATS reply round-trips into the typed ServerStats view.
    const Response stats_response =
        Response::decode(handle_line(engine, "STATS"));
    ASSERT_EQ(stats_response.kind, Response::Kind::kStats);
    const ServerStats& stats = stats_response.stats;
    EXPECT_EQ(stats.requests, 2U);
    EXPECT_EQ(stats.computed, 1U);

    // Per-algorithm latency quantiles: only the fpm request completed.
    const AlgorithmStats& fpm_lat =
        stats.by_algorithm[static_cast<std::size_t>(Algorithm::kFpm)];
    EXPECT_EQ(fpm_lat.count, 1U);
    EXPECT_GT(fpm_lat.p50_us, 0.0);
    EXPECT_GE(fpm_lat.p95_us, fpm_lat.p50_us);
    EXPECT_GE(fpm_lat.p99_us, fpm_lat.p95_us);
    EXPECT_EQ(stats.by_algorithm[static_cast<std::size_t>(Algorithm::kCpm)]
                  .count,
              0U);
    EXPECT_EQ(stats.by_algorithm[static_cast<std::size_t>(Algorithm::kEven)]
                  .count,
              0U);
    EXPECT_TRUE(stats.extras.empty()) << stats.extras.begin()->first;

    EXPECT_THROW(parse_partition_reply("ERR kaput"), fpm::Error);
    EXPECT_THROW(parse_partition_reply("OK PONG"), fpm::Error);
}

TEST(Protocol, HandleLineBoundsTheWorkloadSize) {
    ModelRegistry registry;
    registry.put("tiny", synthetic_models(2, 8, 1.0));
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 8});

    // n*n past 2^53 used to overflow int64 (or round in the double
    // shares) and answer `ERR internal`; it is the client's mistake.
    for (const char* n : {"94906266", "3037000499", "3037000500"}) {
        const std::string reply = handle_line(
            engine, std::string("PARTITION tiny ") + n + " even");
        EXPECT_EQ(reply.rfind("ERR bad_request ", 0), 0U) << reply;
    }
    const PartitionReply largest = parse_partition_reply(
        handle_line(engine, "PARTITION tiny 94906265 even"));
    std::int64_t total = 0;
    for (const std::int64_t blocks : largest.blocks) {
        total += blocks;
    }
    EXPECT_EQ(total, std::int64_t{94906265} * 94906265);

    // The library checks the same bound before it squares n.
    const auto models = synthetic_models(2, 8, 1.0);
    for (const std::int64_t n : {part::kMaxN + 1, std::int64_t{3037000500}}) {
        EXPECT_THROW(
            (void)part::partition({models, n, Algorithm::kEven, false}),
            fpm::Error)
            << n;
    }
}

TEST(RequestEngineTest, MatchesDirectLibraryCallBitForBit) {
    ModelRegistry registry;
    const auto set = registry.put("hybrid", synthetic_models(4, 24, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 32});

    for (const Algorithm algorithm :
         {Algorithm::kFpm, Algorithm::kCpm, Algorithm::kEven}) {
        for (const bool with_layout : {true, false}) {
            const PartitionRequest request{"hybrid", 48, algorithm,
                                           with_layout};
            const auto response = engine.execute(request);
            const PartitionPlan direct = RequestEngine::compute_plan(
                *set, request.n, algorithm, with_layout);

            ASSERT_NE(response.plan, nullptr);
            EXPECT_EQ(response.plan->blocks, direct.blocks);
            EXPECT_EQ(response.plan->balanced_time, direct.balanced_time);
            EXPECT_EQ(response.plan->makespan, direct.makespan);
            EXPECT_EQ(response.plan->comm_cost, direct.comm_cost);
            EXPECT_EQ(response.plan->generation, set->generation);
            ASSERT_EQ(response.plan->layout.rects.size(),
                      direct.layout.rects.size());
            for (std::size_t i = 0; i < direct.layout.rects.size(); ++i) {
                EXPECT_EQ(response.plan->layout.rects[i].col0,
                          direct.layout.rects[i].col0);
                EXPECT_EQ(response.plan->layout.rects[i].row0,
                          direct.layout.rects[i].row0);
                EXPECT_EQ(response.plan->layout.rects[i].w,
                          direct.layout.rects[i].w);
                EXPECT_EQ(response.plan->layout.rects[i].h,
                          direct.layout.rects[i].h);
            }
            if (with_layout) {
                std::int64_t covered = 0;
                for (const auto blocks : response.plan->blocks) {
                    covered += blocks;
                }
                EXPECT_EQ(covered, request.n * request.n);
            }
        }
    }
}

TEST(RequestEngineTest, CachesRepeatsAndTracksGenerations) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(3, 16, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 32});
    const PartitionRequest request{"hybrid", 40, Algorithm::kFpm, true};

    const auto cold = engine.execute(request);
    EXPECT_FALSE(cold.cache_hit);
    const auto warm = engine.execute(request);
    EXPECT_TRUE(warm.cache_hit);
    EXPECT_EQ(warm.plan.get(), cold.plan.get());  // same shared plan

    auto stats = engine.stats();
    EXPECT_EQ(stats.requests, 2U);
    EXPECT_EQ(stats.computed, 1U);
    EXPECT_GE(stats.cache.hits, 1U);

    // Hot reload with different content: the old cache entry no longer
    // matches (fingerprint key), so the next request recomputes against
    // the new snapshot.
    registry.put("hybrid", synthetic_models(3, 16, 2.0));
    const auto reloaded = engine.execute(request);
    EXPECT_FALSE(reloaded.cache_hit);
    EXPECT_GT(reloaded.plan->generation, cold.plan->generation);

    // Reload with *identical* content keeps the cache warm.
    registry.put("hybrid", synthetic_models(3, 16, 2.0));
    const auto still_warm = engine.execute(request);
    EXPECT_TRUE(still_warm.cache_hit);
}

TEST(RequestEngineTest, RejectsBadRequests) {
    ModelRegistry registry;
    registry.put("ok", synthetic_models(2, 8, 1.0));
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 4});
    EXPECT_THROW(engine.execute({"missing", 10, Algorithm::kFpm, true}),
                 fpm::Error);
    EXPECT_THROW(engine.execute({"ok", 0, Algorithm::kFpm, true}), fpm::Error);
    EXPECT_THROW(engine.execute({"ok", -3, Algorithm::kFpm, true}), fpm::Error);
}

TEST(RequestEngineTest, SingleFlightCoalescesIdenticalRequests) {
    ModelRegistry registry;
    // Expensive models so the storm genuinely overlaps the computation.
    registry.put("big", synthetic_models(6, 600, 1.0));
    RequestEngine engine(registry, {.workers = 4, .cache_capacity = 32});

    constexpr std::size_t kClients = 16;
    const PartitionRequest request{"big", 64, Algorithm::kFpm, true};
    std::vector<std::shared_ptr<const PartitionPlan>> plans(kClients);
    fpm::test::run_concurrently(kClients, [&](std::size_t i) {
        plans[i] = engine.execute(request).plan;
    });

    for (const auto& plan : plans) {
        ASSERT_NE(plan, nullptr);
        EXPECT_EQ(plan.get(), plans[0].get());  // everyone shares one plan
    }
    const auto stats = engine.stats();
    EXPECT_EQ(stats.requests, kClients);
    // The cache re-check under the in-flight lock makes this exact: one
    // computation, every other request a cache hit or a coalesced waiter.
    EXPECT_EQ(stats.computed, 1U);
    EXPECT_EQ(stats.coalesced + stats.cache.hits, kClients - 1);
    std::uint64_t latency_count = 0;  // every request lands in one histogram
    for (const auto& histogram : stats.latency_by_algorithm) {
        latency_count += histogram.count;
    }
    EXPECT_EQ(latency_count, kClients);
    // Per-algorithm latency histogram saw every request (all were fpm).
    EXPECT_EQ(stats.latency_by_algorithm[static_cast<std::size_t>(
                  Algorithm::kFpm)].count,
              kClients);
    EXPECT_EQ(stats.latency_by_algorithm[static_cast<std::size_t>(
                  Algorithm::kCpm)].count,
              0U);
}

TEST(RequestEngineTest, SubmitRunsOnPool) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(3, 16, 1.0));
    RequestEngine engine(registry, {.workers = 4, .cache_capacity = 32});

    std::vector<std::future<PartitionResponse>> futures;
    for (int i = 0; i < 24; ++i) {
        futures.push_back(engine.submit(
            {"hybrid", 16 + (i % 6) * 8, Algorithm::kFpm, true}));
    }
    for (auto& future : futures) {
        const auto response = future.get();
        ASSERT_NE(response.plan, nullptr);
        EXPECT_GT(response.plan->makespan, 0.0);
    }
    EXPECT_EQ(engine.stats().requests, 24U);
}

// ---------------------------------------------------------------------------
// Acceptance integration: socket server, >= 32 concurrent requests over
// two model sets, bit-for-bit agreement with the direct library call,
// cache hits > 0 and warm queries measurably faster than cold ones.
// ---------------------------------------------------------------------------
TEST(ServeIntegration, ConcurrentClientsMatchDirectLibraryCalls) {
    const std::string alpha_csv = "/tmp/fpmpart_serve_alpha.csv";
    const std::string beta_csv = "/tmp/fpmpart_serve_beta.csv";
    core::save_speed_functions_csv(alpha_csv, synthetic_models(4, 200, 1.0));
    core::save_speed_functions_csv(beta_csv, synthetic_models(3, 200, 1.7));

    ModelRegistry registry;
    registry.load_csv("alpha", alpha_csv);
    registry.load_csv("beta", beta_csv);
    RequestEngine engine(registry, {.workers = 4, .cache_capacity = 256});
    SocketServer server(engine);
    server.start();
    ASSERT_GT(server.port(), 0);

    constexpr std::size_t kClients = 32;
    const std::int64_t ns[] = {24, 30, 36, 42, 48, 54, 60, 66};
    const Algorithm algorithms[] = {Algorithm::kFpm, Algorithm::kCpm,
                                    Algorithm::kEven};
    std::vector<PartitionReply> replies(kClients);
    std::vector<PartitionRequest> requests(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
        requests[i] = PartitionRequest{(i % 2 == 0) ? "alpha" : "beta",
                                       ns[i % 8], algorithms[i % 3], true};
    }

    fpm::test::run_concurrently(kClients, [&](std::size_t i) {
        ServeClient client("127.0.0.1", server.port());
        replies[i] = client.partition(requests[i]);
    });

    // Every wire response must equal the direct library call bit-for-bit.
    for (std::size_t i = 0; i < kClients; ++i) {
        const auto set = registry.get(requests[i].model_set);
        const PartitionPlan direct = RequestEngine::compute_plan(
            *set, requests[i].n, requests[i].algorithm, true);
        const PartitionReply& reply = replies[i];
        EXPECT_EQ(reply.model, requests[i].model_set) << i;
        EXPECT_EQ(reply.generation, set->generation) << i;
        EXPECT_EQ(reply.blocks, direct.blocks) << i;
        EXPECT_EQ(reply.balanced_time, direct.balanced_time) << i;
        EXPECT_EQ(reply.makespan, direct.makespan) << i;
        EXPECT_EQ(reply.comm_cost, direct.comm_cost) << i;
        ASSERT_EQ(reply.rects.size(), direct.layout.rects.size()) << i;
        for (std::size_t r = 0; r < reply.rects.size(); ++r) {
            EXPECT_EQ(reply.rects[r].col0, direct.layout.rects[r].col0);
            EXPECT_EQ(reply.rects[r].row0, direct.layout.rects[r].row0);
            EXPECT_EQ(reply.rects[r].w, direct.layout.rects[r].w);
            EXPECT_EQ(reply.rects[r].h, direct.layout.rects[r].h);
        }
    }
    EXPECT_GE(server.connections_accepted(), kClients);

    // The 32 requests covered 24 distinct (set, n, algo) combinations; a
    // second identical pass over one connection must be served from the
    // cache and report it.
    const auto before = engine.stats();
    {
        ServeClient client("127.0.0.1", server.port());
        for (std::size_t i = 0; i < kClients; ++i) {
            const PartitionReply warm = client.partition(requests[i]);
            EXPECT_TRUE(warm.cached) << i;
            EXPECT_EQ(warm.blocks, replies[i].blocks) << i;
        }
    }
    const auto after = engine.stats();
    EXPECT_GT(after.cache.hits, before.cache.hits);
    EXPECT_GT(after.cache.hits, 0U);

    // Warm queries must be measurably faster than cold ones: time a
    // batch of never-seen sizes against the same batch repeated.
    const std::int64_t cold_ns[] = {25, 31, 37, 43, 49, 55, 61, 67};
    measure::WallTimer timer;
    for (const std::int64_t n : cold_ns) {
        engine.execute({"alpha", n, Algorithm::kFpm, true});
    }
    const double cold_seconds = timer.elapsed();
    double warm_seconds = std::numeric_limits<double>::infinity();
    for (int repeat = 0; repeat < 3; ++repeat) {  // min over repeats
        timer.reset();
        for (const std::int64_t n : cold_ns) {
            const auto warm = engine.execute({"alpha", n, Algorithm::kFpm,
                                              true});
            EXPECT_TRUE(warm.cache_hit);
        }
        warm_seconds = std::min(warm_seconds, timer.elapsed());
    }
    EXPECT_LT(warm_seconds * 2.0, cold_seconds)
        << "cold=" << cold_seconds << "s warm=" << warm_seconds << "s";

    server.stop();
    EXPECT_FALSE(server.running());
    std::remove(alpha_csv.c_str());
    std::remove(beta_csv.c_str());
}

TEST(ServeIntegration, WireLoadStatsAndQuit) {
    const std::string csv = "/tmp/fpmpart_serve_load.csv";
    core::save_speed_functions_csv(csv, synthetic_models(2, 12, 1.0));

    ModelRegistry registry;
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 16});
    SocketServer server(engine);
    server.start();

    ServeClient client("127.0.0.1", server.port());
    client.ping();

    // Hot-load a model set over the wire, then use it.
    const std::string loaded = client.request("LOAD wired " + csv);
    EXPECT_EQ(loaded.rfind("OK LOADED name=wired models=2", 0), 0U) << loaded;
    const PartitionReply reply =
        client.partition({"wired", 20, Algorithm::kFpm, true});
    EXPECT_EQ(reply.blocks.size(), 2U);

    // Typed STATS round trip: the hot-loaded registry entry is counted.
    const ServerStats stats = client.stats();
    EXPECT_EQ(stats.models, 1U);
    EXPECT_EQ(stats.reactors, 1U);

    // Malformed input answers ERR but keeps the connection usable.
    EXPECT_EQ(client.request("PARTITION nope 10 fpm").rfind("ERR ", 0), 0U);
    client.ping();

    EXPECT_EQ(client.request("QUIT"), "OK BYE");
    EXPECT_THROW(client.request("PING"), fpm::Error);  // server hung up

    server.stop();
    std::remove(csv.c_str());
}

/// Binds a loopback listener on an ephemeral port (never accepts unless
/// the test does so itself); returns {fd, port}.
std::pair<int, std::uint16_t> loopback_listener() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    EXPECT_EQ(::listen(fd, 4), 0);
    socklen_t len = sizeof addr;
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    return {fd, ntohs(addr.sin_port)};
}

TEST(ServeClientTest, RecvTimeoutOnServerThatAcceptsButNeverReplies) {
    const auto [fd, port] = loopback_listener();

    ServeConfig config;
    config.connect_timeout = 2.0;
    config.recv_timeout = 0.2;
    ServeClient client("127.0.0.1", port, config);  // lands in the backlog

    measure::WallTimer timer;
    try {
        (void)client.request("PING");
        FAIL() << "expected a timeout error";
    } catch (const fpm::Error& e) {
        EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
            << e.what();
    }
    EXPECT_LT(timer.elapsed(), 2.0);  // bounded, not hanging forever
    ::close(fd);
}

TEST(ServeClientTest, RejectsProtocolVersionMismatch) {
    const auto [fd, port] = loopback_listener();
    std::thread impostor([fd = fd]() {
        const int conn = ::accept(fd, nullptr, nullptr);
        if (conn < 0) {
            return;
        }
        char buffer[256];
        (void)::recv(conn, buffer, sizeof buffer, 0);
        const char reply[] = "OK PONG v1\n";
        (void)::send(conn, reply, sizeof reply - 1, MSG_NOSIGNAL);
        ::close(conn);
    });

    ServeClient client("127.0.0.1", port);
    try {
        client.ping();
        FAIL() << "expected a protocol version error";
    } catch (const fpm::Error& e) {
        EXPECT_NE(std::string(e.what()).find("protocol version mismatch"),
                  std::string::npos)
            << e.what();
    }
    impostor.join();
    ::close(fd);
}

TEST(ServeIntegration, ExportsChromeTraceOfServedRequests) {
    const std::string trace_path = "/tmp/fpmpart_serve_trace.json";
    std::remove(trace_path.c_str());
    obs::enable_tracing(trace_path);
    {
        ModelRegistry registry;
        registry.put("traced", synthetic_models(3, 32, 1.0));
        RequestEngine engine(registry, {.workers = 2, .cache_capacity = 16});
        for (int i = 0; i < 4; ++i) {
            engine.execute({"traced", 24 + 4 * i, Algorithm::kFpm, true});
        }
        engine.execute({"traced", 24, Algorithm::kFpm, true});  // cache hit
    }
    obs::flush_trace();
    obs::disable_tracing();

    std::ifstream in(trace_path);
    ASSERT_TRUE(in.is_open()) << trace_path;
    std::stringstream content;
    content << in.rdbuf();
    const std::string json = content.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("serve.execute"), std::string::npos);
    EXPECT_NE(json.find("serve.compute"), std::string::npos);
    EXPECT_NE(json.find("part.fpm_partition"), std::string::npos);
    std::remove(trace_path.c_str());
}

TEST(ServeIntegration, ClientReportsRoundTripTime) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(2, 8, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 16});
    SocketServer server(engine);
    server.start();

    ServeClient client("127.0.0.1", server.port());
    EXPECT_EQ(client.last_rtt_seconds(), 0.0);  // nothing measured yet

    measure::WallTimer timer;
    client.ping();
    const double outer = timer.elapsed();
    const double ping_rtt = client.last_rtt_seconds();
    EXPECT_GT(ping_rtt, 0.0);
    // The start/stop hug the socket round trip, so the outer timer —
    // which also covers encode/decode — can only read larger.
    EXPECT_LE(ping_rtt, outer);

    // Server-side time is part of the measurement: a 30 ms delay
    // injected into the compute path puts a hard floor under the RTT.
    fault::install(fault::FaultPlan::parse("seed=1,serve.compute=1:delay:30"));
    (void)client.partition({"hybrid", 48, Algorithm::kFpm, true});
    fault::uninstall();
    EXPECT_GE(client.last_rtt_seconds(), 0.030);

    server.stop();
}

} // namespace
} // namespace fpm::serve
