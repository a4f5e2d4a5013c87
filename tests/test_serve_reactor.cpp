// Tests for the serve reactor's connection lifecycle: request
// pipelining (many lines in flight per connection, responses strictly in
// request order, bit-for-bit equal to the direct library call under 64
// concurrent pipelined clients), slow-loris eviction by the idle-timeout
// timer wheel, max_connections admission control, graceful drain of
// in-flight requests on stop(), and the reactor fields surfaced through
// STATS.  The ServeReactorPool suite reruns the parity and admission
// workloads against a 4-reactor SO_REUSEPORT pool — replies must stay
// bit-for-bit identical at every reactor count, the max_connections
// budget must stay global, drain must complete on every reactor, and
// the STATS aggregation invariant (per-shard cache counters summing to
// the global ones) must hold.  Every reply over the wire, errors and
// degraded answers included, must equal handle_line() on a twin engine.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "fpm/core/model_io.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/measure/timer.hpp"
#include "fpm/serve/client.hpp"
#include "fpm/serve/model_registry.hpp"
#include "fpm/serve/protocol.hpp"
#include "fpm/serve/reactor_metrics.hpp"
#include "fpm/serve/request_engine.hpp"
#include "fpm/serve/server.hpp"
#include "stress_harness.hpp"

namespace fpm::serve {
namespace {

using core::SpeedFunction;
using core::SpeedPoint;

/// Deterministic synthetic device set (same family as test_serve.cpp).
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

std::string partition_line(const std::string& model, std::int64_t n,
                           Algorithm algorithm) {
    Request request;
    request.kind = Request::Kind::kPartition;
    request.partition = PartitionRequest{model, n, algorithm, true};
    return request.encode();
}

// ---------------------------------------------------------------------------
// 64 concurrent pipelined clients, responses bit-for-bit vs the direct
// library call and strictly in request order — at any reactor count.
// ---------------------------------------------------------------------------
void pipelined_parity_against_direct(std::size_t num_reactors) {
    ModelRegistry registry;
    const auto alpha = registry.put("alpha", synthetic_models(4, 200, 1.0));
    const auto beta = registry.put("beta", synthetic_models(3, 200, 1.7));
    RequestEngine engine(registry, {.workers = 4, .cache_capacity = 256});
    ServeConfig config;
    config.num_reactors = num_reactors;
    SocketServer server(engine, config);
    server.start();
    ASSERT_EQ(server.num_reactors(), num_reactors);

    const ReactorMetrics& metrics = ReactorMetrics::get();
    const std::uint64_t pipelined_before = metrics.pipelined.value();

    constexpr std::size_t kClients = 64;
    constexpr std::size_t kRequestsPerClient = 8;
    const std::int64_t ns[] = {24, 30, 36, 42, 48, 54, 60, 66};
    const Algorithm algorithms[] = {Algorithm::kFpm, Algorithm::kCpm,
                                    Algorithm::kEven};

    // Every client pipelines its whole batch (plus QUIT) in one write.
    std::vector<std::vector<PartitionRequest>> requests(kClients);
    std::vector<std::vector<std::string>> replies(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
        for (std::size_t j = 0; j < kRequestsPerClient; ++j) {
            const std::size_t mix = i + j;
            requests[i].push_back(PartitionRequest{
                (mix % 2 == 0) ? "alpha" : "beta", ns[mix % 8],
                algorithms[mix % 3], true});
        }
    }

    fpm::test::run_concurrently(kClients, [&](std::size_t i) {
        ServeClient client("127.0.0.1", server.port());
        std::vector<std::string> lines;
        for (const auto& request : requests[i]) {
            lines.push_back(partition_line(request.model_set, request.n,
                                           request.algorithm));
        }
        lines.push_back("QUIT");
        replies[i] = client.pipeline(lines);
    });

    // Direct library answers, one per distinct (set, n, algorithm).
    std::map<std::tuple<std::string, std::int64_t, int>, PartitionPlan>
        direct;
    for (const auto& batch : requests) {
        for (const auto& request : batch) {
            const auto key = std::make_tuple(
                request.model_set, request.n,
                static_cast<int>(request.algorithm));
            if (direct.find(key) == direct.end()) {
                const auto& set =
                    request.model_set == "alpha" ? alpha : beta;
                direct.emplace(key,
                               RequestEngine::compute_plan(
                                   *set, request.n, request.algorithm, true));
            }
        }
    }

    for (std::size_t i = 0; i < kClients; ++i) {
        ASSERT_EQ(replies[i].size(), kRequestsPerClient + 1) << i;
        EXPECT_EQ(replies[i].back(), "OK BYE") << i;
        for (std::size_t j = 0; j < kRequestsPerClient; ++j) {
            const auto& request = requests[i][j];
            const PartitionReply reply =
                parse_partition_reply(replies[i][j]);
            const PartitionPlan& expected = direct.at(std::make_tuple(
                request.model_set, request.n,
                static_cast<int>(request.algorithm)));
            // In-order: the j-th reply answers the j-th request.
            EXPECT_EQ(reply.model, request.model_set) << i << "," << j;
            EXPECT_EQ(reply.n, request.n) << i << "," << j;
            EXPECT_EQ(reply.algorithm, request.algorithm) << i << "," << j;
            // Bit-for-bit vs the direct library call.
            EXPECT_EQ(reply.blocks, expected.blocks) << i << "," << j;
            EXPECT_EQ(reply.balanced_time, expected.balanced_time)
                << i << "," << j;
            EXPECT_EQ(reply.makespan, expected.makespan) << i << "," << j;
            EXPECT_EQ(reply.comm_cost, expected.comm_cost) << i << "," << j;
            ASSERT_EQ(reply.rects.size(), expected.layout.rects.size())
                << i << "," << j;
            for (std::size_t r = 0; r < reply.rects.size(); ++r) {
                EXPECT_EQ(reply.rects[r].col0, expected.layout.rects[r].col0);
                EXPECT_EQ(reply.rects[r].row0, expected.layout.rects[r].row0);
                EXPECT_EQ(reply.rects[r].w, expected.layout.rects[r].w);
                EXPECT_EQ(reply.rects[r].h, expected.layout.rects[r].h);
            }
        }
    }

    EXPECT_GE(server.connections_accepted(), kClients);
    // The batches genuinely pipelined: requests arrived while earlier
    // ones were still in flight.
    EXPECT_GT(metrics.pipelined.value(), pipelined_before);

    // The typed STATS surface reports the pool size while it runs.
    {
        ServeClient probe("127.0.0.1", server.port());
        const ServerStats stats = probe.stats();
        EXPECT_EQ(stats.reactors, num_reactors);
        EXPECT_GE(stats.requests, kClients * kRequestsPerClient);
    }

    server.stop();
    EXPECT_FALSE(server.running());
}

TEST(ServeReactor, PipelinedClientsMatchDirectLibraryCalls) {
    pipelined_parity_against_direct(1);
}

TEST(ServeReactorPool, FourReactorsMatchDirectLibraryCallsBitForBit) {
    pipelined_parity_against_direct(4);
}

// ---------------------------------------------------------------------------
// Responses interleave inline commands and pool-computed partitions but
// always come back in request order on one connection.
// ---------------------------------------------------------------------------
TEST(ServeReactor, MixedPipelineKeepsRequestOrder) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(3, 64, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 32});
    SocketServer server(engine);
    server.start();

    ServeClient client("127.0.0.1", server.port());
    const std::vector<std::string> lines = {
        "PING",
        partition_line("hybrid", 32, Algorithm::kFpm),
        "BOGUS",
        partition_line("hybrid", 40, Algorithm::kCpm),
        "PING",
        "STATS",
    };
    const auto replies = client.pipeline(lines);
    ASSERT_EQ(replies.size(), lines.size());
    EXPECT_EQ(replies[0], "OK PONG v" + std::to_string(kProtocolVersion));
    EXPECT_EQ(parse_partition_reply(replies[1]).n, 32);
    EXPECT_EQ(replies[2].rfind("ERR ", 0), 0U) << replies[2];
    const PartitionReply second = parse_partition_reply(replies[3]);
    EXPECT_EQ(second.n, 40);
    EXPECT_EQ(second.algorithm, Algorithm::kCpm);
    EXPECT_EQ(replies[4], "OK PONG v" + std::to_string(kProtocolVersion));
    EXPECT_EQ(replies[5].rfind("OK STATS ", 0), 0U) << replies[5];

    // The reactor's lifecycle fields travel through STATS, fully typed:
    // every known field lands in ServerStats, nothing leaks to extras.
    const Response stats_response = Response::decode(replies[5]);
    ASSERT_EQ(stats_response.kind, Response::Kind::kStats);
    const ServerStats& stats = stats_response.stats;
    EXPECT_GE(stats.open_conns, 1);
    EXPECT_GE(stats.q2r_p50_us, 0.0);
    EXPECT_EQ(stats.reactors, 1U);
    EXPECT_EQ(stats.cache_shards, 1U);  // default single-stripe cache
    EXPECT_TRUE(stats.extras.empty()) << stats.extras.begin()->first;

    server.stop();
}

// ---------------------------------------------------------------------------
// Slow loris: a connection that trickles a partial line and then stalls
// is evicted by the timer wheel after idle_timeout.
// ---------------------------------------------------------------------------
TEST(ServeReactor, SlowLorisEvictedByIdleTimeout) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(2, 16, 1.0));
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 8});
    ServeConfig config;
    config.idle_timeout = 0.3;
    SocketServer server(engine, config);
    server.start();

    const ReactorMetrics& metrics = ReactorMetrics::get();
    const std::uint64_t evictions_before = metrics.idle_timeouts.value();

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    // A partial request line, then silence — never a newline.
    ASSERT_GT(::send(fd, "PARTIT", 6, MSG_NOSIGNAL), 0);

    const timeval tv{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    measure::WallTimer timer;
    char byte;
    const ssize_t n = ::recv(fd, &byte, 1, 0);  // blocks until eviction
    const double waited = timer.elapsed();
    EXPECT_EQ(n, 0) << "expected EOF from the server, got errno="
                    << std::strerror(errno);
    EXPECT_LT(waited, 3.0) << "eviction took too long";
    EXPECT_GT(metrics.idle_timeouts.value(), evictions_before);
    ::close(fd);

    // A live client is unaffected as long as it keeps talking.
    ServeClient client("127.0.0.1", server.port());
    client.ping();
    server.stop();
}

// ---------------------------------------------------------------------------
// Admission control: connections beyond max_connections get a typed
// `ERR busy` and are closed; admitted ones keep working.  The budget is
// global — with a reactor pool, the kernel may spread the connections
// over different reactors and the cap must still hold pool-wide.
// ---------------------------------------------------------------------------
void admission_budget_is_enforced(std::size_t num_reactors) {
    ModelRegistry registry;
    registry.put("hybrid", synthetic_models(2, 16, 1.0));
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 8});
    ServeConfig config;
    config.max_connections = 2;
    config.num_reactors = num_reactors;
    SocketServer server(engine, config);
    server.start();

    const ReactorMetrics& metrics = ReactorMetrics::get();
    const std::uint64_t rejected_before = metrics.rejected.value();

    ServeClient first("127.0.0.1", server.port());
    ServeClient second("127.0.0.1", server.port());
    first.ping();   // round trips guarantee both connections are
    second.ping();  // registered before the third arrives

    const std::size_t accepted_before = server.connections_accepted();
    ServeClient third("127.0.0.1", server.port());
    EXPECT_EQ(third.request("PING"), "ERR busy");
    EXPECT_THROW((void)third.request("PING"), fpm::Error);  // closed

    EXPECT_EQ(metrics.rejected.value(), rejected_before + 1);
    // Rejects are not accepts.
    EXPECT_EQ(server.connections_accepted(), accepted_before);
    EXPECT_EQ(server.open_connections(), 2U);

    // The admitted connections still work, and a freed slot is reusable.
    first.ping();
    EXPECT_EQ(second.request("QUIT"), "OK BYE");
    for (int attempt = 0;; ++attempt) {
        // The server notices second's hangup asynchronously.
        ServeClient retry("127.0.0.1", server.port());
        try {
            retry.ping();
            break;
        } catch (const fpm::Error&) {
            ASSERT_LT(attempt, 100) << "slot never freed";
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    }
    server.stop();
}

TEST(ServeReactor, MaxConnectionsRejectsWithBusy) {
    admission_budget_is_enforced(1);
}

TEST(ServeReactorPool, MaxConnectionsBudgetIsGlobalAcrossReactors) {
    admission_budget_is_enforced(4);
}

// ---------------------------------------------------------------------------
// Graceful drain: stop() lets an in-flight partition finish and flushes
// its response before closing the connection.
// ---------------------------------------------------------------------------
TEST(ServeReactor, GracefulDrainCompletesInFlightRequests) {
    ModelRegistry registry;
    // Expensive enough that stop() lands mid-compute.
    registry.put("big", synthetic_models(6, 600, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 8});
    SocketServer server(engine);
    server.start();

    const std::uint64_t requests_before = engine.stats().requests;
    std::string reply_line;
    std::thread client_thread([&]() {
        ServeClient client("127.0.0.1", server.port());
        client.send_lines({partition_line("big", 64, Algorithm::kFpm)});
        reply_line = client.read_replies(1)[0];
    });

    // Wait until the request is genuinely in flight on the engine.
    for (int i = 0; i < 500 && engine.stats().requests == requests_before;
         ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_GT(engine.stats().requests, requests_before)
        << "request never reached the engine";

    server.stop();  // drain: must flush the in-flight response first
    client_thread.join();

    const PartitionReply reply = parse_partition_reply(reply_line);
    EXPECT_EQ(reply.model, "big");
    EXPECT_EQ(reply.n, 64);
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.open_connections(), 0U);
}

// ---------------------------------------------------------------------------
// A dead peer mid-write is counted, not swallowed: the reactor's send
// path closes the connection and bumps serve.reactor.send_failures (or
// the peer's hangup is seen first and the connection is reaped — either
// way the reactor survives and the connection goes away).
// ---------------------------------------------------------------------------
TEST(ServeReactor, PeerHangupDoesNotWedgeTheReactor) {
    ModelRegistry registry;
    registry.put("big", synthetic_models(6, 600, 1.0));
    RequestEngine engine(registry, {.workers = 2, .cache_capacity = 8});
    SocketServer server(engine);
    server.start();

    {
        // Submit a slow partition, then vanish before the reply.
        ServeClient client("127.0.0.1", server.port());
        client.send_lines({partition_line("big", 72, Algorithm::kFpm)});
    }  // destructor closes the socket with the request still computing

    // The reactor must reap the connection and keep serving.
    for (int attempt = 0; server.open_connections() > 0 && attempt < 500;
         ++attempt) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(server.open_connections(), 0U);
    ServeClient survivor("127.0.0.1", server.port());
    survivor.ping();
    server.stop();
}

// ---------------------------------------------------------------------------
// Graceful drain under load across the pool: with requests in flight on
// several connections (the kernel spreads them over the reactors),
// stop() must flush every response before any connection closes.
// ---------------------------------------------------------------------------
TEST(ServeReactorPool, GracefulDrainCompletesInFlightOnEveryReactor) {
    ModelRegistry registry;
    registry.put("big", synthetic_models(6, 600, 1.0));
    RequestEngine engine(registry, {.workers = 4, .cache_capacity = 32});
    ServeConfig config;
    config.num_reactors = 4;
    SocketServer server(engine, config);
    server.start();

    constexpr std::size_t kClients = 8;
    const std::uint64_t requests_before = engine.stats().requests;
    std::vector<std::string> reply_lines(kClients);
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i]() {
            ServeClient client("127.0.0.1", server.port());
            // Distinct n per client: no coalescing, every request is its
            // own in-flight computation when stop() lands.
            client.send_lines({partition_line(
                "big", 48 + 8 * static_cast<std::int64_t>(i),
                Algorithm::kFpm)});
            reply_lines[i] = client.read_replies(1)[0];
        });
    }

    // Wait until every request is genuinely in flight on the engine.
    for (int i = 0;
         i < 1000 && engine.stats().requests < requests_before + kClients;
         ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_GE(engine.stats().requests, requests_before + kClients)
        << "requests never reached the engine";

    server.stop();  // must drain all reactors, not just one
    for (auto& thread : clients) {
        thread.join();
    }

    for (std::size_t i = 0; i < kClients; ++i) {
        const PartitionReply reply = parse_partition_reply(reply_lines[i]);
        EXPECT_EQ(reply.model, "big") << i;
        EXPECT_EQ(reply.n, 48 + 8 * static_cast<std::int64_t>(i)) << i;
    }
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.open_connections(), 0U);
}

// ---------------------------------------------------------------------------
// STATS aggregation invariants: the per-shard cache counters sum
// field-wise to the global ones, and the typed STATS reply reports the
// pool size and stripe count the server was configured with.
// ---------------------------------------------------------------------------
TEST(ServeReactorPool, StatsAggregationSumsShardsToGlobalCounters) {
    // Striping is keyed on the model-set fingerprint (all plans of one
    // set share a stripe so invalidation stays single-shard), so several
    // sets are needed to populate several stripes.
    ModelRegistry registry;
    const std::vector<std::string> sets = {"s0", "s1", "s2", "s3", "s4",
                                           "s5", "s6", "s7"};
    for (std::size_t i = 0; i < sets.size(); ++i) {
        registry.put(sets[i], synthetic_models(3, 64, 1.0 + 0.1 *
                                                          static_cast<double>(i)));
    }
    RequestEngine engine(registry, {.workers = 2,
                                    .cache_capacity = 64,
                                    .cache_shards = 4});
    ServeConfig config;
    config.num_reactors = 4;
    SocketServer server(engine, config);
    server.start();

    // Two passes over distinct requests: first misses, second hits,
    // spread over the stripes by the model-set fingerprints.
    ServeClient client("127.0.0.1", server.port());
    for (int pass = 0; pass < 2; ++pass) {
        std::vector<std::string> lines;
        for (const auto& set : sets) {
            for (std::int64_t n = 24; n <= 32; n += 4) {
                lines.push_back(partition_line(set, n, Algorithm::kFpm));
            }
        }
        const auto replies = client.pipeline(lines);
        for (const auto& reply : replies) {
            EXPECT_EQ(reply.rfind("OK PARTITION ", 0), 0U) << reply;
        }
    }

    const EngineStats engine_stats = engine.stats();
    ASSERT_EQ(engine_stats.cache_shards, 4U);
    ASSERT_EQ(engine_stats.cache_by_shard.size(), 4U);
    CacheStats sum;
    for (const CacheStats& shard : engine_stats.cache_by_shard) {
        sum.hits += shard.hits;
        sum.misses += shard.misses;
        sum.evictions += shard.evictions;
        sum.size += shard.size;
    }
    EXPECT_EQ(sum.hits, engine_stats.cache.hits);
    EXPECT_EQ(sum.misses, engine_stats.cache.misses);
    EXPECT_EQ(sum.evictions, engine_stats.cache.evictions);
    EXPECT_EQ(sum.size, engine_stats.cache.size);
    EXPECT_GT(engine_stats.cache.hits, 0U);    // second pass hit
    EXPECT_GT(engine_stats.cache.misses, 0U);  // first pass missed
    // 8 distinct set fingerprints over 4 stripes: more than one used.
    std::size_t populated = 0;
    for (const CacheStats& shard : engine_stats.cache_by_shard) {
        populated += shard.size > 0 ? 1 : 0;
    }
    EXPECT_GE(populated, 2U);

    // The same invariants through the wire, typed.
    const ServerStats stats = client.stats();
    EXPECT_EQ(stats.reactors, 4U);
    EXPECT_EQ(stats.cache_shards, 4U);
    EXPECT_EQ(stats.hits, engine_stats.cache.hits);
    EXPECT_EQ(stats.misses, engine_stats.cache.misses);
    EXPECT_EQ(stats.cache_size, engine_stats.cache.size);
    EXPECT_TRUE(stats.extras.empty()) << stats.extras.begin()->first;

    server.stop();
}

// ---------------------------------------------------------------------------
// One dispatch path: every reply the reactor sends — inline verbs, cache
// hits, pool-computed PARTITION misses, FEEDBACK, and every error class
// the pool path can produce — equals handle_line() on a twin engine fed
// the same lines.  Only cached=/coalesced= may differ (they depend on
// timing), and STATS/HEALTH carry live counters, so those two compare by
// field names.
// ---------------------------------------------------------------------------

/// `line` with the timing-dependent parts blanked out.
std::string normalise_reply(const std::string& line) {
    const bool counters =
        line.rfind("OK STATS", 0) == 0 || line.rfind("OK HEALTH", 0) == 0;
    const bool partition = line.rfind("OK PARTITION ", 0) == 0;
    std::istringstream tokens(line);
    std::string token;
    std::string out;
    while (tokens >> token) {
        const auto eq = token.find('=');
        const std::string key = token.substr(0, eq);
        if (eq != std::string::npos &&
            (counters || (partition && (key == "cached" || key == "coalesced")))) {
            token = key + "=*";
        }
        out += out.empty() ? token : ' ' + token;
    }
    return out;
}

/// One side of the comparison: a registry and an engine, both set up by
/// the same calls, so a LOAD in the batch lands at the same generation on
/// either side.
struct ParitySide {
    ModelRegistry registry;
    RequestEngine engine{registry, {.workers = 2, .cache_capacity = 64}};

    ParitySide() {
        registry.put("alpha", synthetic_models(4, 64, 1.0));
        registry.put("beta", synthetic_models(3, 64, 1.7));
        engine.set_feedback_handler([this](const FeedbackSample& sample) {
            if (sample.model_set == "boom") {
                throw std::runtime_error("handler exploded");
            }
            const auto set = registry.get(sample.model_set);
            if (sample.device >= static_cast<std::int64_t>(set->models.size())) {
                throw ServiceError(ErrorCode::kBadRequest,
                                   "device out of range");
            }
            return FeedbackReply{sample.model_set, sample.device, 1, false,
                                 false, false, set->generation};
        });
    }
};

TEST(ServeReactor, EveryReplyMatchesHandleLineOnATwinEngine) {
    const std::string gamma_csv = "/tmp/fpmpart_reactor_parity_gamma.csv";
    const std::string gamma2_csv = "/tmp/fpmpart_reactor_parity_gamma2.csv";
    core::save_speed_functions_csv(gamma_csv, synthetic_models(2, 32, 1.0));
    core::save_speed_functions_csv(gamma2_csv, synthetic_models(2, 32, 2.5));

    ParitySide wire;
    ParitySide twin;
    SocketServer server(wire.engine);
    server.start();

    std::size_t compared = 0;
    const auto check_batch = [&](std::vector<std::string> lines) {
        lines.push_back("QUIT");
        ServeClient client("127.0.0.1", server.port());
        const auto replies = client.pipeline(lines);
        ASSERT_EQ(replies.size(), lines.size());
        for (std::size_t i = 0; i < lines.size(); ++i) {
            EXPECT_EQ(normalise_reply(replies[i]),
                      normalise_reply(handle_line(twin.engine, lines[i])))
                << lines[i];
            ++compared;
        }
        EXPECT_EQ(replies.back(), "OK BYE");
    };

    // Every verb, writable, with a feedback handler; the pool answers
    // misses, FEEDBACK and their failures.
    check_batch({
        "PING",
        "MODELS",
        "HEALTH",
        "STATS",
        "LOAD gamma " + gamma_csv,
        "MODELS",
        partition_line("alpha", 40, Algorithm::kFpm),
        partition_line("alpha", 40, Algorithm::kFpm),  // hit or coalesced
        "PARTITION beta 36 cpm nolayout",
        partition_line("gamma", 30, Algorithm::kEven),
        partition_line("alpha", 94906265, Algorithm::kEven),  // infeasible
        "FEEDBACK alpha 1 900 0.01",
        "FEEDBACK alpha 9 900 0.01",  // handler: bad_request
        "FEEDBACK boom 0 900 0.01",   // handler: untyped -> internal
        "LOAD delta /nonexistent/fpmpart_parity.csv",
        // Malformed lines, unknown verb, bad n, unknown set.
        "PARTITION alpha",
        "PARTITION alpha 0 fpm",
        "PARTITION alpha 94906266 fpm",
        "PARTITION alpha 3037000500 even",
        "PARTITION alpha 40 wat",
        "FEEDBACK alpha -1 900 0.01",
        "LOAD",
        "BOGUS",
        partition_line("nosuch", 40, Algorithm::kFpm),
        "STATS",
    });

    // A replica: both write verbs answer read_only, reads still work.
    wire.engine.set_read_only(true);
    twin.engine.set_read_only(true);
    check_batch({
        "FEEDBACK alpha 1 900 0.01",
        "LOAD gamma " + gamma2_csv,
        partition_line("alpha", 40, Algorithm::kFpm),
        partition_line("beta", 44, Algorithm::kCpm),
    });
    wire.engine.set_read_only(false);
    twin.engine.set_read_only(false);

    // FEEDBACK with no handler installed.
    wire.engine.set_feedback_handler({});
    twin.engine.set_feedback_handler({});
    check_batch({"FEEDBACK alpha 1 900 0.01", "HEALTH"});

    // Every compute fails: misses answer degraded, from the stale plan of
    // the same name (gamma reloaded with new content) or an even split.
    struct FaultGuard {
        ~FaultGuard() { fault::uninstall(); }
    } guard;
    fault::install(fault::FaultPlan::parse("seed=3,serve.compute=1"));
    check_batch({
        "LOAD gamma " + gamma2_csv,
        partition_line("gamma", 30, Algorithm::kEven),  // stale plan
        partition_line("alpha", 52, Algorithm::kFpm),   // even fallback
        partition_line("alpha", 52, Algorithm::kFpm),
        partition_line("alpha", 40, Algorithm::kFpm),   // still cached
        partition_line("nosuch", 40, Algorithm::kFpm),
        "HEALTH",
    });
    EXPECT_GE(wire.engine.stats().degraded, 3U);
    EXPECT_EQ(wire.engine.stats().degraded, twin.engine.stats().degraded);
    EXPECT_EQ(compared, 42U);

    server.stop();
}

} // namespace
} // namespace fpm::serve
