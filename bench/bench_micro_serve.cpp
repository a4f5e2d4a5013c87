// google-benchmark micro-benchmarks of the partition service: cold
// partition computes, cached lookups, single-connection socket round
// trips and multi-threaded engine throughput — the serving-path numbers
// the ROADMAP's traffic goals are measured against.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "fpm/fault/fault.hpp"
#include "fpm/serve/client.hpp"
#include "fpm/serve/protocol.hpp"
#include "fpm/serve/model_registry.hpp"
#include "fpm/serve/request_engine.hpp"
#include "fpm/serve/server.hpp"

namespace {

using fpm::core::SpeedFunction;
using fpm::core::SpeedPoint;
using namespace fpm::serve;

std::vector<SpeedFunction> synthetic_models(std::size_t devices,
                                            std::size_t points_per_model) {
    std::vector<SpeedFunction> models;
    for (std::size_t d = 0; d < devices; ++d) {
        std::vector<SpeedPoint> points;
        const double peak = 50.0 + 20.0 * static_cast<double>(d);
        const double cliff = 1000.0 + 500.0 * static_cast<double>(d);
        for (std::size_t p = 0; p < points_per_model; ++p) {
            const double x =
                4.0 + 6000.0 * static_cast<double>(p) /
                          static_cast<double>(points_per_model - 1);
            const double speed =
                (x < cliff ? peak : 0.5 * peak) * x / (x + 20.0);
            points.push_back(SpeedPoint{x, speed});
        }
        models.emplace_back(std::move(points), "dev" + std::to_string(d));
    }
    return models;
}

constexpr std::int64_t kCacheCapacity = 4096;

struct ServeFixture {
    ModelRegistry registry;
    RequestEngine engine;

    ServeFixture()
        : engine(registry, {.workers = 4, .cache_capacity = kCacheCapacity}) {
        registry.put("hybrid", synthetic_models(6, 48));
        registry.put("cluster", synthetic_models(96, 48));
    }
};

ServeFixture& fixture() {
    static ServeFixture instance;
    return instance;
}

// Full pipeline per iteration: distinct n values defeat the cache.  The
// argument is the device count: the 6-device node or a 96-device cluster.
void BM_EngineColdPartition(benchmark::State& state) {
    auto& f = fixture();
    const std::string set = state.range(0) == 96 ? "cluster" : "hybrid";
    std::int64_t n = 16;
    for (auto _ : state) {
        // n steps by 17 through twice as many sizes as the cache holds,
        // so every lookup misses.
        n = 16 + (n + 1) % (2 * kCacheCapacity);
        const auto response = f.engine.execute({set, n, Algorithm::kFpm, true});
        benchmark::DoNotOptimize(response.plan.get());
    }
}
BENCHMARK(BM_EngineColdPartition)->ArgName("devices")->Arg(6)->Arg(96);

// Cache-hit path: the steady state of a hot key.
void BM_EngineCachedPartition(benchmark::State& state) {
    auto& f = fixture();
    f.engine.execute({"hybrid", 60, Algorithm::kFpm, true});  // warm it
    for (auto _ : state) {
        const auto response =
            f.engine.execute({"hybrid", 60, Algorithm::kFpm, true});
        benchmark::DoNotOptimize(response.plan.get());
    }
}
BENCHMARK(BM_EngineCachedPartition);

// The disarmed fault layer: a fire() on an unconfigured point must cost
// one relaxed atomic load, nothing more.  This is the overhead every
// hot-path site (cache lookup, recv, send) pays in production, so the
// budget is "indistinguishable from free" next to the ~us cache hit.
void BM_FaultPointDisabled(benchmark::State& state) {
    fpm::fault::uninstall();
    auto& point = fpm::fault::point("bench.disabled");
    for (auto _ : state) {
        benchmark::DoNotOptimize(static_cast<bool>(point.fire()));
    }
}
BENCHMARK(BM_FaultPointDisabled);

// The cache-hit path with the fault layer armed elsewhere (a rule on a
// point the path never passes): shows arming is pay-per-site, not a
// global slowdown.
void BM_EngineCachedPartitionFaultsArmed(benchmark::State& state) {
    auto& f = fixture();
    fpm::fault::install(
        fpm::fault::FaultPlan::parse("bench.elsewhere=0.5"));
    f.engine.execute({"hybrid", 61, Algorithm::kFpm, true});  // warm it
    for (auto _ : state) {
        const auto response =
            f.engine.execute({"hybrid", 61, Algorithm::kFpm, true});
        benchmark::DoNotOptimize(response.plan.get());
    }
    fpm::fault::uninstall();
}
BENCHMARK(BM_EngineCachedPartitionFaultsArmed);

// Contended engine throughput: every bench thread hammers a small key
// set, mixing cache hits with coalesced and cold requests.
void BM_EngineConcurrentMixedKeys(benchmark::State& state) {
    auto& f = fixture();
    std::int64_t i = state.thread_index();
    for (auto _ : state) {
        const std::int64_t n = 40 + (i++ % 8) * 4;
        const auto response =
            f.engine.execute({"hybrid", n, Algorithm::kFpm, true});
        benchmark::DoNotOptimize(response.plan.get());
    }
}
BENCHMARK(BM_EngineConcurrentMixedKeys)->Threads(1)->Threads(4)->Threads(8);

// One full wire round trip (cached server-side after the first lap).
void BM_SocketPartitionRoundTrip(benchmark::State& state) {
    auto& f = fixture();
    SocketServer server(f.engine);
    server.start();
    {
        ServeClient client("127.0.0.1", server.port());
        for (auto _ : state) {
            const auto reply =
                client.partition({"hybrid", 52, Algorithm::kFpm, true});
            benchmark::DoNotOptimize(reply.blocks.data());
        }
    }
    server.stop();
}
BENCHMARK(BM_SocketPartitionRoundTrip)->UseRealTime();

std::string cached_partition_line() {
    Request request;
    request.kind = Request::Kind::kPartition;
    request.partition = PartitionRequest{"hybrid", 52, Algorithm::kFpm, true};
    return request.encode();
}

// The pre-reactor wire pattern, scaled out: Arg(N) connections, each
// doing strict one-request-per-round-trip in lockstep phases.  This is
// the baseline the reactor's pipelining is measured against.
void BM_SocketRoundTripPerRequest(benchmark::State& state) {
    auto& f = fixture();
    ServeConfig config;
    config.max_connections = 256;
    SocketServer server(f.engine, config);
    server.start();
    const auto conns = static_cast<std::size_t>(state.range(0));
    const std::string line = cached_partition_line();
    {
        std::vector<std::unique_ptr<ServeClient>> clients;
        for (std::size_t c = 0; c < conns; ++c) {
            clients.push_back(
                std::make_unique<ServeClient>("127.0.0.1", server.port()));
        }
        clients.front()->request(line);  // warm the cache
        for (auto _ : state) {
            for (auto& client : clients) {
                // One request in flight per connection at any time —
                // the reply gates the next request, like the old
                // blocking handler loop's clients.
                benchmark::DoNotOptimize(client->request(line));
            }
        }
    }
    server.stop();
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(conns));
}
BENCHMARK(BM_SocketRoundTripPerRequest)->Arg(1)->Arg(64)->UseRealTime();

// Reactor pipelining: every connection keeps a 32-deep batch in flight;
// items/s here vs BM_SocketRoundTripPerRequest/64 is the headline
// request-throughput win of the event-driven redesign.  The second arg
// is the reactor-pool size — items/s at reactors:1/2/4 under 64
// connections is the scaling curve the multi-reactor redesign is
// measured against (expect ~flat on a single-core host; the kernel
// load-balances SO_REUSEPORT accepts only when cores back the loops).
void BM_SocketPipelinedThroughput(benchmark::State& state) {
    auto& f = fixture();
    ServeConfig config;
    config.max_connections = 256;
    config.num_reactors = static_cast<std::size_t>(state.range(1));
    SocketServer server(f.engine, config);
    server.start();
    const auto conns = static_cast<std::size_t>(state.range(0));
    constexpr std::size_t kBatch = 32;
    const std::vector<std::string> batch(kBatch, cached_partition_line());
    {
        std::vector<std::unique_ptr<ServeClient>> clients;
        for (std::size_t c = 0; c < conns; ++c) {
            clients.push_back(
                std::make_unique<ServeClient>("127.0.0.1", server.port()));
        }
        clients.front()->request(batch.front());  // warm the cache
        for (auto _ : state) {
            for (auto& client : clients) {
                client->send_lines(batch);  // all batches in flight at once
            }
            for (auto& client : clients) {
                benchmark::DoNotOptimize(client->read_replies(kBatch));
            }
        }
    }
    server.stop();
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(conns * kBatch));
}
BENCHMARK(BM_SocketPipelinedThroughput)
    ->ArgNames({"conns", "reactors"})
    ->Args({1, 1})
    ->Args({8, 1})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 4})
    ->UseRealTime();

// Protocol overhead alone.
void BM_SocketPingRoundTrip(benchmark::State& state) {
    auto& f = fixture();
    SocketServer server(f.engine);
    server.start();
    {
        ServeClient client("127.0.0.1", server.port());
        for (auto _ : state) {
            client.ping();
        }
    }
    server.stop();
}
BENCHMARK(BM_SocketPingRoundTrip)->UseRealTime();

} // namespace

// Machine-readable output by default: unless the caller passes an
// explicit --benchmark_out, results land in BENCH_serve.json (cwd, or
// the path named by FPMPART_BENCH_JSON) alongside the console table,
// so CI and the perf-tracking scripts never have to scrape stdout.
int main(int argc, char** argv) {
    std::vector<char*> args(argv, argv + argc);
    bool has_out = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) {
            has_out = true;
        }
    }
    std::string out_flag;
    std::string format_flag = "--benchmark_out_format=json";
    if (!has_out) {
        const char* path = std::getenv("FPMPART_BENCH_JSON");
        out_flag = std::string("--benchmark_out=") +
                   (path != nullptr ? path : "BENCH_serve.json");
        args.push_back(out_flag.data());
        args.push_back(format_flag.data());
    }
    int args_count = static_cast<int>(args.size());
    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
