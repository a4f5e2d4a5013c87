#include "fpm/serve/request_engine.hpp"

#include <chrono>

#include "fpm/common/error.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/measure/timer.hpp"
#include "fpm/obs/trace.hpp"
#include "fpm/part/request.hpp"

namespace fpm::serve {

namespace {

/// Process-global mirrors of the engine counters; per-engine state feeds
/// STATS, these feed MetricsRegistry::snapshot() and the trace tooling.
struct ServeMetrics {
    obs::Counter& requests;
    obs::Counter& computed;
    obs::Counter& coalesced;
    obs::Counter& cache_hits;
    obs::Counter& degraded;

    static const ServeMetrics& get() {
        static auto& registry = obs::MetricsRegistry::global();
        static const ServeMetrics metrics{
            registry.counter("serve.requests"),
            registry.counter("serve.computed"),
            registry.counter("serve.coalesced"),
            registry.counter("serve.cache_hits"),
            registry.counter("serve.degraded")};
        return metrics;
    }
};

/// FNV-1a of a set *name* — the stale-plan cache key hash, deliberately
/// independent of model content so it survives reloads.
std::uint64_t hash_name(const std::string& name) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const char ch : name) {
        h ^= static_cast<unsigned char>(ch);
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace

RequestEngine::RequestEngine(ModelRegistry& registry, Options options)
    : registry_(registry),
      options_(options),
      cache_(options.cache_capacity,
             options.cache_shards == 0 ? 1 : options.cache_shards),
      stale_(options.cache_capacity),  // name-keyed, engine-lock guarded:
                                       // striping would buy nothing
      pool_(options.workers) {}

RequestEngine::RequestEngine(ModelRegistry& registry)
    : RequestEngine(registry, Options{}) {}

PartitionPlan RequestEngine::compute_plan(const ModelSet& set, std::int64_t n,
                                          Algorithm algorithm, bool with_layout) {
    obs::Span span("serve.compute", static_cast<std::uint64_t>(n));
    part::PartitionRequest request;
    request.models = set.models;
    request.n = n;
    request.algorithm = algorithm;
    request.with_layout = with_layout;
    if (algorithm == Algorithm::kFpm) {
        request.envelopes = set.envelopes();
    }

    PartitionPlan plan;
    static_cast<part::PartitionPlan&>(plan) = part::partition(request);
    plan.key = PlanKey{set.fingerprint, n, algorithm, with_layout};
    plan.generation = set.generation;
    return plan;
}

PartitionResponse RequestEngine::finish(double latency, Algorithm algorithm,
                                        std::shared_ptr<const PartitionPlan> plan,
                                        bool cache_hit, bool coalesced,
                                        bool degraded) {
    latency_histograms_[static_cast<std::size_t>(algorithm)].record(latency);
    return PartitionResponse{std::move(plan), cache_hit, coalesced, degraded,
                             latency};
}

PlanKey RequestEngine::stale_key(const PartitionRequest& request) {
    return PlanKey{hash_name(request.model_set), request.n, request.algorithm,
                   request.with_layout};
}

std::optional<PartitionResponse>
RequestEngine::degrade(const PartitionRequest& request, const ModelSet* set,
                       double elapsed_seconds) {
    if (!options_.degraded) {
        return std::nullopt;
    }
    std::shared_ptr<const PartitionPlan> plan;
    {
        std::lock_guard lock(inflight_mutex_);
        plan = stale_.get(stale_key(request));
    }
    if (!plan && set != nullptr) {
        // Constant-performance fallback: an even split needs no model
        // quality, only the device count.  Computed directly (no cache,
        // no dedup, no injection point) so it cannot fail the same way
        // the primary path just did.
        try {
            plan = std::make_shared<const PartitionPlan>(
                compute_plan(*set, request.n, Algorithm::kEven,
                             request.with_layout));
        } catch (...) {
            plan = nullptr;  // infeasible workload: nothing to serve
        }
    }
    if (!plan) {
        return std::nullopt;
    }
    degraded_.add();
    ServeMetrics::get().degraded.add();
    return finish(elapsed_seconds, request.algorithm, std::move(plan), false,
                  false, true);
}

PartitionResponse RequestEngine::execute(const PartitionRequest& request) {
    obs::Span span("serve.execute", static_cast<std::uint64_t>(request.n));
    const ServeMetrics& metrics = ServeMetrics::get();
    metrics.requests.add();
    measure::WallTimer timer;
    requests_.add();
    FPM_CHECK(request.n > 0, "workload size must be positive");
    const auto set = registry_.find(request.model_set);
    if (!set) {
        if (auto fallback = degrade(request, nullptr, timer.elapsed())) {
            return *std::move(fallback);
        }
        // Caller mistake, not a server fault: `ERR bad_request ...`.
        throw ServiceError(ErrorCode::kBadRequest,
                           "unknown model set: " + request.model_set);
    }
    const PlanKey key{set->fingerprint, request.n, request.algorithm,
                      request.with_layout};

    // Single-flight: the cache lookup and the leader election happen
    // under one lock, so each request counts exactly one cache lookup
    // and at most one compute runs per key (a finishing leader caches
    // *before* erasing its in-flight entry, making the lookup here
    // conclusive).
    std::shared_ptr<InFlight> flight;
    bool leader = false;
    {
        std::lock_guard lock(inflight_mutex_);
        if (auto plan = cache_.get(key)) {
            metrics.cache_hits.add();
            return finish(timer.elapsed(), request.algorithm, std::move(plan),
                          true, false);
        }
        if (const auto it = inflight_.find(key); it != inflight_.end()) {
            flight = it->second;
        } else {
            flight = std::make_shared<InFlight>();
            flight->future = flight->promise.get_future().share();
            inflight_[key] = flight;
            leader = true;
        }
    }

    if (!leader) {
        if (options_.coalesce_deadline > 0.0) {
            const auto deadline = std::chrono::duration<double>(
                options_.coalesce_deadline);
            if (flight->future.wait_for(deadline) ==
                std::future_status::timeout) {
                // The leader is stuck (or fault-delayed); answer degraded
                // rather than stall the caller.  Without a degraded
                // answer we fall through and wait it out as before.
                if (auto fallback =
                        degrade(request, set.get(), timer.elapsed())) {
                    return *std::move(fallback);
                }
            }
        }
        std::shared_ptr<const PartitionPlan> plan;
        try {
            plan = flight->future.get();  // rethrows the leader's failure
        } catch (...) {
            if (auto fallback = degrade(request, set.get(), timer.elapsed())) {
                return *std::move(fallback);
            }
            throw;
        }
        coalesced_.add();
        metrics.coalesced.add();
        return finish(timer.elapsed(), request.algorithm, std::move(plan),
                      false, true);
    }

    try {
        static auto& compute_fault = fault::point("serve.compute");
        if (compute_fault.fire()) {
            throw Error("injected fault: serve.compute");
        }
        auto plan = std::make_shared<const PartitionPlan>(compute_plan(
            *set, request.n, request.algorithm, request.with_layout));
        cache_.put(key, plan);
        {
            std::lock_guard lock(inflight_mutex_);
            inflight_.erase(key);
            stale_.put(stale_key(request), plan);
        }
        flight->promise.set_value(plan);
        computed_.add();
        metrics.computed.add();
        return finish(timer.elapsed(), request.algorithm, std::move(plan),
                      false, false);
    } catch (...) {
        {
            std::lock_guard lock(inflight_mutex_);
            inflight_.erase(key);
        }
        flight->promise.set_exception(std::current_exception());
        if (auto fallback = degrade(request, set.get(), timer.elapsed())) {
            return *std::move(fallback);
        }
        throw;
    }
}

std::future<PartitionResponse>
RequestEngine::submit(const PartitionRequest& request) {
    return pool_.submit([this, request]() { return execute(request); });
}

std::optional<PartitionResponse>
RequestEngine::try_execute_cached(const PartitionRequest& request) {
    if (request.n <= 0) {
        return std::nullopt;  // execute() owns the error report
    }
    measure::WallTimer timer;
    const std::shared_ptr<const ModelSet> set =
        registry_.find(request.model_set);
    if (!set) {
        return std::nullopt;  // unknown set: same
    }
    const PlanKey key{set->fingerprint, request.n, request.algorithm,
                      request.with_layout};
    // No inflight_mutex_ here: the cache is internally synchronized (per
    // stripe), plans are immutable, and a racing miss simply falls back
    // to execute()'s conclusive locked lookup.  This is what lets N
    // reactors run their fast paths without serializing on the engine.
    std::shared_ptr<const PartitionPlan> plan = cache_.probe(key);
    if (!plan) {
        return std::nullopt;
    }
    const ServeMetrics& metrics = ServeMetrics::get();
    metrics.requests.add();
    metrics.cache_hits.add();
    requests_.add();
    return finish(timer.elapsed(), request.algorithm, std::move(plan), true,
                  false);
}

void RequestEngine::post(std::function<void()> task) {
    (void)pool_.submit(std::move(task));
}

void RequestEngine::set_feedback_handler(FeedbackHandler handler) {
    std::lock_guard lock(feedback_mutex_);
    if (handler) {
        feedback_ = std::make_shared<const FeedbackHandler>(std::move(handler));
    } else {
        feedback_.reset();
    }
}

bool RequestEngine::feedback_enabled() const {
    std::lock_guard lock(feedback_mutex_);
    return feedback_ != nullptr;
}

FeedbackReply RequestEngine::execute_feedback(const FeedbackSample& sample) {
    if (read_only()) {
        throw ServiceError(ErrorCode::kReadOnly,
                           "replica is read-only: FEEDBACK rejected");
    }
    std::shared_ptr<const FeedbackHandler> handler;
    {
        std::lock_guard lock(feedback_mutex_);
        handler = feedback_;
    }
    if (handler == nullptr) {
        throw ServiceError(ErrorCode::kFeedbackDisabled,
                           "feedback not enabled");
    }
    return (*handler)(sample);
}

void RequestEngine::invalidate_model(const std::string& name,
                                     std::uint64_t old_fingerprint) {
    cache_.erase_fingerprint(old_fingerprint);
    // The stale-plan cache keys on the name hash precisely so entries
    // survive reloads; a deliberate republish is the one event that must
    // drop them (the old content is now known-wrong, not just missing).
    std::lock_guard lock(inflight_mutex_);
    stale_.erase_fingerprint(hash_name(name));
}

EngineStats RequestEngine::stats() const {
    EngineStats stats;
    stats.requests = requests_.value();
    stats.computed = computed_.value();
    stats.coalesced = coalesced_.value();
    stats.degraded = degraded_.value();
    for (std::size_t i = 0; i < kAlgorithmCount; ++i) {
        stats.latency_by_algorithm[i] = latency_histograms_[i].snapshot();
    }
    stats.cache = cache_.stats();
    stats.cache_shards = cache_.shard_count();
    stats.cache_by_shard = cache_.shard_stats();
    return stats;
}

} // namespace fpm::serve
