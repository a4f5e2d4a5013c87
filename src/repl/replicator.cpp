#include "fpm/repl/replicator.hpp"

#include <algorithm>
#include <chrono>

#include "fpm/common/error.hpp"
#include "fpm/common/text.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/obs/metrics.hpp"
#include "fpm/serve/repl_status.hpp"
#include "fpm/serve/transport.hpp"
#include "fpm/store/wal.hpp"

namespace fpm::repl {

namespace {

/// Process-global replica-side instruments.
struct ReplicaMetrics {
    obs::Counter& frames_applied;
    obs::Counter& reconnects;
    obs::Counter& heartbeats;
    obs::Gauge& lag_frames;
    obs::Histogram& apply_seconds;

    static const ReplicaMetrics& get() {
        static auto& registry = obs::MetricsRegistry::global();
        static const ReplicaMetrics metrics{
            registry.counter("repl.frames_applied"),
            registry.counter("repl.reconnects"),
            registry.counter("repl.heartbeats"),
            registry.gauge("repl.lag_frames"),
            registry.histogram("repl.apply_seconds")};
        return metrics;
    }
};

/// The decimal u64 of the `key=` field of a primary's REPL line; throws
/// fpm::Error when it is missing or malformed.
std::uint64_t u64_field(const std::string& line, std::string_view key) {
    const auto value = text::field(line, key);
    const auto number =
        value ? text::to_number<std::uint64_t>(*value) : std::nullopt;
    FPM_CHECK(number.has_value(), "malformed or missing " + std::string(key) +
                                      "= in REPL line: " + line);
    return *number;
}

} // namespace

Replicator::Replicator(serve::RequestEngine& engine,
                       store::ModelStore* local_store,
                       ReplicatorConfig config)
    : engine_(engine), local_store_(local_store),
      config_(std::move(config)) {
    // Everything already recovered locally counts as applied: the first
    // HELLO asks only for what is newer.
    applied_generation_.store(engine_.registry().next_generation() - 1,
                              std::memory_order_relaxed);
}

Replicator::~Replicator() { stop(); }

void Replicator::start() {
    if (started_) {
        return;
    }
    started_ = true;
    serve::ReplStatus::global().set_role("replica");
    serve::ReplStatus::global().set_source(config_.source.to_string());
    serve::ReplStatus::global().record_applied(
        applied_generation_.load(std::memory_order_relaxed));
    thread_ = std::thread([this] { run(); });
}

void Replicator::stop() {
    if (stop_.exchange(true)) {
        if (thread_.joinable()) {
            thread_.join();
        }
        return;
    }
    {
        std::lock_guard lock(stop_mutex_);
        stop_cv_.notify_all();
        if (conn_ != nullptr) {
            conn_->shutdown();  // wake a blocked read; run_once() closes
        }
    }
    if (thread_.joinable()) {
        thread_.join();
    }
}

void Replicator::backoff(int consecutive_failures) {
    double delay = config_.backoff_base;
    for (int i = 1; i < consecutive_failures; ++i) {
        delay *= 2.0;
        if (delay >= config_.backoff_max) {
            break;
        }
    }
    delay = std::min(delay, config_.backoff_max);
    if (delay <= 0.0) {
        return;
    }
    std::unique_lock lock(stop_mutex_);
    stop_cv_.wait_for(lock, std::chrono::duration<double>(delay), [&] {
        return stop_.load(std::memory_order_relaxed);
    });
}

void Replicator::run() {
    int failures = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
        try {
            run_once();
        } catch (const std::exception&) {
            // Connect refusal, stream loss, apply failure, injected
            // repl.* fault: all reconverge through reconnect + resume.
        }
        // A completed handshake proves the primary reachable: the next
        // attempt starts again from the base delay.
        if (connected_.exchange(false, std::memory_order_relaxed)) {
            failures = 0;
        }
        if (stop_.load(std::memory_order_relaxed)) {
            break;
        }
        reconnects_.fetch_add(1, std::memory_order_relaxed);
        ReplicaMetrics::get().reconnects.add(1);
        backoff(++failures);
    }
}

void Replicator::run_once() {
    serve::LineConn conn(config_.source, config_.connect_timeout,
                         config_.recv_timeout);
    {
        std::lock_guard lock(stop_mutex_);
        if (stop_.load(std::memory_order_relaxed)) {
            return;
        }
        conn_ = &conn;
    }
    // Unpublishes the connection before it closes, on every exit path.
    struct Unpublish {
        Replicator& self;
        ~Unpublish() {
            std::lock_guard lock(self.stop_mutex_);
            self.conn_ = nullptr;
        }
    } unpublish{*this};

    conn.send_all("REPL HELLO gen=" +
                  std::to_string(
                      applied_generation_.load(std::memory_order_relaxed)) +
                  "\n");
    const std::string greeting = conn.read_line();
    FPM_CHECK(greeting.rfind("OK REPL ", 0) == 0,
              "unexpected REPL handshake reply: " + greeting);
    record_contact(u64_field(greeting, "committed"));
    connected_.store(true, std::memory_order_relaxed);

    while (!stop_.load(std::memory_order_relaxed)) {
        const std::string line = conn.read_line();
        if (line.rfind("REPL FRAME ", 0) == 0) {
            apply_frame(conn.read_exact(u64_field(line, "bytes")));
            record_contact(applied_generation_.load(std::memory_order_relaxed));
        } else if (line.rfind("REPL PING ", 0) == 0) {
            record_contact(u64_field(line, "committed"));
            ReplicaMetrics::get().heartbeats.add(1);
        } else {
            throw Error("unexpected REPL stream line: " + line);
        }
    }
}

void Replicator::record_contact(std::uint64_t committed) {
    const std::uint64_t applied =
        applied_generation_.load(std::memory_order_relaxed);
    serve::ReplStatus::global().record_contact(committed, applied);
    ReplicaMetrics::get().lag_frames.set(
        committed > applied ? static_cast<std::int64_t>(committed - applied)
                            : 0);
}

void Replicator::apply_frame(const std::string& frame) {
    // The frame is a store WAL frame: validate it with the recovery
    // framing rules before trusting the payload.
    const store::DecodedFrame decoded = store::decode_frame(frame);
    FPM_CHECK(decoded.status != store::FrameStatus::kShortHeader,
              "short replication frame");
    FPM_CHECK(decoded.status != store::FrameStatus::kTooLong,
              "replication frame over the length cap");
    FPM_CHECK(decoded.size == frame.size(),
              "replication frame length mismatch");
    FPM_CHECK(decoded.status == store::FrameStatus::kOk,
              "replication frame CRC mismatch");

    apply_record(store::decode_publish_record(std::string(decoded.payload),
                                              "repl stream"));
}

void Replicator::apply_record(const store::PublishRecord& record) {
    if (record.generation <=
        applied_generation_.load(std::memory_order_relaxed)) {
        return;  // already applied
    }

    static auto& apply_fault = fault::point("repl.apply");
    if (apply_fault.fire()) {
        throw serve::ServiceError(serve::ErrorCode::kStoreUnavailable,
                                  "injected fault: repl.apply");
    }

    const auto start = std::chrono::steady_clock::now();
    serve::ModelRegistry& registry = engine_.registry();
    const std::shared_ptr<const serve::ModelSet> old =
        registry.find(record.name);

    std::shared_ptr<const serve::ModelSet> installed;
    if (registry.next_generation() == record.generation) {
        // Steady state: put() reproduces the primary's generation and
        // fires the local store's write-ahead observer.
        installed = registry.put(record.name, record.models);
    } else {
        // Catch-up records skip superseded generations: restore()
        // installs the explicit generation verbatim (no observer), so the
        // local store is fed directly.
        installed =
            registry.restore(record.name, record.models, record.generation);
        if (local_store_ != nullptr) {
            serve::ModelSet set;
            set.name = record.name;
            set.models = record.models;
            set.generation = record.generation;
            set.fingerprint = installed->fingerprint;
            local_store_->append(set);
        }
    }
    FPM_CHECK(installed->generation == record.generation,
              "replicated generation mismatch: installed " +
                  std::to_string(installed->generation) + ", primary " +
                  std::to_string(record.generation));
    FPM_CHECK(installed->fingerprint == record.fingerprint,
              "replicated fingerprint mismatch for " + record.name);

    if (old != nullptr) {
        // Same cache hygiene as the primary's publisher: plans computed
        // against the superseded snapshot can never be served again.
        engine_.invalidate_model(record.name, old->fingerprint);
    }

    applied_generation_.store(record.generation,
                              std::memory_order_relaxed);
    frames_applied_.fetch_add(1, std::memory_order_relaxed);
    serve::ReplStatus::global().record_applied(record.generation);
    ReplicaMetrics::get().frames_applied.add(1);
    ReplicaMetrics::get().apply_seconds.record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
}

} // namespace fpm::repl
