#include "fpm/repl/replicator.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>

#include "fpm/common/error.hpp"
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
    obs::Counter& snapshots_received;
    obs::Counter& reconnects;
    obs::Counter& heartbeats;
    obs::Gauge& lag_frames;
    obs::Histogram& apply_seconds;

    static const ReplicaMetrics& get() {
        static auto& registry = obs::MetricsRegistry::global();
        static const ReplicaMetrics metrics{
            registry.counter("repl.frames_applied"),
            registry.counter("repl.snapshots_received"),
            registry.counter("repl.reconnects"),
            registry.counter("repl.heartbeats"),
            registry.gauge("repl.lag_frames"),
            registry.histogram("repl.apply_seconds")};
        return metrics;
    }
};

/// "key=value" extraction from a REPL control line; throws on absence.
std::string line_field(const std::string& line, const std::string& key) {
    const std::string needle = key + "=";
    std::size_t at = line.find(needle);
    FPM_CHECK(at != std::string::npos,
              "REPL line missing " + key + "=: " + line);
    at += needle.size();
    const std::size_t end = line.find(' ', at);
    return line.substr(at, end == std::string::npos ? std::string::npos
                                                    : end - at);
}

std::uint64_t parse_u64_field(const std::string& line,
                              const std::string& key) {
    const std::string text = line_field(line, key);
    errno = 0;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    FPM_CHECK(end != text.c_str() && *end == '\0' && errno == 0,
              "malformed " + key + "= in REPL line: " + line);
    return static_cast<std::uint64_t>(value);
}

} // namespace

Replicator::Replicator(serve::RequestEngine& engine,
                       store::ModelStore* local_store,
                       ReplicatorConfig config)
    : engine_(engine), local_store_(local_store),
      config_(std::move(config)) {
    // Everything already recovered locally counts as applied: reconnect
    // overlap and snapshot records at or below this are dropped.
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
    double delay = config_.transport.backoff_base;
    for (int i = 1; i < consecutive_failures; ++i) {
        delay *= 2.0;
        if (delay >= config_.transport.backoff_max) {
            break;
        }
    }
    delay = std::min(delay, config_.transport.backoff_max);
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
            failures = 0;
        } catch (const std::exception&) {
            // Connect refusal, stream loss, apply failure, injected
            // repl.* fault: all reconverge through reconnect + resume.
        }
        connected_.store(false, std::memory_order_relaxed);
        if (stop_.load(std::memory_order_relaxed)) {
            break;
        }
        reconnects_.fetch_add(1, std::memory_order_relaxed);
        ReplicaMetrics::get().reconnects.add(1);
        backoff(++failures);
    }
}

void Replicator::run_once() {
    serve::LineConn conn(config_.source, config_.transport.connect_timeout,
                         config_.transport.recv_timeout);
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

    conn.send_all("REPL HELLO " + position_.to_string() + "\n");
    const std::string greeting = conn.read_line();

    if (greeting.rfind("OK REPL SNAP ", 0) == 0) {
        const std::uint64_t sets = parse_u64_field(greeting, "sets");
        position_ = ReplPosition::parse(line_field(greeting, "pos"));
        for (std::uint64_t i = 0; i < sets; ++i) {
            const std::string header = conn.read_line();
            FPM_CHECK(header.rfind("REPL SNAP ", 0) == 0,
                      "unexpected snapshot record: " + header);
            const std::uint64_t bytes = parse_u64_field(header, "bytes");
            apply_frame(conn.read_exact(bytes), "repl snapshot");
        }
        snapshots_received_.fetch_add(1, std::memory_order_relaxed);
        ReplicaMetrics::get().snapshots_received.add(1);
    } else if (greeting.rfind("OK REPL STREAM ", 0) == 0) {
        position_ = ReplPosition::parse(line_field(greeting, "pos"));
    } else {
        throw Error("unexpected REPL handshake reply: " + greeting);
    }

    connected_.store(true, std::memory_order_relaxed);
    serve::ReplStatus::global().record_contact(
        applied_generation_.load(std::memory_order_relaxed),
        applied_generation_.load(std::memory_order_relaxed));

    while (!stop_.load(std::memory_order_relaxed)) {
        const std::string line = conn.read_line();
        if (line.rfind("REPL FRAME ", 0) == 0) {
            const std::uint64_t bytes = parse_u64_field(line, "bytes");
            const ReplPosition after =
                ReplPosition::parse(line_field(line, "pos"));
            apply_frame(conn.read_exact(bytes), "repl stream");
            position_ = after;
            const std::uint64_t applied =
                applied_generation_.load(std::memory_order_relaxed);
            serve::ReplStatus::global().record_contact(applied, applied);
            ReplicaMetrics::get().lag_frames.set(0);
        } else if (line.rfind("REPL PING ", 0) == 0) {
            const std::uint64_t committed =
                parse_u64_field(line, "committed");
            const std::uint64_t applied =
                applied_generation_.load(std::memory_order_relaxed);
            serve::ReplStatus::global().record_contact(committed, applied);
            ReplicaMetrics::get().lag_frames.set(
                committed > applied
                    ? static_cast<std::int64_t>(committed - applied)
                    : 0);
            ReplicaMetrics::get().heartbeats.add(1);
        } else {
            throw Error("unexpected REPL stream line: " + line);
        }
    }
}

void Replicator::apply_frame(const std::string& frame,
                             const std::string& origin) {
    // The frame is a store WAL frame: validate it with the recovery
    // framing rules before trusting the payload.
    const store::DecodedFrame decoded = store::decode_frame(frame);
    FPM_CHECK(decoded.status != store::FrameStatus::kShortHeader,
              origin + ": short replication frame");
    FPM_CHECK(decoded.status != store::FrameStatus::kTooLong,
              origin + ": replication frame over the length cap");
    FPM_CHECK(decoded.size == frame.size(),
              origin + ": replication frame length mismatch");
    FPM_CHECK(decoded.status == store::FrameStatus::kOk,
              origin + ": replication frame CRC mismatch");

    apply_record(
        store::decode_publish_record(std::string(decoded.payload), origin));
}

void Replicator::apply_record(const store::PublishRecord& record) {
    if (record.generation <=
        applied_generation_.load(std::memory_order_relaxed)) {
        return;  // reconnect/snapshot overlap: already applied
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
        // Snapshot records and post-reconnect overlap carry explicit,
        // possibly non-contiguous generations: restore() installs them
        // verbatim (no observer), so the local store is fed directly.
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
