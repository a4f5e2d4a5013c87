/// \file replicator.hpp
/// \brief Replica-side replication client: connect, catch up, tail.
///
/// The Replicator owns one background thread that keeps a replica's
/// registry converged with its primary: it connects to the primary's
/// replication port, sends `REPL HELLO gen=<g>` with the highest
/// generation it has applied (on start, the one its own store
/// recovered; 0 when fresh), and then applies the FRAME records the
/// primary pushes — first every set newer than `g`, then every commit
/// as it lands — until stopped or disconnected (ReplicationLog states
/// why `g` alone is a complete position).
///
/// Applying a record goes through the same machinery a primary publish
/// does, so everything downstream behaves identically on both roles:
///
///  * when the record's generation is exactly the registry's next one
///    (the steady-state streaming case), ModelRegistry::put() installs
///    it, reproducing the primary's generation bit-for-bit and firing
///    the local store's write-ahead observer, so the replica's own WAL
///    logs the record;
///  * otherwise (catch-up records skip the superseded generations)
///    ModelRegistry::restore() installs the explicit generation and the
///    record is appended to the local store directly;
///  * either way the engine's plan cache is invalidated under the old
///    fingerprint, exactly as ModelPublisher does on the primary —
///    cached plans for the superseded generation can never be served;
///  * records at or below the last applied generation are dropped.
///
/// After every applied record the installed generation and fingerprint
/// are checked against the ones the primary recorded; a mismatch (or an
/// armed `repl.apply` fault) severs the connection, and a bounded
/// exponential backoff (ReplicatorConfig::backoff_base/backoff_max)
/// paces the reconnect.  A completed handshake resets the backoff, so a
/// primary that accepts and then drops the stream is retried at the
/// base delay.  A primary that stays silent past recv_timeout (it
/// heartbeats every heartbeat_interval when idle) counts as dead.  The
/// stream is a serve::LineConn, so a control line longer than
/// kMaxRequestLine, or a `bytes=` header announcing more than one WAL
/// frame, also severs the connection — before any of it is buffered.
///
/// Observability: the serve layer's ReplStatus letterbox (role, source,
/// lag, applied generation — surfaced in STATS/HEALTH) plus repl.*
/// counters/gauges/histograms (docs/operations.md).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "fpm/serve/request_engine.hpp"
#include "fpm/serve/transport.hpp"
#include "fpm/store/model_store.hpp"

namespace fpm::repl {

/// Replica-side knobs.
struct ReplicatorConfig {
    serve::Endpoint source;        ///< the primary's replication endpoint
    double connect_timeout = 5.0;  ///< non-blocking connect + poll
    double recv_timeout = 5.0;     ///< per send/recv on the stream
    double backoff_base = 0.02;    ///< first reconnect delay, seconds
    double backoff_max = 0.5;      ///< cap of the doubling reconnect delay
};

/// See file comment.
class Replicator {
public:
    /// `engine` is the replica's serving engine (its registry receives
    /// the replicated sets); `local_store` may be null (no replica-side
    /// durability) and, when set, must already be attach()ed to the
    /// engine's registry so the put() path logs through the observer.
    /// Both must outlive the replicator.  start() begins replication.
    Replicator(serve::RequestEngine& engine, store::ModelStore* local_store,
               ReplicatorConfig config);

    /// stop()s.
    ~Replicator();

    Replicator(const Replicator&) = delete;
    Replicator& operator=(const Replicator&) = delete;

    /// Spawns the replication thread (idempotent).
    void start();

    /// Severs the connection, stops reconnecting and joins the thread.
    /// Idempotent.
    void stop();

    /// Highest generation applied locally.
    [[nodiscard]] std::uint64_t applied_generation() const noexcept {
        return applied_generation_.load(std::memory_order_relaxed);
    }
    /// FRAME records applied.
    [[nodiscard]] std::uint64_t frames_applied() const noexcept {
        return frames_applied_.load(std::memory_order_relaxed);
    }
    /// Reconnect attempts after a connect/stream/apply failure.
    [[nodiscard]] std::uint64_t reconnects() const noexcept {
        return reconnects_.load(std::memory_order_relaxed);
    }
    /// True while a stream is established (handshake done, not torn).
    [[nodiscard]] bool connected() const noexcept {
        return connected_.load(std::memory_order_relaxed);
    }

private:
    void run();
    void run_once();
    void apply_frame(const std::string& frame);
    void record_contact(std::uint64_t committed);
    void apply_record(const store::PublishRecord& record);
    void backoff(int consecutive_failures);

    serve::RequestEngine& engine_;
    store::ModelStore* local_store_;
    const ReplicatorConfig config_;

    std::thread thread_;
    std::atomic<bool> stop_{false};
    std::mutex stop_mutex_;  ///< guards conn_; pairs with stop_cv_
    std::condition_variable stop_cv_;
    serve::LineConn* conn_ = nullptr;  ///< live stream, for stop() to sever

    std::atomic<std::uint64_t> applied_generation_{0};
    std::atomic<std::uint64_t> frames_applied_{0};
    std::atomic<std::uint64_t> reconnects_{0};
    std::atomic<bool> connected_{false};
    bool started_ = false;
};

} // namespace fpm::repl
