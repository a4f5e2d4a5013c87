/// \file engine.hpp
/// \brief Online FPM refinement from served-execution feedback.
///
/// The paper closes its loop offline: benchmark the kernel, fit the
/// functional performance models, partition.  AdaptEngine closes the
/// same loop *online* against a running partition service.  Clients
/// report real execution times for the sub-problems a served plan gave
/// them (the FEEDBACK verb); the engine buckets them per (device,
/// size-region) with the library's statistical-reliability bar
/// (FeedbackIngestor), splices reliable windows into a working copy of
/// the set's speed functions under bounded-update and monotonicity
/// guards (OnlineRefiner), watches the model error for sustained drift
/// (DriftDetector), and when the CUSUM crosses its limit atomically
/// hot-publishes the refined models as a new registry version and
/// invalidates every cached plan derived from the old content
/// (ModelPublisher).  The next PARTITION after a republish is computed
/// from models that match what the hardware is doing *now*.
///
/// Threading: the engine installs itself as the RequestEngine's
/// feedback handler, so ingestion runs on the rt pool's worker threads
/// — never on the reactor's event loop, never on the PARTITION hot
/// path.  All per-set state lives behind one mutex inside a
/// shared_ptr'd Impl that the handler closure co-owns: destroying the
/// AdaptEngine uninstalls the handler, while feedback already in
/// flight finishes safely against the still-alive Impl.
///
/// External reloads: every ingest first compares the registry
/// snapshot's fingerprint to the one the working models were synced
/// from.  On mismatch (an operator RELOAD, or another publisher) the
/// working copy, buckets and CUSUM are rebuilt from the new snapshot —
/// stale evidence never refines a model it was not measured against
/// (bounded staleness).
///
/// Fault points: `adapt.ingest` (sample rejected before any state
/// changes), `adapt.refine` (bucket retained, so the next sample
/// retries the splice — self-healing), `adapt.publish` (registry left
/// on the previous version).  Metrics: adapt.samples, adapt.reliable,
/// adapt.drift, adapt.republished counters and the adapt.model_version
/// gauge, all surfaced in the STATS wire reply.
#pragma once

#include <cstdint>
#include <memory>

#include "fpm/adapt/adapt_config.hpp"
#include "fpm/serve/request_engine.hpp"

namespace fpm::adapt {

/// Aggregate adaptation counters (a stats() snapshot, not live state).
struct AdaptStats {
    std::uint64_t samples = 0;      ///< feedback samples ingested
    std::uint64_t reliable = 0;     ///< buckets that reached reliability
    std::uint64_t refined = 0;      ///< splices actually applied
    std::uint64_t drift = 0;        ///< windows flagged as drift
    std::uint64_t republished = 0;  ///< hot republishes performed
    std::uint64_t resyncs = 0;      ///< external reloads detected
    std::uint64_t model_version = 0;  ///< latest published generation
};

/// See file comment.
class AdaptEngine {
public:
    /// Installs the feedback handler on `engine`; throws fpm::Error on
    /// an inconsistent config.  The engine must outlive this object.
    AdaptEngine(serve::RequestEngine& engine, AdaptConfig config);

    /// Uninstalls the handler.  In-flight feedback finishes against the
    /// shared implementation; subsequent FEEDBACK answers
    /// `ERR feedback not enabled`.
    ~AdaptEngine();

    AdaptEngine(const AdaptEngine&) = delete;
    AdaptEngine& operator=(const AdaptEngine&) = delete;

    /// Ingests one sample synchronously (test/tool entry point; the
    /// serve path reaches it through handle_request() on the engine's
    /// pool).  Throws fpm::Error, before any state changes, for a sample
    /// whose speed x / seconds is not finite and positive.
    serve::FeedbackReply ingest(const serve::FeedbackSample& sample);

    [[nodiscard]] AdaptStats stats() const;

    [[nodiscard]] const AdaptConfig& config() const noexcept {
        return config_;
    }

private:
    struct Impl;
    serve::RequestEngine& engine_;
    AdaptConfig config_;
    std::shared_ptr<Impl> impl_;
};

} // namespace fpm::adapt
