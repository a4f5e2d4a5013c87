/// \file protocol.hpp
/// \brief Typed messages of the partition-service wire protocol.
///
/// The wire format stays line-oriented text — one request line, one
/// response line, space-separated fields, values never contain spaces —
/// but nothing outside this module splices or splits those strings.
/// Every message is a typed struct with `encode()`/`decode()`, and the
/// reactor, ServeClient, the tools and the tests all speak structs:
///
///     PING                                    -> OK PONG v<version>
///     LOAD <name> <path>                      -> OK LOADED ...
///     PARTITION <model> <n> <algo> [nolayout] -> OK PARTITION ...
///     FEEDBACK <model> <dev> <x> <seconds>    -> OK FEEDBACK ...
///     MODELS                                  -> OK MODELS ...
///     STATS                                   -> OK STATS ...
///     HEALTH                                  -> OK HEALTH ...
///     QUIT                                    -> OK BYE
///
/// Failures are `ERR <code> [<message>]`: the first token is a stable
/// machine-readable ErrorCode token (see error.hpp) and the rest is the
/// human diagnosis.  Doubles travel as 17 significant digits (%.17g):
/// not the shortest form, but enough that every double round-trips
/// bit-for-bit, so a partition reply decoded by the client compares
/// equal to the direct library call.  Both decoders read tokens and
/// numbers through fpm/common/text.hpp, over views of the line: a
/// number is the whole token, with no `+`, no `0x` and no blanks, and
/// an integer or double out of range is malformed.  FEEDBACK's `<x>`
/// and `<seconds>` must also be finite.  kProtocolVersion is the single revision
/// constant: PING carries it, ServeClient::ping() enforces it, and
/// nothing else restates it.
///
/// The normative wire-format specification (framing, field grammars,
/// the ERR taxonomy, degraded-reply semantics) lives in
/// docs/protocol.md; this header and that document must change together.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "fpm/serve/error.hpp"
#include "fpm/serve/request_engine.hpp"

namespace fpm::serve {

/// Wire protocol revision.  v6 adds replication: the REPL verbs spoken
/// on the replication listener (HELLO handshake, framed FRAME
/// records, PING heartbeats — see docs/replication.md), the
/// `read_only` ERR token replicas answer to write verbs, and the
/// replication fields (role, repl_lag_frames, repl_lag_seconds,
/// repl_source, repl_applied_generation) in STATS and HEALTH.  v5 types
/// failures (`ERR <code> [<message>]` with the stable ErrorCode
/// tokens), extends HEALTH to the extensible key=value ServerHealth
/// reply (recovered_generation), and adds the durable-store STATS
/// fields (store_*, recovered_generation).  v4 added the FEEDBACK verb
/// (online model refinement) and the adapt_* STATS fields; v3
/// introduced typed messages, the reactor's STATS fields (connection
/// gauges, queue-to-reply quantiles), the HEALTH request and the
/// PARTITION `degraded=` flag.  Clients must refuse to talk to a
/// server announcing a different revision (ServeClient::ping enforces
/// this).
inline constexpr int kProtocolVersion = 6;

/// A request message.  decode() parses a wire line and classifies its
/// own failures: it throws ServiceError, kUnsupportedVerb for an unknown
/// verb and kBadRequest for anything else malformed (arity, numbers,
/// n outside [1, part::kMaxN], a FEEDBACK value that is not finite);
/// encode() renders the line the client sends.
struct Request {
    enum class Kind { kPing, kLoad, kPartition, kFeedback, kModels, kStats,
                      kHealth, kQuit };

    Kind kind = Kind::kPing;
    PartitionRequest partition;  ///< kPartition
    FeedbackSample feedback;     ///< kFeedback
    std::string name;            ///< kLoad: registry name
    std::string path;            ///< kLoad: model CSV path

    [[nodiscard]] std::string encode() const;
    [[nodiscard]] static Request decode(std::string_view line);
};

/// Payload of an `OK PARTITION` response.
struct PartitionReply {
    std::string model;
    std::uint64_t generation = 0;
    std::int64_t n = 0;
    Algorithm algorithm = Algorithm::kFpm;
    bool cached = false;
    bool coalesced = false;
    /// Served from a stale plan or the constant-performance fallback
    /// because the requested model/compute was unavailable.
    bool degraded = false;
    double balanced_time = 0.0;
    double makespan = 0.0;
    std::int64_t comm_cost = 0;
    std::vector<std::int64_t> blocks;
    std::vector<part::Rect> rects;  ///< empty when the layout was not requested
};

/// Payload of an `OK LOADED` response.
struct LoadedReply {
    std::string name;
    std::uint64_t models = 0;
    std::uint64_t generation = 0;
    std::uint64_t fingerprint = 0;
};

/// One undecoded `key=value` field of an `OK STATS`/`OK HEALTH` line.
/// ServerStats/ServerHealth::from_fields type a list of them; the
/// replies themselves carry the typed views.
struct StatField {
    std::string name;
    std::string value;
};

/// Payload of an `OK HEALTH` response: liveness (the process answered),
/// readiness (at least one model set is loaded), the degradation
/// counters an operator watches during fault drills, and — when a
/// durable store is configured — the generation recovered at startup.
/// Since v5 the reply is an open key=value list like STATS: unknown
/// fields land in `extras`, so probes keep working against newer
/// servers.  Like ServerStats, each member is one row of a field table
/// in protocol.cpp that drives encode, decode and field_names().
struct ServerHealth {
    bool live = true;
    bool ready = false;
    std::uint64_t models = 0;           ///< registry size
    std::uint64_t faults = 0;           ///< fault::injected_total()
    std::uint64_t degraded = 0;         ///< degraded partitions served
    /// Highest registry generation restored from the durable store at
    /// startup; 0 when no store is configured (or it was empty).
    std::uint64_t recovered_generation = 0;

    // -- replication (v6; defaults when replication is not configured) --
    std::string role = "primary";        ///< "primary" or "replica"
    std::uint64_t repl_lag_frames = 0;   ///< committed minus applied gen
    double repl_lag_seconds = 0.0;       ///< staleness vs the source
    std::string repl_source = "-";       ///< replica: upstream host:port
    std::uint64_t repl_applied_generation = 0;  ///< last applied gen

    /// Unknown `key=value` pairs, verbatim (forward compat).
    std::map<std::string, std::string> extras;

    /// Parses a decoded HEALTH field vector.  Throws fpm::Error when a
    /// *known* field carries a malformed value; unknown names land in
    /// `extras` untouched.
    [[nodiscard]] static ServerHealth
    from_fields(const std::vector<StatField>& fields);

    /// Wire names of the known fields, in wire order.
    [[nodiscard]] static const std::vector<std::string_view>& field_names();
};

/// One registry entry in an `OK MODELS` response.
struct ModelSetInfo {
    std::string name;
    std::uint64_t generation = 0;
    std::uint64_t models = 0;
};

/// Per-algorithm request-latency quartet of an `OK STATS` reply
/// (`<algo>_count`, `<algo>_p50_us`, ...).
struct AlgorithmStats {
    std::uint64_t count = 0;
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
};

/// The typed view of an `OK STATS` reply: every field the current
/// protocol revision emits, plus `extras` holding any `key=value` pair
/// this build does not know (the forward-compat contract — decoders
/// ignore unknown keys, and this struct *preserves* them).  Each member
/// is one row of a field table in protocol.cpp (wire name plus slot),
/// and that table alone drives encode, decode, from_fields() and
/// field_names().  make_stats_reply() fills it; Response carries it;
/// ServeClient::stats(), the fpmpart_serve shutdown dump and the tests
/// read it.
struct ServerStats {
    // -- engine -------------------------------------------------------
    std::uint64_t requests = 0;
    std::uint64_t computed = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t degraded = 0;
    double mean_latency_us = 0.0;
    double max_latency_us = 0.0;
    /// Indexed by static_cast<std::size_t>(Algorithm), like
    /// EngineStats::latency_by_algorithm.
    std::array<AlgorithmStats, kAlgorithmCount> by_algorithm{};

    // -- plan cache ---------------------------------------------------
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t cache_size = 0;
    std::uint64_t cache_shards = 0;  ///< lock stripes of the plan cache

    // -- registry / fault layer ---------------------------------------
    std::uint64_t models = 0;
    std::uint64_t faults = 0;

    // -- reactor pool (process-global gauges/counters) ----------------
    std::uint64_t reactors = 0;  ///< event-loop threads of the running pool
    std::int64_t open_conns = 0;
    std::int64_t buffered_bytes = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t idle_timeouts = 0;
    std::uint64_t send_failures = 0;
    std::uint64_t pipelined = 0;
    std::int64_t pipeline_depth_max = 0;
    double q2r_p50_us = 0.0;
    double q2r_p95_us = 0.0;
    double q2r_p99_us = 0.0;

    // -- online adaptation --------------------------------------------
    std::uint64_t adapt_samples = 0;
    std::uint64_t adapt_reliable = 0;
    std::uint64_t adapt_drift = 0;
    std::uint64_t adapt_republished = 0;
    std::uint64_t adapt_model_version = 0;

    // -- durable model store ------------------------------------------
    std::uint64_t store_appended = 0;   ///< WAL records written
    std::uint64_t store_bytes = 0;      ///< WAL bytes written
    std::uint64_t store_snapshots = 0;  ///< compacted snapshots taken
    double store_fsync_p50_us = 0.0;
    double store_fsync_p95_us = 0.0;
    double store_fsync_p99_us = 0.0;
    std::uint64_t recovered_generation = 0;  ///< restored at startup

    // -- replication (v6; defaults when replication is not configured) --
    std::string role = "primary";        ///< "primary" or "replica"
    std::uint64_t repl_lag_frames = 0;   ///< committed minus applied gen
    double repl_lag_seconds = 0.0;       ///< staleness vs the source
    std::string repl_source = "-";       ///< replica: upstream host:port
    std::uint64_t repl_applied_generation = 0;  ///< last applied gen

    /// Unknown `key=value` pairs, verbatim (e.g. fields added by a newer
    /// server).  Known fields never appear here.
    std::map<std::string, std::string> extras;

    /// Parses a decoded STATS field vector.  Throws fpm::Error when a
    /// *known* field carries a malformed value; unknown names land in
    /// `extras` untouched.
    [[nodiscard]] static ServerStats
    from_fields(const std::vector<StatField>& fields);

    /// Wire names of the known fields, in wire order.
    [[nodiscard]] static const std::vector<std::string_view>& field_names();
};

/// A response message: a tagged struct mirroring Request.  decode()
/// never throws on `ERR` lines (`ERR` alone or followed by a space) —
/// they decode to kError — but throws fpm::Error on structurally
/// malformed replies.
struct Response {
    enum class Kind { kError, kPong, kBye, kLoaded, kModels, kStats,
                      kHealth, kPartition, kFeedback };

    Kind kind = Kind::kError;
    std::string error;                 ///< kError: human-readable message
    /// kError: the stable machine-readable classification (kInternal
    /// when a decoded line does not lead with a known token).
    ErrorCode error_code = ErrorCode::kInternal;
    int version = kProtocolVersion;    ///< kPong
    LoadedReply loaded;                ///< kLoaded
    std::vector<ModelSetInfo> sets;    ///< kModels
    ServerStats stats;                 ///< kStats
    ServerHealth health;               ///< kHealth
    PartitionReply partition;          ///< kPartition
    FeedbackReply feedback;            ///< kFeedback

    [[nodiscard]] std::string encode() const;
    [[nodiscard]] static Response decode(std::string_view line);

    /// Typed error; an empty `message` means the reply carries the code
    /// token alone (`ERR busy`), which is also how it decodes.
    [[nodiscard]] static Response make_error(ErrorCode code,
                                             const std::string& message = {});
};

/// Builds the typed partition payload for a served response.
[[nodiscard]] PartitionReply
make_partition_reply(const PartitionRequest& request,
                     const PartitionResponse& response);

/// Builds the STATS response: engine counters, cache, per-algorithm
/// latency quantiles, plus the reactor's gauges/counters, the
/// queue-to-reply quantiles, the adaptation counters (adapt_*) and the
/// durable-store instruments (store_*, recovered_generation), all read
/// from the process-global obs::MetricsRegistry (zero when no
/// server/adapter/store ran yet), and the replication fields from
/// ReplStatus.
[[nodiscard]] Response make_stats_reply(const EngineStats& stats,
                                        std::size_t model_count);

/// Executes one decoded request against the engine (and its registry)
/// and returns the typed response; never throws — failures become
/// kError.  The one dispatch point for every verb: PARTITION and
/// FEEDBACK run synchronously on the calling thread, so the reactor
/// calls this on the engine pool for them (after its cache-hit fast
/// path) and on its event loop for everything else.
[[nodiscard]] Response handle_request(RequestEngine& engine,
                                      const Request& request);

/// Line-in/line-out convenience used by tests and in-process callers:
/// decode, dispatch, encode.  Never throws; QUIT answers `OK BYE`
/// (hanging up is the transport's job).
[[nodiscard]] std::string handle_line(RequestEngine& engine,
                                      const std::string& line);

/// Decodes a reply expected to be `OK PARTITION ...`; throws fpm::Error
/// on `ERR` responses (carrying the server message) and on malformed or
/// differently-typed replies.
[[nodiscard]] PartitionReply parse_partition_reply(const std::string& reply);

/// Stable 64-bit fingerprint of a request's encoded wire line (FNV-1a).
/// ServeClient keys its retry jitter stream on this, so identical
/// requests replay the same backoff schedule.
[[nodiscard]] std::uint64_t request_fingerprint(const Request& request);

} // namespace fpm::serve
