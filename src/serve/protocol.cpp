#include "fpm/serve/protocol.hpp"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "fpm/common/error.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/serve/reactor_metrics.hpp"
#include "fpm/serve/repl_status.hpp"

namespace fpm::serve {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
    std::vector<std::string> tokens;
    std::istringstream stream(line);
    std::string token;
    while (stream >> token) {
        tokens.push_back(token);
    }
    return tokens;
}

std::int64_t parse_int(const std::string& text, const char* what) {
    errno = 0;
    char* end = nullptr;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    FPM_CHECK(end != text.c_str() && *end == '\0' && errno == 0,
              std::string("malformed ") + what + ": " + text);
    return static_cast<std::int64_t>(value);
}

std::uint64_t parse_hex64(const std::string& text, const char* what) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 16);
    FPM_CHECK(end != text.c_str() && *end == '\0' && errno == 0,
              std::string("malformed ") + what + ": " + text);
    return static_cast<std::uint64_t>(value);
}

double parse_double(const std::string& text, const char* what) {
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    FPM_CHECK(end != text.c_str() && *end == '\0' && errno == 0,
              std::string("malformed ") + what + ": " + text);
    return value;
}

/// A double as 17 significant digits: not the shortest form, but every
/// value round-trips bit-for-bit.
std::string format_double(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

std::string format_hex64(std::uint64_t value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%016" PRIx64, value);
    return buffer;
}

std::string sanitize(const std::string& message) {
    std::string clean = message;
    for (char& ch : clean) {
        if (ch == '\n' || ch == '\r') {
            ch = ' ';
        }
    }
    return clean;
}

/// Splits `token` at the first '=' and checks the key.
std::string expect_kv(const std::string& token, const char* key) {
    const auto eq = token.find('=');
    FPM_CHECK(eq != std::string::npos &&
                  token.compare(0, eq, key) == 0,
              std::string("expected ") + key + "=..., got: " + token);
    return token.substr(eq + 1);
}

std::vector<std::string> split(const std::string& text, char sep) {
    std::vector<std::string> parts;
    std::string part;
    std::istringstream stream(text);
    while (std::getline(stream, part, sep)) {
        parts.push_back(part);
    }
    return parts;
}

void append_histogram_us(std::vector<StatField>& fields,
                         const std::string& prefix,
                         const obs::HistogramSnapshot& histogram) {
    fields.push_back({prefix + "_p50_us", format_double(histogram.p50 * 1e6)});
    fields.push_back({prefix + "_p95_us", format_double(histogram.p95 * 1e6)});
    fields.push_back({prefix + "_p99_us", format_double(histogram.p99 * 1e6)});
}

} // namespace

// ---------------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------------

std::string Request::encode() const {
    switch (kind) {
    case Kind::kPing:
        return "PING";
    case Kind::kQuit:
        return "QUIT";
    case Kind::kStats:
        return "STATS";
    case Kind::kHealth:
        return "HEALTH";
    case Kind::kModels:
        return "MODELS";
    case Kind::kLoad:
        return "LOAD " + name + " " + path;
    case Kind::kPartition: {
        std::ostringstream out;
        out << "PARTITION " << partition.model_set << ' ' << partition.n
            << ' ' << part::to_string(partition.algorithm);
        if (!partition.with_layout) {
            out << " nolayout";
        }
        return out.str();
    }
    case Kind::kFeedback: {
        std::ostringstream out;
        out << "FEEDBACK " << feedback.model_set << ' ' << feedback.device
            << ' ' << format_double(feedback.problem_size) << ' '
            << format_double(feedback.seconds);
        return out.str();
    }
    }
    throw Error("unencodable request");
}

Request Request::decode(const std::string& line) {
    const auto tokens = tokenize(line);
    FPM_CHECK(!tokens.empty(), "empty request");
    const std::string& verb = tokens[0];

    Request request;
    if (verb == "PING") {
        FPM_CHECK(tokens.size() == 1, "PING takes no arguments");
        request.kind = Kind::kPing;
    } else if (verb == "QUIT") {
        FPM_CHECK(tokens.size() == 1, "QUIT takes no arguments");
        request.kind = Kind::kQuit;
    } else if (verb == "STATS") {
        FPM_CHECK(tokens.size() == 1, "STATS takes no arguments");
        request.kind = Kind::kStats;
    } else if (verb == "HEALTH") {
        FPM_CHECK(tokens.size() == 1, "HEALTH takes no arguments");
        request.kind = Kind::kHealth;
    } else if (verb == "MODELS") {
        FPM_CHECK(tokens.size() == 1, "MODELS takes no arguments");
        request.kind = Kind::kModels;
    } else if (verb == "LOAD") {
        FPM_CHECK(tokens.size() == 3, "usage: LOAD <name> <path>");
        request.kind = Kind::kLoad;
        request.name = tokens[1];
        request.path = tokens[2];
    } else if (verb == "PARTITION") {
        FPM_CHECK(tokens.size() == 4 || tokens.size() == 5,
                  "usage: PARTITION <model> <n> <fpm|cpm|even> [nolayout]");
        request.kind = Kind::kPartition;
        request.partition.model_set = tokens[1];
        request.partition.n = parse_int(tokens[2], "workload size");
        FPM_CHECK(request.partition.n > 0, "workload size must be positive");
        const auto algorithm = part::parse_algorithm(tokens[3]);
        FPM_CHECK(algorithm.has_value(), "unknown algorithm: " + tokens[3]);
        request.partition.algorithm = *algorithm;
        if (tokens.size() == 5) {
            FPM_CHECK(tokens[4] == "nolayout",
                      "unknown PARTITION option: " + tokens[4]);
            request.partition.with_layout = false;
        }
    } else if (verb == "FEEDBACK") {
        FPM_CHECK(tokens.size() == 5,
                  "usage: FEEDBACK <model> <device> <size> <seconds>");
        request.kind = Kind::kFeedback;
        request.feedback.model_set = tokens[1];
        request.feedback.device = parse_int(tokens[2], "device index");
        FPM_CHECK(request.feedback.device >= 0,
                  "device index must be non-negative");
        request.feedback.problem_size =
            parse_double(tokens[3], "problem size");
        FPM_CHECK(request.feedback.problem_size > 0.0,
                  "problem size must be positive");
        request.feedback.seconds = parse_double(tokens[4], "measured time");
        FPM_CHECK(request.feedback.seconds > 0.0,
                  "measured time must be positive");
    } else {
        // Typed so the wire answer is `ERR unsupported_verb ...` — the
        // code a newer client probes for when feature-detecting verbs.
        throw ServiceError(ErrorCode::kUnsupportedVerb,
                           "unknown command: " + verb);
    }
    return request;
}

// ---------------------------------------------------------------------------
// Response
// ---------------------------------------------------------------------------

Response Response::make_error(ErrorCode code, const std::string& message) {
    Response response;
    response.kind = Kind::kError;
    response.error_code = code;
    // `error` is never empty: a message-less typed error carries the
    // token text itself, so callers testing `!error.empty()` keep
    // detecting failure.
    response.error =
        message.empty() ? std::string(error_token(code)) : sanitize(message);
    return response;
}

std::string Response::encode() const {
    switch (kind) {
    case Kind::kError: {
        // `ERR <code>` when the message is just the token (or empty),
        // `ERR <code> <message>` otherwise.
        const std::string_view token = error_token(error_code);
        if (error.empty() || error == token) {
            return "ERR " + std::string(token);
        }
        return "ERR " + std::string(token) + " " + sanitize(error);
    }
    case Kind::kPong:
        return "OK PONG v" + std::to_string(version);
    case Kind::kBye:
        return "OK BYE";
    case Kind::kLoaded: {
        std::ostringstream out;
        out << "OK LOADED name=" << loaded.name << " models=" << loaded.models
            << " gen=" << loaded.generation
            << " fingerprint=" << format_hex64(loaded.fingerprint);
        return out.str();
    }
    case Kind::kModels: {
        std::ostringstream out;
        out << "OK MODELS count=" << sets.size() << " sets=";
        if (sets.empty()) {
            out << '-';
        }
        for (std::size_t i = 0; i < sets.size(); ++i) {
            if (i > 0) {
                out << ',';
            }
            out << sets[i].name << ':' << sets[i].generation << ':'
                << sets[i].models;
        }
        return out.str();
    }
    case Kind::kStats: {
        std::ostringstream out;
        out << "OK STATS";
        for (const StatField& field : stats) {
            out << ' ' << field.name << '=' << field.value;
        }
        return out.str();
    }
    case Kind::kHealth: {
        std::ostringstream out;
        out << "OK HEALTH live=" << (health.live ? 1 : 0)
            << " ready=" << (health.ready ? 1 : 0)
            << " models=" << health.models
            << " faults=" << health.faults_injected
            << " degraded=" << health.degraded
            << " recovered_generation=" << health.recovered_generation
            << " role=" << (health.role.empty() ? "primary" : health.role)
            << " repl_lag_frames=" << health.repl_lag_frames
            << " repl_lag_seconds=" << format_double(health.repl_lag_seconds)
            << " repl_source="
            << (health.repl_source.empty() ? "-" : health.repl_source)
            << " repl_applied_generation=" << health.repl_applied_generation;
        for (const auto& [key, value] : health.extras) {
            out << ' ' << key << '=' << value;
        }
        return out.str();
    }
    case Kind::kPartition: {
        std::ostringstream out;
        out << "OK PARTITION model=" << partition.model
            << " gen=" << partition.generation << " n=" << partition.n
            << " algo=" << part::to_string(partition.algorithm)
            << " cached=" << (partition.cached ? 1 : 0)
            << " coalesced=" << (partition.coalesced ? 1 : 0)
            << " degraded=" << (partition.degraded ? 1 : 0)
            << " balanced=" << format_double(partition.balanced_time)
            << " makespan=" << format_double(partition.makespan)
            << " comm=" << partition.comm_cost << " blocks=";
        for (std::size_t i = 0; i < partition.blocks.size(); ++i) {
            if (i > 0) {
                out << ',';
            }
            out << partition.blocks[i];
        }
        out << " layout=";
        if (partition.rects.empty()) {
            out << '-';
        } else {
            for (std::size_t i = 0; i < partition.rects.size(); ++i) {
                const auto& rect = partition.rects[i];
                if (i > 0) {
                    out << '|';
                }
                out << rect.col0 << ':' << rect.row0 << ':' << rect.w << ':'
                    << rect.h;
            }
        }
        return out.str();
    }
    case Kind::kFeedback: {
        std::ostringstream out;
        out << "OK FEEDBACK set=" << feedback.model_set
            << " device=" << feedback.device
            << " samples=" << feedback.samples
            << " reliable=" << (feedback.reliable ? 1 : 0)
            << " drift=" << (feedback.drift ? 1 : 0)
            << " republished=" << (feedback.republished ? 1 : 0)
            << " version=" << feedback.version;
        return out.str();
    }
    }
    throw Error("unencodable response");
}

Response Response::decode(const std::string& line) {
    Response response;
    if (line.rfind("ERR", 0) == 0) {
        response.kind = Kind::kError;
        const std::string body =
            line.size() > 4 ? line.substr(4) : std::string{};
        // The first token is an ErrorCode token.  Anything else decodes
        // as kInternal with the whole body kept as the message.
        const auto space = body.find(' ');
        const std::string head = body.substr(0, space);
        response.error = body;
        if (const auto code = parse_error_token(head)) {
            response.error_code = *code;
            if (space != std::string::npos) {
                response.error = body.substr(space + 1);
            }  // else the token alone; never empty
        }
        return response;
    }
    const auto tokens = tokenize(line);
    FPM_CHECK(tokens.size() >= 2 && tokens[0] == "OK",
              "malformed response: " + line);
    const std::string& tag = tokens[1];

    if (tag == "PONG") {
        FPM_CHECK(tokens.size() == 3 && tokens[2].size() > 1 &&
                      tokens[2][0] == 'v',
                  "malformed PONG reply: " + line);
        response.kind = Kind::kPong;
        response.version = static_cast<int>(
            parse_int(tokens[2].substr(1), "protocol version"));
    } else if (tag == "BYE") {
        FPM_CHECK(tokens.size() == 2, "malformed BYE reply: " + line);
        response.kind = Kind::kBye;
    } else if (tag == "LOADED") {
        FPM_CHECK(tokens.size() == 6, "malformed LOADED reply: " + line);
        response.kind = Kind::kLoaded;
        response.loaded.name = expect_kv(tokens[2], "name");
        response.loaded.models = static_cast<std::uint64_t>(
            parse_int(expect_kv(tokens[3], "models"), "model count"));
        response.loaded.generation = static_cast<std::uint64_t>(
            parse_int(expect_kv(tokens[4], "gen"), "generation"));
        response.loaded.fingerprint =
            parse_hex64(expect_kv(tokens[5], "fingerprint"), "fingerprint");
    } else if (tag == "MODELS") {
        FPM_CHECK(tokens.size() == 4, "malformed MODELS reply: " + line);
        response.kind = Kind::kModels;
        const std::uint64_t count = static_cast<std::uint64_t>(
            parse_int(expect_kv(tokens[2], "count"), "set count"));
        const std::string sets_text = expect_kv(tokens[3], "sets");
        if (sets_text != "-") {
            for (const auto& entry : split(sets_text, ',')) {
                const auto fields = split(entry, ':');
                FPM_CHECK(fields.size() == 3,
                          "malformed model-set entry: " + entry);
                ModelSetInfo info;
                info.name = fields[0];
                info.generation = static_cast<std::uint64_t>(
                    parse_int(fields[1], "generation"));
                info.models = static_cast<std::uint64_t>(
                    parse_int(fields[2], "model count"));
                response.sets.push_back(std::move(info));
            }
        }
        FPM_CHECK(response.sets.size() == count,
                  "MODELS count disagrees with its set list: " + line);
    } else if (tag == "STATS") {
        response.kind = Kind::kStats;
        for (std::size_t i = 2; i < tokens.size(); ++i) {
            const auto eq = tokens[i].find('=');
            FPM_CHECK(eq != std::string::npos && eq > 0,
                      "malformed STATS field: " + tokens[i]);
            response.stats.push_back(
                {tokens[i].substr(0, eq), tokens[i].substr(eq + 1)});
        }
    } else if (tag == "HEALTH") {
        // Open key=value list since v5 (a v3/v4 reply is a strict
        // prefix, so it decodes through the same path).
        response.kind = Kind::kHealth;
        std::vector<StatField> fields;
        for (std::size_t i = 2; i < tokens.size(); ++i) {
            const auto eq = tokens[i].find('=');
            FPM_CHECK(eq != std::string::npos && eq > 0,
                      "malformed HEALTH field: " + tokens[i]);
            fields.push_back(
                {tokens[i].substr(0, eq), tokens[i].substr(eq + 1)});
        }
        response.health = ServerHealth::from_fields(fields);
    } else if (tag == "PARTITION") {
        FPM_CHECK(tokens.size() == 14, "malformed partition reply: " + line);
        response.kind = Kind::kPartition;
        PartitionReply& parsed = response.partition;
        parsed.model = expect_kv(tokens[2], "model");
        parsed.generation = static_cast<std::uint64_t>(
            parse_int(expect_kv(tokens[3], "gen"), "generation"));
        parsed.n = parse_int(expect_kv(tokens[4], "n"), "n");
        const auto algorithm =
            part::parse_algorithm(expect_kv(tokens[5], "algo"));
        FPM_CHECK(algorithm.has_value(),
                  "malformed algorithm in reply: " + line);
        parsed.algorithm = *algorithm;
        parsed.cached =
            parse_int(expect_kv(tokens[6], "cached"), "cached") != 0;
        parsed.coalesced =
            parse_int(expect_kv(tokens[7], "coalesced"), "coalesced") != 0;
        parsed.degraded =
            parse_int(expect_kv(tokens[8], "degraded"), "degraded") != 0;
        parsed.balanced_time =
            parse_double(expect_kv(tokens[9], "balanced"), "balanced time");
        parsed.makespan =
            parse_double(expect_kv(tokens[10], "makespan"), "makespan");
        parsed.comm_cost = parse_int(expect_kv(tokens[11], "comm"), "comm cost");
        for (const auto& cell : split(expect_kv(tokens[12], "blocks"), ',')) {
            parsed.blocks.push_back(parse_int(cell, "block count"));
        }
        const std::string layout_text = expect_kv(tokens[13], "layout");
        if (layout_text != "-") {
            for (const auto& rect_text : split(layout_text, '|')) {
                const auto fields = split(rect_text, ':');
                FPM_CHECK(fields.size() == 4, "malformed rect: " + rect_text);
                part::Rect rect;
                rect.col0 = parse_int(fields[0], "rect col0");
                rect.row0 = parse_int(fields[1], "rect row0");
                rect.w = parse_int(fields[2], "rect w");
                rect.h = parse_int(fields[3], "rect h");
                parsed.rects.push_back(rect);
            }
        }
    } else if (tag == "FEEDBACK") {
        FPM_CHECK(tokens.size() == 9, "malformed FEEDBACK reply: " + line);
        response.kind = Kind::kFeedback;
        FeedbackReply& parsed = response.feedback;
        parsed.model_set = expect_kv(tokens[2], "set");
        parsed.device = parse_int(expect_kv(tokens[3], "device"), "device");
        parsed.samples = static_cast<std::uint64_t>(
            parse_int(expect_kv(tokens[4], "samples"), "sample count"));
        parsed.reliable =
            parse_int(expect_kv(tokens[5], "reliable"), "reliable") != 0;
        parsed.drift = parse_int(expect_kv(tokens[6], "drift"), "drift") != 0;
        parsed.republished =
            parse_int(expect_kv(tokens[7], "republished"), "republished") != 0;
        parsed.version = static_cast<std::uint64_t>(
            parse_int(expect_kv(tokens[8], "version"), "version"));
    } else {
        throw Error("unknown response tag: " + tag);
    }
    return response;
}

// ---------------------------------------------------------------------------
// Builders and dispatch
// ---------------------------------------------------------------------------

PartitionReply make_partition_reply(const PartitionRequest& request,
                                    const PartitionResponse& response) {
    const PartitionPlan& plan = *response.plan;
    PartitionReply reply;
    reply.model = request.model_set;
    reply.generation = plan.generation;
    reply.n = plan.key.n;
    reply.algorithm = plan.key.algorithm;
    reply.cached = response.cache_hit;
    reply.coalesced = response.coalesced;
    reply.degraded = response.degraded;
    reply.balanced_time = plan.balanced_time;
    reply.makespan = plan.makespan;
    reply.comm_cost = plan.comm_cost;
    reply.blocks = plan.blocks;
    if (plan.key.with_layout) {
        reply.rects = plan.layout.rects;
    }
    return reply;
}

Response make_stats_reply(const EngineStats& stats, std::size_t model_count) {
    Response response;
    response.kind = Response::Kind::kStats;
    auto& fields = response.stats;
    fields.push_back({"requests", std::to_string(stats.requests)});
    fields.push_back({"computed", std::to_string(stats.computed)});
    fields.push_back({"coalesced", std::to_string(stats.coalesced)});
    fields.push_back({"hits", std::to_string(stats.cache.hits)});
    fields.push_back({"misses", std::to_string(stats.cache.misses)});
    fields.push_back({"evictions", std::to_string(stats.cache.evictions)});
    fields.push_back({"cache_size", std::to_string(stats.cache.size)});
    fields.push_back({"cache_shards", std::to_string(stats.cache_shards)});
    fields.push_back({"models", std::to_string(model_count)});
    fields.push_back({"degraded", std::to_string(stats.degraded)});
    fields.push_back({"faults", std::to_string(fault::injected_total())});
    fields.push_back(
        {"mean_latency_us", format_double(stats.latency.mean * 1e6)});
    fields.push_back(
        {"max_latency_us", format_double(stats.latency.max * 1e6)});
    for (std::size_t i = 0; i < kAlgorithmCount; ++i) {
        const auto& histogram = stats.latency_by_algorithm[i];
        const std::string algo = part::to_string(static_cast<Algorithm>(i));
        fields.push_back({algo + "_count", std::to_string(histogram.count)});
        append_histogram_us(fields, algo, histogram);
    }

    // Reactor lifecycle: process-global, so STATS works identically over
    // the wire and in-process (all-zero until a server has run).
    const ReactorMetrics& reactor = ReactorMetrics::get();
    fields.push_back({"reactors", std::to_string(reactor.reactors.value())});
    fields.push_back(
        {"open_conns", std::to_string(reactor.open_connections.value())});
    fields.push_back(
        {"buffered_bytes", std::to_string(reactor.buffered_bytes.value())});
    fields.push_back({"accepted", std::to_string(reactor.accepted.value())});
    fields.push_back({"rejected", std::to_string(reactor.rejected.value())});
    fields.push_back(
        {"idle_timeouts", std::to_string(reactor.idle_timeouts.value())});
    fields.push_back(
        {"send_failures", std::to_string(reactor.send_failures.value())});
    fields.push_back({"pipelined", std::to_string(reactor.pipelined.value())});
    fields.push_back({"pipeline_depth_max",
                      std::to_string(reactor.pipeline_depth.max())});
    append_histogram_us(fields, "q2r",
                        reactor.queue_to_reply_seconds.snapshot());

    // Online adaptation: also process-global (the adapt layer sits above
    // serve, so the protocol reads the raw instruments by name).  All
    // zero until an AdaptEngine has ingested feedback.
    static auto& metrics = obs::MetricsRegistry::global();
    static auto& adapt_samples = metrics.counter("adapt.samples");
    static auto& adapt_reliable = metrics.counter("adapt.reliable");
    static auto& adapt_drift = metrics.counter("adapt.drift");
    static auto& adapt_republished = metrics.counter("adapt.republished");
    static auto& adapt_version = metrics.gauge("adapt.model_version");
    fields.push_back({"adapt_samples", std::to_string(adapt_samples.value())});
    fields.push_back(
        {"adapt_reliable", std::to_string(adapt_reliable.value())});
    fields.push_back({"adapt_drift", std::to_string(adapt_drift.value())});
    fields.push_back(
        {"adapt_republished", std::to_string(adapt_republished.value())});
    fields.push_back(
        {"adapt_model_version", std::to_string(adapt_version.value())});

    // Durable model store: process-global like the adapt layer (the
    // store sits above serve).  All zero until a store is attached.
    static auto& store_appended = metrics.counter("store.appended");
    static auto& store_bytes = metrics.counter("store.bytes");
    static auto& store_snapshots = metrics.counter("store.snapshots");
    static auto& store_fsync = metrics.histogram("store.fsync_seconds");
    static auto& recovered = metrics.gauge("store.recovered_generation");
    fields.push_back({"store_appended", std::to_string(store_appended.value())});
    fields.push_back({"store_bytes", std::to_string(store_bytes.value())});
    fields.push_back(
        {"store_snapshots", std::to_string(store_snapshots.value())});
    append_histogram_us(fields, "store_fsync", store_fsync.snapshot());
    fields.push_back(
        {"recovered_generation", std::to_string(recovered.value())});

    // Replication (v6): role/source are process-global strings the repl
    // layer publishes through ReplStatus (defaults on a plain primary).
    const ReplStatusSnapshot repl = ReplStatus::global().snapshot();
    fields.push_back({"role", repl.role.empty() ? "primary" : repl.role});
    fields.push_back({"repl_lag_frames", std::to_string(repl.lag_frames)});
    fields.push_back({"repl_lag_seconds", format_double(repl.lag_seconds)});
    fields.push_back(
        {"repl_source", repl.source.empty() ? "-" : repl.source});
    fields.push_back({"repl_applied_generation",
                      std::to_string(repl.applied_generation)});
    return response;
}

namespace {

/// One known STATS field: where it lands in ServerStats and how its
/// value parses.  Captureless lambdas, so the table is plain function
/// pointers.
using StatSetter = void (*)(ServerStats&, const std::string&);

std::uint64_t stat_u64(const std::string& value, const char* what) {
    return static_cast<std::uint64_t>(parse_int(value, what));
}

const std::map<std::string, StatSetter, std::less<>>& stat_setters() {
    auto algo_entries = [](std::map<std::string, StatSetter, std::less<>>& m) {
        m["fpm_count"] = [](ServerStats& s, const std::string& v) {
            s.by_algorithm[0].count = stat_u64(v, "fpm_count");
        };
        m["fpm_p50_us"] = [](ServerStats& s, const std::string& v) {
            s.by_algorithm[0].p50_us = parse_double(v, "fpm_p50_us");
        };
        m["fpm_p95_us"] = [](ServerStats& s, const std::string& v) {
            s.by_algorithm[0].p95_us = parse_double(v, "fpm_p95_us");
        };
        m["fpm_p99_us"] = [](ServerStats& s, const std::string& v) {
            s.by_algorithm[0].p99_us = parse_double(v, "fpm_p99_us");
        };
        m["cpm_count"] = [](ServerStats& s, const std::string& v) {
            s.by_algorithm[1].count = stat_u64(v, "cpm_count");
        };
        m["cpm_p50_us"] = [](ServerStats& s, const std::string& v) {
            s.by_algorithm[1].p50_us = parse_double(v, "cpm_p50_us");
        };
        m["cpm_p95_us"] = [](ServerStats& s, const std::string& v) {
            s.by_algorithm[1].p95_us = parse_double(v, "cpm_p95_us");
        };
        m["cpm_p99_us"] = [](ServerStats& s, const std::string& v) {
            s.by_algorithm[1].p99_us = parse_double(v, "cpm_p99_us");
        };
        m["even_count"] = [](ServerStats& s, const std::string& v) {
            s.by_algorithm[2].count = stat_u64(v, "even_count");
        };
        m["even_p50_us"] = [](ServerStats& s, const std::string& v) {
            s.by_algorithm[2].p50_us = parse_double(v, "even_p50_us");
        };
        m["even_p95_us"] = [](ServerStats& s, const std::string& v) {
            s.by_algorithm[2].p95_us = parse_double(v, "even_p95_us");
        };
        m["even_p99_us"] = [](ServerStats& s, const std::string& v) {
            s.by_algorithm[2].p99_us = parse_double(v, "even_p99_us");
        };
    };
    static const auto table = [&algo_entries]() {
        std::map<std::string, StatSetter, std::less<>> m;
        m["requests"] = [](ServerStats& s, const std::string& v) {
            s.requests = stat_u64(v, "requests");
        };
        m["computed"] = [](ServerStats& s, const std::string& v) {
            s.computed = stat_u64(v, "computed");
        };
        m["coalesced"] = [](ServerStats& s, const std::string& v) {
            s.coalesced = stat_u64(v, "coalesced");
        };
        m["degraded"] = [](ServerStats& s, const std::string& v) {
            s.degraded = stat_u64(v, "degraded");
        };
        m["mean_latency_us"] = [](ServerStats& s, const std::string& v) {
            s.mean_latency_us = parse_double(v, "mean_latency_us");
        };
        m["max_latency_us"] = [](ServerStats& s, const std::string& v) {
            s.max_latency_us = parse_double(v, "max_latency_us");
        };
        m["hits"] = [](ServerStats& s, const std::string& v) {
            s.hits = stat_u64(v, "hits");
        };
        m["misses"] = [](ServerStats& s, const std::string& v) {
            s.misses = stat_u64(v, "misses");
        };
        m["evictions"] = [](ServerStats& s, const std::string& v) {
            s.evictions = stat_u64(v, "evictions");
        };
        m["cache_size"] = [](ServerStats& s, const std::string& v) {
            s.cache_size = stat_u64(v, "cache_size");
        };
        m["cache_shards"] = [](ServerStats& s, const std::string& v) {
            s.cache_shards = stat_u64(v, "cache_shards");
        };
        m["models"] = [](ServerStats& s, const std::string& v) {
            s.models = stat_u64(v, "models");
        };
        m["faults"] = [](ServerStats& s, const std::string& v) {
            s.faults = stat_u64(v, "faults");
        };
        m["reactors"] = [](ServerStats& s, const std::string& v) {
            s.reactors = stat_u64(v, "reactors");
        };
        m["open_conns"] = [](ServerStats& s, const std::string& v) {
            s.open_conns = parse_int(v, "open_conns");
        };
        m["buffered_bytes"] = [](ServerStats& s, const std::string& v) {
            s.buffered_bytes = parse_int(v, "buffered_bytes");
        };
        m["accepted"] = [](ServerStats& s, const std::string& v) {
            s.accepted = stat_u64(v, "accepted");
        };
        m["rejected"] = [](ServerStats& s, const std::string& v) {
            s.rejected = stat_u64(v, "rejected");
        };
        m["idle_timeouts"] = [](ServerStats& s, const std::string& v) {
            s.idle_timeouts = stat_u64(v, "idle_timeouts");
        };
        m["send_failures"] = [](ServerStats& s, const std::string& v) {
            s.send_failures = stat_u64(v, "send_failures");
        };
        m["pipelined"] = [](ServerStats& s, const std::string& v) {
            s.pipelined = stat_u64(v, "pipelined");
        };
        m["pipeline_depth_max"] = [](ServerStats& s, const std::string& v) {
            s.pipeline_depth_max = parse_int(v, "pipeline_depth_max");
        };
        m["q2r_p50_us"] = [](ServerStats& s, const std::string& v) {
            s.q2r_p50_us = parse_double(v, "q2r_p50_us");
        };
        m["q2r_p95_us"] = [](ServerStats& s, const std::string& v) {
            s.q2r_p95_us = parse_double(v, "q2r_p95_us");
        };
        m["q2r_p99_us"] = [](ServerStats& s, const std::string& v) {
            s.q2r_p99_us = parse_double(v, "q2r_p99_us");
        };
        m["adapt_samples"] = [](ServerStats& s, const std::string& v) {
            s.adapt_samples = stat_u64(v, "adapt_samples");
        };
        m["adapt_reliable"] = [](ServerStats& s, const std::string& v) {
            s.adapt_reliable = stat_u64(v, "adapt_reliable");
        };
        m["adapt_drift"] = [](ServerStats& s, const std::string& v) {
            s.adapt_drift = stat_u64(v, "adapt_drift");
        };
        m["adapt_republished"] = [](ServerStats& s, const std::string& v) {
            s.adapt_republished = stat_u64(v, "adapt_republished");
        };
        m["adapt_model_version"] = [](ServerStats& s, const std::string& v) {
            s.adapt_model_version = stat_u64(v, "adapt_model_version");
        };
        m["store_appended"] = [](ServerStats& s, const std::string& v) {
            s.store_appended = stat_u64(v, "store_appended");
        };
        m["store_bytes"] = [](ServerStats& s, const std::string& v) {
            s.store_bytes = stat_u64(v, "store_bytes");
        };
        m["store_snapshots"] = [](ServerStats& s, const std::string& v) {
            s.store_snapshots = stat_u64(v, "store_snapshots");
        };
        m["store_fsync_p50_us"] = [](ServerStats& s, const std::string& v) {
            s.store_fsync_p50_us = parse_double(v, "store_fsync_p50_us");
        };
        m["store_fsync_p95_us"] = [](ServerStats& s, const std::string& v) {
            s.store_fsync_p95_us = parse_double(v, "store_fsync_p95_us");
        };
        m["store_fsync_p99_us"] = [](ServerStats& s, const std::string& v) {
            s.store_fsync_p99_us = parse_double(v, "store_fsync_p99_us");
        };
        m["recovered_generation"] = [](ServerStats& s, const std::string& v) {
            s.recovered_generation = stat_u64(v, "recovered_generation");
        };
        m["role"] = [](ServerStats& s, const std::string& v) {
            FPM_CHECK(!v.empty(), "malformed value for role");
            s.role = v;
        };
        m["repl_lag_frames"] = [](ServerStats& s, const std::string& v) {
            s.repl_lag_frames = stat_u64(v, "repl_lag_frames");
        };
        m["repl_lag_seconds"] = [](ServerStats& s, const std::string& v) {
            s.repl_lag_seconds = parse_double(v, "repl_lag_seconds");
        };
        m["repl_source"] = [](ServerStats& s, const std::string& v) {
            FPM_CHECK(!v.empty(), "malformed value for repl_source");
            s.repl_source = v;
        };
        m["repl_applied_generation"] = [](ServerStats& s,
                                          const std::string& v) {
            s.repl_applied_generation =
                stat_u64(v, "repl_applied_generation");
        };
        algo_entries(m);
        return m;
    }();
    return table;
}

} // namespace

ServerStats ServerStats::from_fields(const std::vector<StatField>& fields) {
    ServerStats stats;
    const auto& setters = stat_setters();
    for (const StatField& field : fields) {
        const auto it = setters.find(field.name);
        if (it == setters.end()) {
            stats.extras[field.name] = field.value;  // forward-compat
            continue;
        }
        it->second(stats, field.value);
    }
    return stats;
}

namespace {

/// The HEALTH analogue of stat_setters(): one entry per known field.
using HealthSetter = void (*)(ServerHealth&, const std::string&);

const std::map<std::string, HealthSetter, std::less<>>& health_setters() {
    static const auto table = []() {
        std::map<std::string, HealthSetter, std::less<>> m;
        m["live"] = [](ServerHealth& h, const std::string& v) {
            h.live = parse_int(v, "live") != 0;
        };
        m["ready"] = [](ServerHealth& h, const std::string& v) {
            h.ready = parse_int(v, "ready") != 0;
        };
        m["models"] = [](ServerHealth& h, const std::string& v) {
            h.models = stat_u64(v, "models");
        };
        m["faults"] = [](ServerHealth& h, const std::string& v) {
            h.faults_injected = stat_u64(v, "faults");
        };
        m["degraded"] = [](ServerHealth& h, const std::string& v) {
            h.degraded = stat_u64(v, "degraded");
        };
        m["recovered_generation"] = [](ServerHealth& h, const std::string& v) {
            h.recovered_generation = stat_u64(v, "recovered_generation");
        };
        m["role"] = [](ServerHealth& h, const std::string& v) {
            FPM_CHECK(!v.empty(), "malformed value for role");
            h.role = v;
        };
        m["repl_lag_frames"] = [](ServerHealth& h, const std::string& v) {
            h.repl_lag_frames = stat_u64(v, "repl_lag_frames");
        };
        m["repl_lag_seconds"] = [](ServerHealth& h, const std::string& v) {
            h.repl_lag_seconds = parse_double(v, "repl_lag_seconds");
        };
        m["repl_source"] = [](ServerHealth& h, const std::string& v) {
            FPM_CHECK(!v.empty(), "malformed value for repl_source");
            h.repl_source = v;
        };
        m["repl_applied_generation"] = [](ServerHealth& h,
                                          const std::string& v) {
            h.repl_applied_generation =
                stat_u64(v, "repl_applied_generation");
        };
        return m;
    }();
    return table;
}

} // namespace

ServerHealth ServerHealth::from_fields(const std::vector<StatField>& fields) {
    ServerHealth health;
    const auto& setters = health_setters();
    for (const StatField& field : fields) {
        const auto it = setters.find(field.name);
        if (it == setters.end()) {
            health.extras[field.name] = field.value;  // forward-compat
            continue;
        }
        it->second(health, field.value);
    }
    return health;
}

Response handle_request(RequestEngine& engine, const Request& request) {
    try {
        Response response;
        switch (request.kind) {
        case Request::Kind::kPing:
            response.kind = Response::Kind::kPong;
            response.version = kProtocolVersion;
            return response;
        case Request::Kind::kQuit:
            response.kind = Response::Kind::kBye;
            return response;
        case Request::Kind::kLoad: {
            if (engine.read_only()) {
                return Response::make_error(
                    ErrorCode::kReadOnly,
                    "replica is read-only: LOAD rejected");
            }
            const auto set =
                engine.registry().load_csv(request.name, request.path);
            response.kind = Response::Kind::kLoaded;
            response.loaded.name = set->name;
            response.loaded.models = set->models.size();
            response.loaded.generation = set->generation;
            response.loaded.fingerprint = set->fingerprint;
            return response;
        }
        case Request::Kind::kModels: {
            response.kind = Response::Kind::kModels;
            for (const auto& set : engine.registry().snapshot()) {
                response.sets.push_back(ModelSetInfo{
                    set->name, set->generation, set->models.size()});
            }
            return response;
        }
        case Request::Kind::kStats:
            return make_stats_reply(engine.stats(), engine.registry().size());
        case Request::Kind::kHealth: {
            response.kind = Response::Kind::kHealth;
            response.health.live = true;
            response.health.models = engine.registry().size();
            response.health.ready = response.health.models > 0;
            response.health.faults_injected = fault::injected_total();
            response.health.degraded = engine.stats().degraded;
            static auto& recovered = obs::MetricsRegistry::global().gauge(
                "store.recovered_generation");
            response.health.recovered_generation =
                static_cast<std::uint64_t>(recovered.value());
            const ReplStatusSnapshot repl = ReplStatus::global().snapshot();
            response.health.role = repl.role;
            response.health.repl_lag_frames = repl.lag_frames;
            response.health.repl_lag_seconds = repl.lag_seconds;
            response.health.repl_source = repl.source;
            response.health.repl_applied_generation = repl.applied_generation;
            return response;
        }
        case Request::Kind::kPartition: {
            const PartitionResponse served = engine.execute(request.partition);
            response.kind = Response::Kind::kPartition;
            response.partition = make_partition_reply(request.partition, served);
            return response;
        }
        case Request::Kind::kFeedback: {
            response.kind = Response::Kind::kFeedback;
            response.feedback = engine.execute_feedback(request.feedback);
            return response;
        }
        }
        return Response::make_error(ErrorCode::kInternal, "unreachable");
    } catch (const ServiceError& e) {
        return Response::make_error(e.code(), e.what());
    } catch (const std::exception& e) {
        // Anything untyped from the engine is a server-side fault.
        return Response::make_error(ErrorCode::kInternal, e.what());
    }
}

std::string handle_line(RequestEngine& engine, const std::string& line) {
    try {
        return handle_request(engine, Request::decode(line)).encode();
    } catch (const ServiceError& e) {
        return Response::make_error(e.code(), e.what()).encode();
    } catch (const std::exception& e) {
        // Only Request::decode throws here, so the client sent a line
        // this revision cannot parse.
        return Response::make_error(ErrorCode::kBadRequest, e.what()).encode();
    }
}

std::uint64_t request_fingerprint(const Request& request) {
    const std::string line = request.encode();
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
    for (const char ch : line) {
        h ^= static_cast<unsigned char>(ch);
        h *= 1099511628211ULL;
    }
    return h;
}

PartitionReply parse_partition_reply(const std::string& reply) {
    const Response response = Response::decode(reply);
    if (response.kind == Response::Kind::kError) {
        // Preserve the typed classification for callers that catch
        // ServiceError; the message keeps the legacy shape.
        throw ServiceError(response.error_code,
                           "server error: " + response.error);
    }
    FPM_CHECK(response.kind == Response::Kind::kPartition,
              "malformed partition reply: " + reply);
    return response.partition;
}

} // namespace fpm::serve
