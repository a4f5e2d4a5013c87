#include "fpm/serve/protocol.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cinttypes>
#include <concepts>
#include <cstdio>
#include <optional>
#include <sstream>
#include <type_traits>
#include <variant>

#include "fpm/common/error.hpp"
#include "fpm/common/text.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/serve/reactor_metrics.hpp"
#include "fpm/serve/repl_status.hpp"

namespace fpm::serve {

namespace {

std::string malformed(std::string_view what, std::string_view text) {
    std::string message = "malformed ";
    message.append(what).append(": ").append(text);
    return message;
}

/// `text` as a T (text::to_number; `base` for integers only), else a
/// "malformed <what>" error.
template <class T, class... Base>
T number(std::string_view text, std::string_view what, Base... base) {
    const std::optional<T> value = text::to_number<T>(text, base...);
    FPM_CHECK(value.has_value(), malformed(what, text));
    return *value;
}

/// number<double>() that also rejects inf and nan.
double finite(std::string_view text, std::string_view what) {
    const double value = number<double>(text, what);
    FPM_CHECK(std::isfinite(value), malformed(what, text));
    return value;
}

/// A double as 17 significant digits: not the shortest form, but every
/// value round-trips bit-for-bit.
void append_double(std::string& out, double value) {
    char buffer[64];
    const int length = std::snprintf(buffer, sizeof buffer, "%.17g", value);
    out.append(buffer, static_cast<std::size_t>(length));
}

std::string format_double(double value) {
    std::string out;
    append_double(out, value);
    return out;
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

/// The value of `token`, which must read `key=<value>`.
std::string_view expect_kv(std::string_view token, std::string_view key) {
    FPM_CHECK(token.size() > key.size() && token.starts_with(key) &&
                  token[key.size()] == '=',
              "expected " + std::string(key) + "=..., got: " +
                  std::string(token));
    return token.substr(key.size() + 1);
}

/// `text` as a T: a string verbatim, a bool as an integer (non-zero is
/// true), else a number.
template <class T>
T value_as(std::string_view text, std::string_view what) {
    if constexpr (std::is_same_v<T, std::string>) {
        return std::string(text);
    } else if constexpr (std::is_same_v<T, bool>) {
        return number<std::int64_t>(text, what) != 0;
    } else {
        return number<T>(text, what);
    }
}

/// The value of `token`, which must read `key=<value>`, as a T.
template <class T>
T kv(std::string_view token, std::string_view key) {
    return value_as<T>(expect_kv(token, key), key);
}

// ---------------------------------------------------------------------------
// STATS/HEALTH field rows
// ---------------------------------------------------------------------------

// One row per field drives encode (append_fields), decode (from_rows)
// and field_names(); the builders further down only fill the views.

/// `T*`, or `const T*` for a const view, so one row list serves both the
/// encoder (reads a const view) and the decoder (fills a fresh one).
template <class View, class T>
using SlotPtr = std::conditional_t<std::is_const_v<View>, const T*, T*>;

/// One STATS/HEALTH field: its wire name and the typed member of the
/// view it fills.  Strings must be non-empty; bools travel as 0/1.
template <class View>
struct Row {
    std::string_view name;
    std::variant<SlotPtr<View, std::uint64_t>, SlotPtr<View, std::int64_t>,
                 SlotPtr<View, double>, SlotPtr<View, bool>,
                 SlotPtr<View, std::string>>
        slot;
};

template <class View>
concept StatsView = std::same_as<std::remove_const_t<View>, ServerStats>;
template <class View>
concept HealthView = std::same_as<std::remove_const_t<View>, ServerHealth>;

/// `<algo>_count`, `<algo>_p50_us`, `<algo>_p95_us`, `<algo>_p99_us`
/// per Algorithm, named once.
const auto& algorithm_row_names() {
    static const auto names = [] {
        std::array<std::array<std::string, 4>, kAlgorithmCount> out;
        for (std::size_t i = 0; i < kAlgorithmCount; ++i) {
            const std::string algo = part::to_string(static_cast<Algorithm>(i));
            out[i] = {algo + "_count", algo + "_p50_us", algo + "_p95_us",
                      algo + "_p99_us"};
        }
        return out;
    }();
    return names;
}

/// The STATS rows, in wire order.
template <StatsView View>
std::vector<Row<View>> rows(View& s) {
    std::vector<Row<View>> out = {
        {"requests", &s.requests},
        {"computed", &s.computed},
        {"coalesced", &s.coalesced},
        {"hits", &s.hits},
        {"misses", &s.misses},
        {"evictions", &s.evictions},
        {"cache_size", &s.cache_size},
        {"cache_shards", &s.cache_shards},
        {"models", &s.models},
        {"degraded", &s.degraded},
        {"faults", &s.faults},
        {"mean_latency_us", &s.mean_latency_us},
        {"max_latency_us", &s.max_latency_us},
    };
    for (std::size_t i = 0; i < kAlgorithmCount; ++i) {
        const auto& name = algorithm_row_names()[i];
        auto& algo = s.by_algorithm[i];
        out.insert(out.end(), {{name[0], &algo.count},
                               {name[1], &algo.p50_us},
                               {name[2], &algo.p95_us},
                               {name[3], &algo.p99_us}});
    }
    out.insert(out.end(), {
        {"reactors", &s.reactors},
        {"open_conns", &s.open_conns},
        {"buffered_bytes", &s.buffered_bytes},
        {"accepted", &s.accepted},
        {"rejected", &s.rejected},
        {"idle_timeouts", &s.idle_timeouts},
        {"send_failures", &s.send_failures},
        {"pipelined", &s.pipelined},
        {"pipeline_depth_max", &s.pipeline_depth_max},
        {"q2r_p50_us", &s.q2r_p50_us},
        {"q2r_p95_us", &s.q2r_p95_us},
        {"q2r_p99_us", &s.q2r_p99_us},
        {"adapt_samples", &s.adapt_samples},
        {"adapt_reliable", &s.adapt_reliable},
        {"adapt_drift", &s.adapt_drift},
        {"adapt_republished", &s.adapt_republished},
        {"adapt_model_version", &s.adapt_model_version},
        {"store_appended", &s.store_appended},
        {"store_bytes", &s.store_bytes},
        {"store_snapshots", &s.store_snapshots},
        {"store_fsync_p50_us", &s.store_fsync_p50_us},
        {"store_fsync_p95_us", &s.store_fsync_p95_us},
        {"store_fsync_p99_us", &s.store_fsync_p99_us},
        {"recovered_generation", &s.recovered_generation},
        {"role", &s.role},
        {"repl_lag_frames", &s.repl_lag_frames},
        {"repl_lag_seconds", &s.repl_lag_seconds},
        {"repl_source", &s.repl_source},
        {"repl_applied_generation", &s.repl_applied_generation},
    });
    return out;
}

/// The HEALTH rows, in wire order.
template <HealthView View>
std::vector<Row<View>> rows(View& h) {
    return {
        {"live", &h.live},
        {"ready", &h.ready},
        {"models", &h.models},
        {"faults", &h.faults},
        {"degraded", &h.degraded},
        {"recovered_generation", &h.recovered_generation},
        {"role", &h.role},
        {"repl_lag_frames", &h.repl_lag_frames},
        {"repl_lag_seconds", &h.repl_lag_seconds},
        {"repl_source", &h.repl_source},
        {"repl_applied_generation", &h.repl_applied_generation},
    };
}

template <class T>
void append_value(std::string& out, const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
        out += value ? '1' : '0';
    } else if constexpr (std::is_same_v<T, std::string>) {
        out += value;
    } else if constexpr (std::is_same_v<T, double>) {
        append_double(out, value);
    } else {
        char buffer[24];
        out.append(buffer,
                   std::to_chars(buffer, buffer + sizeof buffer, value).ptr);
    }
}

template <class T>
void parse_value(std::string_view text, std::string_view name, T& slot) {
    if constexpr (std::is_same_v<T, std::string>) {
        FPM_CHECK(!text.empty(), malformed(name, text));
    }
    slot = value_as<T>(text, name);
}

/// Appends ` name=value` for every row, then the verbatim extras.
template <class View>
void append_fields(std::string& out, const View& view) {
    for (const auto& row : rows(view)) {
        out += ' ';
        out += row.name;
        out += '=';
        std::visit([&out](const auto* slot) { append_value(out, *slot); },
                   row.slot);
    }
    for (const auto& [key, value] : view.extras) {
        out += ' ';
        out += key;
        out += '=';
        out += value;
    }
}

template <class View>
const std::vector<std::string_view>& row_names() {
    static const auto names = [] {
        View view;
        std::vector<std::string_view> out;
        for (const auto& row : rows(view)) {
            out.push_back(row.name);
        }
        return out;
    }();
    return names;
}

/// Types `fields` through the rows: known names parse into their slot
/// (in field order, so a repeated name keeps the last value), unknown
/// names land in `extras`.
template <class View>
View from_rows(const std::vector<StatField>& fields) {
    static const auto index = [] {
        std::map<std::string_view, std::size_t> out;
        const auto& names = row_names<View>();
        for (std::size_t i = 0; i < names.size(); ++i) {
            out.emplace(names[i], i);
        }
        return out;
    }();
    View view;
    const auto slots = rows(view);
    std::size_t next = 0;  // a server sends the rows in order
    for (const StatField& field : fields) {
        if (next >= slots.size() || slots[next].name != field.name) {
            const auto it = index.find(field.name);
            if (it == index.end()) {
                view.extras[field.name] = field.value;  // forward-compat
                continue;
            }
            next = it->second;
        }
        std::visit([&field](auto* slot) {
            parse_value(field.value, field.name, *slot);
        }, slots[next++].slot);
    }
    return view;
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

Request Request::decode(std::string_view line) try {
    const auto tokens = text::split_blanks(line);
    FPM_CHECK(!tokens.empty(), "empty request");
    const std::string_view verb = tokens[0];

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
        request.name = std::string(tokens[1]);
        request.path = std::string(tokens[2]);
    } else if (verb == "PARTITION") {
        FPM_CHECK(tokens.size() == 4 || tokens.size() == 5,
                  "usage: PARTITION <model> <n> <fpm|cpm|even> [nolayout]");
        request.kind = Kind::kPartition;
        request.partition.model_set = std::string(tokens[1]);
        request.partition.n = number<std::int64_t>(tokens[2], "workload size");
        FPM_CHECK(request.partition.n > 0, "workload size must be positive");
        if (request.partition.n > part::kMaxN) {
            throw ServiceError(ErrorCode::kBadRequest,
                               "workload size " + std::string(tokens[2]) +
                                   " exceeds " +
                                   std::to_string(part::kMaxN) +
                                   " (n*n must be exact in a double)");
        }
        const auto algorithm = part::parse_algorithm(tokens[3]);
        FPM_CHECK(algorithm.has_value(),
                  "unknown algorithm: " + std::string(tokens[3]));
        request.partition.algorithm = *algorithm;
        if (tokens.size() == 5) {
            FPM_CHECK(tokens[4] == "nolayout",
                      "unknown PARTITION option: " + std::string(tokens[4]));
            request.partition.with_layout = false;
        }
    } else if (verb == "FEEDBACK") {
        FPM_CHECK(tokens.size() == 5,
                  "usage: FEEDBACK <model> <device> <size> <seconds>");
        request.kind = Kind::kFeedback;
        request.feedback.model_set = std::string(tokens[1]);
        request.feedback.device =
            number<std::int64_t>(tokens[2], "device index");
        FPM_CHECK(request.feedback.device >= 0,
                  "device index must be non-negative");
        request.feedback.problem_size = finite(tokens[3], "problem size");
        FPM_CHECK(request.feedback.problem_size > 0.0,
                  "problem size must be positive");
        request.feedback.seconds = finite(tokens[4], "measured time");
        FPM_CHECK(request.feedback.seconds > 0.0,
                  "measured time must be positive");
    } else {
        // Typed so the wire answer is `ERR unsupported_verb ...` — the
        // code a newer client probes for when feature-detecting verbs.
        throw ServiceError(ErrorCode::kUnsupportedVerb,
                           "unknown command: " + std::string(verb));
    }
    return request;
} catch (const ServiceError&) {
    throw;
} catch (const std::exception& e) {
    // Every other decode failure is the client's malformed line.
    throw ServiceError(ErrorCode::kBadRequest, e.what());
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
        std::string out = "OK STATS";
        out.reserve(1024);
        append_fields(out, stats);
        return out;
    }
    case Kind::kHealth: {
        std::string out = "OK HEALTH";
        append_fields(out, health);
        return out;
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

Response Response::decode(std::string_view line) {
    if (line == "ERR") {
        return make_error(ErrorCode::kInternal, {});  // token text, never empty
    }
    Response response;
    if (line.starts_with("ERR ")) {
        response.kind = Kind::kError;
        const std::string_view body = line.substr(4);
        // The first token is an ErrorCode token.  Anything else decodes
        // as kInternal with the whole body kept as the message.
        const auto space = body.find(' ');
        response.error = std::string(body);
        if (const auto code = parse_error_token(body.substr(0, space))) {
            response.error_code = *code;
            if (space != std::string_view::npos) {
                response.error = std::string(body.substr(space + 1));
            }  // else the token alone; never empty
        }
        return response;
    }
    const auto tokens = text::split_blanks(line);
    const auto malformed_reply = [line](std::string_view what) {
        return "malformed " + std::string(what) + ": " + std::string(line);
    };
    FPM_CHECK(tokens.size() >= 2 && tokens[0] == "OK",
              malformed_reply("response"));
    const std::string_view tag = tokens[1];

    if (tag == "PONG") {
        FPM_CHECK(tokens.size() == 3 && tokens[2].size() > 1 &&
                      tokens[2][0] == 'v',
                  malformed_reply("PONG reply"));
        response.kind = Kind::kPong;
        response.version = static_cast<int>(
            number<std::int64_t>(tokens[2].substr(1), "protocol version"));
    } else if (tag == "BYE") {
        FPM_CHECK(tokens.size() == 2, malformed_reply("BYE reply"));
        response.kind = Kind::kBye;
    } else if (tag == "LOADED") {
        FPM_CHECK(tokens.size() == 6, malformed_reply("LOADED reply"));
        response.kind = Kind::kLoaded;
        response.loaded.name = kv<std::string>(tokens[2], "name");
        response.loaded.models = kv<std::uint64_t>(tokens[3], "models");
        response.loaded.generation = kv<std::uint64_t>(tokens[4], "gen");
        response.loaded.fingerprint = number<std::uint64_t>(
            expect_kv(tokens[5], "fingerprint"), "fingerprint", 16);
    } else if (tag == "MODELS") {
        FPM_CHECK(tokens.size() == 4, malformed_reply("MODELS reply"));
        response.kind = Kind::kModels;
        const auto count = kv<std::uint64_t>(tokens[2], "count");
        const std::string_view sets_text = expect_kv(tokens[3], "sets");
        if (sets_text != "-") {
            for (const std::string_view entry : text::split(sets_text, ',')) {
                const auto fields = text::split(entry, ':');
                FPM_CHECK(fields.size() == 3,
                          malformed("model-set entry", entry));
                response.sets.push_back(ModelSetInfo{
                    std::string(fields[0]),
                    number<std::uint64_t>(fields[1], "generation"),
                    number<std::uint64_t>(fields[2], "model count")});
            }
        }
        FPM_CHECK(response.sets.size() == count,
                  "MODELS count disagrees with its set list: " +
                      std::string(line));
    } else if (tag == "STATS" || tag == "HEALTH") {
        // Open key=value lists: unknown keys land in `extras`.
        std::vector<StatField> fields;
        for (std::size_t i = 2; i < tokens.size(); ++i) {
            const auto eq = tokens[i].find('=');
            FPM_CHECK(eq != std::string_view::npos && eq > 0,
                      malformed(std::string(tag) + " field", tokens[i]));
            fields.push_back({std::string(tokens[i].substr(0, eq)),
                              std::string(tokens[i].substr(eq + 1))});
        }
        if (tag == "STATS") {
            response.kind = Kind::kStats;
            response.stats = ServerStats::from_fields(fields);
        } else {
            response.kind = Kind::kHealth;
            response.health = ServerHealth::from_fields(fields);
        }
    } else if (tag == "PARTITION") {
        FPM_CHECK(tokens.size() == 14, malformed_reply("partition reply"));
        response.kind = Kind::kPartition;
        PartitionReply& parsed = response.partition;
        parsed.model = kv<std::string>(tokens[2], "model");
        parsed.generation = kv<std::uint64_t>(tokens[3], "gen");
        parsed.n = kv<std::int64_t>(tokens[4], "n");
        const auto algorithm =
            part::parse_algorithm(expect_kv(tokens[5], "algo"));
        FPM_CHECK(algorithm.has_value(), malformed_reply("algorithm in reply"));
        parsed.algorithm = *algorithm;
        parsed.cached = kv<bool>(tokens[6], "cached");
        parsed.coalesced = kv<bool>(tokens[7], "coalesced");
        parsed.degraded = kv<bool>(tokens[8], "degraded");
        parsed.balanced_time = kv<double>(tokens[9], "balanced");
        parsed.makespan = kv<double>(tokens[10], "makespan");
        parsed.comm_cost = kv<std::int64_t>(tokens[11], "comm");
        for (const std::string_view cell :
             text::split(expect_kv(tokens[12], "blocks"), ',')) {
            parsed.blocks.push_back(number<std::int64_t>(cell, "block count"));
        }
        const std::string_view layout_text = expect_kv(tokens[13], "layout");
        if (layout_text != "-") {
            for (const std::string_view rect_text :
                 text::split(layout_text, '|')) {
                const auto fields = text::split(rect_text, ':');
                FPM_CHECK(fields.size() == 4, malformed("rect", rect_text));
                parsed.rects.push_back(part::Rect{
                    number<std::int64_t>(fields[0], "rect col0"),
                    number<std::int64_t>(fields[1], "rect row0"),
                    number<std::int64_t>(fields[2], "rect w"),
                    number<std::int64_t>(fields[3], "rect h")});
            }
        }
    } else if (tag == "FEEDBACK") {
        FPM_CHECK(tokens.size() == 9, malformed_reply("FEEDBACK reply"));
        response.kind = Kind::kFeedback;
        FeedbackReply& parsed = response.feedback;
        parsed.model_set = kv<std::string>(tokens[2], "set");
        parsed.device = kv<std::int64_t>(tokens[3], "device");
        parsed.samples = kv<std::uint64_t>(tokens[4], "samples");
        parsed.reliable = kv<bool>(tokens[5], "reliable");
        parsed.drift = kv<bool>(tokens[6], "drift");
        parsed.republished = kv<bool>(tokens[7], "republished");
        parsed.version = kv<std::uint64_t>(tokens[8], "version");
    } else {
        throw Error("unknown response tag: " + std::string(tag));
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

namespace {

obs::Gauge& recovered_generation_gauge() {
    static auto& gauge =
        obs::MetricsRegistry::global().gauge("store.recovered_generation");
    return gauge;
}

/// The replication rows' values, shared by STATS and HEALTH.  Role and
/// source never go out empty: the decoder rejects empty strings.
void fill_repl(auto& view) {
    ReplStatusSnapshot repl = ReplStatus::global().snapshot();
    view.role = repl.role.empty() ? "primary" : std::move(repl.role);
    view.repl_lag_frames = repl.lag_frames;
    view.repl_lag_seconds = repl.lag_seconds;
    view.repl_source = repl.source.empty() ? "-" : std::move(repl.source);
    view.repl_applied_generation = repl.applied_generation;
}

} // namespace

Response make_stats_reply(const EngineStats& stats, std::size_t model_count) {
    Response response;
    response.kind = Response::Kind::kStats;
    ServerStats& s = response.stats;
    s.requests = stats.requests;
    s.computed = stats.computed;
    s.coalesced = stats.coalesced;
    s.hits = stats.cache.hits;
    s.misses = stats.cache.misses;
    s.evictions = stats.cache.evictions;
    s.cache_size = stats.cache.size;
    s.cache_shards = stats.cache_shards;
    s.models = model_count;
    s.degraded = stats.degraded;
    s.faults = fault::injected_total();
    // Every request lands in exactly one per-algorithm histogram, whose
    // count, sum and max are exact.
    std::uint64_t count = 0;
    double sum = 0.0;
    for (std::size_t i = 0; i < kAlgorithmCount; ++i) {
        const auto& histogram = stats.latency_by_algorithm[i];
        s.by_algorithm[i] = {histogram.count, histogram.p50 * 1e6,
                             histogram.p95 * 1e6, histogram.p99 * 1e6};
        count += histogram.count;
        sum += histogram.sum;
        s.max_latency_us = std::max(s.max_latency_us, histogram.max * 1e6);
    }
    s.mean_latency_us = count == 0 ? 0.0 : sum / static_cast<double>(count) * 1e6;

    // Reactor lifecycle: process-global, so STATS works identically over
    // the wire and in-process (all-zero until a server has run).
    const ReactorMetrics& reactor = ReactorMetrics::get();
    s.reactors = static_cast<std::uint64_t>(reactor.reactors.value());
    s.open_conns = reactor.open_connections.value();
    s.buffered_bytes = reactor.buffered_bytes.value();
    s.accepted = reactor.accepted.value();
    s.rejected = reactor.rejected.value();
    s.idle_timeouts = reactor.idle_timeouts.value();
    s.send_failures = reactor.send_failures.value();
    s.pipelined = reactor.pipelined.value();
    s.pipeline_depth_max = reactor.pipeline_depth.max();
    const auto q2r = reactor.queue_to_reply_seconds.snapshot();
    s.q2r_p50_us = q2r.p50 * 1e6;
    s.q2r_p95_us = q2r.p95 * 1e6;
    s.q2r_p99_us = q2r.p99 * 1e6;

    // Online adaptation and the durable store: also process-global (both
    // layers sit above serve, so the protocol reads the raw instruments
    // by name).  All zero until an AdaptEngine / ModelStore ran.
    static auto& metrics = obs::MetricsRegistry::global();
    static auto& adapt_samples = metrics.counter("adapt.samples");
    static auto& adapt_reliable = metrics.counter("adapt.reliable");
    static auto& adapt_drift = metrics.counter("adapt.drift");
    static auto& adapt_republished = metrics.counter("adapt.republished");
    static auto& adapt_version = metrics.gauge("adapt.model_version");
    static auto& store_appended = metrics.counter("store.appended");
    static auto& store_bytes = metrics.counter("store.bytes");
    static auto& store_snapshots = metrics.counter("store.snapshots");
    static auto& store_fsync = metrics.histogram("store.fsync_seconds");
    s.adapt_samples = adapt_samples.value();
    s.adapt_reliable = adapt_reliable.value();
    s.adapt_drift = adapt_drift.value();
    s.adapt_republished = adapt_republished.value();
    s.adapt_model_version = static_cast<std::uint64_t>(adapt_version.value());
    s.store_appended = store_appended.value();
    s.store_bytes = store_bytes.value();
    s.store_snapshots = store_snapshots.value();
    const auto fsync = store_fsync.snapshot();
    s.store_fsync_p50_us = fsync.p50 * 1e6;
    s.store_fsync_p95_us = fsync.p95 * 1e6;
    s.store_fsync_p99_us = fsync.p99 * 1e6;
    s.recovered_generation =
        static_cast<std::uint64_t>(recovered_generation_gauge().value());

    fill_repl(s);
    return response;
}

ServerStats ServerStats::from_fields(const std::vector<StatField>& fields) {
    return from_rows<ServerStats>(fields);
}

const std::vector<std::string_view>& ServerStats::field_names() {
    return row_names<ServerStats>();
}

ServerHealth ServerHealth::from_fields(const std::vector<StatField>& fields) {
    return from_rows<ServerHealth>(fields);
}

const std::vector<std::string_view>& ServerHealth::field_names() {
    return row_names<ServerHealth>();
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
            ServerHealth& health = response.health;
            health.models = engine.registry().size();
            health.ready = health.models > 0;
            health.faults = fault::injected_total();
            health.degraded = engine.stats().degraded;
            health.recovered_generation = static_cast<std::uint64_t>(
                recovered_generation_gauge().value());
            fill_repl(health);
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
    } catch (...) {
        return Response::make_error(ErrorCode::kInternal, {});
    }
}

std::string handle_line(RequestEngine& engine, const std::string& line) {
    Request request;
    try {
        request = Request::decode(line);
    } catch (const ServiceError& e) {
        return Response::make_error(e.code(), e.what()).encode();
    }
    return handle_request(engine, request).encode();
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
