#include "fpm/serve/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "fpm/common/error.hpp"
#include "fpm/common/rng.hpp"
#include "fpm/common/text.hpp"
#include "fpm/obs/metrics.hpp"

namespace fpm::serve {

namespace {

/// Process-global client-side counters (mirroring the engine's style).
struct ClientMetrics {
    obs::Counter& retries;
    obs::Counter& reconnects;
    obs::Counter& failovers;

    static const ClientMetrics& get() {
        static auto& registry = obs::MetricsRegistry::global();
        static const ClientMetrics metrics{
            registry.counter("serve.client.retries"),
            registry.counter("serve.client.reconnects"),
            registry.counter("serve.client.failovers")};
        return metrics;
    }
};

} // namespace

std::vector<Endpoint> parse_endpoint_list(const std::string& text,
                                          const std::string& default_host) {
    std::vector<Endpoint> endpoints;
    for (const std::string_view item : text::split(text, ',')) {
        // Blanks may pad an entry ("9001, 9002"), never split one.
        const auto tokens = text::split_blanks(item);
        FPM_CHECK(tokens.size() == 1, "malformed endpoint in list: " + text);
        const std::string_view entry = tokens[0];
        Endpoint endpoint;
        const std::size_t colon = entry.rfind(':');
        std::string_view port_text = entry;
        endpoint.host = default_host;
        if (colon != std::string_view::npos) {
            endpoint.host = std::string(entry.substr(0, colon));
            port_text = entry.substr(colon + 1);
            FPM_CHECK(!endpoint.host.empty(),
                      "empty host in endpoint: " + std::string(entry));
        }
        const auto port = text::to_number<std::uint16_t>(port_text);
        FPM_CHECK(port && *port > 0,
                  "malformed port in endpoint: " + std::string(entry));
        endpoint.port = *port;
        endpoints.push_back(std::move(endpoint));
    }
    FPM_CHECK(!endpoints.empty(), "empty endpoint list");
    return endpoints;
}

ServeClient::ServeClient(const std::string& host, std::uint16_t port,
                         const ServeConfig& config)
    : ServeClient(std::vector<Endpoint>{Endpoint{host, port}}, config) {}

ServeClient::ServeClient(const std::string& host, std::uint16_t port)
    : ServeClient(host, port, ServeConfig{}) {}

ServeClient::ServeClient(std::vector<Endpoint> endpoints,
                         const ServeConfig& config)
    : endpoints_(std::move(endpoints)), config_(config) {
    FPM_CHECK(!endpoints_.empty(), "endpoint list is empty");
    open_connection();
}

ServeClient::~ServeClient() = default;

void ServeClient::advance_endpoint() {
    if (endpoints_.size() < 2) {
        return;
    }
    active_ = (active_ + 1) % endpoints_.size();
    ++failovers_;
    ClientMetrics::get().failovers.add();
}

void ServeClient::open_connection() {
    // With a failover list every endpoint gets one attempt, starting at
    // the active one; a connect failure advances to the next.  The last
    // failure propagates when the whole list is down.
    for (std::size_t attempt = 0;; ++attempt) {
        try {
            conn_ = std::make_unique<LineConn>(endpoints_[active_],
                                               config_.connect_timeout,
                                               config_.recv_timeout);
            return;
        } catch (const TransportError&) {
            if (attempt + 1 >= endpoints_.size()) {
                throw;
            }
            advance_endpoint();
        }
    }
}

LineConn& ServeClient::connected() {
    FPM_CHECK(conn_ != nullptr, "client is not connected");
    return *conn_;
}

std::string ServeClient::request(const std::string& line) {
    LineConn& conn = connected();
    const auto start = std::chrono::steady_clock::now();
    conn.send_all(line + "\n");
    std::string reply = conn.read_line();
    last_rtt_seconds_ = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    return reply;
}

void ServeClient::send_lines(const std::vector<std::string>& lines) {
    LineConn& conn = connected();
    std::string framed;
    for (const std::string& line : lines) {
        framed += line;
        framed += '\n';
    }
    conn.send_all(framed);
}

std::vector<std::string> ServeClient::read_replies(std::size_t count) {
    LineConn& conn = connected();
    std::vector<std::string> replies;
    replies.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        replies.push_back(conn.read_line());
    }
    return replies;
}

std::vector<std::string>
ServeClient::pipeline(const std::vector<std::string>& lines) {
    send_lines(lines);
    return read_replies(lines.size());
}

Response ServeClient::call(const Request& req) {
    if (config_.max_retries <= 0 || req.kind == Request::Kind::kQuit) {
        return Response::decode(request(req.encode()));
    }

    // Retry mode: the encoded line is computed once and re-sent verbatim
    // on every attempt (idempotent re-send), and the jitter stream is
    // seeded from the request fingerprint so a given config + request
    // replays the same backoff schedule.
    const std::string line = req.encode();
    Rng jitter(config_.retry_seed ^ request_fingerprint(req));
    const auto backoff = [&](int attempt) {
        double delay = config_.backoff_base;
        for (int i = 1; i < attempt; ++i) {
            delay *= 2.0;
        }
        delay = std::min(delay, config_.backoff_max);
        delay *= 1.0 + config_.backoff_jitter * (jitter.uniform() - 0.5);
        if (delay > 0.0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(delay));
        }
    };

    int attempt = 0;
    for (;;) {
        try {
            if (conn_ == nullptr) {
                ClientMetrics::get().reconnects.add();
                open_connection();
            }
            const Response response = Response::decode(request(line));
            if (response.kind == Response::Kind::kError &&
                response.error_code == ErrorCode::kBusy &&
                attempt < config_.max_retries) {
                // Admission rejection: the server also closed the
                // connection, so start fresh after the backoff.
                conn_.reset();
                ++attempt;
                ClientMetrics::get().retries.add();
                backoff(attempt);
                continue;
            }
            return response;
        } catch (const TransportError&) {
            // The connection is in an unknown state (a late reply would
            // desynchronise the stream): always drop it before deciding.
            // With a failover list, the next attempt starts against the
            // next endpoint — the active one just proved unreachable or
            // unresponsive.
            conn_.reset();
            if (attempt >= config_.max_retries) {
                throw;
            }
            advance_endpoint();
            ++attempt;
            ClientMetrics::get().retries.add();
            backoff(attempt);
        }
    }
}

PartitionReply ServeClient::partition(const PartitionRequest& req) {
    Request wire;
    wire.kind = Request::Kind::kPartition;
    wire.partition = req;
    const Response response = call(wire);
    if (response.kind == Response::Kind::kError) {
        throw ServiceError(response.error_code,
                           "server error: " + response.error);
    }
    FPM_CHECK(response.kind == Response::Kind::kPartition,
              "malformed partition reply");
    return response.partition;
}

FeedbackReply ServeClient::report_feedback(const FeedbackSample& sample) {
    Request wire;
    wire.kind = Request::Kind::kFeedback;
    wire.feedback = sample;
    const Response response = call(wire);
    if (response.kind == Response::Kind::kError) {
        throw ServiceError(response.error_code,
                           "server error: " + response.error);
    }
    FPM_CHECK(response.kind == Response::Kind::kFeedback,
              "malformed FEEDBACK reply");
    return response.feedback;
}

void ServeClient::ping() {
    const std::string raw = request(Request{}.encode());  // kPing default
    const Response response = Response::decode(raw);
    if (response.kind == Response::Kind::kPong) {
        if (response.version != kProtocolVersion) {
            throw Error("protocol version mismatch: client speaks v" +
                        std::to_string(kProtocolVersion) +
                        ", server answered \"" + raw + "\"");
        }
        return;
    }
    throw Error("unexpected PING reply: " + raw);
}

ServerHealth ServeClient::health() {
    Request wire;
    wire.kind = Request::Kind::kHealth;
    const Response response = call(wire);
    if (response.kind == Response::Kind::kError) {
        throw ServiceError(response.error_code,
                           "server error: " + response.error);
    }
    FPM_CHECK(response.kind == Response::Kind::kHealth,
              "malformed HEALTH reply");
    return response.health;
}

ServerStats ServeClient::stats() {
    Request wire;
    wire.kind = Request::Kind::kStats;
    const Response response = call(wire);
    if (response.kind == Response::Kind::kError) {
        throw ServiceError(response.error_code,
                           "server error: " + response.error);
    }
    FPM_CHECK(response.kind == Response::Kind::kStats,
              "malformed STATS reply");
    return response.stats;
}

} // namespace fpm::serve
