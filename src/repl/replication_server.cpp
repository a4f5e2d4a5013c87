#include "fpm/repl/replication_server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "fpm/common/error.hpp"
#include "fpm/common/text.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/obs/metrics.hpp"
#include "fpm/store/wal.hpp"

namespace fpm::repl {

namespace {

/// Process-global replication-server counters.
struct ServerMetrics {
    obs::Counter& frames_sent;
    obs::Counter& heartbeats_sent;
    obs::Gauge& sessions;

    static const ServerMetrics& get() {
        static auto& registry = obs::MetricsRegistry::global();
        static const ServerMetrics metrics{
            registry.counter("repl.frames_sent"),
            registry.counter("repl.heartbeats_sent"),
            registry.gauge("repl.sessions")};
        return metrics;
    }
};

/// Bound on the one line a follower sends (`REPL HELLO gen=<g>`);
/// no REPL line is remotely this long.
constexpr std::size_t kMaxHandshakeLine = 4096;

} // namespace

ReplicationServer::ReplicationServer(ReplicationLog& log,
                                     ReplServerConfig config)
    : log_(log), config_(std::move(config)) {
    const serve::Listener listener = serve::listen_tcp(
        config_.bind_address, config_.port, config_.backlog, false);
    listen_fd_ = listener.fd;
    port_ = listener.port;
    acceptor_ = std::thread([this] { accept_loop(); });
}

ReplicationServer::~ReplicationServer() { stop(); }

std::size_t ReplicationServer::sessions() const {
    std::lock_guard lock(sessions_mutex_);
    std::size_t live = 0;
    for (const auto& session : sessions_) {
        if (!session->done.load(std::memory_order_acquire)) {
            ++live;
        }
    }
    return live;
}

void ReplicationServer::stop() {
    if (stopped_.exchange(true)) {
        return;
    }
    if (listen_fd_ >= 0) {
        ::shutdown(listen_fd_, SHUT_RDWR);
    }
    if (acceptor_.joinable()) {
        acceptor_.join();
    }
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    std::vector<std::unique_ptr<Session>> sessions;
    {
        std::lock_guard lock(sessions_mutex_);
        sessions.swap(sessions_);
    }
    for (auto& session : sessions) {
        // The session thread never closes its socket (a concurrent close
        // would race fd reuse); shutdown() wakes it, and the close comes
        // with the Session after join().
        session->conn.shutdown();
        if (session->thread.joinable()) {
            session->thread.join();
        }
    }
}

void ReplicationServer::reap_finished_locked() {
    for (auto it = sessions_.begin(); it != sessions_.end();) {
        if ((*it)->done.load(std::memory_order_acquire)) {
            if ((*it)->thread.joinable()) {
                (*it)->thread.join();
            }
            it = sessions_.erase(it);
        } else {
            ++it;
        }
    }
}

void ReplicationServer::accept_loop() {
    while (!stopped_.load(std::memory_order_relaxed)) {
        pollfd pfd{};
        pfd.fd = listen_fd_;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, 200);
        if (ready < 0 && errno == EINTR) {
            continue;
        }
        if (stopped_.load(std::memory_order_relaxed)) {
            return;
        }
        if (ready <= 0) {
            continue;
        }
        const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0) {
            continue;  // racing stop(), or a transient accept failure
        }

        std::lock_guard lock(sessions_mutex_);
        reap_finished_locked();
        auto session = std::make_unique<Session>(fd, config_.io_timeout);
        Session& ref = *session;
        sessions_.push_back(std::move(session));
        ref.thread = std::thread([this, &ref] { run_session(ref); });
    }
}

void ReplicationServer::run_session(Session& session) {
    ServerMetrics::get().sessions.add(1);
    try {
        serve_follower(session.conn);
    } catch (...) {
        // A torn socket, an over-long handshake or any other failure
        // just ends this session; the other followers keep streaming.
    }
    // shutdown() tells the peer now (it must not wait out a recv
    // timeout to notice); the fd itself stays open until reap/stop
    // joins this thread and destroys the Session, so no close races fd
    // reuse.
    session.conn.shutdown();
    ServerMetrics::get().sessions.add(-1);
    session.done.store(true, std::memory_order_release);
}

void ReplicationServer::serve_follower(serve::LineConn& conn) {
    // -- handshake ----------------------------------------------------
    const std::string hello = conn.read_line(kMaxHandshakeLine);
    static auto& handshake_fault = fault::point("repl.handshake");
    if (handshake_fault.fire()) {
        return;  // primary "crashes" before answering
    }
    const auto gen = text::field(hello, "gen");
    const auto hello_gen =
        gen ? text::to_number<std::uint64_t>(*gen) : std::nullopt;
    if (!hello.starts_with("REPL HELLO ") || !hello_gen) {
        conn.send_all("ERR internal malformed REPL handshake\n");
        return;
    }
    std::uint64_t after = *hello_gen;
    store::ModelStore& store = log_.store();
    conn.send_all("OK REPL committed=" +
                  std::to_string(store.committed_generation()) + "\n");

    // -- push stream --------------------------------------------------
    static auto& send_fault = fault::point("repl.send");
    std::vector<std::string> payloads;
    while (!stopped_.load(std::memory_order_relaxed)) {
        switch (log_.next(after, payloads, config_.heartbeat_interval)) {
        case ReplicationLog::Next::kRecords:
            for (const std::string& payload : payloads) {
                if (send_fault.fire()) {
                    return;  // "crash" mid-ship
                }
                const std::string frame = store::encode_frame(payload);
                conn.send_all("REPL FRAME bytes=" +
                              std::to_string(frame.size()) + "\n");
                conn.send_all(frame);
                frames_sent_.fetch_add(1, std::memory_order_relaxed);
                ServerMetrics::get().frames_sent.add(1);
            }
            break;
        case ReplicationLog::Next::kTimeout:
            conn.send_all("REPL PING committed=" +
                          std::to_string(store.committed_generation()) + "\n");
            ServerMetrics::get().heartbeats_sent.add(1);
            break;
        case ReplicationLog::Next::kStopped:
            return;
        }
    }
}

} // namespace fpm::repl
