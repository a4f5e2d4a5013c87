/// \file replication_server.hpp
/// \brief Primary-side replication listener: publish-record shipping over
///        TCP.
///
/// Speaks the v6 REPL verbs (docs/protocol.md) on a dedicated port:
///
///     replica:  REPL HELLO gen=<applied>\n
///     primary:  OK REPL committed=<gen>\n
///     then an unbounded push stream of
///               REPL FRAME bytes=<m>\n + m frame bytes
///     interleaved, when idle, with
///               REPL PING committed=<gen>\n
///
/// The frames are the latest publish record of every set newer than the
/// follower's `gen=`, in ascending generation order, then every later
/// commit as it lands (ReplicationLog).  Frame bytes are store WAL
/// frames (length+CRC32 header + publish record payload), so the
/// replica validates the stream with the same code recovery uses.
///
/// Threading: a dedicated acceptor thread plus one thread per follower
/// session, deliberately *not* the serve reactor pool.  The reactor is
/// shaped for request-reply (read a line, write a line, return to
/// epoll); a replication session is a long-lived half-duplex push
/// stream that blocks in ReplicationLog::next() waiting for commits —
/// parking that wait inside an epoll loop would either busy-poll or
/// require cross-thread wakeup plumbing for, realistically, a handful
/// of replicas.  Thread-per-follower keeps the hot serve path and the
/// replication path fully independent.  Each session is a
/// serve::LineConn; a `REPL HELLO` longer than 4 KiB ends that session
/// and no other, and a malformed one is answered `ERR` and ends it.
///
/// Fault points: `repl.handshake` (drop the connection instead of
/// answering HELLO) and `repl.send` (drop it instead of shipping a
/// frame) — both simulate a primary crash mid-protocol; the replica's
/// reconnect with its applied generation must make either invisible.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fpm/repl/replication_log.hpp"
#include "fpm/serve/transport.hpp"

namespace fpm::repl {

/// Transport knobs of the replication listener.
struct ReplServerConfig {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;          ///< 0 = ephemeral
    int backlog = 16;
    /// Idle heartbeat cadence: a PING goes out whenever no frame was
    /// committed for this long (also bounds stop() latency).
    double heartbeat_interval = 1.0;
    /// Per-send/recv socket deadline (SO_RCVTIMEO/SO_SNDTIMEO).
    double io_timeout = 5.0;
};

/// See file comment.
class ReplicationServer {
public:
    /// Binds and starts the acceptor immediately; throws fpm::Error
    /// when the listener cannot be set up.  `log` must outlive the
    /// server.
    ReplicationServer(ReplicationLog& log, ReplServerConfig config);

    /// stop()s.
    ~ReplicationServer();

    ReplicationServer(const ReplicationServer&) = delete;
    ReplicationServer& operator=(const ReplicationServer&) = delete;

    /// Stops accepting, severs every follower session and joins all
    /// threads.  Idempotent.
    void stop();

    /// The bound port (resolved when config.port was 0).
    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    /// Follower sessions currently connected.
    [[nodiscard]] std::size_t sessions() const;

    /// Publish records shipped, over the server's lifetime.
    [[nodiscard]] std::uint64_t frames_sent() const noexcept {
        return frames_sent_.load(std::memory_order_relaxed);
    }

private:
    struct Session {
        Session(int fd, double io_timeout) : conn(fd, io_timeout) {}

        serve::LineConn conn;
        std::atomic<bool> done{false};
        std::thread thread;
    };

    void accept_loop();
    void run_session(Session& session);
    void serve_follower(serve::LineConn& conn);
    void reap_finished_locked();

    ReplicationLog& log_;
    const ReplServerConfig config_;

    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stopped_{false};
    std::thread acceptor_;

    mutable std::mutex sessions_mutex_;
    std::vector<std::unique_ptr<Session>> sessions_;

    std::atomic<std::uint64_t> frames_sent_{0};
};

} // namespace fpm::repl
