/// \file transport.hpp
/// \brief The one owner of blocking sockets: connect, listen, line I/O.
///
/// Every blocking TCP path of the service goes through this module:
/// ServeClient (the request/reply client and the benchmark's load
/// source), the Replicator (replica side of WAL shipping) and the
/// ReplicationServer's follower sessions.  Each speaks newline-framed
/// text, the replication stream additionally interleaves length-
/// announced binary frames, and all of them share the same rules:
///
///  * connect() is non-blocking and polled against a deadline, then the
///    socket gets TCP_NODELAY and SO_RCVTIMEO/SO_SNDTIMEO deadlines;
///  * sends never raise SIGPIPE and retry EINTR;
///  * a line is bounded (kMaxRequestLine unless the caller asks for
///    less) and a frame read is checked against the WAL frame cap
///    before a byte of it is buffered — no peer can make an endpoint
///    grow its memory without limit;
///  * every failure is a typed TransportError.
///
/// The serve reactor keeps its own non-blocking epoll loop (one thread
/// multiplexing many connections is a different shape); it shares only
/// listen_tcp() and the kMaxRequestLine bound with this module.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "fpm/common/error.hpp"

namespace fpm::serve {

/// The one bound on a text line, in bytes, on every endpoint: a request
/// line at the reactor, a reply line at the client, a REPL control line
/// at the replica.  A peer that sends more without a newline is broken
/// or hostile.
inline constexpr std::size_t kMaxRequestLine = std::size_t{1} << 20;

/// WAL frame geometry, shared by the store's framing (fpm/store/wal.hpp)
/// and the replication stream that ships those frames verbatim: an
/// 8-byte `[u32 length][u32 crc32]` header, and a payload cap above
/// which an announced length is corruption (a real publish record is a
/// few KiB of model CSV).
inline constexpr std::size_t kFrameHeaderBytes = 8;
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 30;

/// A transport failure, typed by what actually happened on the socket.
/// Derives fpm::Error, so callers that only care that the exchange
/// failed can catch that.
class TransportError : public Error {
public:
    enum class Kind {
        kConnect,     ///< could not establish the connection
        kTimeout,     ///< connect/send/recv deadline expired
        kPeerClosed,  ///< clean EOF between lines (no partial data)
        kTruncated,   ///< EOF mid-line: bytes arrived but no newline
        kSend,        ///< hard send failure (EPIPE, ECONNRESET, ...)
        kRecv,        ///< hard recv failure (ECONNRESET, ...)
        kTooLong,     ///< a line or announced frame exceeds its bound
    };

    TransportError(Kind kind, const std::string& message)
        : Error(message), kind_(kind) {}

    [[nodiscard]] Kind kind() const noexcept { return kind_; }

private:
    Kind kind_;
};

/// One server address (IPv4 literal host + port).
struct Endpoint {
    std::string host;
    std::uint16_t port = 0;

    [[nodiscard]] std::string to_string() const {
        return host + ":" + std::to_string(port);
    }
    friend bool operator==(const Endpoint& a, const Endpoint& b) {
        return a.host == b.host && a.port == b.port;
    }
};

/// A bound, listening TCP socket.
struct Listener {
    int fd = -1;             ///< blocking, close-on-exec; caller owns it
    std::uint16_t port = 0;  ///< the bound port (resolved when 0 was asked)
};

/// Binds `bind_address:port` (SO_REUSEADDR, plus SO_REUSEPORT when
/// `reuse_port`, so a pool of listeners can share one port) and
/// listens.  Throws fpm::Error when any step fails.
[[nodiscard]] Listener listen_tcp(const std::string& bind_address,
                                  std::uint16_t port, int backlog,
                                  bool reuse_port);

/// A connected, buffered, blocking TCP stream.  Owns its fd (closed on
/// destruction).  One thread does the I/O; shutdown() is the only call
/// that may come from another thread.
class LineConn {
public:
    /// Connects to `target`.  connect() is polled against
    /// `connect_timeout` seconds (<= 0: plain blocking connect); then
    /// the socket gets TCP_NODELAY and, when `io_timeout` > 0,
    /// SO_RCVTIMEO/SO_SNDTIMEO of that many seconds.  Throws
    /// TransportError (kConnect/kTimeout) or fpm::Error on a malformed
    /// address.
    LineConn(const Endpoint& target, double connect_timeout,
             double io_timeout);

    /// Adopts an accepted socket `fd` and applies the same TCP_NODELAY
    /// and `io_timeout` deadlines.
    LineConn(int fd, double io_timeout);

    ~LineConn();

    LineConn(const LineConn&) = delete;
    LineConn& operator=(const LineConn&) = delete;

    /// Writes all of `data` (MSG_NOSIGNAL, EINTR retried).  Throws
    /// TransportError kTimeout or kSend.
    void send_all(std::string_view data);

    /// Returns the next line without its `\n` (a trailing `\r` is
    /// stripped).  Only bytes received since the last call are scanned
    /// for the newline.  Throws TransportError: kTooLong once the line
    /// exceeds `max_bytes`, kPeerClosed on EOF between lines,
    /// kTruncated on EOF mid-line, kTimeout, kRecv.
    std::string read_line(std::size_t max_bytes = kMaxRequestLine);

    /// Returns exactly `count` bytes.  A `count` above one WAL frame
    /// (kFrameHeaderBytes + kMaxFrameBytes) throws kTooLong before
    /// anything is read.  EOF throws kTruncated; deadlines and hard
    /// failures throw like read_line().
    std::string read_exact(std::size_t count);

    /// shutdown(SHUT_RDWR): the peer sees the close now, and a thread
    /// blocked in read_line()/read_exact() wakes with an error.  The fd
    /// stays open until destruction, so it cannot be reused under that
    /// thread.  Safe to call from any thread while the object lives.
    void shutdown() noexcept;

private:
    /// Drops the consumed prefix, then appends one recv() worth of
    /// bytes.  False on EOF; throws on a deadline or hard failure.
    bool fill();

    int fd_ = -1;
    std::string buffer_;    ///< received bytes; [head_, end) unconsumed
    std::size_t head_ = 0;
};

} // namespace fpm::serve
