#include "fpm/serve/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>

namespace fpm::serve {

namespace {

using Kind = TransportError::Kind;

sockaddr_in make_address(const std::string& host, std::uint16_t port,
                         const char* what) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    FPM_CHECK(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
              std::string("invalid ") + what + " address: " + host);
    return addr;
}

std::string errno_text(const std::string& call) {
    return call + ": " + std::strerror(errno);
}

timeval to_timeval(double seconds) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec =
        static_cast<suseconds_t>((seconds - std::floor(seconds)) * 1e6);
    return tv;
}

/// Connects with a deadline: the socket goes non-blocking, connect() is
/// polled for writability, and SO_ERROR reports the final outcome.  A
/// non-positive timeout falls back to a plain blocking connect().
void connect_with_timeout(int fd, const sockaddr_in& addr, double timeout,
                          const std::string& target) {
    const auto* raw = reinterpret_cast<const sockaddr*>(&addr);
    const std::string call = "connect(" + target + ")";
    if (timeout <= 0.0) {
        if (::connect(fd, raw, sizeof addr) != 0) {
            throw TransportError(Kind::kConnect, errno_text(call));
        }
        return;
    }

    const int flags = ::fcntl(fd, F_GETFL, 0);
    FPM_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
              errno_text("fcntl()"));
    if (::connect(fd, raw, sizeof addr) != 0) {
        if (errno != EINPROGRESS) {
            throw TransportError(Kind::kConnect, errno_text(call));
        }
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLOUT;
        int ready;
        do {
            ready = ::poll(&pfd, 1, static_cast<int>(timeout * 1e3));
        } while (ready < 0 && errno == EINTR);
        FPM_CHECK(ready >= 0, errno_text("poll()"));
        if (ready == 0) {
            throw TransportError(Kind::kTimeout, call + ": timed out");
        }
        int err = 0;
        socklen_t len = sizeof err;
        FPM_CHECK(::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) == 0,
                  errno_text("getsockopt()"));
        if (err != 0) {
            throw TransportError(Kind::kConnect,
                                 call + ": " + std::strerror(err));
        }
    }
    FPM_CHECK(::fcntl(fd, F_SETFL, flags) == 0, errno_text("fcntl()"));
}

/// TCP_NODELAY (one line is one segment) plus the per-call deadlines.
void configure_stream(int fd, double io_timeout) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (io_timeout > 0.0) {
        const timeval tv = to_timeval(io_timeout);
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    }
}

} // namespace

Listener listen_tcp(const std::string& bind_address, std::uint16_t port,
                    int backlog, bool reuse_port) {
    const sockaddr_in addr = make_address(bind_address, port, "bind");
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    FPM_CHECK(fd >= 0, errno_text("socket()"));
    Listener listener;
    try {
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        if (reuse_port) {
            FPM_CHECK(::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one,
                                   sizeof one) == 0,
                      errno_text("setsockopt(SO_REUSEPORT)"));
        }
        FPM_CHECK(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof addr) == 0,
                  errno_text("bind(" + bind_address + ":" +
                             std::to_string(port) + ")"));
        FPM_CHECK(::listen(fd, backlog) == 0, errno_text("listen()"));
        sockaddr_in bound{};
        socklen_t len = sizeof bound;
        FPM_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                                &len) == 0,
                  errno_text("getsockname()"));
        listener.fd = fd;
        listener.port = ntohs(bound.sin_port);
    } catch (...) {
        ::close(fd);
        throw;
    }
    return listener;
}

LineConn::LineConn(const Endpoint& target, double connect_timeout,
                   double io_timeout) {
    const sockaddr_in addr = make_address(target.host, target.port, "server");
    // CLOEXEC so tools that fork (e.g. to spawn a pager) cannot leak the
    // connection into the child.
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    FPM_CHECK(fd_ >= 0, errno_text("socket()"));
    try {
        connect_with_timeout(fd_, addr, connect_timeout, target.to_string());
    } catch (...) {
        ::close(fd_);
        throw;
    }
    configure_stream(fd_, io_timeout);
}

LineConn::LineConn(int fd, double io_timeout) : fd_(fd) {
    configure_stream(fd_, io_timeout);
}

LineConn::~LineConn() { ::close(fd_); }

void LineConn::shutdown() noexcept { ::shutdown(fd_, SHUT_RDWR); }

void LineConn::send_all(std::string_view data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                                 MSG_NOSIGNAL);
        if (n >= 0) {
            sent += static_cast<std::size_t>(n);
        } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
            throw TransportError(Kind::kTimeout,
                                 "send(): timed out waiting for the peer");
        } else if (errno != EINTR) {
            throw TransportError(Kind::kSend, errno_text("send()"));
        }
    }
}

bool LineConn::fill() {
    if (head_ > 0) {
        buffer_.erase(0, head_);
        head_ = 0;
    }
    char chunk[16384];
    for (;;) {
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n > 0) {
            buffer_.append(chunk, static_cast<std::size_t>(n));
            return true;
        }
        if (n == 0) {
            return false;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            throw TransportError(Kind::kTimeout,
                                 "recv(): timed out waiting for the peer");
        }
        if (errno != EINTR) {
            throw TransportError(Kind::kRecv, errno_text("recv()"));
        }
    }
}

std::string LineConn::read_line(std::size_t max_bytes) {
    std::size_t scanned = 0;  // bytes after head_ known to hold no newline
    for (;;) {
        const std::size_t from = head_ + scanned;
        const void* hit =
            std::memchr(buffer_.data() + from, '\n', buffer_.size() - from);
        const std::size_t end =
            hit != nullptr
                ? static_cast<std::size_t>(static_cast<const char*>(hit) -
                                           buffer_.data())
                : buffer_.size();
        const std::size_t length = end - head_;
        if (length > max_bytes) {
            throw TransportError(Kind::kTooLong,
                                 "line longer than " +
                                     std::to_string(max_bytes) + " bytes");
        }
        if (hit != nullptr) {
            std::string line(buffer_, head_, length);
            head_ += length + 1;
            if (!line.empty() && line.back() == '\r') {
                line.pop_back();
            }
            return line;
        }
        scanned = length;
        if (!fill()) {
            // An empty carry-over means the peer hung up cleanly between
            // lines; leftover bytes without a newline mean the line was
            // torn — distinct failures (a retrying caller treats both as
            // transport loss, a protocol test must tell them apart).
            const std::size_t torn = buffer_.size() - head_;
            if (torn == 0) {
                throw TransportError(Kind::kPeerClosed,
                                     "peer closed the connection");
            }
            throw TransportError(Kind::kTruncated,
                                 "peer closed the connection mid-reply (" +
                                     std::to_string(torn) +
                                     " bytes without a newline)");
        }
    }
}

std::string LineConn::read_exact(std::size_t count) {
    if (count > kFrameHeaderBytes + kMaxFrameBytes) {
        throw TransportError(Kind::kTooLong,
                             "frame of " + std::to_string(count) +
                                 " bytes exceeds the WAL frame cap");
    }
    while (buffer_.size() - head_ < count) {
        if (!fill()) {
            throw TransportError(Kind::kTruncated,
                                 "peer closed the connection mid-frame");
        }
    }
    std::string data(buffer_, head_, count);
    head_ += count;
    return data;
}

} // namespace fpm::serve
