#include "fpm/serve/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "fpm/common/error.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/serve/reactor_metrics.hpp"
#include "fpm/serve/transport.hpp"

namespace fpm::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Reserved epoll tags; connection ids start above them.
constexpr std::uint64_t kListenTag = 0;
constexpr std::uint64_t kEventTag = 1;
constexpr std::uint64_t kFirstConnId = 2;

std::uint64_t now_ms() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now().time_since_epoch())
            .count());
}

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    FPM_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
              std::string("fcntl(O_NONBLOCK): ") + std::strerror(errno));
}

/// One response awaiting its slot in a connection's in-order pipeline.
struct PendingReply {
    std::uint64_t seq = 0;
    bool ready = false;
    std::string text;
    Clock::time_point queued;
};

/// Per-connection reactor state: buffers plus the response pipeline.
struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    std::string inbuf;
    std::string outbuf;
    std::size_t out_pos = 0;  ///< bytes of outbuf already written
    std::deque<PendingReply> pipeline;
    std::uint64_t next_seq = 0;
    bool closing = false;     ///< stop parsing; close once drained
    bool want_write = false;  ///< EPOLLOUT currently registered
    std::size_t accounted_bytes = 0;  ///< share of the buffered-bytes gauge
};

/// An engine completion travelling from a worker thread to the loop.
struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::string text;  ///< fully encoded response line
};

/// The worker-to-loop mailbox.  Owned jointly by the reactor and every
/// in-flight engine callback (shared_ptr), so a callback that fires
/// after the server died still has somewhere safe to write; shutdown()
/// closes the eventfd and turns push() into a no-op.
class CompletionQueue {
public:
    explicit CompletionQueue(int event_fd) : event_fd_(event_fd) {}

    void push(Completion&& completion) {
        std::lock_guard lock(mutex_);
        if (!open_) {
            return;
        }
        items_.push_back(std::move(completion));
        wake_locked();
    }

    /// Wakes the loop without queueing anything (stop()).
    void wake() {
        std::lock_guard lock(mutex_);
        if (open_) {
            wake_locked();
        }
    }

    /// Loop side: clear the eventfd counter and take the batch.
    std::vector<Completion> drain() {
        std::uint64_t counter = 0;
        (void)::read(event_fd_, &counter, sizeof counter);
        std::lock_guard lock(mutex_);
        std::vector<Completion> batch;
        batch.swap(items_);
        return batch;
    }

    void shutdown() {
        std::lock_guard lock(mutex_);
        open_ = false;
        if (event_fd_ >= 0) {
            ::close(event_fd_);
            event_fd_ = -1;
        }
    }

private:
    void wake_locked() {
        const std::uint64_t one = 1;
        (void)::write(event_fd_, &one, sizeof one);
    }

    std::mutex mutex_;
    std::vector<Completion> items_;
    int event_fd_;
    bool open_ = true;
};

/// Hashed timing wheel for idle deadlines: schedule/cancel are O(1),
/// advance() visits only the slots the clock passed (capped at one lap).
class TimerWheel {
public:
    TimerWheel(std::uint64_t tick_ms, std::size_t slots)
        : tick_ms_(std::max<std::uint64_t>(tick_ms, 1)),
          buckets_(std::max<std::size_t>(slots, 2)) {}

    void reset(std::uint64_t now) { current_tick_ = now / tick_ms_; }

    void schedule(std::uint64_t id, std::uint64_t deadline_ms) {
        cancel(id);
        // Fire on the first tick strictly past the deadline, so an entry
        // never expires early.
        const std::uint64_t tick = deadline_ms / tick_ms_ + 1;
        const std::size_t slot = tick % buckets_.size();
        buckets_[slot][id] = deadline_ms;
        slot_of_[id] = slot;
    }

    void cancel(std::uint64_t id) {
        const auto it = slot_of_.find(id);
        if (it == slot_of_.end()) {
            return;
        }
        buckets_[it->second].erase(id);
        slot_of_.erase(it);
    }

    void advance(std::uint64_t now, std::vector<std::uint64_t>& expired) {
        const std::uint64_t target = now / tick_ms_;
        if (target <= current_tick_) {
            return;
        }
        const std::uint64_t steps = std::min<std::uint64_t>(
            target - current_tick_, buckets_.size());
        for (std::uint64_t step = 1; step <= steps; ++step) {
            auto& bucket = buckets_[(current_tick_ + step) % buckets_.size()];
            for (auto it = bucket.begin(); it != bucket.end();) {
                if (it->second <= now) {  // lapped entries stay for later
                    expired.push_back(it->first);
                    slot_of_.erase(it->first);
                    it = bucket.erase(it);
                } else {
                    ++it;
                }
            }
        }
        current_tick_ = target;
    }

    [[nodiscard]] std::uint64_t tick_ms() const noexcept { return tick_ms_; }

private:
    std::uint64_t tick_ms_;
    std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> buckets_;
    std::unordered_map<std::uint64_t, std::size_t> slot_of_;
    std::uint64_t current_tick_ = 0;
};

std::uint64_t seconds_to_ms(double seconds) {
    return static_cast<std::uint64_t>(seconds * 1e3);
}

/// Wheel geometry for a given idle timeout: ~8 ticks per timeout for
/// <= 12.5 % lateness, with enough slots that one timeout fits in a lap.
TimerWheel make_wheel(double idle_timeout) {
    if (idle_timeout <= 0.0) {
        return TimerWheel(1000, 16);
    }
    const std::uint64_t idle_ms =
        std::max<std::uint64_t>(seconds_to_ms(idle_timeout), 8);
    const std::uint64_t tick =
        std::clamp<std::uint64_t>(idle_ms / 8, 5, 1000);
    return TimerWheel(tick, static_cast<std::size_t>(idle_ms / tick + 4));
}

} // namespace

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

struct SocketServer::Reactor {
    SocketServer& server;
    RequestEngine& engine;
    const ServeConfig config;
    int epoll_fd = -1;
    int listen_fd = -1;
    std::shared_ptr<CompletionQueue> completions;
    std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns;
    TimerWheel wheel;
    std::atomic<bool> stop_requested{false};
    std::uint64_t next_id = kFirstConnId;

    Reactor(SocketServer& server_in, RequestEngine& engine_in,
            ServeConfig config_in, int epoll, int listener,
            std::shared_ptr<CompletionQueue> queue)
        : server(server_in),
          engine(engine_in),
          config(std::move(config_in)),
          epoll_fd(epoll),
          listen_fd(listener),
          completions(std::move(queue)),
          wheel(make_wheel(config.idle_timeout)) {}

    [[nodiscard]] static const ReactorMetrics& metrics() {
        return ReactorMetrics::get();
    }

    void reschedule_idle(std::uint64_t id) {
        if (config.idle_timeout > 0.0) {
            wheel.schedule(id, now_ms() + seconds_to_ms(config.idle_timeout));
        }
    }

    void update_buffered(Connection& conn) {
        const std::size_t now_bytes =
            conn.inbuf.size() + (conn.outbuf.size() - conn.out_pos);
        metrics().buffered_bytes.add(
            static_cast<std::int64_t>(now_bytes) -
            static_cast<std::int64_t>(conn.accounted_bytes));
        conn.accounted_bytes = now_bytes;
    }

    void close_conn(std::uint64_t id) {
        const auto it = conns.find(id);
        if (it == conns.end()) {
            return;
        }
        Connection& conn = *it->second;
        (void)::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
        ::close(conn.fd);
        wheel.cancel(id);
        metrics().open_connections.add(-1);
        metrics().buffered_bytes.add(
            -static_cast<std::int64_t>(conn.accounted_bytes));
        server.open_.fetch_sub(1);
        conns.erase(it);
    }

    void set_want_write(Connection& conn, bool want) {
        if (conn.want_write == want) {
            return;
        }
        conn.want_write = want;
        epoll_event event{};
        event.events = EPOLLIN | (want ? EPOLLOUT : 0U);
        event.data.u64 = conn.id;
        (void)::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &event);
    }

    void accept_ready() {
        for (;;) {
            const int fd = ::accept4(listen_fd, nullptr, nullptr,
                                     SOCK_NONBLOCK | SOCK_CLOEXEC);
            if (fd < 0) {
                if (errno == EINTR) {
                    continue;
                }
                break;  // EAGAIN, or the listener went away
            }
            // Admission control against the *global* budget: reserve a
            // slot with one fetch_add (every reactor races on the same
            // atomic, so the pool as a whole never exceeds
            // max_connections), undo it on any failure below.
            if (server.open_.fetch_add(1) >= config.max_connections) {
                // One typed line, then the door.  The socket is fresh,
                // so the non-blocking send of a short line succeeds (or
                // the peer is already gone).
                server.open_.fetch_sub(1);
                metrics().rejected.add();
                const std::string reply =
                    Response::make_error(ErrorCode::kBusy).encode() + "\n";
                (void)::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
                ::close(fd);
                continue;
            }
            static auto& accept_fault = fault::point("serve.accept");
            if (accept_fault.fire()) {
                // Simulated accept failure: the peer sees a raw close
                // (as if the listener's backlog dropped it) and must
                // reconnect.
                server.open_.fetch_sub(1);
                ::close(fd);
                continue;
            }
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

            auto conn = std::make_unique<Connection>();
            conn->fd = fd;
            conn->id = next_id++;
            epoll_event event{};
            event.events = EPOLLIN;
            event.data.u64 = conn->id;
            if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &event) != 0) {
                server.open_.fetch_sub(1);
                ::close(fd);
                continue;
            }
            metrics().accepted.add();
            metrics().open_connections.add(1);
            server.accepted_.fetch_add(1);
            reschedule_idle(conn->id);
            conns.emplace(conn->id, std::move(conn));
        }
    }

    /// Enqueues one request line into the connection's pipeline and
    /// decides only where it runs: handle_request() builds every reply.
    /// Cache hits and the cheap verbs answer inline; PARTITION misses and
    /// FEEDBACK go to the engine pool, whose completion returns to this
    /// loop through the eventfd mailbox and fills the pipeline slot,
    /// keeping replies in request order.
    void handle_line_on(Connection& conn, const std::string& line) {
        const std::uint64_t seq = conn.next_seq++;
        if (!conn.pipeline.empty()) {
            metrics().pipelined.add();
        }
        conn.pipeline.push_back(PendingReply{seq, false, {}, Clock::now()});
        metrics().pipeline_depth.set(
            static_cast<std::int64_t>(conn.pipeline.size()));
        PendingReply& slot = conn.pipeline.back();

        Request request;
        try {
            request = Request::decode(line);
        } catch (const ServiceError& e) {
            slot.ready = true;
            slot.text = Response::make_error(e.code(), e.what()).encode();
            return;
        }
        if (request.kind == Request::Kind::kPartition) {
            // Cache hits answer on the loop thread — no pool hop, no
            // eventfd round trip.  STATS counts them exactly like the
            // pool's hit path.  A serve.cache fault skips the fast path
            // (simulated cache outage); the pool still answers.
            static auto& cache_fault = fault::point("serve.cache");
            if (!cache_fault.fire()) {
                if (auto cached =
                        engine.try_execute_cached(request.partition)) {
                    Response response;
                    response.kind = Response::Kind::kPartition;
                    response.partition =
                        make_partition_reply(request.partition, *cached);
                    slot.ready = true;
                    slot.text = response.encode();
                    return;
                }
            }
        }
        // Feedback never runs on the event loop either: a burst of
        // ingest/refine/publish work cannot stall PARTITION replies (the
        // off-hot-path requirement of fpm::adapt).
        if (request.kind == Request::Kind::kPartition ||
            request.kind == Request::Kind::kFeedback) {
            engine.post([&engine = engine, queue = completions,
                         conn_id = conn.id, seq, request = std::move(request)]() {
                queue->push(Completion{
                    conn_id, seq, handle_request(engine, request).encode()});
            });
            return;
        }
        if (request.kind == Request::Kind::kQuit) {
            conn.closing = true;  // drop any pipelined input after QUIT
        }
        slot.ready = true;
        slot.text = handle_request(engine, request).encode();
    }

    /// Splits complete lines out of the read buffer; returns false when
    /// the connection died while flushing.
    bool parse_lines(Connection& conn) {
        while (!conn.closing) {
            const auto newline = conn.inbuf.find('\n');
            if (newline == std::string::npos) {
                if (conn.inbuf.size() > kMaxRequestLine) {
                    conn.pipeline.push_back(PendingReply{
                        conn.next_seq++, true,
                        Response::make_error(ErrorCode::kBadRequest,
                                             "request line too long")
                            .encode(),
                        Clock::now()});
                    conn.closing = true;
                }
                break;
            }
            std::string line = conn.inbuf.substr(0, newline);
            conn.inbuf.erase(0, newline + 1);
            if (!line.empty() && line.back() == '\r') {
                line.pop_back();
            }
            if (line.empty()) {
                continue;
            }
            handle_line_on(conn, line);
        }
        return flush_ready(conn);
    }

    /// Moves every leading ready reply into the write buffer (recording
    /// its queue-to-reply latency) and pushes bytes at the socket.
    bool flush_ready(Connection& conn) {
        while (!conn.pipeline.empty() && conn.pipeline.front().ready) {
            PendingReply& front = conn.pipeline.front();
            metrics().queue_to_reply_seconds.record(
                std::chrono::duration<double>(Clock::now() - front.queued)
                    .count());
            conn.outbuf += front.text;
            conn.outbuf += '\n';
            conn.pipeline.pop_front();
        }
        return try_write(conn);
    }

    /// Non-blocking write of the out buffer.  A hard send failure closes
    /// the connection and is counted — never silently swallowed.
    bool try_write(Connection& conn) {
        if (conn.out_pos < conn.outbuf.size()) {
            static auto& send_fault = fault::point("serve.send");
            if (send_fault.fire()) {
                // Simulated hard send failure, same path as EPIPE below:
                // counted, never silently swallowed.  The peer sees a
                // mid-stream close, i.e. a truncated reply.
                metrics().send_failures.add();
                close_conn(conn.id);
                return false;
            }
        }
        while (conn.out_pos < conn.outbuf.size()) {
            const ssize_t n =
                ::send(conn.fd, conn.outbuf.data() + conn.out_pos,
                       conn.outbuf.size() - conn.out_pos, MSG_NOSIGNAL);
            if (n >= 0) {
                conn.out_pos += static_cast<std::size_t>(n);
                continue;
            }
            if (errno == EINTR) {
                continue;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                set_want_write(conn, true);
                update_buffered(conn);
                return true;
            }
            metrics().send_failures.add();
            close_conn(conn.id);
            return false;
        }
        conn.outbuf.clear();
        conn.out_pos = 0;
        set_want_write(conn, false);
        update_buffered(conn);
        if (conn.closing && conn.pipeline.empty()) {
            close_conn(conn.id);
            return false;
        }
        return true;
    }

    bool on_readable(Connection& conn) {
        static auto& recv_fault = fault::point("serve.recv");
        if (recv_fault.fire()) {
            // Simulated recv failure (ECONNRESET): drop the connection
            // with whatever was buffered, exactly like the error path
            // below.
            close_conn(conn.id);
            return false;
        }
        char chunk[16384];
        bool got_bytes = false;
        bool eof = false;
        for (;;) {
            const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
            if (n > 0) {
                if (!conn.closing) {
                    conn.inbuf.append(chunk, static_cast<std::size_t>(n));
                    got_bytes = true;
                }
                continue;  // drain until EAGAIN (level-triggered epoll)
            }
            if (n == 0) {
                eof = true;
                break;
            }
            if (errno == EINTR) {
                continue;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                break;
            }
            close_conn(conn.id);
            return false;
        }
        if (got_bytes) {
            reschedule_idle(conn.id);
            if (!parse_lines(conn)) {
                return false;
            }
        }
        if (eof) {
            conn.closing = true;  // serve what's queued, then hang up
            if (conn.pipeline.empty() && conn.out_pos >= conn.outbuf.size()) {
                close_conn(conn.id);
                return false;
            }
        }
        update_buffered(conn);
        return true;
    }

    void handle_completions() {
        for (Completion& completion : completions->drain()) {
            const auto it = conns.find(completion.conn_id);
            if (it == conns.end()) {
                continue;  // connection closed while computing
            }
            Connection& conn = *it->second;
            for (PendingReply& pending : conn.pipeline) {
                if (pending.seq == completion.seq) {
                    pending.ready = true;
                    pending.text = std::move(completion.text);
                    break;
                }
            }
            (void)flush_ready(conn);
        }
    }

    void expire_idle() {
        if (config.idle_timeout <= 0.0) {
            return;
        }
        std::vector<std::uint64_t> expired;
        wheel.advance(now_ms(), expired);
        for (const std::uint64_t id : expired) {
            const auto it = conns.find(id);
            if (it == conns.end()) {
                continue;
            }
            if (!it->second->pipeline.empty()) {
                reschedule_idle(id);  // waiting on compute, not idle
                continue;
            }
            metrics().idle_timeouts.add();
            close_conn(id);
        }
    }

    void run() {
        wheel.reset(now_ms());
        std::vector<epoll_event> events(128);
        bool draining = false;
        std::uint64_t drain_deadline = 0;
        for (;;) {
            if (!draining && stop_requested.load(std::memory_order_acquire)) {
                draining = true;
                if (listen_fd >= 0) {  // stop accepting
                    (void)::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd,
                                      nullptr);
                    ::close(listen_fd);
                    listen_fd = -1;
                }
                drain_deadline =
                    now_ms() + (config.drain_deadline > 0.0
                                    ? seconds_to_ms(config.drain_deadline)
                                    : 0);
                for (auto& [id, conn] : conns) {
                    conn->closing = true;
                }
            }
            if (draining) {
                const bool force = now_ms() >= drain_deadline;
                std::vector<std::uint64_t> done;
                for (const auto& [id, conn] : conns) {
                    if (force || (conn->pipeline.empty() &&
                                  conn->out_pos >= conn->outbuf.size())) {
                        done.push_back(id);
                    }
                }
                for (const std::uint64_t id : done) {
                    close_conn(id);
                }
                if (conns.empty()) {
                    break;
                }
            }

            int timeout_ms;
            if (draining) {
                const std::uint64_t now = now_ms();
                timeout_ms = static_cast<int>(std::min<std::uint64_t>(
                    drain_deadline > now ? drain_deadline - now : 0, 50));
            } else if (config.idle_timeout > 0.0 && !conns.empty()) {
                timeout_ms = static_cast<int>(wheel.tick_ms());
            } else {
                timeout_ms = -1;  // eventfd wakes us for stop()
            }

            const int n = ::epoll_wait(epoll_fd, events.data(),
                                       static_cast<int>(events.size()),
                                       timeout_ms);
            if (n < 0) {
                if (errno == EINTR) {
                    continue;
                }
                break;  // epoll fd gone; bail out
            }
            for (int i = 0; i < n; ++i) {
                const std::uint64_t tag = events[i].data.u64;
                if (tag == kListenTag) {
                    if (!draining) {
                        accept_ready();
                    }
                    continue;
                }
                if (tag == kEventTag) {
                    handle_completions();
                    continue;
                }
                const auto it = conns.find(tag);
                if (it == conns.end()) {
                    continue;  // closed earlier in this batch
                }
                Connection& conn = *it->second;
                const std::uint32_t mask = events[i].events;
                if (mask & (EPOLLHUP | EPOLLERR)) {
                    close_conn(tag);
                    continue;
                }
                bool alive = true;
                if (mask & EPOLLIN) {
                    alive = on_readable(conn);
                }
                if (alive && (mask & EPOLLOUT)) {
                    (void)try_write(conn);
                }
            }
            expire_idle();
        }

        std::vector<std::uint64_t> remaining;
        remaining.reserve(conns.size());
        for (const auto& [id, conn] : conns) {
            remaining.push_back(id);
        }
        for (const std::uint64_t id : remaining) {
            close_conn(id);
        }
        if (listen_fd >= 0) {
            ::close(listen_fd);
            listen_fd = -1;
        }
        ::close(epoll_fd);
        epoll_fd = -1;
    }
};

// ---------------------------------------------------------------------------
// SocketServer
// ---------------------------------------------------------------------------

SocketServer::SocketServer(RequestEngine& engine, ServeConfig config)
    : engine_(engine), config_(std::move(config)) {}

SocketServer::SocketServer(RequestEngine& engine)
    : SocketServer(engine, ServeConfig{}) {}

SocketServer::~SocketServer() { stop(); }

void SocketServer::start() {
    FPM_CHECK(!running_.load() && reactors_.empty(), "server already started");
    const std::size_t pool =
        std::max<std::size_t>(config_.num_reactors, 1);
    port_ = config_.port;

    try {
        for (std::size_t i = 0; i < pool; ++i) {
            // Every listener of the pool binds the same port (the kernel
            // hashes incoming connections across them).  A single
            // reactor skips SO_REUSEPORT so the default config
            // reproduces prior releases exactly.  port_ is config_.port
            // for the first listener (possibly 0 = ephemeral) and the
            // concrete bound port after it.
            const Listener listener = listen_tcp(
                config_.bind_address, port_, config_.backlog, pool > 1);
            const int fd = listener.fd;
            port_ = listener.port;

            int epoll_fd = -1;
            int event_fd = -1;
            try {
                set_nonblocking(fd);
                epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
                FPM_CHECK(epoll_fd >= 0,
                          std::string("epoll_create1(): ") +
                              std::strerror(errno));
                event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
                FPM_CHECK(event_fd >= 0,
                          std::string("eventfd(): ") + std::strerror(errno));

                epoll_event listen_event{};
                listen_event.events = EPOLLIN;
                listen_event.data.u64 = kListenTag;
                FPM_CHECK(::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd,
                                      &listen_event) == 0,
                          std::string("epoll_ctl(listen): ") +
                              std::strerror(errno));
                epoll_event wake_event{};
                wake_event.events = EPOLLIN;
                wake_event.data.u64 = kEventTag;
                FPM_CHECK(::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, event_fd,
                                      &wake_event) == 0,
                          std::string("epoll_ctl(eventfd): ") +
                              std::strerror(errno));
            } catch (...) {
                ::close(fd);
                if (epoll_fd >= 0) {
                    ::close(epoll_fd);
                }
                if (event_fd >= 0) {
                    ::close(event_fd);
                }
                throw;
            }

            auto queue = std::make_shared<CompletionQueue>(event_fd);
            reactors_.push_back(std::make_unique<Reactor>(
                *this, engine_, config_, epoll_fd, fd, std::move(queue)));
        }
    } catch (...) {
        // Roll back the reactors already built (no threads run yet, so
        // their fds are still ours to close).
        for (auto& reactor : reactors_) {
            reactor->completions->shutdown();  // closes the eventfd
            if (reactor->listen_fd >= 0) {
                ::close(reactor->listen_fd);
            }
            if (reactor->epoll_fd >= 0) {
                ::close(reactor->epoll_fd);
            }
        }
        reactors_.clear();
        port_ = 0;
        throw;
    }

    running_.store(true);
    ReactorMetrics::get().reactors.set(static_cast<std::int64_t>(pool));
    threads_.reserve(pool);
    for (auto& reactor : reactors_) {
        threads_.emplace_back(
            [reactor = reactor.get()]() { reactor->run(); });
    }
}

void SocketServer::stop() {
    if (!running_.exchange(false)) {
        return;
    }
    for (auto& reactor : reactors_) {
        reactor->stop_requested.store(true, std::memory_order_release);
        reactor->completions->wake();
    }
    for (auto& thread : threads_) {
        if (thread.joinable()) {
            thread.join();
        }
    }
    threads_.clear();
    for (auto& reactor : reactors_) {
        reactor->completions->shutdown();  // closes the eventfd
    }
    reactors_.clear();
    ReactorMetrics::get().reactors.set(0);
}

} // namespace fpm::serve
