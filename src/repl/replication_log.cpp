#include "fpm/repl/replication_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "fpm/common/error.hpp"
#include "fpm/serve/transport.hpp"
#include "fpm/store/wal.hpp"

namespace fpm::repl {

namespace fs = std::filesystem;

namespace {

using serve::kFrameHeaderBytes;

enum class ReadFrame {
    kOk,    ///< one intact frame read
    kEnd,   ///< offset is exactly the limit: clean end of data
    kTorn,  ///< short header/payload, over-long length or CRC mismatch
};

/// Reads the frame at `offset` of `path`, never looking past `limit`
/// (the committed byte count for the active segment, the file size for
/// a sealed one).  Throws fpm::Error on real I/O failure only.
ReadFrame read_frame_at(const std::string& path, std::uint64_t offset,
                        std::uint64_t limit, std::string& payload,
                        std::uint64_t& consumed) {
    if (offset >= limit) {
        return ReadFrame::kEnd;
    }
    if (offset + kFrameHeaderBytes > limit) {
        return ReadFrame::kTorn;
    }

    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    FPM_CHECK(fd >= 0,
              "open(" + path + "): " + std::strerror(errno));
    struct FdCloser {
        int fd;
        ~FdCloser() { ::close(fd); }
    } closer{fd};

    const auto read_exact = [&](std::uint64_t at, void* dst,
                                std::size_t count) -> bool {
        std::size_t done = 0;
        while (done < count) {
            const ssize_t n =
                ::pread(fd, static_cast<char*>(dst) + done, count - done,
                        static_cast<off_t>(at + done));
            if (n < 0 && errno == EINTR) {
                continue;
            }
            FPM_CHECK(n >= 0,
                      "pread(" + path + "): " + std::strerror(errno));
            if (n == 0) {
                return false;  // file shorter than the limit claims
            }
            done += static_cast<std::size_t>(n);
        }
        return true;
    };

    // Read the header, learn the announced length from decode_frame(),
    // then read the payload behind it and decode the whole frame.
    payload.resize(kFrameHeaderBytes);
    if (!read_exact(offset, payload.data(), kFrameHeaderBytes)) {
        return ReadFrame::kTorn;
    }
    store::DecodedFrame frame = store::decode_frame(payload);
    if (frame.status == store::FrameStatus::kTooLong ||
        offset + frame.size > limit) {
        return ReadFrame::kTorn;
    }
    payload.resize(frame.size);
    if (!read_exact(offset + kFrameHeaderBytes,
                    payload.data() + kFrameHeaderBytes,
                    frame.size - kFrameHeaderBytes)) {
        return ReadFrame::kTorn;
    }
    frame = store::decode_frame(payload);
    if (frame.status != store::FrameStatus::kOk) {
        return ReadFrame::kTorn;
    }
    consumed = frame.size;
    payload.erase(0, kFrameHeaderBytes);
    return ReadFrame::kOk;
}

} // namespace

ReplPosition ReplPosition::parse(const std::string& text) {
    const std::size_t colon = text.find(':');
    FPM_CHECK(colon != std::string::npos && colon > 0 &&
                  colon + 1 < text.size(),
              "malformed replication position: " + text);
    const auto parse_u64 = [&](const std::string& part) {
        errno = 0;
        char* end = nullptr;
        const unsigned long long value =
            std::strtoull(part.c_str(), &end, 10);
        FPM_CHECK(end != part.c_str() && *end == '\0' && errno == 0,
                  "malformed replication position: " + text);
        return static_cast<std::uint64_t>(value);
    };
    ReplPosition pos;
    pos.segment = parse_u64(text.substr(0, colon));
    pos.offset = parse_u64(text.substr(colon + 1));
    return pos;
}

ReplicationLog::ReplicationLog(store::ModelStore& store) : store_(store) {
    store_.set_commit_hook([this] {
        std::lock_guard lock(mutex_);
        ++version_;
        cv_.notify_all();
    });
}

ReplicationLog::~ReplicationLog() {
    stop();
    store_.set_commit_hook(nullptr);
}

void ReplicationLog::stop() {
    std::lock_guard lock(mutex_);
    stopped_ = true;
    cv_.notify_all();
}

bool ReplicationLog::position_available(const ReplPosition& pos) const {
    const auto [active, committed] = store_.wal_position();
    if (pos.segment > active || pos.segment == 0) {
        return false;
    }
    if (pos.segment == active) {
        return pos.offset <= committed;
    }
    std::error_code ec;
    const std::string path = store_.segment_path(pos.segment);
    if (fs::exists(path, ec)) {
        const std::uint64_t size = fs::file_size(path, ec);
        return !ec && pos.offset <= size;
    }
    const auto [seal_segment, seal_offset] = store_.last_seal();
    return pos.segment == seal_segment && pos.offset == seal_offset;
}

ReplicationLog::Next ReplicationLog::next(ReplPosition& pos,
                                          std::string& payload,
                                          double timeout_seconds) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_seconds));

    for (;;) {
        // The version is sampled *before* the commit point: a publish
        // landing between the sample and a later wait bumps it, so the
        // wait predicate is already true — no lost wakeup.
        std::uint64_t seen;
        {
            std::lock_guard lock(mutex_);
            if (stopped_) {
                return Next::kStopped;
            }
            seen = version_;
        }

        const auto [active, committed] = store_.wal_position();
        if (pos.segment > active || pos.segment == 0) {
            return Next::kGap;
        }

        if (pos.segment == active) {
            if (pos.offset > committed) {
                return Next::kGap;
            }
            if (pos.offset < committed) {
                std::uint64_t consumed = 0;
                const ReadFrame result =
                    read_frame_at(store_.segment_path(pos.segment),
                                  pos.offset, committed, payload, consumed);
                if (result != ReadFrame::kOk) {
                    // Corruption inside the committed prefix, or the
                    // segment rotated from under us mid-read: resync.
                    return Next::kGap;
                }
                pos.offset += consumed;
                return Next::kFrame;
            }
            // Caught up to the commit point: wait for the next publish.
            std::unique_lock lock(mutex_);
            const bool woke = cv_.wait_until(lock, deadline, [&] {
                return stopped_ || version_ != seen;
            });
            if (stopped_) {
                return Next::kStopped;
            }
            if (!woke) {
                return Next::kTimeout;
            }
            continue;
        }

        // Sealed (pos.segment < active) segment.
        const std::string path = store_.segment_path(pos.segment);
        std::error_code ec;
        if (!fs::exists(path, ec)) {
            // GC'd.  Only the exact seal point of the most recent
            // rotation resumes seamlessly — the snapshot that triggered
            // the rotation covers precisely what such a follower has
            // already applied.
            const auto [seal_segment, seal_offset] = store_.last_seal();
            if (pos.segment == seal_segment && pos.offset == seal_offset) {
                pos = ReplPosition{pos.segment + 1, 0};
                continue;
            }
            return Next::kGap;
        }
        const std::uint64_t size = fs::file_size(path, ec);
        if (ec) {
            return Next::kGap;  // vanished between exists() and here
        }
        std::uint64_t consumed = 0;
        switch (read_frame_at(path, pos.offset, size, payload, consumed)) {
        case ReadFrame::kOk:
            pos.offset += consumed;
            return Next::kFrame;
        case ReadFrame::kEnd:
        case ReadFrame::kTorn: {
            // End of a sealed segment (a torn tail there is dead bytes
            // recovery would truncate): advance to the next segment
            // that still exists.
            ReplPosition advanced = pos;
            for (std::uint64_t id = pos.segment + 1; id <= active; ++id) {
                if (id == active || fs::exists(store_.segment_path(id), ec)) {
                    advanced = ReplPosition{id, 0};
                    break;
                }
            }
            if (advanced == pos) {
                return Next::kGap;
            }
            pos = advanced;
            continue;
        }
        }
    }
}

} // namespace fpm::repl
