#include "fpm/store/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "fpm/common/error.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/serve/error.hpp"
#include "fpm/serve/transport.hpp"

namespace fpm::store {

namespace {

// Frame geometry (header size, payload cap) is shared with the
// replication stream: serve::kFrameHeaderBytes / serve::kMaxFrameBytes.
using serve::kFrameHeaderBytes;
using serve::kMaxFrameBytes;

std::array<std::uint32_t, 256> make_crc_table() {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit) {
            c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
        }
        table[i] = c;
    }
    return table;
}

void put_u32_le(std::string& out, std::uint32_t value) {
    out.push_back(static_cast<char>(value & 0xFF));
    out.push_back(static_cast<char>((value >> 8) & 0xFF));
    out.push_back(static_cast<char>((value >> 16) & 0xFF));
    out.push_back(static_cast<char>((value >> 24) & 0xFF));
}

std::uint32_t get_u32_le(const unsigned char* bytes) {
    return static_cast<std::uint32_t>(bytes[0]) |
           (static_cast<std::uint32_t>(bytes[1]) << 8) |
           (static_cast<std::uint32_t>(bytes[2]) << 16) |
           (static_cast<std::uint32_t>(bytes[3]) << 24);
}

void write_all_at(int fd, const char* data, std::size_t size,
                  std::uint64_t offset, const std::string& path) {
    std::size_t written = 0;
    while (written < size) {
        const ssize_t n = ::pwrite(fd, data + written, size - written,
                                   static_cast<off_t>(offset + written));
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            throw Error("pwrite(" + path + "): " + std::strerror(errno));
        }
        written += static_cast<std::size_t>(n);
    }
}

} // namespace

std::uint32_t crc32(const void* data, std::size_t size) noexcept {
    static const auto table = make_crc_table();
    const auto* bytes = static_cast<const unsigned char*>(data);
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
        c = table[(c ^ bytes[i]) & 0xFF] ^ (c >> 8);
    }
    return c ^ 0xFFFFFFFFu;
}

std::string encode_frame(std::string_view payload) {
    std::string frame;
    frame.reserve(kFrameHeaderBytes + payload.size());
    put_u32_le(frame, static_cast<std::uint32_t>(payload.size()));
    put_u32_le(frame, crc32(payload.data(), payload.size()));
    frame.append(payload.data(), payload.size());
    return frame;
}

DecodedFrame decode_frame(std::string_view bytes) noexcept {
    DecodedFrame frame;
    if (bytes.size() < kFrameHeaderBytes) {
        return frame;  // kShortHeader
    }
    const auto* header = reinterpret_cast<const unsigned char*>(bytes.data());
    const std::uint32_t length = get_u32_le(header);
    frame.size = kFrameHeaderBytes + std::uint64_t{length};
    if (length > kMaxFrameBytes) {
        frame.status = FrameStatus::kTooLong;
    } else if (bytes.size() < frame.size) {
        frame.status = FrameStatus::kShortPayload;
    } else if (crc32(bytes.data() + kFrameHeaderBytes, length) !=
               get_u32_le(header + 4)) {
        frame.status = FrameStatus::kBadCrc;
    } else {
        frame.status = FrameStatus::kOk;
        frame.payload = bytes.substr(kFrameHeaderBytes, length);
    }
    return frame;
}

ReplayResult replay_wal(const std::string& path, bool repair) {
    const int fd = ::open(path.c_str(), repair ? O_RDWR : O_RDONLY, 0);
    FPM_CHECK(fd >= 0, "cannot open log: " + path + ": " +
                           std::strerror(errno));

    ReplayResult result;
    std::string contents;
    try {
        char chunk[1 << 16];
        for (;;) {
            const ssize_t n = ::read(fd, chunk, sizeof chunk);
            if (n < 0) {
                if (errno == EINTR) {
                    continue;
                }
                throw Error("read(" + path + "): " + std::strerror(errno));
            }
            if (n == 0) {
                break;
            }
            contents.append(chunk, static_cast<std::size_t>(n));
        }

        // A torn or garbage header, a short payload or a corrupt record
        // ends the replay: everything from there on is the tail.
        std::size_t offset = 0;
        for (;;) {
            const DecodedFrame frame =
                decode_frame(std::string_view(contents).substr(offset));
            if (frame.status != FrameStatus::kOk) {
                break;
            }
            result.payloads.emplace_back(frame.payload);
            offset += frame.size;
        }
        result.truncated_bytes = contents.size() - offset;
        if (result.truncated_bytes > 0 && repair) {
            FPM_CHECK(::ftruncate(fd, static_cast<off_t>(offset)) == 0,
                      "ftruncate(" + path + "): " + std::strerror(errno));
        }
    } catch (...) {
        ::close(fd);
        throw;
    }
    ::close(fd);
    return result;
}

WalFile::~WalFile() { close(); }

void WalFile::open(const std::string& path, std::uint64_t committed) {
    close();
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    FPM_CHECK(fd_ >= 0,
              "cannot open log: " + path + ": " + std::strerror(errno));
    path_ = path;
    committed_ = committed;
}

std::uint64_t WalFile::append(std::string_view payload) {
    FPM_CHECK(fd_ >= 0, "log is not open");

    // Drop any torn bytes a previous failed append left past the
    // committed prefix, so every frame lands on a clean boundary.
    struct stat st{};
    FPM_CHECK(::fstat(fd_, &st) == 0,
              "fstat(" + path_ + "): " + std::strerror(errno));
    if (static_cast<std::uint64_t>(st.st_size) != committed_) {
        truncate_to(committed_);
    }

    const std::string frame = encode_frame(payload);

    static auto& append_fault = fault::point("store.append");
    if (append_fault.fire()) {
        // Simulated crash mid-append: half the frame reaches the disk,
        // then the write "fails".  The torn tail stays until the next
        // append (self-heal above) or a replay repair truncates it —
        // exactly what a kill -9 between two pwrites produces.
        write_all_at(fd_, frame.data(), frame.size() / 2, committed_, path_);
        throw serve::ServiceError(serve::ErrorCode::kStoreUnavailable,
                                  "injected fault: store.append");
    }

    write_all_at(fd_, frame.data(), frame.size(), committed_, path_);
    committed_ += frame.size();
    return frame.size();
}

void WalFile::fsync() {
    FPM_CHECK(fd_ >= 0, "log is not open");
    static auto& fsync_fault = fault::point("store.fsync");
    if (fsync_fault.fire()) {
        throw serve::ServiceError(serve::ErrorCode::kStoreUnavailable,
                                  "injected fault: store.fsync");
    }
    FPM_CHECK(::fdatasync(fd_) == 0,
              "fdatasync(" + path_ + "): " + std::strerror(errno));
}

void WalFile::truncate_to(std::uint64_t offset) {
    FPM_CHECK(fd_ >= 0, "log is not open");
    FPM_CHECK(::ftruncate(fd_, static_cast<off_t>(offset)) == 0,
              "ftruncate(" + path_ + "): " + std::strerror(errno));
    committed_ = offset;
}

void WalFile::close() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    path_.clear();
    committed_ = 0;
}

void fsync_dir(const std::string& dir) {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) {
        return;
    }
    (void)::fsync(fd);  // some filesystems reject dir fsync; best-effort
    ::close(fd);
}

} // namespace fpm::store
