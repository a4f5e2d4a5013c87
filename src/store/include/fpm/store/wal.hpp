/// \file wal.hpp
/// \brief Append-only framed record log (the durable store's low layer).
///
/// A log file is a sequence of length+CRC-framed records:
///
///     [u32 payload length (LE)] [u32 CRC-32 of payload (LE)] [payload]
///
/// The framing makes replay self-validating: a crash mid-append leaves a
/// torn tail (a short header, a short payload, or a CRC mismatch) that
/// replay_wal() detects, reports and — in repair mode — truncates away,
/// leaving exactly the committed prefix.  Nothing here interprets
/// payloads; fpm::store::ModelStore layers the publish-record grammar on
/// top and the same framing carries snapshot bodies.
///
/// WalFile is the writer: it tracks the committed byte offset and always
/// writes the next frame there, so a previous failed append (injected
/// `store.append`/`store.fsync` faults, ENOSPC) self-heals — the torn
/// bytes are overwritten or truncated before the next record lands.
/// Appends are atomic at the record level, never the byte level; the
/// caller owns frame-to-frame ordering (one writer, externally locked).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fpm::store {

/// CRC-32 (IEEE 802.3, the zlib polynomial) of `size` bytes.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size) noexcept;

/// Outcome of replaying one log file.
struct ReplayResult {
    std::vector<std::string> payloads;   ///< intact records, in file order
    std::uint64_t truncated_bytes = 0;   ///< torn/corrupt tail dropped
};

/// Reads every intact framed record of `path` (which must exist).  A
/// torn or CRC-corrupt tail ends the replay: its byte count is reported
/// in `truncated_bytes` and, when `repair` is set, physically truncated
/// from the file so subsequent appends extend a clean prefix.  Throws
/// fpm::Error on I/O failure.
[[nodiscard]] ReplayResult replay_wal(const std::string& path, bool repair);

/// See file comment.  Move-only single-writer handle.
class WalFile {
public:
    WalFile() = default;
    ~WalFile();

    WalFile(const WalFile&) = delete;
    WalFile& operator=(const WalFile&) = delete;

    /// Opens (creating if missing) `path` for appending and adopts
    /// `committed` as the valid prefix length — pass the replayed size
    /// after recovery, or 0 for a fresh segment.  Closes any previously
    /// open file.  Throws fpm::Error on failure.
    void open(const std::string& path, std::uint64_t committed);

    /// Appends one framed record after the committed prefix (truncating
    /// any torn bytes a previous failure left).  Fires the
    /// `store.append` fault point: an injected failure writes a
    /// deliberately torn half-frame and throws, simulating a crash
    /// mid-append.  On success the committed offset advances by the
    /// frame size (returned).  Throws serve::ServiceError
    /// (store_unavailable) on injection, fpm::Error on real I/O failure.
    std::uint64_t append(std::string_view payload);

    /// fdatasync()s the file.  Fires the `store.fsync` fault point
    /// before syncing; on injection or failure the caller should
    /// roll back the unsynced record via truncate_to().  Throws
    /// serve::ServiceError (store_unavailable) on injection.
    void fsync();

    /// Truncates the file (and the committed offset) back to `offset` —
    /// the rollback half of append()+fsync().
    void truncate_to(std::uint64_t offset);

    void close() noexcept;

    [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }
    [[nodiscard]] std::uint64_t committed_bytes() const noexcept {
        return committed_;
    }
    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    int fd_ = -1;
    std::string path_;
    std::uint64_t committed_ = 0;
};

/// Encodes one frame (header + payload) — exposed for the snapshot
/// writer and the tests' corruption harness.
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// What decode_frame() found at the front of a buffer.
enum class FrameStatus {
    kOk,            ///< one intact frame
    kShortHeader,   ///< fewer bytes than a frame header
    kTooLong,       ///< announced length over serve::kMaxFrameBytes
    kShortPayload,  ///< fewer bytes than the announced payload
    kBadCrc,        ///< payload does not match the header's CRC-32
};

struct DecodedFrame {
    FrameStatus status = FrameStatus::kShortHeader;
    /// Header plus announced payload, in bytes; 0 without a header.
    std::uint64_t size = 0;
    /// The payload, a view into the decoded bytes; set for kOk only.
    std::string_view payload;
};

/// Decodes the frame at the front of `bytes` (later bytes are ignored).
/// The inverse of encode_frame() and the one place that parses a frame
/// header, applies the length cap and checks the CRC: WAL replay, the
/// primary's replication log and the replica all call it.
[[nodiscard]] DecodedFrame decode_frame(std::string_view bytes) noexcept;

/// fsync()s a directory so a just-created or just-renamed entry is
/// durable.  Best-effort: ignores file systems that reject dir fsync.
void fsync_dir(const std::string& dir);

} // namespace fpm::store
