/// \file replication_log.hpp
/// \brief Primary-side view of the durable store for replication: what a
///        follower still lacks, by generation.
///
/// Replication in fpm::repl ships publish records — the unit the store's
/// write-ahead log (fpm::store) frames with length+CRC32 — and names a
/// follower's place in the stream by one number: the highest generation
/// it has applied.  next(after, ...) returns the latest publish record of
/// every set whose generation is above `after`, copied from the store's
/// committed mirror (ModelStore::records_after()), and blocks (bounded by
/// a timeout) while there is none, waking on the store's commit hook the
/// moment the next publish lands.
///
/// The invariant that makes one generation a complete position:
///
///  * the mirror holds the latest record of every set, and generations
///    are assigned in commit order, so a follower that has applied
///    everything up to `g` lacks exactly the sets whose latest
///    generation is above `g` — superseded records are never needed;
///  * records go out in ascending generation order and the follower
///    drops any at or below its highest applied generation, so a stream
///    that breaks part-way leaves the follower at some `g'` of which the
///    same holds: reconnecting with `g'` resumes it exactly.
///
/// Nothing is read from WAL segment files, so WAL rotation and GC never
/// strand a follower: fresh, restarted, lagging and live followers all
/// take this one path.
///
/// Locking: next() never holds the log mutex while calling into the
/// store (the store's commit hook — which takes the log mutex — runs
/// after the store mutex is released, so the only ordering either
/// thread ever sees is store-then-log).  Multiple sessions may call
/// next() concurrently with independent generations; the log itself is
/// stateless apart from the wakeup machinery.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "fpm/store/model_store.hpp"

namespace fpm::repl {

/// See file comment.
class ReplicationLog {
public:
    enum class Next {
        kRecords,  ///< records returned, generation advanced
        kTimeout,  ///< caught up; nothing committed within the timeout
        kStopped,  ///< stop() was called
    };

    /// Installs itself as the store's commit hook.  The store must
    /// outlive the log; destruction clears the hook.
    explicit ReplicationLog(store::ModelStore& store);
    ~ReplicationLog();

    ReplicationLog(const ReplicationLog&) = delete;
    ReplicationLog& operator=(const ReplicationLog&) = delete;

    /// Fills `payloads` with the encoded publish records of every set
    /// whose generation is above `after`, in ascending generation order,
    /// and advances `after` to the committed generation they bring the
    /// follower to.  Blocks up to `timeout_seconds` while there is none.
    /// On kTimeout/kStopped, `after` and `payloads` are unchanged.
    Next next(std::uint64_t& after, std::vector<std::string>& payloads,
              double timeout_seconds);

    /// Wakes every blocked next() with kStopped; further calls return
    /// kStopped immediately.
    void stop();

    [[nodiscard]] store::ModelStore& store() noexcept { return store_; }

private:
    store::ModelStore& store_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::uint64_t version_ = 0;  ///< bumped by the store's commit hook
    bool stopped_ = false;
};

} // namespace fpm::repl
