#include "fpm/repl/replication_log.hpp"

#include <chrono>

namespace fpm::repl {

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

ReplicationLog::Next ReplicationLog::next(std::uint64_t& after,
                                          std::vector<std::string>& payloads,
                                          double timeout_seconds) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_seconds));

    for (;;) {
        // The version is sampled *before* the mirror is read: a publish
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

        store::ReplRecords records = store_.records_after(after);
        if (!records.payloads.empty()) {
            payloads = std::move(records.payloads);
            after = records.committed;
            return Next::kRecords;
        }

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
    }
}

} // namespace fpm::repl
