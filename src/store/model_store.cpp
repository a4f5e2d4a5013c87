#include "fpm/store/model_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>
#include <vector>

#include "fpm/common/error.hpp"
#include "fpm/common/text.hpp"
#include "fpm/core/model_io.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/obs/metrics.hpp"
#include "fpm/serve/error.hpp"

namespace fpm::store {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

constexpr const char* kSnapshotMagic = "fpmstore";
constexpr const char* kSnapshotVersion = "v1";

std::string segment_name(std::uint64_t id) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "wal-%06llu.log",
                  static_cast<unsigned long long>(id));
    return buffer;
}

std::string snapshot_name(std::uint64_t generation) {
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "snapshot-%012llu.fpms",
                  static_cast<unsigned long long>(generation));
    return buffer;
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
    char buffer[20];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    return buffer;
}

/// Extracts the numeric infix of `wal-NNNNNN.log` / `snapshot-NNN.fpms`
/// file names; nullopt for anything else in the directory.
std::optional<std::uint64_t> parse_numbered_name(std::string_view name,
                                                 std::string_view prefix,
                                                 std::string_view suffix) {
    if (name.size() <= prefix.size() + suffix.size() ||
        !name.starts_with(prefix) || !name.ends_with(suffix)) {
        return std::nullopt;
    }
    return text::to_number<std::uint64_t>(name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size()));
}

void write_file_durably(const std::string& path, const std::string& contents) {
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    FPM_CHECK(fd >= 0,
              "cannot create " + path + ": " + std::strerror(errno));
    std::size_t written = 0;
    while (written < contents.size()) {
        const ssize_t n =
            ::write(fd, contents.data() + written, contents.size() - written);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            const std::string reason = std::strerror(errno);
            ::close(fd);
            throw Error("write(" + path + "): " + reason);
        }
        written += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        const std::string reason = std::strerror(errno);
        ::close(fd);
        throw Error("fsync(" + path + "): " + reason);
    }
    ::close(fd);
}

} // namespace

std::string encode_publish_record(const PublishRecord& record) {
    std::ostringstream out;
    out << "publish " << record.name << ' ' << record.generation << ' '
        << fingerprint_hex(record.fingerprint) << '\n';
    core::write_speed_functions(out, record.models);
    return out.str();
}

PublishRecord decode_publish_record(const std::string& payload,
                                    const std::string& origin) {
    std::istringstream in(payload);
    std::string header;
    FPM_CHECK(std::getline(in, header),
              origin + ": empty publish record");
    // publish <name> <generation> <fingerprint as 16 hex digits>
    const auto fields = text::split_blanks(header);
    const bool shaped = fields.size() == 4 && fields[0] == "publish" &&
                        fields[3].size() == 16;
    const auto generation =
        shaped ? text::to_number<std::uint64_t>(fields[2]) : std::nullopt;
    const auto fingerprint =
        shaped ? text::to_number<std::uint64_t>(fields[3], 16) : std::nullopt;
    FPM_CHECK(generation && *generation > 0 && fingerprint,
              origin + ": malformed publish header '" + header + "'");
    PublishRecord record;
    record.name = std::string(fields[1]);
    record.generation = *generation;
    record.fingerprint = *fingerprint;
    record.models = core::read_speed_functions(in, origin);

    // The CRC already guards against bit rot; the fingerprint check
    // catches a writer/reader logic mismatch, which must never be
    // silently served.
    FPM_CHECK(serve::fingerprint_models(record.models) == record.fingerprint,
              origin + ": fingerprint mismatch for set '" + record.name + "'");
    return record;
}

FsyncPolicy parse_fsync_policy(std::string_view text) {
    if (text == "always") {
        return FsyncPolicy::kAlways;
    }
    if (text == "never") {
        return FsyncPolicy::kNever;
    }
    throw Error("unknown fsync policy '" + std::string(text) +
                "' (want always|never)");
}

std::string_view to_string(FsyncPolicy policy) noexcept {
    return policy == FsyncPolicy::kAlways ? "always" : "never";
}

ModelStore::ModelStore(std::string dir, StoreOptions options)
    : dir_(std::move(dir)), options_(options) {
    FPM_CHECK(!dir_.empty(), "store directory must not be empty");
    std::error_code ec;
    fs::create_directories(dir_, ec);
    FPM_CHECK(!ec, "cannot create store directory " + dir_ + ": " +
                       ec.message());
}

ModelStore::~ModelStore() {
    try {
        stop();
    } catch (...) {
        // Destructor shutdown is best-effort; WAL records are already
        // durable, only the final compaction is lost.
    }
}

RecoveryReport ModelStore::recover(serve::ModelRegistry& registry) {
    {
        std::lock_guard lock(mutex_);
        FPM_CHECK(!stopped_, "store is stopped");
        FPM_CHECK(!wal_.is_open(),
                  "recover() must run before the store is live");
    }
    // The replay below runs without the store mutex: recover() is
    // guaranteed to precede attach()/append() (checked above and
    // re-checked at commit), and registry.restore() takes the registry
    // mutex — which live put() observers hold while waiting on the store
    // mutex (registry -> store).  Holding the store mutex across
    // restore() would close that cycle into a deadlock.
    std::map<std::string, PublishRecord> mirror;
    std::uint64_t next_generation = 1;
    std::uint64_t snapshot_generation = 0;

    // Inventory the directory: in-progress snapshot leftovers go away,
    // everything else is sorted for replay.
    std::vector<std::uint64_t> snapshots;
    std::vector<std::uint64_t> segments;
    for (const auto& entry : fs::directory_iterator(dir_)) {
        const std::string name = entry.path().filename().string();
        if (name.size() > 4 && name.ends_with(".tmp")) {
            std::error_code ec;
            fs::remove(entry.path(), ec);
        } else if (const auto generation =
                       parse_numbered_name(name, "snapshot-", ".fpms")) {
            snapshots.push_back(*generation);
        } else if (const auto id = parse_numbered_name(name, "wal-", ".log")) {
            segments.push_back(*id);
        }
    }
    std::sort(snapshots.rbegin(), snapshots.rend());
    std::sort(segments.begin(), segments.end());

    RecoveryReport report;

    // Newest snapshot that validates end to end wins; an unreadable or
    // torn one (crash during rename on a weaker filesystem) falls back
    // to the next-older.  A snapshot is one framed file: header frame
    // plus one publish record per set, so replay_wal() is the validator.
    for (const std::uint64_t generation : snapshots) {
        const std::string path = dir_ + "/" + snapshot_name(generation);
        try {
            const ReplayResult replay = replay_wal(path, /*repair=*/false);
            FPM_CHECK(replay.truncated_bytes == 0 && !replay.payloads.empty(),
                      "torn snapshot");
            // fpmstore v1 next=<generation> sets=<count>
            const auto fields = text::split_blanks(replay.payloads.front());
            const auto count = [&fields](std::size_t i, std::string_view key) {
                return fields.size() == 4 && fields[i].starts_with(key)
                           ? text::to_number<std::uint64_t>(
                                 fields[i].substr(key.size()))
                           : std::nullopt;
            };
            const auto next = count(2, "next=");
            const auto sets = count(3, "sets=");
            FPM_CHECK(next && sets && fields[0] == kSnapshotMagic &&
                          fields[1] == kSnapshotVersion,
                      "malformed snapshot header");
            FPM_CHECK(replay.payloads.size() == *sets + 1,
                      "snapshot holds " +
                          std::to_string(replay.payloads.size() - 1) +
                          " sets, header promises " + std::to_string(*sets));

            std::map<std::string, PublishRecord> restored;
            for (std::size_t i = 1; i < replay.payloads.size(); ++i) {
                PublishRecord record =
                    decode_publish_record(replay.payloads[i], path);
                registry.restore(record.name, record.models,
                                 record.generation);
                std::string name = record.name;
                restored[std::move(name)] = std::move(record);
            }
            mirror = std::move(restored);
            next_generation = std::max<std::uint64_t>(*next, 1);
            report.snapshot_generation = generation;
            snapshot_generation = generation;
            break;
        } catch (const Error&) {
            // Fall through to the next-older snapshot; this one stays on
            // disk for post-mortems until the next GC.
        }
    }

    // Replay the WAL suffix.  A torn tail ends recovery at that exact
    // point: later segments cannot exist legitimately (rotation only
    // happens after a successful snapshot), so they are dropped too.
    bool torn = false;
    for (std::size_t i = 0; i < segments.size(); ++i) {
        const std::string path = dir_ + "/" + segment_name(segments[i]);
        if (torn) {
            std::error_code ec;
            const auto size = fs::file_size(path, ec);
            report.truncated_bytes += ec ? 0 : size;
            fs::remove(path, ec);
            continue;
        }
        const ReplayResult replay = replay_wal(path, /*repair=*/true);
        report.truncated_bytes += replay.truncated_bytes;
        torn = replay.truncated_bytes > 0;
        for (const std::string& payload : replay.payloads) {
            PublishRecord record = decode_publish_record(payload, path);
            if (record.generation < next_generation) {
                continue;  // already covered by the snapshot
            }
            registry.restore(record.name, record.models, record.generation);
            next_generation = record.generation + 1;
            std::string name = record.name;
            mirror[std::move(name)] = std::move(record);
            ++report.wal_records;
        }
    }

    // Reopen the newest surviving segment for appending (its replayed,
    // repaired size is the committed prefix), or start segment 1 fresh.
    std::uint64_t active = segments.empty() ? 1 : segments.back();
    if (torn && !segments.empty()) {
        // The torn segment itself was repaired in place and stays active;
        // dropped later segments (if any) were removed above.
        for (auto it = segments.rbegin(); it != segments.rend(); ++it) {
            if (fs::exists(dir_ + "/" + segment_name(*it))) {
                active = *it;
                break;
            }
        }
    }
    struct stat st{};
    const std::string active_path = dir_ + "/" + segment_name(active);
    const std::uint64_t committed =
        ::stat(active_path.c_str(), &st) == 0
            ? static_cast<std::uint64_t>(st.st_size)
            : 0;

    std::lock_guard lock(mutex_);
    FPM_CHECK(!stopped_ && !wal_.is_open(),
              "store went live while recover() was replaying");
    mirror_ = std::move(mirror);
    next_generation_ = next_generation;
    last_snapshot_generation_ = snapshot_generation;
    open_segment_locked(active, committed);
    fsync_dir(dir_);

    report.recovered_generation = next_generation_ - 1;
    report.sets = mirror_.size();
    recovery_ = report;

    static auto& recovered_gauge =
        obs::MetricsRegistry::global().gauge("store.recovered_generation");
    recovered_gauge.set(static_cast<std::int64_t>(report.recovered_generation));
    return report;
}

void ModelStore::attach(serve::ModelRegistry& registry) {
    {
        std::lock_guard lock(mutex_);
        FPM_CHECK(!stopped_, "store is stopped");
        FPM_CHECK(attached_ == nullptr, "store is already attached");
        if (!wal_.is_open()) {
            open_segment_locked(1, 0);
        }
        attached_ = &registry;
    }
    // Content the registry already holds that the log does not (sets
    // loaded before the store existed) is logged now, so attach() is a
    // durability barrier, not just a subscription.
    for (const auto& set : registry.snapshot()) {
        bool logged = false;
        {
            std::lock_guard lock(mutex_);
            const auto it = mirror_.find(set->name);
            logged = it != mirror_.end() &&
                     it->second.generation == set->generation;
        }
        if (!logged) {
            append(*set);
        }
    }
    registry.set_put_observer(
        [this](const serve::ModelSet& set) { this->append(set); });
}

void ModelStore::append(const serve::ModelSet& set) {
    static auto& appended_counter =
        obs::MetricsRegistry::global().counter("store.appended");
    static auto& bytes_counter =
        obs::MetricsRegistry::global().counter("store.bytes");
    static auto& fsync_histogram =
        obs::MetricsRegistry::global().histogram("store.fsync_seconds");

    {
        std::lock_guard lock(mutex_);
        FPM_CHECK(!stopped_, "store is stopped");
        FPM_CHECK(wal_.is_open(), "store log is not open");

        PublishRecord record{set.name, set.generation, set.fingerprint,
                             set.models};
        const std::string payload = encode_publish_record(record);
        const std::uint64_t before = wal_.committed_bytes();
        const std::uint64_t frame_size = wal_.append(payload);
        if (options_.fsync_policy == FsyncPolicy::kAlways) {
            const auto start = Clock::now();
            try {
                wal_.fsync();
            } catch (...) {
                // The record is written but not durable: roll it back so
                // a failed publish leaves no trace (the registry veto
                // depends on this — log and registry must agree record
                // for record).
                wal_.truncate_to(before);
                throw;
            }
            fsync_histogram.record(
                std::chrono::duration<double>(Clock::now() - start).count());
        }

        mirror_[set.name] = std::move(record);
        next_generation_ = std::max(next_generation_, set.generation + 1);
        ++stats_.appended;
        stats_.bytes += frame_size;
        appended_counter.add(1);
        bytes_counter.add(frame_size);

        ++appends_since_snapshot_;
        if (options_.snapshot_every > 0 &&
            appends_since_snapshot_ >= options_.snapshot_every) {
            try {
                snapshot_locked();
            } catch (...) {
                // The append itself is durable; a failed compaction (full
                // disk, injected store.snapshot fault) retries at the
                // next threshold and must not fail the publish.
            }
        }
    }
    fire_commit_hook();
}

void ModelStore::snapshot() {
    std::lock_guard lock(mutex_);
    FPM_CHECK(!stopped_, "store is stopped");
    snapshot_locked();
}

void ModelStore::snapshot_locked() {
    const std::uint64_t generation = next_generation_ - 1;
    if (mirror_.empty() || generation == last_snapshot_generation_) {
        return;  // nothing new to compact
    }

    std::string contents;
    {
        std::ostringstream header;
        header << kSnapshotMagic << ' ' << kSnapshotVersion
               << " next=" << next_generation_ << " sets=" << mirror_.size();
        contents += encode_frame(header.str());
    }
    for (const auto& [name, record] : mirror_) {
        contents += encode_frame(encode_publish_record(record));
    }

    const std::string final_name = snapshot_name(generation);
    const std::string tmp_path = dir_ + "/" + final_name + ".tmp";
    const std::string final_path = dir_ + "/" + final_name;
    write_file_durably(tmp_path, contents);

    static auto& snapshot_fault = fault::point("store.snapshot");
    if (snapshot_fault.fire()) {
        // Simulated crash between writing the temp file and publishing
        // it: the temp file is left behind exactly as a real crash
        // would, and recovery ignores/removes it.
        throw serve::ServiceError(serve::ErrorCode::kStoreUnavailable,
                                  "injected fault: store.snapshot");
    }

    std::error_code ec;
    fs::rename(tmp_path, final_path, ec);
    FPM_CHECK(!ec, "rename(" + tmp_path + " -> " + final_path +
                       "): " + ec.message());
    fsync_dir(dir_);

    // The snapshot now covers everything: rotate to a fresh segment and
    // drop the old segments and older snapshots it superseded.
    const std::uint64_t old_segment = segment_id_;
    open_segment_locked(segment_id_ + 1, 0);
    fsync_dir(dir_);
    for (std::uint64_t id = 1; id <= old_segment; ++id) {
        fs::remove(dir_ + "/" + segment_name(id), ec);
    }
    if (last_snapshot_generation_ > 0) {
        fs::remove(dir_ + "/" + snapshot_name(last_snapshot_generation_), ec);
    }

    last_snapshot_generation_ = generation;
    appends_since_snapshot_ = 0;
    ++stats_.snapshots;
    static auto& snapshots_counter =
        obs::MetricsRegistry::global().counter("store.snapshots");
    snapshots_counter.add(1);
}

void ModelStore::stop() {
    detach();
    std::lock_guard lock(mutex_);
    if (stopped_) {
        return;
    }
    if (wal_.is_open()) {
        try {
            snapshot_locked();
        } catch (...) {
            // Best-effort compaction; the WAL already holds everything.
        }
        wal_.close();
    }
    stopped_ = true;
}

void ModelStore::abandon() noexcept {
    detach();
    std::lock_guard lock(mutex_);
    wal_.close();
    stopped_ = true;
}

void ModelStore::detach() {
    serve::ModelRegistry* registry = nullptr;
    {
        std::lock_guard lock(mutex_);
        registry = attached_;
        attached_ = nullptr;
    }
    if (registry != nullptr) {
        // Outside the store mutex: set_put_observer takes the registry
        // mutex, which in-flight observer calls hold while waiting for
        // the store mutex — taking them in the other order would
        // deadlock.
        registry->set_put_observer(nullptr);
    }
}

RecoveryReport ModelStore::last_recovery() const {
    std::lock_guard lock(mutex_);
    return recovery_;
}

StoreStats ModelStore::stats() const {
    std::lock_guard lock(mutex_);
    return stats_;
}

std::uint64_t ModelStore::committed_generation() const {
    std::lock_guard lock(mutex_);
    return next_generation_ - 1;
}

ReplRecords ModelStore::records_after(std::uint64_t generation) const {
    std::vector<PublishRecord> records;
    ReplRecords out;
    {
        std::lock_guard lock(mutex_);
        for (const auto& [name, record] : mirror_) {
            if (record.generation > generation) {
                records.push_back(record);
            }
        }
        out.committed = next_generation_ - 1;
    }
    // Generation order, not name order: a follower applies records in
    // arrival order and drops any at or below its highest applied
    // generation, so a newer set arriving first would hide older ones.
    std::sort(records.begin(), records.end(),
              [](const PublishRecord& a, const PublishRecord& b) {
                  return a.generation < b.generation;
              });
    out.payloads.reserve(records.size());
    for (const PublishRecord& record : records) {
        out.payloads.push_back(encode_publish_record(record));
    }
    return out;
}

void ModelStore::set_commit_hook(std::function<void()> hook) {
    std::lock_guard lock(hook_mutex_);
    commit_hook_ = std::move(hook);
}

void ModelStore::fire_commit_hook() {
    std::function<void()> hook;
    {
        std::lock_guard lock(hook_mutex_);
        hook = commit_hook_;
    }
    if (hook) {
        hook();
    }
}

void ModelStore::open_segment_locked(std::uint64_t segment_id,
                                     std::uint64_t committed) {
    wal_.open(dir_ + "/" + segment_name(segment_id), committed);
    segment_id_ = segment_id;
    stats_.segment = segment_id;
}

} // namespace fpm::store
