// fpm::store crash-recovery suite: WAL framing (CRC, torn-tail
// truncation, self-healing appends), ModelStore write-ahead veto
// semantics through the registry put observer, snapshot + rotation + GC,
// the store.append/store.fsync/store.snapshot fault points, a real
// fork()+SIGKILL crash test whose recovered registry must serve
// bit-for-bit identical plans at the pre-crash generation, and a chaos
// run with every store fault armed against the live serve stack — zero
// torn replies, and post-chaos recovery must reproduce the served state
// exactly.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fpm/core/model_io.hpp"
#include "fpm/fault/fault.hpp"
#include "fpm/obs/metrics.hpp"
#include "fpm/serve/client.hpp"
#include "fpm/serve/error.hpp"
#include "fpm/serve/model_registry.hpp"
#include "fpm/serve/protocol.hpp"
#include "fpm/serve/request_engine.hpp"
#include "fpm/serve/server.hpp"
#include "fpm/store/model_store.hpp"
#include "fpm/store/wal.hpp"
#include "stress_harness.hpp"

namespace fpm::store {
namespace {

namespace fs = std::filesystem;
using core::SpeedFunction;
using core::SpeedPoint;
using serve::ErrorCode;
using serve::ModelRegistry;
using serve::ServiceError;

/// Deterministic synthetic device set (same family as test_serve.cpp);
/// `seed` perturbs the speeds so successive generations differ.
std::vector<SpeedFunction> synthetic_models(std::size_t devices,
                                            std::size_t points_per_model,
                                            double seed) {
    std::vector<SpeedFunction> models;
    for (std::size_t d = 0; d < devices; ++d) {
        std::vector<SpeedPoint> points;
        const double peak =
            (1.0 + 0.05 * seed) * (40.0 + 17.0 * static_cast<double>(d));
        const double cliff = 900.0 + 400.0 * static_cast<double>(d);
        const double x_max = 6000.0;
        for (std::size_t p = 0; p < points_per_model; ++p) {
            const double x = 4.0 + (x_max - 4.0) * static_cast<double>(p) /
                                       static_cast<double>(points_per_model - 1);
            const double ramp = x / (x + 25.0);
            const double speed = (x < cliff ? peak : 0.45 * peak) * ramp;
            points.push_back(SpeedPoint{x, speed});
        }
        models.emplace_back(std::move(points), "dev" + std::to_string(d));
    }
    return models;
}

/// Fresh store directory under /tmp, removed on scope exit.
struct TempDir {
    TempDir() {
        char tmpl[] = "/tmp/fpmpart_store_XXXXXX";
        const char* made = ::mkdtemp(tmpl);
        EXPECT_NE(made, nullptr);
        path = made != nullptr ? made : "/tmp/fpmpart_store_fallback";
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string path;
};

/// Uninstalls any leftover fault plan when a test exits.
struct FaultGuard {
    ~FaultGuard() { fault::uninstall(); }
};

std::uint64_t file_size(const std::string& path) {
    return static_cast<std::uint64_t>(fs::file_size(path));
}

void append_raw(const std::string& path, std::string_view bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
}

/// Store-directory census: (wal segment count, snapshot count, tmp count).
struct DirCensus {
    std::size_t segments = 0;
    std::size_t snapshots = 0;
    std::size_t tmps = 0;
};

DirCensus census(const std::string& dir) {
    DirCensus c;
    for (const auto& entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
            ++c.tmps;
        } else if (name.rfind("wal-", 0) == 0) {
            ++c.segments;
        } else if (name.rfind("snapshot-", 0) == 0) {
            ++c.snapshots;
        }
    }
    return c;
}

// ---------------------------------------------------------------------------
// WAL framing
// ---------------------------------------------------------------------------

TEST(Wal, Crc32MatchesTheIeeeReferenceVector) {
    // The canonical CRC-32 check value ("123456789" -> 0xCBF43926).
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Wal, FramesAreLengthCrcPayload) {
    const std::string frame = encode_frame("abc");
    ASSERT_EQ(frame.size(), 8u + 3u);
    const auto u32 = [&](std::size_t at) {
        return static_cast<std::uint32_t>(
                   static_cast<unsigned char>(frame[at])) |
               static_cast<std::uint32_t>(
                   static_cast<unsigned char>(frame[at + 1])) << 8 |
               static_cast<std::uint32_t>(
                   static_cast<unsigned char>(frame[at + 2])) << 16 |
               static_cast<std::uint32_t>(
                   static_cast<unsigned char>(frame[at + 3])) << 24;
    };
    EXPECT_EQ(u32(0), 3u);                 // little-endian payload length
    EXPECT_EQ(u32(4), crc32("abc", 3));    // little-endian payload CRC
    EXPECT_EQ(frame.substr(8), "abc");
}

TEST(Wal, DecodeFrameClassifiesEveryFrameShape) {
    const std::string frame = encode_frame("abc");
    std::string over_cap = frame;
    over_cap[3] = '\x7f';  // announced length 0x7f000003 > kMaxFrameBytes
    std::string bad_crc = frame;
    bad_crc.back() = 'd';
    const struct {
        const char* what;
        std::string bytes;
        FrameStatus status;
        std::uint64_t size;
    } cases[] = {
        {"exact frame", frame, FrameStatus::kOk, 11},
        {"frame then more bytes", frame + "junk", FrameStatus::kOk, 11},
        {"empty payload", encode_frame(""), FrameStatus::kOk, 8},
        {"short header", frame.substr(0, 7), FrameStatus::kShortHeader, 0},
        {"length over the cap", over_cap, FrameStatus::kTooLong,
         8 + 0x7f000003ull},
        {"short payload", frame.substr(0, 10), FrameStatus::kShortPayload,
         11},
        {"CRC mismatch", bad_crc, FrameStatus::kBadCrc, 11},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(c.what);
        const DecodedFrame decoded = decode_frame(c.bytes);
        EXPECT_EQ(decoded.status, c.status);
        EXPECT_EQ(decoded.size, c.size);
        if (c.status == FrameStatus::kOk) {
            EXPECT_EQ(decoded.payload,
                      c.bytes.substr(8, c.size - 8));
        } else {
            EXPECT_TRUE(decoded.payload.empty());
        }
    }
}

TEST(Wal, AppendReplayRoundTrip) {
    TempDir dir;
    const std::string path = dir.path + "/wal-000001.log";
    const std::vector<std::string> payloads = {"first", "", "third record",
                                               std::string(4096, 'x')};
    WalFile wal;
    wal.open(path, 0);
    std::uint64_t expected = 0;
    for (const std::string& payload : payloads) {
        expected += wal.append(payload);
        EXPECT_EQ(wal.committed_bytes(), expected);
    }
    wal.close();

    const auto replay = replay_wal(path, false);
    EXPECT_EQ(replay.truncated_bytes, 0u);
    EXPECT_EQ(replay.payloads, payloads);
}

TEST(Wal, TornTailIsReportedAndRepairTruncatesIt) {
    TempDir dir;
    const std::string path = dir.path + "/wal-000001.log";
    WalFile wal;
    wal.open(path, 0);
    wal.append("alpha");
    wal.append("beta");
    const std::uint64_t committed = wal.committed_bytes();
    wal.close();

    // A crash mid-append: a frame header promising more bytes than exist.
    append_raw(path, std::string("\x40\x00\x00\x00\x99\x99", 6));
    ASSERT_GT(file_size(path), committed);

    const auto peek = replay_wal(path, false);
    EXPECT_EQ(peek.payloads, (std::vector<std::string>{"alpha", "beta"}));
    EXPECT_EQ(peek.truncated_bytes, 6u);
    EXPECT_GT(file_size(path), committed);  // repair=false never writes

    const auto repaired = replay_wal(path, true);
    EXPECT_EQ(repaired.payloads.size(), 2u);
    EXPECT_EQ(repaired.truncated_bytes, 6u);
    EXPECT_EQ(file_size(path), committed);

    const auto clean = replay_wal(path, false);
    EXPECT_EQ(clean.truncated_bytes, 0u);
    EXPECT_EQ(clean.payloads.size(), 2u);
}

TEST(Wal, CrcCorruptionEndsTheReplayAtTheLastGoodRecord) {
    TempDir dir;
    const std::string path = dir.path + "/wal-000001.log";
    WalFile wal;
    wal.open(path, 0);
    wal.append("keep me");
    const std::uint64_t boundary = wal.committed_bytes();
    wal.append("corrupt me");
    wal.close();

    // Flip one payload byte of the second record (header stays intact,
    // so only the CRC check can catch it).
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(boundary) + 8);
    file.put('X');
    file.close();

    const auto replay = replay_wal(path, true);
    EXPECT_EQ(replay.payloads, (std::vector<std::string>{"keep me"}));
    EXPECT_GT(replay.truncated_bytes, 0u);
    EXPECT_EQ(file_size(path), boundary);
}

TEST(Wal, FailedAppendSelfHealsAtTheNextAppend) {
    FaultGuard guard;
    TempDir dir;
    const std::string path = dir.path + "/wal-000001.log";
    WalFile wal;
    wal.open(path, 0);
    wal.append("durable");
    const std::uint64_t committed = wal.committed_bytes();

    fault::install(fault::FaultPlan::parse("seed=1,store.append=1"));
    EXPECT_THROW(wal.append("lost"), ServiceError);
    EXPECT_EQ(wal.committed_bytes(), committed);
    EXPECT_GT(file_size(path), committed);  // deliberately torn half-frame

    fault::uninstall();
    wal.append("after the failure");
    wal.close();

    const auto replay = replay_wal(path, false);
    EXPECT_EQ(replay.truncated_bytes, 0u);
    EXPECT_EQ(replay.payloads,
              (std::vector<std::string>{"durable", "after the failure"}));
}

// ---------------------------------------------------------------------------
// FsyncPolicy parsing
// ---------------------------------------------------------------------------

TEST(StoreOptionsTest, FsyncPolicyParsesItsOwnToString) {
    EXPECT_EQ(parse_fsync_policy("always"), FsyncPolicy::kAlways);
    EXPECT_EQ(parse_fsync_policy("never"), FsyncPolicy::kNever);
    EXPECT_EQ(to_string(FsyncPolicy::kAlways), "always");
    EXPECT_EQ(to_string(FsyncPolicy::kNever), "never");
    EXPECT_THROW((void)parse_fsync_policy("sometimes"), fpm::Error);
    EXPECT_THROW((void)parse_fsync_policy(""), fpm::Error);
}

// ---------------------------------------------------------------------------
// ModelStore: attach / append / recover
// ---------------------------------------------------------------------------

TEST(ModelStoreTest, RecoversExactGenerationsAndFingerprintsAfterAbandon) {
    TempDir dir;
    std::vector<std::uint64_t> fingerprints;
    std::uint64_t next_generation = 0;
    {
        ModelRegistry registry;
        ModelStore store(dir.path);
        const auto fresh = store.recover(registry);
        EXPECT_EQ(fresh.recovered_generation, 0u);
        EXPECT_EQ(fresh.sets, 0u);
        store.attach(registry);

        registry.put("alpha", synthetic_models(2, 24, 1.0));
        registry.put("beta", synthetic_models(3, 24, 2.0));
        registry.put("alpha", synthetic_models(2, 24, 3.0));  // reload
        for (const auto& set : registry.snapshot()) {
            fingerprints.push_back(set->fingerprint);
        }
        next_generation = registry.next_generation();
        EXPECT_EQ(next_generation, 4u);
        store.abandon();  // simulated kill -9: no final snapshot
    }
    {
        ModelRegistry recovered;
        ModelStore store(dir.path);
        const auto report = store.recover(recovered);
        EXPECT_EQ(report.recovered_generation, 3u);
        EXPECT_EQ(report.wal_records, 3u);
        EXPECT_EQ(report.truncated_bytes, 0u);
        EXPECT_EQ(report.sets, 2u);
        EXPECT_EQ(store.last_recovery().recovered_generation, 3u);

        // Same names, same fingerprints, same per-set generations, and
        // the registry's counter resumes past the crash point.
        ASSERT_EQ(recovered.size(), 2u);
        std::vector<std::uint64_t> got;
        for (const auto& set : recovered.snapshot()) {
            got.push_back(set->fingerprint);
        }
        EXPECT_EQ(got, fingerprints);
        EXPECT_EQ(recovered.get("alpha")->generation, 3u);
        EXPECT_EQ(recovered.get("beta")->generation, 2u);
        EXPECT_EQ(recovered.next_generation(), next_generation);
        store.abandon();
    }
}

TEST(ModelStoreTest, AttachMirrorsPreloadedRegistryContent) {
    TempDir dir;
    {
        // Content loaded *before* attach (the --models path) must become
        // durable at attach time, not silently stay RAM-only.
        ModelRegistry registry;
        registry.put("preloaded", synthetic_models(2, 16, 1.0));
        ModelStore store(dir.path);
        store.recover(registry);
        store.attach(registry);
        EXPECT_EQ(store.stats().appended, 1u);
        store.abandon();
    }
    ModelRegistry recovered;
    ModelStore store(dir.path);
    const auto report = store.recover(recovered);
    EXPECT_EQ(report.sets, 1u);
    EXPECT_NE(recovered.find("preloaded"), nullptr);
    store.abandon();
}

TEST(ModelStoreTest, TornWalTailTruncatesCleanlyOnRecovery) {
    TempDir dir;
    std::string segment;
    {
        ModelRegistry registry;
        ModelStore store(dir.path);
        store.recover(registry);
        store.attach(registry);
        registry.put("alpha", synthetic_models(2, 16, 1.0));
        registry.put("alpha", synthetic_models(2, 16, 2.0));
        registry.put("alpha", synthetic_models(2, 16, 3.0));
        char name[32];
        std::snprintf(name, sizeof name, "wal-%06llu.log",
                      static_cast<unsigned long long>(store.stats().segment));
        segment = dir.path + "/" + name;
        store.abandon();
    }
    // A crash mid-append leaves a torn frame after generation 3.
    append_raw(segment, std::string("\xff\xff\x00\x00half", 8));

    ModelRegistry recovered;
    ModelStore store(dir.path);
    const auto report = store.recover(recovered);
    EXPECT_EQ(report.recovered_generation, 3u);
    EXPECT_EQ(report.truncated_bytes, 8u);
    EXPECT_EQ(recovered.get("alpha")->generation, 3u);

    // The tail was physically repaired: appends extend a clean prefix.
    store.attach(recovered);
    recovered.put("alpha", synthetic_models(2, 16, 4.0));
    store.abandon();

    ModelRegistry again;
    ModelStore second(dir.path);
    const auto final_report = second.recover(again);
    EXPECT_EQ(final_report.truncated_bytes, 0u);
    EXPECT_EQ(final_report.recovered_generation, 4u);
    second.abandon();
}

TEST(ModelStoreTest, SnapshotCompactsRotatesAndCollectsGarbage) {
    TempDir dir;
    std::vector<std::uint64_t> fingerprints;
    {
        ModelRegistry registry;
        StoreOptions options;
        options.snapshot_every = 2;
        ModelStore store(dir.path, options);
        store.recover(registry);
        store.attach(registry);
        for (int round = 0; round < 5; ++round) {
            registry.put("alpha", synthetic_models(2, 16, 1.0 + round));
        }
        // 5 appends with snapshot_every=2 -> snapshots at 2 and 4, each
        // rotating to a fresh segment and GCing everything it covers.
        EXPECT_EQ(store.stats().snapshots, 2u);
        EXPECT_EQ(store.stats().segment, 3u);
        const auto on_disk = census(dir.path);
        EXPECT_EQ(on_disk.snapshots, 1u);  // older snapshot GC'd
        EXPECT_EQ(on_disk.segments, 1u);   // covered segments GC'd
        EXPECT_EQ(on_disk.tmps, 0u);
        for (const auto& set : registry.snapshot()) {
            fingerprints.push_back(set->fingerprint);
        }
        store.abandon();
    }
    ModelRegistry recovered;
    ModelStore store(dir.path);
    const auto report = store.recover(recovered);
    EXPECT_EQ(report.snapshot_generation, 4u);
    EXPECT_EQ(report.wal_records, 1u);  // generation 5 replayed from the WAL
    EXPECT_EQ(report.recovered_generation, 5u);
    std::vector<std::uint64_t> got;
    for (const auto& set : recovered.snapshot()) {
        got.push_back(set->fingerprint);
    }
    EXPECT_EQ(got, fingerprints);
    store.abandon();
}

TEST(ModelStoreTest, GracefulStopTakesAFinalSnapshotThatCoversEverything) {
    TempDir dir;
    {
        ModelRegistry registry;
        StoreOptions options;
        options.snapshot_every = 0;  // auto-snapshots off
        ModelStore store(dir.path, options);
        store.recover(registry);
        store.attach(registry);
        registry.put("alpha", synthetic_models(2, 16, 1.0));
        registry.put("beta", synthetic_models(2, 16, 2.0));
        store.stop();

        // After stop() the observer is detached: puts commit without the
        // store and must not crash or log.
        registry.put("gamma", synthetic_models(2, 16, 3.0));
        EXPECT_EQ(store.stats().appended, 2u);
    }
    ModelRegistry recovered;
    ModelStore store(dir.path);
    const auto report = store.recover(recovered);
    EXPECT_EQ(report.snapshot_generation, 2u);
    EXPECT_EQ(report.wal_records, 0u);
    EXPECT_EQ(report.sets, 2u);
    EXPECT_EQ(recovered.find("gamma"), nullptr);  // post-stop put, by design
    store.abandon();
}

// ---------------------------------------------------------------------------
// Fault points: write-ahead veto semantics
// ---------------------------------------------------------------------------

TEST(ModelStoreFaults, AppendFaultVetoesThePublishAndLeavesNoTrace) {
    FaultGuard guard;
    TempDir dir;
    ModelRegistry registry;
    ModelStore store(dir.path);
    store.recover(registry);
    store.attach(registry);
    registry.put("alpha", synthetic_models(2, 16, 1.0));
    const std::uint64_t fingerprint = registry.get("alpha")->fingerprint;
    const std::uint64_t next = registry.next_generation();

    fault::install(fault::FaultPlan::parse("seed=3,store.append=1"));
    try {
        registry.put("alpha", synthetic_models(2, 16, 9.0));
        FAIL() << "expected the store veto to propagate";
    } catch (const ServiceError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kStoreUnavailable);
    }
    // Vetoed: previous snapshot and generation counter fully intact.
    EXPECT_EQ(registry.get("alpha")->fingerprint, fingerprint);
    EXPECT_EQ(registry.next_generation(), next);

    fault::uninstall();
    const auto set = registry.put("alpha", synthetic_models(2, 16, 2.0));
    EXPECT_EQ(set->generation, next);
    store.abandon();

    // The torn half-frame the injected failure left was overwritten by
    // the successful append; recovery sees generations 1 and 2 only.
    ModelRegistry recovered;
    ModelStore second(dir.path);
    const auto report = second.recover(recovered);
    EXPECT_EQ(report.recovered_generation, next);
    EXPECT_EQ(report.wal_records, 2u);
    EXPECT_EQ(recovered.get("alpha")->fingerprint, set->fingerprint);
    second.abandon();
}

TEST(ModelStoreFaults, FsyncFaultRollsTheRecordBackBeforeVetoing) {
    FaultGuard guard;
    TempDir dir;
    ModelRegistry registry;
    ModelStore store(dir.path);
    store.recover(registry);
    store.attach(registry);
    registry.put("alpha", synthetic_models(2, 16, 1.0));
    char name[32];
    std::snprintf(name, sizeof name, "wal-%06llu.log",
                  static_cast<unsigned long long>(store.stats().segment));
    const std::string segment = dir.path + "/" + name;
    const std::uint64_t committed = file_size(segment);

    fault::install(fault::FaultPlan::parse("seed=4,store.fsync=1"));
    try {
        registry.put("alpha", synthetic_models(2, 16, 9.0));
        FAIL() << "expected the fsync veto to propagate";
    } catch (const ServiceError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kStoreUnavailable);
    }
    // The un-synced record was truncated away, not left as a valid frame
    // that recovery would replay despite the failed acknowledgement.
    EXPECT_EQ(file_size(segment), committed);
    EXPECT_EQ(store.stats().appended, 1u);
    fault::uninstall();
    store.abandon();
}

TEST(ModelStoreFaults, SnapshotFaultAbandonsTheTempFileAndKeepsAppending) {
    FaultGuard guard;
    TempDir dir;
    ModelRegistry registry;
    StoreOptions options;
    options.snapshot_every = 0;
    ModelStore store(dir.path, options);
    store.recover(registry);
    store.attach(registry);
    registry.put("alpha", synthetic_models(2, 16, 1.0));

    fault::install(fault::FaultPlan::parse("seed=5,store.snapshot=1"));
    EXPECT_THROW(store.snapshot(), ServiceError);
    fault::uninstall();
    // The injected crash point is between the temp write and the
    // rename: no published snapshot, the temp file left for recovery.
    EXPECT_EQ(census(dir.path).snapshots, 0u);
    EXPECT_EQ(census(dir.path).tmps, 1u);

    // The store keeps working on the old segment after the failure.
    registry.put("alpha", synthetic_models(2, 16, 2.0));
    store.snapshot();
    EXPECT_EQ(census(dir.path).snapshots, 1u);
    store.abandon();

    ModelRegistry recovered;
    ModelStore second(dir.path);
    const auto report = second.recover(recovered);
    EXPECT_EQ(report.snapshot_generation, 2u);
    EXPECT_EQ(report.recovered_generation, 2u);
    EXPECT_EQ(census(dir.path).tmps, 0u);  // recovery sweeps *.tmp
    second.abandon();
}

TEST(ModelStoreTest, CorruptSnapshotFallsBackToTheOlderOneplusWal) {
    TempDir dir;
    std::uint64_t expected_fingerprint = 0;
    {
        ModelRegistry registry;
        StoreOptions options;
        options.snapshot_every = 0;
        ModelStore store(dir.path, options);
        store.recover(registry);
        store.attach(registry);
        registry.put("alpha", synthetic_models(2, 16, 1.0));
        store.snapshot();  // snapshot at generation 1
        registry.put("alpha", synthetic_models(2, 16, 2.0));
        expected_fingerprint = registry.get("alpha")->fingerprint;
        store.abandon();
    }
    // Corrupt the (only) snapshot: recovery must reject it and rebuild
    // from the WAL alone...
    for (const auto& entry : fs::directory_iterator(dir.path)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("snapshot-", 0) == 0) {
            append_raw(entry.path().string(), "garbage tail");
        }
    }
    // ...except the generation-1 segment was GC'd by the snapshot, so
    // only generation 2's record survives — still the newest state.
    ModelRegistry recovered;
    ModelStore store(dir.path);
    const auto report = store.recover(recovered);
    EXPECT_EQ(report.snapshot_generation, 0u);
    EXPECT_EQ(report.recovered_generation, 2u);
    EXPECT_EQ(recovered.get("alpha")->fingerprint, expected_fingerprint);
    store.abandon();
}

// ---------------------------------------------------------------------------
// Header parsing: WAL, snapshot and REPL bytes come from disk or a peer
// ---------------------------------------------------------------------------

/// `encoded` with its header line (up to the first newline) replaced.
std::string with_header(const std::string& encoded, const std::string& header) {
    return header + encoded.substr(encoded.find('\n'));
}

TEST(PublishRecordTest, HeaderNumbersAreStrict) {
    PublishRecord record;
    record.name = "alpha";
    record.generation = 7;
    record.models = synthetic_models(2, 8, 1.0);
    record.fingerprint = serve::fingerprint_models(record.models);
    const std::string encoded = encode_publish_record(record);
    const std::string header = encoded.substr(0, encoded.find('\n'));
    const std::string fingerprint = header.substr(header.rfind(' ') + 1);
    ASSERT_EQ(decode_publish_record(encoded, "test").generation, 7u);

    // `istringstream >> uint64_t` read "-1" as 2^64 - 1.
    for (const std::string& bad :
         {"publish alpha -1 " + fingerprint, "publish alpha +7 " + fingerprint,
          "publish alpha 0 " + fingerprint,
          "publish alpha 18446744073709551616 " + fingerprint,
          "publish alpha 7 " + fingerprint + " extra",
          "publish alpha 7 -" + fingerprint.substr(1),
          "publish alpha 7 0x" + fingerprint.substr(2)}) {
        EXPECT_THROW((void)decode_publish_record(with_header(encoded, bad),
                                                 "test"),
                     fpm::Error)
            << bad;
    }
}

/// Rewrites the header record of every snapshot in `dir` (re-framed, so
/// the CRC is valid and only the header text is at fault).
void rewrite_snapshot_headers(const std::string& dir, const std::string& header) {
    for (const auto& entry : fs::directory_iterator(dir)) {
        const std::string path = entry.path().string();
        if (entry.path().filename().string().rfind("snapshot-", 0) != 0) {
            continue;
        }
        const ReplayResult replay = replay_wal(path, /*repair=*/false);
        std::string bytes = encode_frame(header);
        for (std::size_t i = 1; i < replay.payloads.size(); ++i) {
            bytes += encode_frame(replay.payloads[i]);
        }
        std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    }
}

TEST(ModelStoreTest, MalformedSnapshotHeaderFallsBackToTheWal) {
    // An unchecked strtoull read `next=abc` as 0, so recovery accepted
    // the snapshot and restarted the generation counter at 1.
    const std::string valid = "fpmstore v1 next=2 sets=1";
    for (const std::string& header :
         {valid, std::string("fpmstore v1 next=abc sets=1"),
          std::string("fpmstore v1 next=-2 sets=1"),
          std::string("fpmstore v1 next=2 sets=+1"),
          std::string("fpmstore v1 next=2 sets=1 extra")}) {
        TempDir dir;
        std::uint64_t expected_fingerprint = 0;
        {
            ModelRegistry registry;
            StoreOptions options;
            options.snapshot_every = 0;
            ModelStore store(dir.path, options);
            store.recover(registry);
            store.attach(registry);
            registry.put("alpha", synthetic_models(2, 16, 1.0));
            store.snapshot();  // snapshot at generation 1
            registry.put("alpha", synthetic_models(2, 16, 2.0));
            expected_fingerprint = registry.get("alpha")->fingerprint;
            store.abandon();
        }
        rewrite_snapshot_headers(dir.path, header);
        ModelRegistry recovered;
        ModelStore store(dir.path);
        const auto report = store.recover(recovered);
        // Only the well-formed header keeps its snapshot.
        EXPECT_EQ(report.snapshot_generation, header == valid ? 1u : 0u)
            << header;
        EXPECT_EQ(report.recovered_generation, 2u) << header;
        EXPECT_EQ(recovered.get("alpha")->fingerprint, expected_fingerprint)
            << header;
        store.abandon();
    }
}

// ---------------------------------------------------------------------------
// The crash test: fork, publish N generations, SIGKILL, recover, and
// serve bit-for-bit identical plans at the recovered generation.
// ---------------------------------------------------------------------------

TEST(ModelStoreCrash, Kill9AfterNRepublishesRecoversGenerationN) {
    constexpr int kGenerations = 6;
    TempDir dir;
    int ready_pipe[2];
    ASSERT_EQ(pipe(ready_pipe), 0);

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Child: publish kGenerations through the attached store (fsync
        // always, so every acknowledged publish is durable), report
        // readiness, then wait to be SIGKILLed mid-flight.
        ::close(ready_pipe[0]);
        int status = 1;
        try {
            ModelRegistry registry;
            ModelStore store(dir.path);
            store.recover(registry);
            store.attach(registry);
            for (int g = 1; g <= kGenerations; ++g) {
                registry.put("hybrid",
                             synthetic_models(3, 48, static_cast<double>(g)));
            }
            status = 0;
        } catch (...) {
        }
        const char byte = status == 0 ? '+' : '-';
        (void)!::write(ready_pipe[1], &byte, 1);
        ::pause();       // hold the store open until the SIGKILL lands
        ::_exit(status);  // not reached
    }

    ::close(ready_pipe[1]);
    char byte = 0;
    ASSERT_EQ(::read(ready_pipe[0], &byte, 1), 1);
    ::close(ready_pipe[0]);
    ASSERT_EQ(byte, '+') << "child failed to publish";
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int wait_status = 0;
    ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(wait_status));
    ASSERT_EQ(WTERMSIG(wait_status), SIGKILL);

    // Restart against the same --store dir.
    ModelRegistry recovered;
    ModelStore store(dir.path);
    const auto report = store.recover(recovered);
    EXPECT_EQ(report.recovered_generation,
              static_cast<std::uint64_t>(kGenerations));
    EXPECT_EQ(report.truncated_bytes, 0u);  // fsync'd appends, clean tail
    ASSERT_EQ(recovered.size(), 1u);

    // The recovered snapshot is the pre-crash one: same fingerprint,
    // same generation, and plans computed from it are bit-for-bit
    // identical to plans from the directly-built models.
    const auto last = synthetic_models(3, 48, kGenerations);
    const auto set = recovered.get("hybrid");
    EXPECT_EQ(set->generation, static_cast<std::uint64_t>(kGenerations));
    EXPECT_EQ(set->fingerprint, serve::fingerprint_models(last));
    serve::ModelSet direct;
    direct.name = "hybrid";
    direct.models = last;
    for (const std::int64_t n : {24, 96, 1024}) {
        const auto recovered_plan = serve::RequestEngine::compute_plan(
            *set, n, serve::Algorithm::kFpm, true);
        const auto direct_plan = serve::RequestEngine::compute_plan(
            direct, n, serve::Algorithm::kFpm, true);
        EXPECT_EQ(recovered_plan.blocks, direct_plan.blocks);
        EXPECT_EQ(recovered_plan.makespan, direct_plan.makespan);
    }

    // The STATS surface reports the recovered generation.
    serve::RequestEngine engine(recovered, {.workers = 1});
    const auto stats =
        serve::make_stats_reply(engine.stats(), recovered.size()).stats;
    EXPECT_EQ(stats.recovered_generation,
              static_cast<std::uint64_t>(kGenerations));
    store.abandon();
}

// ---------------------------------------------------------------------------
// Chaos: store.* faults armed against the live serve stack.  Every
// reply must decode cleanly (zero torn replies); store vetoes surface
// as typed store_unavailable errors; and after the dust settles a
// recovery from the same directory reproduces the served registry.
// ---------------------------------------------------------------------------

TEST(ModelStoreChaos, StoreFaultsNeverTearRepliesAndRecoveryMatches) {
    FaultGuard guard;
    TempDir dir;

    // A model CSV for the LOAD mutations the chaos clients fire.
    const std::string csv = dir.path + "/chaos_models.csv";
    core::save_speed_functions_csv(csv, synthetic_models(3, 32, 1.0));

    ModelRegistry registry;
    StoreOptions options;
    options.snapshot_every = 2;  // exercise the snapshot path mid-chaos
    ModelStore store(dir.path, options);
    store.recover(registry);
    store.attach(registry);
    registry.put("alpha", synthetic_models(3, 32, 1.0));

    serve::RequestEngine engine(registry,
                                {.workers = 2, .cache_capacity = 64});
    serve::SocketServer server(engine);
    server.start();

    fault::install(fault::FaultPlan::parse(
        "seed=99,store.append=0.3,store.fsync=0.2,store.snapshot=0.5"));

    constexpr std::size_t kClients = 4;
    constexpr std::size_t kRequests = 120;
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> store_errors{0};
    std::atomic<std::uint64_t> torn{0};

    fpm::test::run_concurrently(kClients, [&](std::size_t client_index) {
        serve::ServeConfig config;
        config.max_retries = 0;
        serve::ServeClient client("127.0.0.1", server.port(), config);
        for (std::size_t i = 0; i < kRequests; ++i) {
            const bool mutate = i % 3 == 0;
            const std::string line =
                mutate ? "LOAD set" + std::to_string(client_index) + " " + csv
                       : "PARTITION alpha 64 fpm";
            serve::Response response;
            try {
                response = serve::Response::decode(client.request(line));
            } catch (const fpm::Error&) {
                torn.fetch_add(1);  // transport failure or undecodable line
                return;
            }
            switch (response.kind) {
            case serve::Response::Kind::kError:
                if (response.error.empty()) {
                    torn.fetch_add(1);
                } else if (response.error_code ==
                           ErrorCode::kStoreUnavailable) {
                    store_errors.fetch_add(1);
                } else {
                    torn.fetch_add(1);  // only store vetoes are expected
                }
                break;
            case serve::Response::Kind::kLoaded:
            case serve::Response::Kind::kPartition:
                ok.fetch_add(1);
                break;
            default:
                torn.fetch_add(1);
                break;
            }
        }
    });

    fault::uninstall();
    server.stop();

    EXPECT_EQ(torn.load(), 0u);
    EXPECT_GT(ok.load(), 0u);
    EXPECT_GT(store_errors.load(), 0u)
        << "fault plan never fired; the chaos run proved nothing";

    // Durability invariant: whatever the clients were told committed is
    // exactly what a restart recovers — vetoed publishes left no trace.
    std::map<std::string, std::uint64_t> served;
    for (const auto& set : registry.snapshot()) {
        served[set->name] = set->fingerprint;
    }
    const std::uint64_t next = registry.next_generation();
    store.abandon();  // crash-style close: no final snapshot

    ModelRegistry recovered;
    ModelStore second(dir.path);
    second.recover(recovered);
    std::map<std::string, std::uint64_t> on_disk;
    for (const auto& set : recovered.snapshot()) {
        on_disk[set->name] = set->fingerprint;
    }
    EXPECT_EQ(on_disk, served);
    EXPECT_EQ(recovered.next_generation(), next);
    second.abandon();
}

} // namespace
} // namespace fpm::store
