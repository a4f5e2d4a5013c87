// Round-trip and fuzz-ish decode coverage for every v4 protocol message
// type (FEEDBACK and the adapt_* STATS fields arrived in v4; a v3 `OK
// PONG v3` line must still decode so version mismatches surface as a
// typed error, not a parse failure).  The wire spec these tests pin down is docs/protocol.md; the
// invariant under fuzzing is that decode() either succeeds or throws
// fpm::Error — truncated, oversized or garbage input must never crash,
// hang, or escape as a different exception type.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "fpm/common/error.hpp"
#include "fpm/common/rng.hpp"
#include "fpm/serve/model_registry.hpp"
#include "fpm/serve/protocol.hpp"
#include "fpm/serve/repl_status.hpp"

namespace {

using namespace fpm;
using namespace fpm::serve;

// Decoding `line` must either produce a value or throw fpm::Error.
// Returns true when it decoded.
bool request_decodes(const std::string& line) {
    try {
        (void)Request::decode(line);
        return true;
    } catch (const Error&) {
        return false;
    }
}

bool response_decodes(const std::string& line) {
    try {
        (void)Response::decode(line);
        return true;
    } catch (const Error&) {
        return false;
    }
}

PartitionReply sample_partition_reply(bool degraded, bool with_rects) {
    PartitionReply reply;
    reply.model = "hybrid";
    reply.generation = 7;
    reply.n = 640;
    reply.algorithm = Algorithm::kFpm;
    reply.cached = true;
    reply.coalesced = false;
    reply.degraded = degraded;
    reply.balanced_time = 0.12345678901234567;
    reply.makespan = 1e-9;
    reply.comm_cost = 4242;
    reply.blocks = {100, 250, 290};
    if (with_rects) {
        reply.rects = {part::Rect{0, 0, 100, 640}, part::Rect{100, 0, 250, 640},
                       part::Rect{350, 0, 290, 640}};
    }
    return reply;
}

// ---------------------------------------------------------------------------
// Request round trips
// ---------------------------------------------------------------------------

TEST(ProtocolRequest, EveryKindRoundTrips) {
    std::vector<Request> requests;

    Request ping;  // default
    requests.push_back(ping);

    Request quit;
    quit.kind = Request::Kind::kQuit;
    requests.push_back(quit);

    Request stats;
    stats.kind = Request::Kind::kStats;
    requests.push_back(stats);

    Request health;
    health.kind = Request::Kind::kHealth;
    requests.push_back(health);

    Request models;
    models.kind = Request::Kind::kModels;
    requests.push_back(models);

    Request load;
    load.kind = Request::Kind::kLoad;
    load.name = "hybrid";
    load.path = "/tmp/models.csv";
    requests.push_back(load);

    Request partition;
    partition.kind = Request::Kind::kPartition;
    partition.partition.model_set = "hybrid";
    partition.partition.n = 512;
    partition.partition.algorithm = Algorithm::kCpm;
    requests.push_back(partition);

    Request nolayout = partition;
    nolayout.partition.with_layout = false;
    nolayout.partition.algorithm = Algorithm::kEven;
    requests.push_back(nolayout);

    Request feedback;
    feedback.kind = Request::Kind::kFeedback;
    feedback.feedback.model_set = "hybrid";
    feedback.feedback.device = 2;
    feedback.feedback.problem_size = 1536.5;
    feedback.feedback.seconds = 0.12345678901234567;
    requests.push_back(feedback);

    for (const Request& request : requests) {
        const std::string line = request.encode();
        const Request decoded = Request::decode(line);
        EXPECT_EQ(decoded.kind, request.kind) << line;
        EXPECT_EQ(decoded.encode(), line) << line;
    }
}

TEST(ProtocolRequest, RejectsMalformedLines) {
    const std::vector<std::string> bad = {
        "",
        "   ",
        "BOGUS",
        "PING extra",
        "QUIT now",
        "STATS verbose",
        "HEALTH deep",
        "MODELS all",
        "LOAD onlyname",
        "LOAD name path extra",
        "PARTITION",
        "PARTITION set",
        "PARTITION set 10",
        "PARTITION set 10 wat",
        "PARTITION set abc fpm",
        "PARTITION set 0 fpm",
        "PARTITION set -5 fpm",
        "PARTITION set 10 fpm badopt",
        "PARTITION set 10 fpm nolayout extra",
        "partition set 10 fpm",  // verbs are case-sensitive
        "FEEDBACK",
        "FEEDBACK set",
        "FEEDBACK set 0 100",
        "FEEDBACK set 0 100 1.5 extra",
        "FEEDBACK set -1 100 1.5",   // negative device
        "FEEDBACK set 0 0 1.5",      // zero size
        "FEEDBACK set 0 100 0",      // zero time
        "FEEDBACK set 0 100 -2",     // negative time
        "FEEDBACK set zero 100 1.5", // non-numeric device
        "feedback set 0 100 1.5",
        "FEEDBACK set 0 inf 1",      // non-finite size
        "FEEDBACK set 0 16 inf",     // non-finite time
        "FEEDBACK set 0 nan 1",
        "FEEDBACK set 0 16 nan",
        "FEEDBACK set 0 1e999 1",    // overflows a double
        "FEEDBACK set 0 16 1e-400",  // underflows to zero
        "PARTITION set +10 fpm",     // numbers take no '+'
        "PARTITION set 0x10 fpm",    // nor a hex prefix
        "FEEDBACK set 0 0x1p4 1",    // nor hex floats
    };
    for (const std::string& line : bad) {
        EXPECT_FALSE(request_decodes(line)) << "accepted: " << line;
    }
}

TEST(ProtocolRequest, EveryMalformedLineIsATypedBadRequest) {
    // Decode classifies its own failures, so no caller needs a second
    // catch: an unknown verb is unsupported_verb, anything else malformed
    // is bad_request.
    const std::vector<std::pair<std::string, ErrorCode>> cases = {
        {"", ErrorCode::kBadRequest},
        {"PING extra", ErrorCode::kBadRequest},
        {"LOAD onlyname", ErrorCode::kBadRequest},
        {"PARTITION set abc fpm", ErrorCode::kBadRequest},
        {"PARTITION set 0 fpm", ErrorCode::kBadRequest},
        {"PARTITION set 10 wat", ErrorCode::kBadRequest},
        {"PARTITION set 99999999999999999999 fpm", ErrorCode::kBadRequest},
        {"FEEDBACK set 0 100 nan-ish", ErrorCode::kBadRequest},
        {"BOGUS", ErrorCode::kUnsupportedVerb},
    };
    for (const auto& [line, code] : cases) {
        try {
            (void)Request::decode(line);
            ADD_FAILURE() << "accepted: " << line;
        } catch (const ServiceError& e) {
            EXPECT_EQ(e.code(), code) << line;
            EXPECT_STRNE(e.what(), "") << line;
        }
    }
}

TEST(ProtocolRequest, WorkloadSizeMustSquareExactlyInADouble) {
    // 94906265^2 <= 2^53 < 94906266^2: the largest n whose n*n every
    // layer (double shares, int64 rounding) sees as the same total.
    EXPECT_EQ(Request::decode("PARTITION node 94906265 even").partition.n,
              94906265);
    for (const char* n : {"94906266", "3037000499", "3037000500"}) {
        const std::string line = std::string("PARTITION node ") + n + " even";
        try {
            (void)Request::decode(line);
            ADD_FAILURE() << "accepted: " << line;
        } catch (const ServiceError& e) {
            EXPECT_EQ(e.code(), ErrorCode::kBadRequest) << line;
        }
    }
}

TEST(ProtocolRequest, FeedbackDoublesRoundTripBitForBit) {
    Request request;
    request.kind = Request::Kind::kFeedback;
    request.feedback.model_set = "hybrid";
    request.feedback.device = 1;
    request.feedback.problem_size = 0.1 + 0.2;  // not exactly 0.3
    request.feedback.seconds = 1.0 / 3.0;
    const Request decoded = Request::decode(request.encode());
    EXPECT_EQ(decoded.feedback.model_set, "hybrid");
    EXPECT_EQ(decoded.feedback.device, 1);
    EXPECT_EQ(decoded.feedback.problem_size, request.feedback.problem_size);
    EXPECT_EQ(decoded.feedback.seconds, request.feedback.seconds);
    EXPECT_EQ(decoded.encode(), request.encode());
}

// ---------------------------------------------------------------------------
// Response round trips
// ---------------------------------------------------------------------------

TEST(ProtocolResponse, ErrorRoundTrips) {
    const Response error =
        Response::make_error(ErrorCode::kInternal, "it\nbroke\rbadly");
    const std::string line = error.encode();
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const Response decoded = Response::decode(line);
    EXPECT_EQ(decoded.kind, Response::Kind::kError);
    EXPECT_EQ(decoded.error, "it broke badly");
}

TEST(ProtocolResponse, PongByeRoundTrip) {
    Response pong;
    pong.kind = Response::Kind::kPong;
    pong.version = kProtocolVersion;
    const Response decoded_pong = Response::decode(pong.encode());
    EXPECT_EQ(decoded_pong.kind, Response::Kind::kPong);
    EXPECT_EQ(decoded_pong.version, kProtocolVersion);

    Response bye;
    bye.kind = Response::Kind::kBye;
    EXPECT_EQ(Response::decode(bye.encode()).kind, Response::Kind::kBye);
}

TEST(ProtocolResponse, LoadedRoundTrips) {
    Response loaded;
    loaded.kind = Response::Kind::kLoaded;
    loaded.loaded.name = "hybrid";
    loaded.loaded.models = 5;
    loaded.loaded.generation = 12;
    loaded.loaded.fingerprint = 0xdeadbeefcafef00dULL;
    const Response decoded = Response::decode(loaded.encode());
    EXPECT_EQ(decoded.kind, Response::Kind::kLoaded);
    EXPECT_EQ(decoded.loaded.name, "hybrid");
    EXPECT_EQ(decoded.loaded.models, 5u);
    EXPECT_EQ(decoded.loaded.generation, 12u);
    EXPECT_EQ(decoded.loaded.fingerprint, 0xdeadbeefcafef00dULL);
}

TEST(ProtocolResponse, ModelsRoundTripsEmptyAndFull) {
    Response empty;
    empty.kind = Response::Kind::kModels;
    const Response decoded_empty = Response::decode(empty.encode());
    EXPECT_EQ(decoded_empty.kind, Response::Kind::kModels);
    EXPECT_TRUE(decoded_empty.sets.empty());

    Response full;
    full.kind = Response::Kind::kModels;
    full.sets = {ModelSetInfo{"cpu", 1, 2}, ModelSetInfo{"hybrid", 9, 4}};
    const Response decoded = Response::decode(full.encode());
    ASSERT_EQ(decoded.sets.size(), 2u);
    EXPECT_EQ(decoded.sets[0].name, "cpu");
    EXPECT_EQ(decoded.sets[1].generation, 9u);
    EXPECT_EQ(decoded.sets[1].models, 4u);
}

TEST(ProtocolResponse, StatsRoundTrips) {
    Response stats;
    stats.kind = Response::Kind::kStats;
    stats.stats.requests = 10;
    stats.stats.q2r_p50_us = 1.5;
    stats.stats.extras["empty"] = "";
    const Response decoded = Response::decode(stats.encode());
    ASSERT_EQ(decoded.stats.extras.size(), 1u);
    EXPECT_EQ(decoded.stats.requests, 10u);
    EXPECT_EQ(decoded.stats.q2r_p50_us, 1.5);
    EXPECT_EQ(decoded.stats.extras.at("empty"), "");
}

TEST(ProtocolResponse, HealthRoundTrips) {
    Response health;
    health.kind = Response::Kind::kHealth;
    health.health.live = true;
    health.health.ready = false;
    health.health.models = 0;
    health.health.faults = 42;
    health.health.degraded = 7;
    const Response decoded = Response::decode(health.encode());
    EXPECT_EQ(decoded.kind, Response::Kind::kHealth);
    EXPECT_TRUE(decoded.health.live);
    EXPECT_FALSE(decoded.health.ready);
    EXPECT_EQ(decoded.health.models, 0u);
    EXPECT_EQ(decoded.health.faults, 42u);
    EXPECT_EQ(decoded.health.degraded, 7u);
}

TEST(ProtocolResponse, PartitionRoundTripsAllFlagCombinations) {
    for (const bool degraded : {false, true}) {
        for (const bool with_rects : {false, true}) {
            Response response;
            response.kind = Response::Kind::kPartition;
            response.partition = sample_partition_reply(degraded, with_rects);
            const std::string line = response.encode();
            const Response decoded = Response::decode(line);
            ASSERT_EQ(decoded.kind, Response::Kind::kPartition) << line;
            const PartitionReply& parsed = decoded.partition;
            EXPECT_EQ(parsed.model, "hybrid");
            EXPECT_EQ(parsed.generation, 7u);
            EXPECT_EQ(parsed.n, 640);
            EXPECT_EQ(parsed.algorithm, Algorithm::kFpm);
            EXPECT_TRUE(parsed.cached);
            EXPECT_FALSE(parsed.coalesced);
            EXPECT_EQ(parsed.degraded, degraded);
            // %.17g framing must round-trip doubles bit-for-bit.
            EXPECT_EQ(parsed.balanced_time, 0.12345678901234567);
            EXPECT_EQ(parsed.makespan, 1e-9);
            EXPECT_EQ(parsed.comm_cost, 4242);
            EXPECT_EQ(parsed.blocks,
                      (std::vector<std::int64_t>{100, 250, 290}));
            EXPECT_EQ(parsed.rects.size(), with_rects ? 3u : 0u);
            // Re-encoding the decode is the identity on the wire.
            Response again;
            again.kind = Response::Kind::kPartition;
            again.partition = parsed;
            EXPECT_EQ(again.encode(), line);
        }
    }
}

// ---------------------------------------------------------------------------
// Truncation, garbage and oversized payloads
// ---------------------------------------------------------------------------

TEST(ProtocolResponse, FeedbackRoundTripsAllFlagCombinations) {
    for (int mask = 0; mask < 8; ++mask) {
        Response response;
        response.kind = Response::Kind::kFeedback;
        response.feedback.model_set = "hybrid";
        response.feedback.device = 3;
        response.feedback.samples = 17;
        response.feedback.reliable = (mask & 1) != 0;
        response.feedback.drift = (mask & 2) != 0;
        response.feedback.republished = (mask & 4) != 0;
        response.feedback.version = 9;
        const std::string line = response.encode();
        EXPECT_EQ(line.rfind("OK FEEDBACK set=hybrid", 0), 0u) << line;
        const Response decoded = Response::decode(line);
        ASSERT_EQ(decoded.kind, Response::Kind::kFeedback) << line;
        EXPECT_EQ(decoded.feedback.model_set, "hybrid");
        EXPECT_EQ(decoded.feedback.device, 3);
        EXPECT_EQ(decoded.feedback.samples, 17u);
        EXPECT_EQ(decoded.feedback.reliable, response.feedback.reliable);
        EXPECT_EQ(decoded.feedback.drift, response.feedback.drift);
        EXPECT_EQ(decoded.feedback.republished, response.feedback.republished);
        EXPECT_EQ(decoded.feedback.version, 9u);
        EXPECT_EQ(decoded.encode(), line);
    }
}

TEST(ProtocolResponse, PreV4ErrorLinesDecodeAsTypedErrors) {
    // What a v3 server answers when it sees FEEDBACK: must decode to
    // kError (so ServeClient can translate it), never throw.
    const Response response =
        Response::decode("ERR unknown command: FEEDBACK");
    EXPECT_EQ(response.kind, Response::Kind::kError);
    EXPECT_EQ(response.error, "unknown command: FEEDBACK");
}

TEST(ProtocolResponse, UnknownErrTokenDecodesAsInternalWithTheWholeBody) {
    // Free text, a future code and bare `ERR`: all decode to kInternal,
    // keep the whole body as the message, and never throw.
    for (const char* body : {"unknown command: FEEDBACK", "busy_later now",
                             "feedback not enabled", ""}) {
        const std::string line = std::string("ERR ") + body;
        Response response;
        ASSERT_NO_THROW(response = Response::decode(line)) << line;
        EXPECT_EQ(response.kind, Response::Kind::kError) << line;
        EXPECT_EQ(response.error_code, ErrorCode::kInternal) << line;
        EXPECT_EQ(response.error, body) << line;
    }
}

TEST(ProtocolFuzz, EveryPrefixOfValidEncodingsIsHandled) {
    std::vector<std::string> lines;
    Request partition;
    partition.kind = Request::Kind::kPartition;
    partition.partition.model_set = "hybrid";
    partition.partition.n = 512;
    lines.push_back(partition.encode());
    Request load;
    load.kind = Request::Kind::kLoad;
    load.name = "a";
    load.path = "/p";
    lines.push_back(load.encode());
    Request feedback;
    feedback.kind = Request::Kind::kFeedback;
    feedback.feedback = {"hybrid", 1, 1024.0, 0.25};
    lines.push_back(feedback.encode());

    for (const std::string& line : lines) {
        for (std::size_t cut = 0; cut < line.size(); ++cut) {
            (void)request_decodes(line.substr(0, cut));  // must not crash
        }
    }

    std::vector<std::string> replies;
    Response part_reply;
    part_reply.kind = Response::Kind::kPartition;
    part_reply.partition = sample_partition_reply(true, true);
    replies.push_back(part_reply.encode());
    Response health;
    health.kind = Response::Kind::kHealth;
    replies.push_back(health.encode());
    Response loaded;
    loaded.kind = Response::Kind::kLoaded;
    loaded.loaded.name = "x";
    replies.push_back(loaded.encode());
    Response models;
    models.kind = Response::Kind::kModels;
    models.sets = {ModelSetInfo{"cpu", 1, 2}};
    replies.push_back(models.encode());
    replies.push_back("OK PONG v3");  // v3 liveness line still decodes
    replies.push_back("OK STATS a=1 b=2");
    Response feedback_reply;
    feedback_reply.kind = Response::Kind::kFeedback;
    feedback_reply.feedback.model_set = "hybrid";
    feedback_reply.feedback.samples = 3;
    feedback_reply.feedback.reliable = true;
    replies.push_back(feedback_reply.encode());

    for (const std::string& line : replies) {
        EXPECT_TRUE(response_decodes(line)) << line;
        for (std::size_t cut = 0; cut < line.size(); ++cut) {
            (void)response_decodes(line.substr(0, cut));  // must not crash
        }
    }
}

TEST(ProtocolFuzz, GarbageNeverEscapesAsNonError) {
    Rng rng(0xfadedfacadeULL);
    const std::string alphabet =
        "OK ERR PARTITION=|,:-0123456789abcdefghijklmnopqrstuvwxyz \t\x01\x7f";
    for (int i = 0; i < 2000; ++i) {
        std::string line;
        const int length = static_cast<int>(rng.uniform_int(0, 120));
        for (int j = 0; j < length; ++j) {
            line += alphabet[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(alphabet.size()) - 1))];
        }
        (void)request_decodes(line);   // fpm::Error or success, never a crash
        (void)response_decodes(line);
    }
}

TEST(ProtocolFuzz, MutatedPartitionRepliesAreHandled) {
    Response response;
    response.kind = Response::Kind::kPartition;
    response.partition = sample_partition_reply(false, true);
    const std::string line = response.encode();

    Rng rng(42);
    for (int i = 0; i < 2000; ++i) {
        std::string mutated = line;
        const std::size_t pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(line.size()) - 1));
        mutated[pos] = static_cast<char>(rng.uniform_int(32, 126));
        (void)response_decodes(mutated);  // must not crash
    }
}

TEST(ProtocolFuzz, OversizedPayloadsRoundTripOrError) {
    // A huge (but well-formed) block list round-trips intact.
    Response big;
    big.kind = Response::Kind::kPartition;
    big.partition = sample_partition_reply(false, false);
    big.partition.blocks.assign(10'000, 1);
    const Response decoded = Response::decode(big.encode());
    EXPECT_EQ(decoded.partition.blocks.size(), 10'000u);

    // Numeric overflow in a reply field is an error, not UB.
    EXPECT_FALSE(response_decodes(
        "OK PARTITION model=m gen=1 n=999999999999999999999999999 algo=fpm "
        "cached=0 coalesced=0 degraded=0 balanced=1 makespan=1 comm=1 "
        "blocks=1 layout=-"));

    // An absurdly long single token must not blow up the tokenizer.
    EXPECT_FALSE(request_decodes(std::string(1 << 16, 'A')));
}

TEST(ProtocolFuzz, WrongArityRepliesAreErrors) {
    const std::vector<std::string> bad = {
        "OK",
        "OK WHAT",
        "OK PONG",
        "OK PONG 3",        // missing the 'v'
        "OK BYE now",
        "OK LOADED name=x models=1 gen=1",              // missing fingerprint
        "OK MODELS count=2 sets=cpu:1:2",               // count mismatch
        "OK HEALTH live=1 ready=1 novalue",             // not key=value
        "OK PARTITION model=m gen=1 n=4 algo=fpm cached=0 coalesced=0 "
        "balanced=1 makespan=1 comm=1 blocks=1 layout=-",  // v2-era: no degraded
        "OK STATS novalue",
        "OK FEEDBACK set=s device=0 samples=1 reliable=0 drift=0 "
        "republished=0",  // missing version
        "OK FEEDBACK set=s device=0 samples=1 reliable=0 drift=0 "
        "republished=0 version=1 extra=1",
        "OK FEEDBACK set=s device=x samples=1 reliable=0 drift=0 "
        "republished=0 version=1",
        // A sign in an unsigned field (strtoll-then-cast used to wrap -1
        // to 2^64 - 1).
        "OK LOADED name=x models=-1 gen=3 fingerprint=0000000000000001",
        "OK LOADED name=x models=1 gen=-3 fingerprint=0000000000000001",
        "OK MODELS count=1 sets=cpu:-1:2",
        "OK MODELS count=1 sets=cpu:1:-2",
        "OK FEEDBACK set=s device=0 samples=-1 reliable=0 drift=0 "
        "republished=0 version=1",
        "OK FEEDBACK set=s device=0 samples=1 reliable=0 drift=0 "
        "republished=0 version=-1",
        "OK PARTITION model=m gen=-1 n=4 algo=fpm cached=0 coalesced=0 "
        "degraded=0 balanced=1 makespan=1 comm=1 blocks=1 layout=-",
        "OK HEALTH live=1 ready=1 models=-2",
        "OK STATS requests=-1",
        // `ERR` is a word of its own, not a prefix of the first one.
        "ERRATA nope",
        "ERRbusy",
    };
    for (const std::string& line : bad) {
        EXPECT_FALSE(response_decodes(line)) << "accepted: " << line;
    }
}

TEST(ProtocolFuzz, BareErrCarriesItsTokenText) {
    // The never-empty message contract of make_error, from the wire.
    const Response bare = Response::decode("ERR");
    EXPECT_EQ(bare.kind, Response::Kind::kError);
    EXPECT_EQ(bare.error_code, ErrorCode::kInternal);
    EXPECT_EQ(bare.error, "internal");
    EXPECT_EQ(bare.encode(), "ERR internal");
}

// ---------------------------------------------------------------------------
// Typed STATS: ServerStats::from_fields
// ---------------------------------------------------------------------------

TEST(ProtocolServerStats, FullStatsReplyParsesWithNoExtras) {
    // Every field the current revision emits must be *known* to the
    // typed parser: a field leaking into extras means make_stats_reply
    // and from_fields drifted apart.
    EngineStats engine;
    engine.requests = 12;
    engine.computed = 7;
    engine.coalesced = 2;
    engine.degraded = 1;
    engine.cache.hits = 3;
    engine.cache.misses = 9;
    engine.cache.evictions = 4;
    engine.cache.size = 5;
    engine.cache_shards = 8;
    const Response encoded = make_stats_reply(engine, 2);
    const Response decoded = Response::decode(encoded.encode());
    ASSERT_EQ(decoded.kind, Response::Kind::kStats);

    const ServerStats& stats = decoded.stats;
    EXPECT_EQ(stats.requests, 12u);
    EXPECT_EQ(stats.computed, 7u);
    EXPECT_EQ(stats.coalesced, 2u);
    EXPECT_EQ(stats.degraded, 1u);
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.misses, 9u);
    EXPECT_EQ(stats.evictions, 4u);
    EXPECT_EQ(stats.cache_size, 5u);
    EXPECT_EQ(stats.cache_shards, 8u);
    EXPECT_EQ(stats.models, 2u);
    EXPECT_TRUE(stats.extras.empty()) << stats.extras.begin()->first;
}

TEST(ProtocolServerStats, UnknownFieldsArePreservedInExtras) {
    const std::vector<StatField> fields = {
        {"requests", "5"},
        {"some_future_field", "42"},
        {"another", "x=y-ish"},
    };
    const ServerStats stats = ServerStats::from_fields(fields);
    EXPECT_EQ(stats.requests, 5u);
    ASSERT_EQ(stats.extras.size(), 2u);
    EXPECT_EQ(stats.extras.at("some_future_field"), "42");
    EXPECT_EQ(stats.extras.at("another"), "x=y-ish");
}

TEST(ProtocolServerStats, MalformedKnownValuesThrow) {
    for (const StatField& bad :
         {StatField{"requests", "abc"}, StatField{"requests", ""},
          StatField{"q2r_p50_us", "fast"}, StatField{"open_conns", "1x"},
          StatField{"reactors", "-"}, StatField{"cache_shards", "four"},
          StatField{"requests", "-1"}, StatField{"repl_lag_frames", "-1"},
          StatField{"store_bytes", "18446744073709551616"}}) {
        EXPECT_THROW((void)ServerStats::from_fields({bad}), fpm::Error)
            << bad.name << "=" << bad.value;
    }
}

TEST(ProtocolServerStats, FullUnsignedRangeRoundTrips) {
    constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(ServerStats::from_fields({{"store_bytes", "18446744073709551615"}})
                  .store_bytes,
              kMax);
    Response response;
    response.kind = Response::Kind::kStats;
    response.stats.store_bytes = kMax;
    EXPECT_EQ(Response::decode(response.encode()).stats.store_bytes, kMax);
}

TEST(ProtocolServerStats, DoublesRenderAsPrintf17gAndRoundTripExactly) {
    Response response;
    response.kind = Response::Kind::kStats;
    for (const double value :
         {0.1, 1e-9, 123.456, 1.0 / 3.0, 5e-324, 1e300, -0.0, 12345678.9}) {
        response.stats.mean_latency_us = value;
        const std::string line = response.encode();
        const std::string key = " mean_latency_us=";
        const auto start = line.find(key) + key.size();
        char expected[64];
        std::snprintf(expected, sizeof expected, "%.17g", value);
        EXPECT_EQ(line.substr(start, line.find(' ', start) - start), expected);
        const double decoded = Response::decode(line).stats.mean_latency_us;
        EXPECT_EQ(std::signbit(decoded), std::signbit(value));
        EXPECT_EQ(decoded, value);
    }
}

TEST(ProtocolFuzz, RandomStatFieldsNeverEscapeAsNonError) {
    // Every row of both views, plus a name neither knows.
    Rng rng(0x57a757a75ULL);
    std::vector<std::string> names = {"mystery"};
    for (const auto& view_names :
         {ServerStats::field_names(), ServerHealth::field_names()}) {
        names.insert(names.end(), view_names.begin(), view_names.end());
    }
    const std::string alphabet = "0123456789.-+eXz ";
    for (int i = 0; i < 2000; ++i) {
        std::vector<StatField> fields;
        const int count = static_cast<int>(rng.uniform_int(0, 6));
        for (int f = 0; f < count; ++f) {
            std::string value;
            const int length = static_cast<int>(rng.uniform_int(0, 10));
            for (int j = 0; j < length; ++j) {
                value += alphabet[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(alphabet.size()) - 1))];
            }
            fields.push_back({names[static_cast<std::size_t>(rng.uniform_int(
                                  0,
                                  static_cast<std::int64_t>(names.size()) -
                                      1))],
                              value});
        }
        try {
            (void)ServerStats::from_fields(fields);
        } catch (const Error&) {
            // malformed known value: typed error, never a crash
        }
        try {
            (void)ServerHealth::from_fields(fields);
        } catch (const Error&) {
        }
    }
}

// ---------------------------------------------------------------------------
// The STATS/HEALTH wire contract, pinned: names, order and value format
// of what a fresh server emits.  Any change here is a wire change.  This
// binary never starts a server, adapter or store, so the process-global
// instruments the replies read are all zero.
// ---------------------------------------------------------------------------

std::vector<std::string> wire_field_names(const std::string& line) {
    std::istringstream tokens(line);
    std::string token;
    tokens >> token >> token;  // OK <TAG>
    std::vector<std::string> names;
    while (tokens >> token) {
        names.push_back(token.substr(0, token.find('=')));
    }
    return names;
}

TEST(ProtocolWireContract, StatsAndHealthLinesArePinned) {
    ReplStatus::global().reset();
    ModelRegistry registry;
    RequestEngine engine(registry, {.workers = 1, .cache_capacity = 4});
    const std::string stats = handle_line(engine, "STATS");
    const std::string health = handle_line(engine, "HEALTH");

    EXPECT_EQ(wire_field_names(stats),
              (std::vector<std::string>{
                  "requests", "computed", "coalesced", "hits", "misses",
                  "evictions", "cache_size", "cache_shards", "models",
                  "degraded", "faults", "mean_latency_us", "max_latency_us",
                  "fpm_count", "fpm_p50_us", "fpm_p95_us", "fpm_p99_us",
                  "cpm_count", "cpm_p50_us", "cpm_p95_us", "cpm_p99_us",
                  "even_count", "even_p50_us", "even_p95_us", "even_p99_us",
                  "reactors", "open_conns", "buffered_bytes", "accepted",
                  "rejected", "idle_timeouts", "send_failures", "pipelined",
                  "pipeline_depth_max", "q2r_p50_us", "q2r_p95_us",
                  "q2r_p99_us", "adapt_samples", "adapt_reliable",
                  "adapt_drift", "adapt_republished", "adapt_model_version",
                  "store_appended", "store_bytes", "store_snapshots",
                  "store_fsync_p50_us", "store_fsync_p95_us",
                  "store_fsync_p99_us", "recovered_generation", "role",
                  "repl_lag_frames", "repl_lag_seconds", "repl_source",
                  "repl_applied_generation"}));
    EXPECT_EQ(wire_field_names(health),
              (std::vector<std::string>{
                  "live", "ready", "models", "faults", "degraded",
                  "recovered_generation", "role", "repl_lag_frames",
                  "repl_lag_seconds", "repl_source",
                  "repl_applied_generation"}));

    EXPECT_EQ(stats,
              "OK STATS requests=0 computed=0 coalesced=0 hits=0 misses=0 "
              "evictions=0 cache_size=0 cache_shards=1 models=0 degraded=0 "
              "faults=0 mean_latency_us=0 max_latency_us=0 fpm_count=0 "
              "fpm_p50_us=0 fpm_p95_us=0 fpm_p99_us=0 cpm_count=0 "
              "cpm_p50_us=0 cpm_p95_us=0 cpm_p99_us=0 even_count=0 "
              "even_p50_us=0 even_p95_us=0 even_p99_us=0 reactors=0 "
              "open_conns=0 buffered_bytes=0 accepted=0 rejected=0 "
              "idle_timeouts=0 send_failures=0 pipelined=0 "
              "pipeline_depth_max=0 q2r_p50_us=0 q2r_p95_us=0 q2r_p99_us=0 "
              "adapt_samples=0 adapt_reliable=0 adapt_drift=0 "
              "adapt_republished=0 adapt_model_version=0 store_appended=0 "
              "store_bytes=0 store_snapshots=0 store_fsync_p50_us=0 "
              "store_fsync_p95_us=0 store_fsync_p99_us=0 "
              "recovered_generation=0 role=primary repl_lag_frames=0 "
              "repl_lag_seconds=0 repl_source=- repl_applied_generation=0");
    EXPECT_EQ(health,
              "OK HEALTH live=1 ready=0 models=0 faults=0 degraded=0 "
              "recovered_generation=0 role=primary repl_lag_frames=0 "
              "repl_lag_seconds=0 repl_source=- repl_applied_generation=0");

    // A replica's letterbox values (record_applied leaves the contact
    // clock alone, so the line stays deterministic).
    ReplStatus::global().set_role("replica");
    ReplStatus::global().set_source("10.0.0.7:9111");
    ReplStatus::global().record_applied(12);
    EXPECT_EQ(handle_line(engine, "HEALTH"),
              "OK HEALTH live=1 ready=0 models=0 faults=0 degraded=0 "
              "recovered_generation=0 role=replica repl_lag_frames=0 "
              "repl_lag_seconds=0 repl_source=10.0.0.7:9111 "
              "repl_applied_generation=12");
    const std::string replica_stats = handle_line(engine, "STATS");
    EXPECT_EQ(replica_stats.substr(replica_stats.find(" role=")),
              " role=replica repl_lag_frames=0 repl_lag_seconds=0 "
              "repl_source=10.0.0.7:9111 repl_applied_generation=12");
    ReplStatus::global().reset();
}

// ---------------------------------------------------------------------------
// Request fingerprints
// ---------------------------------------------------------------------------

TEST(ProtocolFingerprint, StableAndDiscriminating) {
    Request a;
    a.kind = Request::Kind::kPartition;
    a.partition.model_set = "hybrid";
    a.partition.n = 512;
    Request b = a;
    EXPECT_EQ(request_fingerprint(a), request_fingerprint(b));

    b.partition.n = 513;
    EXPECT_NE(request_fingerprint(a), request_fingerprint(b));

    Request ping;
    EXPECT_NE(request_fingerprint(a), request_fingerprint(ping));

    Request feedback;
    feedback.kind = Request::Kind::kFeedback;
    feedback.feedback = {"hybrid", 0, 100.0, 1.0};
    Request feedback2 = feedback;
    EXPECT_EQ(request_fingerprint(feedback), request_fingerprint(feedback2));
    feedback2.feedback.seconds = 2.0;
    EXPECT_NE(request_fingerprint(feedback), request_fingerprint(feedback2));
}

} // namespace
