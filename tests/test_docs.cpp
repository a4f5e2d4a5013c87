// Docs-consistency checks: the runbook, the protocol spec, the
// adaptation guide and the benchmarking guide are kept honest against
// the code they describe.  Every ServeConfig knob and every STATS field
// must be documented in docs/operations.md, every protocol verb and
// every HEALTH field must appear in docs/protocol.md (the field names
// come from the STATS/HEALTH field tables), every AdaptConfig knob in
// docs/adaptation.md, and every fpmpart_bench flag plus every
// BENCH_loadgen.json field in docs/benchmarking.md.  The source tree's
// location is baked in via FPMPART_SOURCE_DIR at configure time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "fpm/loadgen/report.hpp"
#include "fpm/serve/error.hpp"
#include "fpm/serve/protocol.hpp"

namespace {

std::string read_file(const std::string& relative) {
    const std::string path = std::string(FPMPART_SOURCE_DIR) + "/" + relative;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing file: " << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

bool identifier(const std::string& token) {
    if (token.empty() || std::isdigit(static_cast<unsigned char>(token[0]))) {
        return false;
    }
    for (const char c : token) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
            return false;
        }
    }
    return true;
}

/// Extracts member names from a plain aggregate header: any line of the
/// form `<type> <name> = <default>;` (modulo trailing comments) yields
/// <name>.  Deliberately simple — it only has to keep up with
/// serve_config.hpp, and a false negative fails loudly below.
std::vector<std::string> struct_fields(const std::string& source) {
    std::vector<std::string> fields;
    std::istringstream lines(source);
    std::string line;
    while (std::getline(lines, line)) {
        const auto first = line.find_first_not_of(" \t");
        if (first == std::string::npos) {
            continue;
        }
        const char lead = line[first];
        if (lead == '/' || lead == '#' || lead == '}' || lead == '{') {
            continue;
        }
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            continue;
        }
        // Last whitespace-separated token before the '='.
        std::istringstream head(line.substr(0, eq));
        std::string token;
        std::string name;
        while (head >> token) {
            name = token;
        }
        if (identifier(name)) {
            fields.push_back(name);
        }
    }
    return fields;
}

/// Every distinct `"--flag"` string literal in a tool source — the
/// flags the tool binds (plus the ones its error messages name, which
/// are the same set).
std::vector<std::string> flag_literals(const std::string& source) {
    std::vector<std::string> flags;
    for (auto pos = source.find("\"--"); pos != std::string::npos;
         pos = source.find("\"--", pos + 1)) {
        auto end = pos + 1;
        while (end < source.size() &&
               (std::isalnum(static_cast<unsigned char>(source[end])) ||
                source[end] == '-')) {
            ++end;
        }
        const std::string flag = source.substr(pos + 1, end - pos - 1);
        if (flag.size() > 2 &&
            std::find(flags.begin(), flags.end(), flag) == flags.end()) {
            flags.push_back(flag);
        }
    }
    return flags;
}

/// Every distinct `"key":` object key of a JSON document.
std::vector<std::string> json_keys(const std::string& json) {
    std::vector<std::string> keys;
    std::size_t pos = 0;
    while ((pos = json.find('"', pos)) != std::string::npos) {
        const auto close = json.find('"', pos + 1);
        if (close == std::string::npos) {
            break;
        }
        if (close + 1 < json.size() && json[close + 1] == ':') {
            const std::string key = json.substr(pos + 1, close - pos - 1);
            if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
                keys.push_back(key);
            }
        }
        pos = close + 1;
    }
    return keys;
}

TEST(DocsConsistency, OperationsRunbookCoversEveryServeConfigKnob) {
    const std::string header =
        read_file("src/serve/include/fpm/serve/serve_config.hpp");
    const std::string runbook = read_file("docs/operations.md");
    const std::vector<std::string> fields = struct_fields(header);
    // Guard the extractor itself: ServeConfig has had >= 13 knobs since
    // the retry block landed.  If this trips, the heuristic regressed.
    EXPECT_GE(fields.size(), 13u);
    for (const std::string& field : fields) {
        EXPECT_NE(runbook.find(field), std::string::npos)
            << "ServeConfig::" << field << " is not documented in "
            << "docs/operations.md";
    }
    // The reactor pool's operator surface: the flags and the load-balance
    // mechanism must be named, and the cache_shards engine knob (which
    // lives in RequestEngine::Options, outside ServeConfig) too.
    for (const char* token :
         {"--reactors", "--cache-shards", "SO_REUSEPORT", "cache_shards"}) {
        EXPECT_NE(runbook.find(token), std::string::npos)
            << "'" << token << "' is not documented in docs/operations.md";
    }
}

TEST(DocsConsistency, OperationsRunbookCoversEveryStatsField) {
    const std::string runbook = read_file("docs/operations.md");
    const auto& names = fpm::serve::ServerStats::field_names();
    ASSERT_FALSE(names.empty());
    for (const std::string_view name : names) {
        EXPECT_NE(runbook.find(name), std::string::npos)
            << "STATS field '" << name << "' is not documented in "
            << "docs/operations.md";
    }
}

TEST(DocsConsistency, OperationsRunbookCoversEnvironmentVariables) {
    const std::string runbook = read_file("docs/operations.md");
    for (const char* name : {"FPMPART_FAULTS", "FPMPART_TRACE"}) {
        EXPECT_NE(runbook.find(name), std::string::npos)
            << name << " is not documented in docs/operations.md";
    }
    // The well-known injection points must all be listed by name.
    for (const char* point :
         {"serve.accept", "serve.recv", "serve.send", "serve.cache",
          "serve.compute", "serve.reload", "rt.dispatch", "adapt.ingest",
          "adapt.refine", "adapt.publish", "store.append", "store.fsync",
          "store.snapshot", "repl.handshake", "repl.send", "repl.apply"}) {
        EXPECT_NE(runbook.find(point), std::string::npos)
            << "fault point '" << point
            << "' is not documented in docs/operations.md";
    }
}

TEST(DocsConsistency, ProtocolSpecTabulatesEveryErrorToken) {
    // The wire error tokens are a closed, append-only compatibility
    // surface: every ErrorCode's token must appear in the protocol
    // spec's taxonomy table.  Walk the enum until error_token() reports
    // a code the build does not know (the enum is dense from 0).
    const std::string spec = read_file("docs/protocol.md");
    const std::vector<fpm::serve::ErrorCode> codes = {
        fpm::serve::ErrorCode::kInternal,
        fpm::serve::ErrorCode::kBusy,
        fpm::serve::ErrorCode::kUnsupportedVerb,
        fpm::serve::ErrorCode::kFeedbackDisabled,
        fpm::serve::ErrorCode::kBadRequest,
        fpm::serve::ErrorCode::kStoreUnavailable,
        fpm::serve::ErrorCode::kReadOnly,
    };
    for (const auto code : codes) {
        const std::string token(fpm::serve::error_token(code));
        ASSERT_FALSE(token.empty());
        EXPECT_NE(spec.find("`" + token + "`"), std::string::npos)
            << "error token '" << token
            << "' is missing from the docs/protocol.md taxonomy table";
    }
    // The grammar itself and the open HEALTH shape.
    for (const char* text :
         {"ERR <token> [<message>]", "ServerHealth", "ErrorCode",
          "recovered_generation"}) {
        EXPECT_NE(spec.find(text), std::string::npos)
            << "'" << text << "' is not documented in docs/protocol.md";
    }
}

TEST(DocsConsistency, OperationsRunbookCoversTheDurableStore) {
    const std::string runbook = read_file("docs/operations.md");
    for (const char* token :
         {"--store", "--store-fsync", "--store-snapshot-every",
          "fpm::store", "wal-", "snapshot-", "fpmmodel v2",
          "store_unavailable", "kill -9", "ci/sanitize.sh asan store",
          "recovered generation"}) {
        EXPECT_NE(runbook.find(token), std::string::npos)
            << "'" << token << "' is not documented in docs/operations.md";
    }
}

TEST(DocsConsistency, ProtocolSpecCoversEveryVerbAndHealthField) {
    const std::string spec = read_file("docs/protocol.md");
    for (const char* verb :
         {"PING", "LOAD", "PARTITION", "FEEDBACK", "MODELS", "STATS",
          "HEALTH", "QUIT"}) {
        EXPECT_NE(spec.find(verb), std::string::npos)
            << "verb " << verb << " is not documented in docs/protocol.md";
    }
    for (const char* token :
         {"OK PONG", "OK HEALTH", "OK PARTITION", "OK FEEDBACK", "ERR ",
          "degraded=", "coalesced=",
          "reliable=", "republished=", "feedback not enabled",
          "unknown command", "cache_shards=", "reactors=",
          "ServerStats"}) {
        EXPECT_NE(spec.find(token), std::string::npos)
            << "token '" << token << "' is not documented in docs/protocol.md";
    }
    // Every HEALTH row, as it appears on the wire.
    for (const std::string_view name : fpm::serve::ServerHealth::field_names()) {
        EXPECT_NE(spec.find(std::string(name) + "="), std::string::npos)
            << "HEALTH field '" << name << "=' is not documented in "
            << "docs/protocol.md";
    }
}

TEST(DocsConsistency, ProtocolSpecCoversTheReplVerbs) {
    // v6: the replication sub-protocol and the read_only rejection are
    // part of the wire contract and must be specified.
    const std::string spec = read_file("docs/protocol.md");
    for (const char* token :
         {"REPL HELLO gen=", "OK REPL committed=", "REPL FRAME bytes=",
          "REPL PING committed=", "ascending generation order",
          "`read_only`", "docs/replication.md"}) {
        EXPECT_NE(spec.find(token), std::string::npos)
            << "'" << token << "' is not documented in docs/protocol.md";
    }
}

TEST(DocsConsistency, ReplicationGuideCoversTheSubsystem) {
    const std::string guide = read_file("docs/replication.md");
    // Topology + handshake + lag semantics + the failover runbook: the
    // operator-facing surface of fpm::repl, kept honest by name.
    for (const char* token :
         {"REPL HELLO gen=", "OK REPL committed=", "REPL FRAME",
          "REPL PING", "ascending generation order", "records_after",
          "--repl-listen", "--replica-of", "read_only",
          "repl_lag_frames", "repl_lag_seconds", "repl_source",
          "repl_applied_generation", "role=replica", "failover",
          "promotion", "repl.handshake", "repl.send", "repl.apply",
          "ci/sanitize.sh asan repl", "heartbeat", "ReplicationLog",
          "Replicator", "thread-per-follower"}) {
        EXPECT_NE(guide.find(token), std::string::npos)
            << "'" << token << "' is not documented in docs/replication.md";
    }
    // The runbook cross-links the replication guide and names the new
    // serving flags so an operator lands in the right place.
    const std::string runbook = read_file("docs/operations.md");
    for (const char* token :
         {"docs/replication.md", "--replica-of", "--repl-listen",
          "ci/sanitize.sh asan repl"}) {
        EXPECT_NE(runbook.find(token), std::string::npos)
            << "'" << token << "' is not documented in docs/operations.md";
    }
}

TEST(DocsConsistency, AdaptationGuideCoversEveryAdaptConfigKnob) {
    const std::string header =
        read_file("src/adapt/include/fpm/adapt/adapt_config.hpp");
    const std::string guide = read_file("docs/adaptation.md");
    const std::vector<std::string> fields = struct_fields(header);
    // Guard the extractor: AdaptConfig carries >= 10 knobs.  If this
    // trips, the heuristic (or the header's plain-aggregate shape)
    // regressed.
    EXPECT_GE(fields.size(), 10u);
    for (const std::string& field : fields) {
        EXPECT_NE(guide.find(field), std::string::npos)
            << "AdaptConfig::" << field << " is not documented in "
            << "docs/adaptation.md";
    }
    // The feedback grammar, drift machinery and runbook sections.
    for (const char* token :
         {"FEEDBACK", "CUSUM", "adapt.ingest", "adapt.refine",
          "adapt.publish", "--adapt", "fpmpart_feedback"}) {
        EXPECT_NE(guide.find(token), std::string::npos)
            << "docs/adaptation.md does not mention '" << token << "'";
    }
}

TEST(DocsConsistency, AdaptStatsFieldsAreDocumented) {
    // The adapt_* STATS fields live in both the runbook (operator view)
    // and the adaptation guide (semantics).
    const std::string runbook = read_file("docs/operations.md");
    const std::string guide = read_file("docs/adaptation.md");
    std::size_t adapt_fields = 0;
    for (const std::string_view field :
         fpm::serve::ServerStats::field_names()) {
        if (!field.starts_with("adapt_")) {
            continue;
        }
        ++adapt_fields;
        EXPECT_NE(runbook.find(field), std::string::npos)
            << "STATS field '" << field << "' missing from operations.md";
        EXPECT_NE(guide.find(field), std::string::npos)
            << "STATS field '" << field << "' missing from adaptation.md";
    }
    EXPECT_GE(adapt_fields, 5u);
}

TEST(DocsConsistency, BenchmarkingGuideCoversEveryBenchFlag) {
    const std::string tool = read_file("tools/fpmpart_bench.cpp");
    const std::string guide = read_file("docs/benchmarking.md");
    const std::vector<std::string> flags = flag_literals(tool);
    // Guard the extractor: fpmpart_bench binds > 20 flags.  If this
    // trips, the heuristic (or the tool) regressed.
    EXPECT_GE(flags.size(), 15u);
    for (const std::string& flag : flags) {
        EXPECT_NE(guide.find("`" + flag), std::string::npos)
            << "fpmpart_bench flag '" << flag
            << "' is not documented in docs/benchmarking.md";
    }
    // --trace is bound through FlagTable::trace(), so it never appears
    // as a literal in the tool source; the guide must still list it.
    EXPECT_NE(guide.find("`--trace"), std::string::npos);
}

TEST(DocsConsistency, BenchmarkingGuideCoversEveryReportField) {
    // Render a default Report: to_json() always emits every field, so
    // its keys are the full BENCH_loadgen.json surface.
    const std::string guide = read_file("docs/benchmarking.md");
    const std::vector<std::string> keys =
        json_keys(fpm::loadgen::Report{}.to_json());
    // Guard the extractor: the schema carries > 25 distinct keys
    // (top level + latency digest + the four verb slices).
    EXPECT_GE(keys.size(), 25u);
    for (const std::string& key : keys) {
        EXPECT_NE(guide.find("`" + key + "`"), std::string::npos)
            << "BENCH_loadgen.json field '" << key
            << "' is not documented in docs/benchmarking.md";
    }
    // The methodology the numbers depend on must be spelled out, and
    // the gate workflow must be findable from the guide.
    for (const char* token :
         {"fpmpart-loadgen-v1", "coordinated omission",
          "scheduled == sent + dropped", "ci/perf_gate.sh",
          "BENCHMARK.json"}) {
        EXPECT_NE(guide.find(token), std::string::npos)
            << "'" << token << "' is not documented in docs/benchmarking.md";
    }
}

TEST(DocsConsistency, ReadmeLinksTheDocs) {
    const std::string readme = read_file("README.md");
    EXPECT_NE(readme.find("docs/protocol.md"), std::string::npos);
    EXPECT_NE(readme.find("docs/operations.md"), std::string::npos);
    EXPECT_NE(readme.find("docs/adaptation.md"), std::string::npos);
    EXPECT_NE(readme.find("docs/benchmarking.md"), std::string::npos);
    EXPECT_NE(readme.find("docs/replication.md"), std::string::npos);
}

TEST(DocsConsistency, DesignDocDescribesTheCurrentArchitecture) {
    const std::string design = read_file("DESIGN.md");
    for (const char* token :
         {"fpm::fault", "epoll", "reactor", "degraded", "RequestEngine",
          "fpm::adapt", "FEEDBACK", "SO_REUSEPORT", "num_reactors",
          "cache_shards", "fpm::store", "write-ahead", "put observer",
          "ErrorCode"}) {
        EXPECT_NE(design.find(token), std::string::npos)
            << "DESIGN.md does not mention '" << token << "'";
    }
    // The PR-1 thread-per-connection server is gone; the design doc must
    // not still describe it.
    EXPECT_EQ(design.find("thread-per-connection"), std::string::npos)
        << "DESIGN.md still describes the retired thread-per-connection "
        << "server";
    // The reactor pool is described as a *single* shared-nothing loop per
    // reactor, never as the old one-loop-total architecture.
    EXPECT_EQ(design.find("is a **single-threaded epoll reactor**"),
              std::string::npos)
        << "DESIGN.md still describes the retired one-reactor server";
}

} // namespace
