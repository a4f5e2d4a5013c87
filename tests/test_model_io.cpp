// Tests for model persistence: CSV round-trips, the versioned `fpmmodel`
// magic header (v2 written, headerless v1 still read, newer rejected),
// ParseError line/column diagnostics, schema validation and failure
// injection with malformed files.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "fpm/core/model_io.hpp"

namespace fpm::core {
namespace {

class ModelIoTest : public ::testing::Test {
protected:
    std::string path_ = "/tmp/fpmpart_model_io_test.csv";

    void TearDown() override { std::remove(path_.c_str()); }

    void write_file(const std::string& content) {
        std::ofstream out(path_);
        out << content;
    }
};

TEST_F(ModelIoTest, RoundTripPreservesEverything) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 5.5}, {100.0, 20.25}, {500.0, 18.125}}, "socket0"),
        SpeedFunction({{8.0, 900.0}, {1206.0, 950.0}}, "gtx680", 1206.0),
        SpeedFunction::constant(42.0, "cpm-device"),
    };
    save_speed_functions_csv(path_, models);
    const auto loaded = load_speed_functions_csv(path_);

    ASSERT_EQ(loaded.size(), models.size());
    for (std::size_t i = 0; i < models.size(); ++i) {
        EXPECT_EQ(loaded[i].name(), models[i].name());
        ASSERT_EQ(loaded[i].points().size(), models[i].points().size());
        for (std::size_t p = 0; p < models[i].points().size(); ++p) {
            EXPECT_DOUBLE_EQ(loaded[i].points()[p].x, models[i].points()[p].x);
            EXPECT_DOUBLE_EQ(loaded[i].points()[p].speed,
                             models[i].points()[p].speed);
        }
        if (std::isfinite(models[i].max_problem())) {
            EXPECT_DOUBLE_EQ(loaded[i].max_problem(), models[i].max_problem());
        } else {
            EXPECT_TRUE(std::isinf(loaded[i].max_problem()));
        }
    }
}

TEST_F(ModelIoTest, RoundTripIsBitExactForAwkwardDoubles) {
    // Values with no short decimal form: writing at default ostream
    // precision (~6 digits) would corrupt them.  Persistence must use
    // max_digits10 so every double survives the CSV round trip exactly.
    const double third = 1.0 / 3.0;
    const double pi = 3.14159265358979323846;
    const double tiny_sum = 0.1 + 0.2;  // 0.30000000000000004
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{third, 123456.789012345678},
                       {pi, 1e17 / 3.0},
                       {97.0 / 7.0, tiny_sum}},
                      "awkward", 1e6 * pi),
    };
    save_speed_functions_csv(path_, models);
    const auto loaded = load_speed_functions_csv(path_);

    ASSERT_EQ(loaded.size(), 1U);
    ASSERT_EQ(loaded[0].points().size(), models[0].points().size());
    for (std::size_t p = 0; p < models[0].points().size(); ++p) {
        // Exact equality, not near-equality: bit-for-bit round trip.
        EXPECT_EQ(loaded[0].points()[p].x, models[0].points()[p].x);
        EXPECT_EQ(loaded[0].points()[p].speed, models[0].points()[p].speed);
    }
    EXPECT_EQ(loaded[0].max_problem(), models[0].max_problem());
}

TEST_F(ModelIoTest, LoadedModelInterpolatesIdentically) {
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 10.0}, {40.0, 25.0}, {100.0, 40.0}}, "ramp"),
    };
    save_speed_functions_csv(path_, models);
    const auto loaded = load_speed_functions_csv(path_);
    for (double x = 5.0; x <= 150.0; x += 7.0) {
        EXPECT_DOUBLE_EQ(loaded[0].speed(x), models[0].speed(x)) << x;
    }
}

TEST_F(ModelIoTest, SaveValidation) {
    EXPECT_THROW(save_speed_functions_csv(path_, {}), fpm::Error);
    EXPECT_THROW(save_speed_functions_csv(
                     "/nonexistent-dir/m.csv",
                     {SpeedFunction::constant(1.0, "a")}),
                 fpm::Error);
    EXPECT_THROW(
        save_speed_functions_csv(path_, {SpeedFunction::constant(1.0, "a,b")}),
        fpm::Error);
}

TEST_F(ModelIoTest, MissingFileThrows) {
    EXPECT_THROW(load_speed_functions_csv("/tmp/does-not-exist-fpmpart.csv"),
                 fpm::Error);
}

TEST_F(ModelIoTest, BadHeaderThrows) {
    write_file("nope,nope\n");
    EXPECT_THROW(load_speed_functions_csv(path_), fpm::Error);
}

TEST_F(ModelIoTest, MalformedRowThrows) {
    write_file("name,max_problem,x,speed\ndev,inf,10\n");
    EXPECT_THROW(load_speed_functions_csv(path_), fpm::Error);
    write_file("name,max_problem,x,speed\ndev,inf,abc,5\n");
    EXPECT_THROW(load_speed_functions_csv(path_), fpm::Error);
    // A number is the whole cell: no blanks, no '+', no hex, no extra cell.
    for (const char* row : {"dev,inf, 10,5", "dev,inf,10 ,5", "dev,inf,+10,5",
                            "dev,inf,0x10,5", "dev,inf,10,5,"}) {
        write_file(std::string("name,max_problem,x,speed\n") + row + "\n");
        EXPECT_THROW((void)load_speed_functions_csv(path_), ParseError) << row;
    }
    write_file("fpmmodel v+2\nname,max_problem,x,speed\ndev,inf,10,5\n");
    EXPECT_THROW((void)load_speed_functions_csv(path_), ParseError);
}

TEST_F(ModelIoTest, EmptyBodyThrows) {
    write_file("name,max_problem,x,speed\n");
    EXPECT_THROW(load_speed_functions_csv(path_), fpm::Error);
}

TEST_F(ModelIoTest, InvalidPointsRejectedByModelInvariants) {
    // Negative speed violates the SpeedFunction contract on load.
    write_file("name,max_problem,x,speed\ndev,inf,10,-5\n");
    EXPECT_THROW(load_speed_functions_csv(path_), fpm::Error);
    // Duplicate x likewise.
    write_file("name,max_problem,x,speed\ndev,inf,10,5\ndev,inf,10,6\n");
    EXPECT_THROW(load_speed_functions_csv(path_), fpm::Error);
    // So do non-finite points: an infinite speed or an x that overflows a
    // double would load and then fail every partition of the set.
    for (const char* row : {"dev,inf,10,inf", "dev,inf,1e999,5", "dev,inf,10,nan",
                            "dev,inf,inf,5", "dev,inf,10,1e-400"}) {
        write_file(std::string("name,max_problem,x,speed\n") + row + "\n");
        EXPECT_THROW((void)load_speed_functions_csv(path_), ParseError) << row;
    }
}

TEST_F(ModelIoTest, BlankLinesIgnored) {
    write_file("name,max_problem,x,speed\ndev,inf,10,5\n\ndev,inf,20,6\n");
    const auto loaded = load_speed_functions_csv(path_);
    ASSERT_EQ(loaded.size(), 1U);
    EXPECT_EQ(loaded[0].points().size(), 2U);
}

TEST_F(ModelIoTest, WritesTheV2MagicHeader) {
    save_speed_functions_csv(path_, {SpeedFunction::constant(1.0, "dev")});
    std::ifstream in(path_);
    std::string first_line;
    ASSERT_TRUE(std::getline(in, first_line));
    EXPECT_EQ(first_line, std::string(kModelFileMagic) + " v" +
                              std::to_string(kModelFormatVersion));
}

TEST_F(ModelIoTest, HeaderlessV1FilesStillLoad) {
    write_file("name,max_problem,x,speed\ndev,inf,10,5\ndev,inf,20,6\n");
    const auto loaded = load_speed_functions_csv(path_);
    ASSERT_EQ(loaded.size(), 1U);
    EXPECT_EQ(loaded[0].points().size(), 2U);
}

TEST_F(ModelIoTest, NewerFormatVersionsAreRejectedNotMisparsed) {
    write_file("fpmmodel v" + std::to_string(kModelFormatVersion + 1) +
               "\nname,max_problem,x,speed\ndev,inf,10,5\n");
    try {
        (void)load_speed_functions_csv(path_);
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 1U);
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
}

TEST_F(ModelIoTest, ParseErrorPinpointsLineAndColumn) {
    // Row 3 of the file (header, good row, bad row); the non-numeric
    // speed sits in CSV column 4.
    write_file("fpmmodel v2\nname,max_problem,x,speed\ndev,inf,10,5\n"
               "dev,inf,20,bogus\n");
    try {
        (void)load_speed_functions_csv(path_);
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.origin(), path_);
        EXPECT_EQ(e.line(), 4U);
        EXPECT_EQ(e.column(), 4U);
        EXPECT_NE(std::string(e.what()).find(path_), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("4"), std::string::npos);
    }
}

TEST_F(ModelIoTest, StreamEntryPointsRoundTripAndLabelTheOrigin) {
    // The durable store embeds model text in WAL records through the
    // stream API; the caller-supplied origin labels its diagnostics.
    const std::vector<SpeedFunction> models = {
        SpeedFunction({{10.0, 5.5}, {100.0, 20.25}}, "socket0"),
        SpeedFunction({{8.0, 900.0}, {1206.0, 950.0}}, "gtx680", 1206.0),
    };
    std::ostringstream out;
    write_speed_functions(out, models);

    std::istringstream in(out.str());
    const auto loaded = read_speed_functions(in, "wal record");
    ASSERT_EQ(loaded.size(), 2U);
    EXPECT_EQ(loaded[0].name(), "socket0");
    EXPECT_EQ(loaded[1].name(), "gtx680");

    std::istringstream bad("fpmmodel v2\nname,max_problem,x,speed\nd,inf,1\n");
    try {
        (void)read_speed_functions(bad, "wal record");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.origin(), "wal record");
        EXPECT_NE(std::string(e.what()).find("wal record"),
                  std::string::npos);
    }
}

TEST_F(ModelIoTest, ScaledCopy) {
    const SpeedFunction fn({{10.0, 4.0}, {20.0, 8.0}}, "dev", 30.0);
    const SpeedFunction doubled = fn.scaled(2.0);
    EXPECT_DOUBLE_EQ(doubled.speed(10.0), 8.0);
    EXPECT_DOUBLE_EQ(doubled.speed(20.0), 16.0);
    EXPECT_DOUBLE_EQ(doubled.max_problem(), 30.0);
    EXPECT_EQ(doubled.name(), "dev");
    EXPECT_THROW(fn.scaled(0.0), fpm::Error);
}

} // namespace
} // namespace fpm::core
