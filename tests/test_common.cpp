// Unit tests for fpm::common: error handling, RNG, formatting, math and
// the strict text reader.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "fpm/common/error.hpp"
#include "fpm/common/format.hpp"
#include "fpm/common/math.hpp"
#include "fpm/common/rng.hpp"
#include "fpm/common/text.hpp"

namespace fpm {
namespace {

TEST(Error, CheckThrowsWithMessageAndLocation) {
    try {
        FPM_CHECK(1 == 2, "one is not two");
        FAIL() << "expected fpm::Error";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("one is not two"), std::string::npos);
        EXPECT_NE(what.find("1 == 2"), std::string::npos);
        EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
    }
}

TEST(Error, CheckPassesSilently) {
    EXPECT_NO_THROW(FPM_CHECK(2 + 2 == 4, "math works"));
}

TEST(Error, AssertThrowsLogicError) {
    EXPECT_THROW(FPM_ASSERT(false), LogicError);
    EXPECT_NO_THROW(FPM_ASSERT(true));
}

TEST(Rng, DeterministicForSameSeed) {
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a(), b());
    }
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a() == b()) {
            ++same;
        }
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds) {
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntInclusiveBoundsAndCoverage) {
    Rng rng(11);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniform_int(2, 6);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 6);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5U);  // all values hit
    EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
    Rng rng(13);
    double sum = 0.0;
    double sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal();
        sum += v;
        sum2 += v * v;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.03);
    EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, LognormalIsPositive) {
    Rng rng(17);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_GT(rng.lognormal(0.0, 0.5), 0.0);
    }
}

TEST(Rng, SplitProducesIndependentStream) {
    Rng parent(21);
    Rng child = parent.split();
    // Streams should not be identical.
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (parent() == child()) {
            ++same;
        }
    }
    EXPECT_LT(same, 2);
}

TEST(Format, HumanBytes) {
    EXPECT_EQ(human_bytes(512), "512 B");
    EXPECT_EQ(human_bytes(2048), "2.00 KiB");
    EXPECT_EQ(human_bytes(3 * 1024ULL * 1024ULL), "3.00 MiB");
    EXPECT_EQ(human_bytes(2ULL * 1024 * 1024 * 1024), "2.00 GiB");
}

TEST(Format, FixedAndGflopsAndSeconds) {
    EXPECT_EQ(fixed(3.14159, 2), "3.14");
    EXPECT_EQ(fixed(2.0, 0), "2");
    EXPECT_EQ(gflops(951.23), "951.2 GF/s");
    EXPECT_EQ(seconds(0.5e-4), "50.0 us");
    EXPECT_EQ(seconds(0.25), "250.00 ms");
    EXPECT_EQ(seconds(2.5), "2.50 s");
}

TEST(Format, Padding) {
    EXPECT_EQ(pad_left("ab", 5), "   ab");
    EXPECT_EQ(pad_right("ab", 5), "ab   ");
    EXPECT_EQ(pad_left("abcdef", 3), "abcdef");
}

TEST(Math, CeilDivAndRounding) {
    EXPECT_EQ(ceil_div(10, 3), 4);
    EXPECT_EQ(ceil_div(9, 3), 3);
    EXPECT_EQ(round_up(10, 4), 12);
    EXPECT_EQ(round_up(12, 4), 12);
    EXPECT_EQ(round_down(10, 4), 8);
    EXPECT_EQ(round_down(12, 4), 12);
}

TEST(Math, AlmostEqual) {
    EXPECT_TRUE(almost_equal(1.0, 1.0 + 1e-12));
    EXPECT_FALSE(almost_equal(1.0, 1.001));
    EXPECT_TRUE(almost_equal(0.0, 1e-15));
}

TEST(Math, GemmUpdateFlops) {
    // One block of size b costs 2*b^3 flops.
    EXPECT_DOUBLE_EQ(gemm_update_flops(1.0, 10.0), 2000.0);
    EXPECT_DOUBLE_EQ(gemm_update_flops(3.0, 2.0), 48.0);
}

// ---------------------------------------------------------------------------
// fpm/common/text.hpp
// ---------------------------------------------------------------------------

/// One input and what each to_number() reading makes of it (nullopt: no
/// number).  A NaN in `f64` stands for "some NaN".
struct NumberCase {
    std::string_view text;
    std::optional<std::int64_t> i64;
    std::optional<std::uint64_t> u64;
    std::optional<std::uint64_t> hex;
    std::optional<double> f64;
};

TEST(Text, ToNumberTable) {
    constexpr auto no = std::nullopt;
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr std::uint64_t u64_max = std::numeric_limits<std::uint64_t>::max();
    constexpr std::int64_t i64_max = std::numeric_limits<std::int64_t>::max();
    constexpr std::int64_t i64_min = std::numeric_limits<std::int64_t>::min();
    const NumberCase cases[] = {
        // Empty, a lone sign, a '+' and blanks are no numbers at all.
        {"", no, no, no, no},
        {"-", no, no, no, no},
        {"+1", no, no, no, no},
        {" 1", no, no, no, no},
        {"1 ", no, no, no, no},
        {"1 2", no, no, no, no},
        {"0", 0, 0u, 0u, 0.0},
        {"10", 10, 10u, 16u, 10.0},
        {"-1", -1, no, no, -1.0},
        {"-0", 0, no, no, -0.0},  // the double keeps its sign
        // Integer range edges: overflow is rejected, never wrapped.
        {"9223372036854775807", i64_max, 9223372036854775807u, no, 0x1p63},
        {"9223372036854775808", no, 9223372036854775808u, no, 0x1p63},
        {"-9223372036854775808", i64_min, no, no, -0x1p63},
        {"18446744073709551615", no, u64_max, no, 0x1p64},
        {"18446744073709551616", no, no, no, 0x1p64},
        {"ffffffffffffffff", no, no, u64_max, no},
        {"10000000000000000", 10000000000000000, 10000000000000000u, no, 1e16},
        // Hex takes no prefix; hex floats are no doubles.
        {"0x10", no, no, no, no},
        {"0x1p4", no, no, no, no},
        {"1e5", no, no, 0x1e5u, 1e5},
        // Doubles: overflow and underflow to zero are rejected, a
        // subnormal parses exactly, inf and nan are returned.
        {"1.5", no, no, no, 1.5},
        {"1e999", no, no, 0x1e999u, no},
        {"1e-400", no, no, no, no},
        {"5e-324", no, no, no, 4.9406564584124654e-324},
        {"inf", no, no, no, inf},
        {"-inf", no, no, no, -inf},
        {"nan", no, no, no, std::nan("")},
    };
    const auto same = [](std::optional<double> got, std::optional<double> want) {
        if (!got || !want) {
            return got.has_value() == want.has_value();
        }
        return std::isnan(*want) ? std::isnan(*got)
                                 : std::bit_cast<std::uint64_t>(*got) ==
                                       std::bit_cast<std::uint64_t>(*want);
    };
    for (const NumberCase& c : cases) {
        SCOPED_TRACE('"' + std::string(c.text) + '"');
        EXPECT_EQ(text::to_number<std::int64_t>(c.text), c.i64);
        EXPECT_EQ(text::to_number<std::uint64_t>(c.text), c.u64);
        EXPECT_EQ(text::to_number<std::uint64_t>(c.text, 16), c.hex);
        EXPECT_TRUE(same(text::to_number<double>(c.text), c.f64));
    }
}

TEST(Text, SplitBlanksTable) {
    using Tokens = std::vector<std::string_view>;
    const std::pair<std::string_view, Tokens> cases[] = {
        {"", {}},
        {" \t\r\n", {}},
        {"PING", {"PING"}},
        {"  OK  PONG\tv6 \r", {"OK", "PONG", "v6"}},
        {"a=1 b=", {"a=1", "b="}},
    };
    for (const auto& [line, tokens] : cases) {
        EXPECT_EQ(text::split_blanks(line), tokens) << '"' << line << '"';
    }
}

TEST(Text, SplitTable) {
    using Fields = std::vector<std::string_view>;
    const std::pair<std::string_view, Fields> cases[] = {
        {"", {}},
        {"a", {"a"}},
        {"a,b", {"a", "b"}},
        {",", {"", ""}},
        {"a,,b", {"a", "", "b"}},
        {"a,", {"a", ""}},
        {" a ,b", {" a ", "b"}},
    };
    for (const auto& [text_in, fields] : cases) {
        EXPECT_EQ(text::split(text_in, ','), fields) << '"' << text_in << '"';
    }
}

TEST(Text, FieldTable) {
    struct Case {
        std::string_view line;
        std::string_view key;
        std::optional<std::string_view> value;
    };
    const Case cases[] = {
        {"REPL HELLO gen=5", "gen", "5"},
        {"gen=5", "gen", "5"},
        {"xgen=5 gen=6", "gen", "6"},    // whole tokens only
        {"generation=5", "gen", std::nullopt},
        {"a=1 a=2", "a", "1"},           // the first one wins
        {"gen= next=1", "gen", ""},      // present but empty
        {"gen", "gen", std::nullopt},
        {"", "gen", std::nullopt},
        {"k=a=b", "k", "a=b"},
    };
    for (const Case& c : cases) {
        EXPECT_EQ(text::field(c.line, c.key), c.value)
            << '"' << c.line << "\" " << c.key;
    }
}

} // namespace
} // namespace fpm
