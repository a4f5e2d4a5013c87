// Tests for the FPM core representation: piecewise-linear speed functions
// and their monotone execution-time envelopes.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "fpm/core/speed_function.hpp"

namespace fpm::core {
namespace {

SpeedFunction ramp_function() {
    // Speed grows 10 -> 40 between x = 10 and x = 100.
    return SpeedFunction({{10.0, 10.0}, {40.0, 25.0}, {100.0, 40.0}}, "ramp");
}

TEST(SpeedFunction, InterpolatesExactlyAtKnots) {
    const SpeedFunction fn = ramp_function();
    EXPECT_DOUBLE_EQ(fn.speed(10.0), 10.0);
    EXPECT_DOUBLE_EQ(fn.speed(40.0), 25.0);
    EXPECT_DOUBLE_EQ(fn.speed(100.0), 40.0);
}

TEST(SpeedFunction, LinearBetweenKnots) {
    const SpeedFunction fn = ramp_function();
    EXPECT_DOUBLE_EQ(fn.speed(25.0), 17.5);  // halfway 10->40
    EXPECT_DOUBLE_EQ(fn.speed(70.0), 32.5);  // halfway 40->100
}

TEST(SpeedFunction, ClampedExtrapolation) {
    const SpeedFunction fn = ramp_function();
    EXPECT_DOUBLE_EQ(fn.speed(1.0), 10.0);
    EXPECT_DOUBLE_EQ(fn.speed(1000.0), 40.0);
}

TEST(SpeedFunction, TimeDefinition) {
    const SpeedFunction fn = ramp_function();
    EXPECT_DOUBLE_EQ(fn.time(0.0), 0.0);
    EXPECT_DOUBLE_EQ(fn.time(40.0), 40.0 / 25.0);
    EXPECT_DOUBLE_EQ(fn.time(200.0), 200.0 / 40.0);
}

TEST(SpeedFunction, BoundedDeviceHasInfiniteTimeBeyondMax) {
    const SpeedFunction fn({{10.0, 10.0}, {100.0, 20.0}}, "gpu", 150.0);
    EXPECT_TRUE(std::isfinite(fn.time(150.0)));
    EXPECT_TRUE(std::isinf(fn.time(151.0)));
    EXPECT_THROW(fn.speed(151.0), fpm::Error);
}

TEST(SpeedFunction, PointsSortedOnConstruction) {
    const SpeedFunction fn({{100.0, 40.0}, {10.0, 10.0}}, "unsorted");
    EXPECT_DOUBLE_EQ(fn.points().front().x, 10.0);
    EXPECT_DOUBLE_EQ(fn.points().back().x, 100.0);
}

TEST(SpeedFunction, Validation) {
    EXPECT_THROW(SpeedFunction(std::vector<SpeedPoint>{}), fpm::Error);
    EXPECT_THROW(SpeedFunction({{0.0, 5.0}}), fpm::Error);     // x must be > 0
    EXPECT_THROW(SpeedFunction({{1.0, 0.0}}), fpm::Error);     // speed > 0
    EXPECT_THROW(SpeedFunction({{1.0, 5.0}, {1.0, 6.0}}), fpm::Error);  // dup x
    // Points must be finite; an unbounded max_problem stays allowed.  The
    // one constructor check covers LOAD, WAL replay, REPL frames,
    // spliced() and scaled().
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(SpeedFunction({{10.0, inf}}), fpm::Error);
    EXPECT_THROW(SpeedFunction({{inf, 5.0}}), fpm::Error);
    EXPECT_THROW(SpeedFunction({{10.0, 5.0}, {std::nan(""), 6.0}}), fpm::Error);
    EXPECT_THROW(SpeedFunction({{10.0, std::nan("")}}), fpm::Error);
    EXPECT_THROW(SpeedFunction::constant(inf), fpm::Error);
    EXPECT_THROW((void)ramp_function().scaled(1e308), fpm::Error);
    EXPECT_THROW((void)ramp_function().spliced(50.0, inf), fpm::Error);
    EXPECT_TRUE(std::isinf(SpeedFunction({{10.0, 5.0}}, "cpu", inf).max_problem()));
    const SpeedFunction fn = ramp_function();
    EXPECT_THROW(fn.speed(0.0), fpm::Error);
    EXPECT_THROW(fn.time(-1.0), fpm::Error);
}

TEST(SpeedFunction, ConstantFactory) {
    const SpeedFunction fn = SpeedFunction::constant(12.0, "cpm");
    EXPECT_DOUBLE_EQ(fn.speed(1.0), 12.0);
    EXPECT_DOUBLE_EQ(fn.speed(1e6), 12.0);
    EXPECT_DOUBLE_EQ(fn.time(24.0), 2.0);
    EXPECT_THROW(SpeedFunction::constant(0.0), fpm::Error);
}

TEST(SpeedFunction, GflopsConversion) {
    const SpeedFunction fn = SpeedFunction::constant(2.0);  // 2 blocks/s
    // 2 blocks/s * 2*b^3 flops per block, b = 10 -> 4000 flops/s.
    EXPECT_DOUBLE_EQ(fn.gflops(5.0, 10), 4000.0 / 1e9);
}

TEST(MonotoneTime, MatchesTimeForWellBehavedFunctions) {
    const SpeedFunction fn = ramp_function();
    const MonotoneTime envelope(fn);
    for (double x = 1.0; x <= 100.0; x += 7.3) {
        EXPECT_NEAR(envelope.time(x), fn.time(x), 0.02 * fn.time(x)) << x;
    }
}

TEST(MonotoneTime, InvertRoundTrip) {
    const SpeedFunction fn = ramp_function();
    const MonotoneTime envelope(fn);
    for (double x = 2.0; x <= 100.0; x += 4.9) {
        const double t = envelope.time(x);
        const double back = envelope.invert(t);
        EXPECT_NEAR(back, x, 0.25) << "x=" << x;
    }
}

TEST(MonotoneTime, InvertIsMonotone) {
    const SpeedFunction fn = ramp_function();
    const MonotoneTime envelope(fn);
    double previous = 0.0;
    for (double t = 0.0; t <= envelope.max_time(); t += envelope.max_time() / 37) {
        const double x = envelope.invert(t);
        EXPECT_GE(x, previous - 1e-9);
        previous = x;
    }
}

TEST(MonotoneTime, EnvelopeFlattensNonMonotoneTime) {
    // A super-linear speed cliff makes raw time non-monotone: speed drops
    // hard at x = 50 (e.g. the GPU memory limit), then the device is so
    // slow that t(60) > t(50), but right before the drop, t briefly
    // decreases going backwards.  The envelope must be non-decreasing.
    const SpeedFunction fn({{10.0, 10.0}, {49.0, 50.0}, {51.0, 5.0}}, "cliff");
    const MonotoneTime envelope(fn);
    double previous = 0.0;
    for (double x = 0.0; x <= 51.0; x += 0.5) {
        const double t = envelope.time(x);
        EXPECT_GE(t, previous - 1e-12) << "x=" << x;
        previous = t;
    }
}

TEST(MonotoneTime, InvertHonoursCapacityBound) {
    const SpeedFunction fn({{10.0, 10.0}, {100.0, 20.0}}, "gpu", 120.0);
    const MonotoneTime envelope(fn);
    EXPECT_DOUBLE_EQ(envelope.max_problem(), 120.0);
    // Beyond the max feasible time, the device saturates at its capacity.
    EXPECT_DOUBLE_EQ(envelope.invert(1e9), 120.0);
    EXPECT_DOUBLE_EQ(envelope.invert(0.0), 0.0);
}

TEST(MonotoneTime, UnboundedFunctionExtendsPastLastKnot) {
    const SpeedFunction fn = ramp_function();  // unbounded
    const MonotoneTime envelope(fn);
    EXPECT_TRUE(std::isinf(envelope.max_problem()));
    // Beyond the measured range, time extrapolates at the clamped speed
    // (40 blocks/s), so x = 200 takes 5 s and invert(5) = 200.
    EXPECT_NEAR(envelope.time(200.0), 5.0, 1e-9);
    EXPECT_NEAR(envelope.invert(5.0), 200.0, 1e-9);
}

} // namespace
} // namespace fpm::core
