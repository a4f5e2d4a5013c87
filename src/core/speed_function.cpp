#include "fpm/core/speed_function.hpp"

#include <algorithm>
#include <cmath>

#include "fpm/common/math.hpp"

namespace fpm::core {

SpeedFunction::SpeedFunction(std::vector<SpeedPoint> points, std::string name,
                             double max_problem)
    : points_(std::move(points)), name_(std::move(name)), max_problem_(max_problem) {
    FPM_CHECK(!points_.empty(), "speed function needs at least one point");
    FPM_CHECK(max_problem_ > 0.0, "max_problem must be positive");
    // Checked before the sort: a NaN x breaks its ordering.
    for (const SpeedPoint& point : points_) {
        FPM_CHECK(std::isfinite(point.x) && std::isfinite(point.speed),
                  "speed points need finite x and speed");
    }
    std::sort(points_.begin(), points_.end(),
              [](const SpeedPoint& a, const SpeedPoint& b) { return a.x < b.x; });
    for (std::size_t i = 0; i < points_.size(); ++i) {
        FPM_CHECK(points_[i].x > 0.0, "speed points need positive x");
        FPM_CHECK(points_[i].speed > 0.0, "speed points need positive speed");
        if (i > 0) {
            FPM_CHECK(points_[i].x > points_[i - 1].x,
                      "speed points need strictly increasing x");
        }
    }
}

SpeedFunction SpeedFunction::constant(double speed, std::string name,
                                      double max_problem) {
    FPM_CHECK(speed > 0.0, "constant speed must be positive");
    return SpeedFunction({SpeedPoint{1.0, speed}}, std::move(name), max_problem);
}

double SpeedFunction::speed(double x) const {
    FPM_CHECK(!points_.empty(), "speed function is empty");
    FPM_CHECK(x > 0.0, "problem size must be positive");
    FPM_CHECK(x <= max_problem_ * (1.0 + 1e-12),
              "problem size exceeds the device's maximum");

    if (x <= points_.front().x) {
        return points_.front().speed;
    }
    if (x >= points_.back().x) {
        return points_.back().speed;
    }
    const auto upper = std::upper_bound(
        points_.begin(), points_.end(), x,
        [](double value, const SpeedPoint& p) { return value < p.x; });
    const auto lower = upper - 1;
    const double t = (x - lower->x) / (upper->x - lower->x);
    return lerp(lower->speed, upper->speed, t);
}

double SpeedFunction::time(double x) const {
    FPM_CHECK(x >= 0.0, "problem size must be non-negative");
    if (x == 0.0) {
        return 0.0;
    }
    if (x > max_problem_ * (1.0 + 1e-12)) {
        return std::numeric_limits<double>::infinity();
    }
    return x / speed(x);
}

double SpeedFunction::gflops(double x, std::size_t block_size) const {
    const double b = static_cast<double>(block_size);
    return speed(x) * 2.0 * b * b * b / 1e9;
}

SpeedFunction SpeedFunction::scaled(double factor) const {
    FPM_CHECK(factor > 0.0, "scale factor must be positive");
    std::vector<SpeedPoint> scaled_points = points_;
    for (auto& point : scaled_points) {
        point.speed *= factor;
    }
    return SpeedFunction(std::move(scaled_points), name_, max_problem_);
}

SpeedFunction SpeedFunction::spliced(double x, double speed,
                                     double merge_radius_rel) const {
    FPM_CHECK(x > 0.0, "spliced point needs positive x");
    FPM_CHECK(x <= max_problem_ * (1.0 + 1e-12),
              "spliced point exceeds the device's maximum");
    FPM_CHECK(speed > 0.0, "spliced point needs positive speed");
    FPM_CHECK(merge_radius_rel >= 0.0, "merge radius must be non-negative");

    const double radius = merge_radius_rel * x;
    std::vector<SpeedPoint> merged;
    merged.reserve(points_.size() + 1);
    for (const SpeedPoint& point : points_) {
        if (std::abs(point.x - x) > radius) {
            merged.push_back(point);
        }
    }
    merged.push_back(SpeedPoint{x, speed});
    // The constructor re-sorts and enforces strictly increasing positive
    // x and positive speeds, so a degenerate merge cannot produce an
    // ill-formed interpolant.
    return SpeedFunction(std::move(merged), name_, max_problem_);
}

MonotoneTime::MonotoneTime(const SpeedFunction& fn, std::size_t samples_per_segment)
    : samples_per_segment_(samples_per_segment) {
    FPM_CHECK(!fn.empty(), "cannot build MonotoneTime from an empty function");
    FPM_CHECK(samples_per_segment >= 1, "need at least one sample per segment");

    const auto& pts = fn.points();
    max_problem_ = fn.max_problem();
    // Beyond the last measured point speed is clamped, so time is linear
    // and invertible in closed form; the sampled grid only needs to reach
    // the larger of the last knot and a finite capacity bound.
    max_x_ = std::isfinite(max_problem_) ? max_problem_ : pts.back().x;
    terminal_speed_ = fn.speed(std::min(pts.back().x, max_x_));

    // Sample grid: knots plus uniform subsamples per segment, extended to
    // max_x_ when the feasible range exceeds the measured range.
    xs_.push_back(0.0);
    ts_.push_back(0.0);
    auto push_sample = [&](double x) {
        if (x <= xs_.back() + 1e-12 || x > max_x_ * (1.0 + 1e-12)) {
            return;
        }
        xs_.push_back(std::min(x, max_x_));
        ts_.push_back(fn.time(xs_.back()));
    };
    for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
        for (std::size_t s = 0; s < samples_per_segment; ++s) {
            const double t = static_cast<double>(s) /
                             static_cast<double>(samples_per_segment);
            push_sample(lerp(pts[i].x, pts[i + 1].x, t));
        }
    }
    push_sample(pts.back().x);
    push_sample(max_x_);
    if (xs_.back() < max_x_) {
        xs_.push_back(max_x_);
        ts_.push_back(fn.time(max_x_));
    }

    // Running-max envelope makes time non-decreasing.
    for (std::size_t i = 1; i < ts_.size(); ++i) {
        ts_[i] = std::max(ts_[i], ts_[i - 1]);
    }
}

double MonotoneTime::time(double x) const {
    FPM_CHECK(x >= 0.0, "problem size must be non-negative");
    if (x > max_x_ * (1.0 + 1e-12)) {
        if (x > max_problem_ * (1.0 + 1e-12)) {
            return std::numeric_limits<double>::infinity();
        }
        // Unbounded device past the sampled grid: linear extrapolation at
        // the terminal (clamped) speed.
        return ts_.back() + (x - max_x_) / terminal_speed_;
    }
    const auto upper = std::upper_bound(xs_.begin(), xs_.end(), x);
    if (upper == xs_.end()) {
        return ts_.back();
    }
    if (upper == xs_.begin()) {
        return ts_.front();
    }
    const std::size_t hi = static_cast<std::size_t>(upper - xs_.begin());
    const std::size_t lo = hi - 1;
    if (xs_[hi] == xs_[lo]) {
        return ts_[hi];
    }
    const double f = (x - xs_[lo]) / (xs_[hi] - xs_[lo]);
    return lerp(ts_[lo], ts_[hi], f);
}

double MonotoneTime::max_time() const noexcept {
    return ts_.back();
}

double MonotoneTime::invert(double t) const {
    FPM_CHECK(t >= 0.0, "time must be non-negative");
    if (t >= ts_.back()) {
        if (!std::isfinite(max_problem_)) {
            // Unbounded device: keep growing at the terminal speed.
            return max_x_ + (t - ts_.back()) * terminal_speed_;
        }
        return max_x_;
    }
    // Largest index with ts_ <= t; within flat runs pick the rightmost x.
    const auto upper = std::upper_bound(ts_.begin(), ts_.end(), t);
    const std::size_t hi = static_cast<std::size_t>(upper - ts_.begin());
    if (hi == 0) {
        return 0.0;
    }
    const std::size_t lo = hi - 1;
    if (ts_[hi] == ts_[lo]) {
        return xs_[hi];
    }
    const double f = (t - ts_[lo]) / (ts_[hi] - ts_[lo]);
    return lerp(xs_[lo], xs_[hi], f);
}

} // namespace fpm::core
