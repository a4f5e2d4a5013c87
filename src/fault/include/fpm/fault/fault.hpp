/// \file fault.hpp
/// \brief Deterministic fault injection for the serving stack.
///
/// A fault *point* is a named hook compiled into a production code path
/// (`fault::point("serve.send")`).  When no plan is installed, firing a
/// point costs one relaxed atomic load and a predictable branch — cheap
/// enough to leave in every hot path unconditionally.  When a plan is
/// armed (programmatically via install(), or from the `FPMPART_FAULTS`
/// environment variable at first use), each point draws a deterministic
/// pseudo-random decision per arrival: given the same seed and the same
/// per-point arrival order, a schedule replays exactly — chaos tests are
/// reproducible.
///
/// Spec grammar (FPMPART_FAULTS and FaultPlan::parse):
///
///     spec  := entry (',' entry)*
///     entry := 'seed=' <u64>
///            | <point> '=' <rate>            -- fail with probability rate
///            | <point> '=' <rate> ':fail'
///            | <point> '=' <rate> ':delay:' <ms>
///
/// e.g. `FPMPART_FAULTS=seed=42,serve.send=0.05,serve.compute=0.1:delay:250`.
/// Numbers are read by fpm::text::to_number: `<u64>` and `<ms>` are
/// decimal digits only (a value past 2^64 - 1 is malformed, never
/// wrapped; `<ms>` is at most 60000) and `<rate>` is a decimal double in
/// [0, 1]; no `+`, blanks or hex.  Empty entries are skipped.
///
/// Decisions carry an action: kFail (the site simulates the failure it
/// guards — a dropped connection, a failed compute) or kDelay (fire()
/// sleeps for the configured duration *inside* the hook and then reports
/// kDelay; the site proceeds normally, observing only the latency).
/// `Decision::operator bool` is true only for kFail, so every site reads
/// as `if (point.fire()) { <simulate failure> }`.
///
/// The well-known points wired into this repo (see docs/operations.md):
/// serve.accept, serve.recv, serve.send, serve.cache, serve.compute,
/// serve.reload, rt.dispatch, adapt.ingest, adapt.refine,
/// adapt.publish, store.append, store.fsync, store.snapshot.  Points
/// are created on demand, so a plan
/// may also name points that are never reached (they simply stay idle).
/// Every injection increments `fault.injected` and
/// `fault.injected.<point>` in the process-global obs MetricsRegistry.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fpm::obs {
class Counter;
} // namespace fpm::obs

namespace fpm::fault {

/// What a fired injection point does.  kNone = the point did not fire.
enum class Action : std::uint8_t { kNone = 0, kFail = 1, kDelay = 2 };

/// Outcome of one Point::fire() evaluation.  A kDelay decision has
/// already slept by the time the caller sees it.
struct Decision {
    Action action = Action::kNone;
    std::uint32_t delay_ms = 0;  ///< configured delay (kDelay only)

    /// True only for kFail: the call site must simulate its failure.
    explicit operator bool() const noexcept { return action == Action::kFail; }
};

namespace detail {
/// True while an installed plan has at least one positive-rate rule.
/// The *only* state fire() touches when injection is off.
inline std::atomic<bool> g_armed{false};
} // namespace detail

/// One named injection point.  Obtained from point(); never destroyed,
/// so sites cache the reference in a function-local static.
class Point {
public:
    /// Evaluates the point once.  Disabled cost: one relaxed load.
    Decision fire() noexcept {
        if (!detail::g_armed.load(std::memory_order_relaxed)) {
            return {};
        }
        return fire_armed();
    }

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    /// fire() calls made while a plan was armed.
    [[nodiscard]] std::uint64_t evaluated() const noexcept {
        return evaluated_.load(std::memory_order_relaxed);
    }

    /// Decisions that actually fired (kFail or kDelay).
    [[nodiscard]] std::uint64_t injected() const noexcept {
        return injected_.load(std::memory_order_relaxed);
    }

    Point(const Point&) = delete;
    Point& operator=(const Point&) = delete;

private:
    friend class Registry;
    explicit Point(std::string name);

    Decision fire_armed() noexcept;

    std::string name_;
    std::uint64_t name_hash_ = 0;
    obs::Counter* obs_injected_ = nullptr;  ///< fault.injected.<name>
    std::atomic<double> rate_{0.0};
    std::atomic<std::uint8_t> action_{0};
    std::atomic<std::uint32_t> delay_ms_{0};
    std::atomic<std::uint64_t> seq_{0};  ///< per-point arrival counter
    std::atomic<std::uint64_t> evaluated_{0};
    std::atomic<std::uint64_t> injected_{0};
};

/// Resolves (creating on demand) the injection point named `name`.
/// Takes a mutex; call once per site and cache the reference:
///
///     static auto& p = fault::point("serve.send");
///     if (p.fire()) { /* simulate a send failure */ }
[[nodiscard]] Point& point(std::string_view name);

/// A complete injection configuration: per-point rules plus the seed
/// that makes the schedule deterministic.
struct FaultPlan {
    struct Rule {
        std::string point;           ///< injection-point name
        double rate = 0.0;           ///< fire probability in [0, 1]
        Action action = Action::kFail;
        std::uint32_t delay_ms = 0;  ///< kDelay only
    };

    std::vector<Rule> rules;
    std::uint64_t seed = 0;

    /// Parses the FPMPART_FAULTS grammar (see file comment); throws
    /// fpm::Error with the offending entry on malformed specs.
    [[nodiscard]] static FaultPlan parse(std::string_view spec);
};

/// Installs `plan`, replacing any previous one: every existing point is
/// disarmed first, then the plan's rules are applied and per-point
/// arrival counters reset to zero (same plan + same arrival order =
/// same schedule).  Throws fpm::Error on invalid rules (rate outside
/// [0, 1], empty point name).
void install(const FaultPlan& plan);

/// Disarms every point.  Counters (evaluated/injected) are preserved.
void uninstall();

/// True while an installed plan has at least one positive-rate rule.
[[nodiscard]] inline bool enabled() noexcept {
    return detail::g_armed.load(std::memory_order_relaxed);
}

/// Total decisions fired across all points since process start (the
/// value behind the `fault.injected` obs counter and the HEALTH reply).
[[nodiscard]] std::uint64_t injected_total() noexcept;

/// Point-by-point counters, in name order.
struct PointStats {
    std::string name;
    double rate = 0.0;  ///< currently configured probability
    std::uint64_t evaluated = 0;
    std::uint64_t injected = 0;
};
[[nodiscard]] std::vector<PointStats> stats();

} // namespace fpm::fault
