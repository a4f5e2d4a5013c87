#include "fpm/fault/fault.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "fpm/common/error.hpp"
#include "fpm/common/text.hpp"
#include "fpm/obs/metrics.hpp"

namespace fpm::fault {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::string_view text) {
    std::uint64_t h = kFnvOffset;
    for (const char ch : text) {
        h ^= static_cast<unsigned char>(ch);
        h *= kFnvPrime;
    }
    return h;
}

/// splitmix64 finalizer: full-avalanche mix of one 64-bit word.
std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::atomic<std::uint64_t> g_seed{0};
std::atomic<std::uint64_t> g_injected_total{0};

obs::Counter& total_counter() {
    static auto& counter =
        obs::MetricsRegistry::global().counter("fault.injected");
    return counter;
}

} // namespace

// ---------------------------------------------------------------------------
// Point
// ---------------------------------------------------------------------------

Point::Point(std::string name)
    : name_(std::move(name)),
      name_hash_(fnv1a(name_)),
      obs_injected_(&obs::MetricsRegistry::global().counter(
          "fault.injected." + name_)) {}

Decision Point::fire_armed() noexcept {
    evaluated_.fetch_add(1, std::memory_order_relaxed);
    const double rate = rate_.load(std::memory_order_relaxed);
    if (rate <= 0.0) {
        return {};
    }
    // Deterministic draw: hash(seed, point, arrival index) -> [0, 1).
    const std::uint64_t n = seq_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t h =
        mix64(g_seed.load(std::memory_order_relaxed) ^ name_hash_ ^
              mix64(n));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u >= rate) {
        return {};
    }
    injected_.fetch_add(1, std::memory_order_relaxed);
    g_injected_total.fetch_add(1, std::memory_order_relaxed);
    obs_injected_->add();
    total_counter().add();

    Decision decision;
    decision.action = static_cast<Action>(
        action_.load(std::memory_order_relaxed));
    decision.delay_ms = delay_ms_.load(std::memory_order_relaxed);
    if (decision.action == Action::kDelay && decision.delay_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(decision.delay_ms));
    }
    return decision;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Owns every Point ever named.  Points are never destroyed, so the
/// references handed out by point() stay valid for the process lifetime.
class Registry {
public:
    static Registry& instance() {
        static Registry registry;
        return registry;
    }

    Point& get_or_create(std::string_view name) {
        std::lock_guard lock(mutex_);
        return get_or_create_locked(name);
    }

    void apply(const FaultPlan& plan) {
        for (const auto& rule : plan.rules) {
            FPM_CHECK(!rule.point.empty(), "fault rule needs a point name");
            FPM_CHECK(rule.rate >= 0.0 && rule.rate <= 1.0,
                      "fault rate must be in [0, 1]: " + rule.point);
        }
        std::lock_guard lock(mutex_);
        detail::g_armed.store(false, std::memory_order_relaxed);
        g_seed.store(plan.seed, std::memory_order_relaxed);
        for (auto& [name, existing] : points_) {
            existing->rate_.store(0.0, std::memory_order_relaxed);
            existing->seq_.store(0, std::memory_order_relaxed);
        }
        bool any = false;
        for (const auto& rule : plan.rules) {
            Point& target = get_or_create_locked(rule.point);
            target.rate_.store(rule.rate, std::memory_order_relaxed);
            target.action_.store(static_cast<std::uint8_t>(rule.action),
                                 std::memory_order_relaxed);
            target.delay_ms_.store(rule.delay_ms, std::memory_order_relaxed);
            target.seq_.store(0, std::memory_order_relaxed);
            any = any || rule.rate > 0.0;
        }
        detail::g_armed.store(any, std::memory_order_relaxed);
    }

    void disarm() {
        std::lock_guard lock(mutex_);
        detail::g_armed.store(false, std::memory_order_relaxed);
        for (auto& [name, existing] : points_) {
            existing->rate_.store(0.0, std::memory_order_relaxed);
        }
    }

    std::vector<PointStats> stats() const {
        std::lock_guard lock(mutex_);
        std::vector<PointStats> out;
        out.reserve(points_.size());
        for (const auto& [name, existing] : points_) {
            out.push_back(PointStats{
                name, existing->rate_.load(std::memory_order_relaxed),
                existing->evaluated(), existing->injected()});
        }
        return out;
    }

private:
    Registry() {
        // First touch of the fault layer arms any environment-provided
        // plan; a malformed spec is reported once and ignored so that
        // noexcept call sites (the reactor) can never throw from here.
        if (const char* spec = std::getenv("FPMPART_FAULTS")) {
            try {
                apply_unlocked_init(FaultPlan::parse(spec));
            } catch (const std::exception& e) {
                std::fprintf(stderr,
                             "fpmpart: ignoring malformed FPMPART_FAULTS: "
                             "%s\n",
                             e.what());
            }
        }
    }

    void apply_unlocked_init(const FaultPlan& plan) {
        // Construction-time only: no other thread can hold a reference
        // yet, so taking mutex_ (as apply() does) is unnecessary — but
        // harmless; reuse the checked path via a scoped unlock dance is
        // not worth it.  Validate + install inline.
        g_seed.store(plan.seed, std::memory_order_relaxed);
        bool any = false;
        for (const auto& rule : plan.rules) {
            FPM_CHECK(!rule.point.empty(), "fault rule needs a point name");
            FPM_CHECK(rule.rate >= 0.0 && rule.rate <= 1.0,
                      "fault rate must be in [0, 1]: " + rule.point);
            Point& target = get_or_create_locked(rule.point);
            target.rate_.store(rule.rate, std::memory_order_relaxed);
            target.action_.store(static_cast<std::uint8_t>(rule.action),
                                 std::memory_order_relaxed);
            target.delay_ms_.store(rule.delay_ms, std::memory_order_relaxed);
            any = any || rule.rate > 0.0;
        }
        detail::g_armed.store(any, std::memory_order_relaxed);
    }

    Point& get_or_create_locked(std::string_view name) {
        const auto it = points_.find(name);
        if (it != points_.end()) {
            return *it->second;
        }
        auto created = std::unique_ptr<Point>(new Point(std::string(name)));
        Point& ref = *created;
        points_.emplace(ref.name(), std::move(created));
        return ref;
    }

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Point>, std::less<>> points_;
};

// ---------------------------------------------------------------------------
// Free functions
// ---------------------------------------------------------------------------

Point& point(std::string_view name) {
    return Registry::instance().get_or_create(name);
}

void install(const FaultPlan& plan) { Registry::instance().apply(plan); }

void uninstall() { Registry::instance().disarm(); }

std::uint64_t injected_total() noexcept {
    return g_injected_total.load(std::memory_order_relaxed);
}

std::vector<PointStats> stats() { return Registry::instance().stats(); }

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

namespace {

std::uint64_t parse_u64(std::string_view text, const std::string& entry) {
    const auto value = text::to_number<std::uint64_t>(text);
    FPM_CHECK(value.has_value(), "malformed number in fault entry: " + entry);
    return *value;
}

double parse_rate(std::string_view text, const std::string& entry) {
    const auto value = text::to_number<double>(text);
    FPM_CHECK(value && *value >= 0.0 && *value <= 1.0,
              "fault rate must be a number in [0, 1]: " + entry);
    return *value;
}

} // namespace

FaultPlan FaultPlan::parse(std::string_view spec) {
    FaultPlan plan;
    for (const std::string_view raw : text::split(spec, ',')) {
        if (raw.empty()) {
            continue;  // tolerate empty entries ("a=1,,b=1", trailing ',')
        }
        const std::string entry(raw);
        const std::size_t eq = raw.find('=');
        FPM_CHECK(eq != std::string_view::npos && eq > 0,
                  "fault entry must be point=rate[:action] or seed=N: " +
                      entry);
        const std::string_view key = raw.substr(0, eq);
        const std::string_view value = raw.substr(eq + 1);
        if (key == "seed") {
            plan.seed = parse_u64(value, entry);
            continue;
        }
        Rule rule;
        rule.point = std::string(key);
        const std::size_t colon = value.find(':');
        rule.rate = parse_rate(value.substr(0, colon), entry);
        if (colon != std::string_view::npos) {
            const std::string_view action = value.substr(colon + 1);
            if (action == "fail") {
                rule.action = Action::kFail;
            } else if (action.rfind("delay:", 0) == 0) {
                rule.action = Action::kDelay;
                const std::uint64_t ms = parse_u64(action.substr(6), entry);
                FPM_CHECK(ms <= 60'000,
                          "fault delay must be <= 60000 ms: " + entry);
                rule.delay_ms = static_cast<std::uint32_t>(ms);
            } else {
                throw Error("unknown fault action (want fail or delay:MS): " +
                            entry);
            }
        }
        plan.rules.push_back(std::move(rule));
    }
    return plan;
}

} // namespace fpm::fault
