/// \file model_registry.hpp
/// \brief Thread-safe, versioned store of named model sets.
///
/// FPM construction is the expensive step of the paper's workflow (it
/// times real kernels under a reliability loop) while partitioning is
/// cheap and repeatable.  A long-running partition service therefore
/// keeps the built models resident and answers many queries against
/// them.  The registry maps a *set name* (e.g. "hybrid", "cpu") to an
/// immutable snapshot of its speed functions.
///
/// Snapshots are handed out as shared_ptr<const ModelSet>: a hot reload
/// (`put`/`load_csv` under an existing name) installs a new snapshot with
/// a higher generation but never mutates or frees the old one while
/// in-flight requests still hold it.  Each snapshot carries a content
/// fingerprint; the partition cache keys on the fingerprint rather than
/// the name, so reloading identical content keeps the cache warm and
/// reloading changed content naturally invalidates it.
///
/// Each snapshot also owns the FPM bisection's monotone time envelopes
/// (one core::MonotoneTime per model).  They depend only on the models,
/// so they are built once per generation — lazily, by the first request
/// that misses the plan cache — and freed with the snapshot.  put() and
/// restore() never build them, so publishing and recovery cost what they
/// did before.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "fpm/core/speed_function.hpp"

namespace fpm::serve {

/// Immutable snapshot of one named set of device models.  Not copyable:
/// it is shared by pointer, and its envelopes are built in place.
struct ModelSet {
    std::string name;
    std::vector<core::SpeedFunction> models;
    std::uint64_t generation = 0;   ///< registry-wide monotone version
    std::uint64_t fingerprint = 0;  ///< content hash (names, points, caps)

    /// The envelopes of `models` at the partitioner's default resolution
    /// (part::make_envelopes), built by the first caller; concurrent
    /// callers wait for that one build and all see the same span.  Each
    /// build counts in the `serve.envelopes.built` obs counter.  The
    /// models must not change once this has been called.
    [[nodiscard]] std::span<const core::MonotoneTime> envelopes() const;

private:
    mutable std::once_flag envelopes_once_;
    mutable std::vector<core::MonotoneTime> envelopes_;
};

/// FNV-1a content hash over every model's name, capacity and points.
/// Identical model data always hashes identically, independent of the
/// set name it is registered under.
[[nodiscard]] std::uint64_t
fingerprint_models(const std::vector<core::SpeedFunction>& models);

/// See file comment.
class ModelRegistry {
public:
    /// Durability hook: invoked for every put() with the fully-formed
    /// candidate snapshot (name, models, fingerprint, generation)
    /// *before* the registry commits it — write-ahead semantics.  A
    /// throwing observer vetoes the put: the registry keeps its previous
    /// content and generation counter, and the exception propagates to
    /// the caller.  The durable model store (fpm::store) installs itself
    /// here so no generation can be served that was not first logged.
    using PutObserver = std::function<void(const ModelSet&)>;

    /// Installs (or, with an empty function, removes) the put observer.
    /// The observer runs under the registry mutex, so appends are
    /// serialized in generation order; it must not call back into the
    /// registry.
    void set_put_observer(PutObserver observer);

    /// Installs (or replaces) the set under `name`; returns the new
    /// snapshot.  Throws fpm::Error for an empty name or empty model
    /// list, and rethrows a veto from the put observer (registry
    /// untouched).
    std::shared_ptr<const ModelSet> put(const std::string& name,
                                        std::vector<core::SpeedFunction> models);

    /// Recovery entry point: installs the set under `name` with the
    /// *explicit* generation it carried before the crash, advancing the
    /// registry's generation counter past it.  Bypasses the put observer
    /// (recovery must not re-log what it replays) and the serve.reload
    /// fault point.  Throws fpm::Error on invalid input.
    std::shared_ptr<const ModelSet>
    restore(const std::string& name, std::vector<core::SpeedFunction> models,
            std::uint64_t generation);

    /// The generation the next put() will assign (1 on a fresh registry).
    [[nodiscard]] std::uint64_t next_generation() const;

    /// Convenience: core::load_speed_functions_csv + put.
    std::shared_ptr<const ModelSet> load_csv(const std::string& name,
                                             const std::string& path);

    /// Current snapshot of `name`; throws fpm::Error when absent.
    [[nodiscard]] std::shared_ptr<const ModelSet> get(const std::string& name) const;

    /// Like get() but returns nullptr when absent.
    [[nodiscard]] std::shared_ptr<const ModelSet> find(const std::string& name) const;

    /// All current snapshots, in name order.
    [[nodiscard]] std::vector<std::shared_ptr<const ModelSet>> snapshot() const;

    [[nodiscard]] std::size_t size() const;

private:
    mutable std::mutex mutex_;
    std::map<std::string, std::shared_ptr<const ModelSet>> sets_;
    std::uint64_t next_generation_ = 1;
    PutObserver observer_;
};

} // namespace fpm::serve
