/// \file request.hpp
/// \brief The unified partitioning entry point.
///
/// Every consumer of the 1-D partitioners — the CLI tools, the serve
/// subsystem, tests and benches — used to hand-roll the same pipeline
/// (algorithm dispatch → continuous partition → integer rounding →
/// column 2-D layout) and its string→algorithm mapping.  This facade is
/// now the single code path: build a PartitionRequest, call
/// partition(), get a PartitionPlan.  Algorithm and its one
/// to_string()/parse_algorithm() pair live here and nowhere else.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "fpm/core/speed_function.hpp"
#include "fpm/part/column2d.hpp"
#include "fpm/part/fpm_partitioner.hpp"

namespace fpm::part {

/// Partitioning algorithm selector: the paper's FPM, the CPM baseline
/// (each model collapsed to its speed at the even share), and even
/// shares (the homogeneous baseline of Fig. 7).
enum class Algorithm { kFpm, kCpm, kEven };

/// Lower-case wire/CLI name ("fpm", "cpm", "even").
[[nodiscard]] const char* to_string(Algorithm algorithm) noexcept;

/// Inverse of to_string(); nullopt for unknown spellings.
[[nodiscard]] std::optional<Algorithm>
parse_algorithm(std::string_view text) noexcept;

/// Largest matrix size n whose workload n * n (<= 2^53) is exact in a
/// double: the partitioners share out n * n as a double, the integer
/// rounding as an int64, and both must see the same total.
inline constexpr std::int64_t kMaxN = 94906265;

/// One partitioning problem: distribute an n x n block matrix over the
/// devices described by `models`.
struct PartitionRequest {
    std::span<const core::SpeedFunction> models;
    std::int64_t n = 0;  ///< matrix size in blocks (workload = n * n)
    Algorithm algorithm = Algorithm::kFpm;
    bool with_layout = true;  ///< also compute the column 2-D layout
    FpmPartitionOptions options{};  ///< forwarded to the FPM bisection
    /// Prebuilt FPM envelopes, one per model (see make_envelopes()); empty
    /// builds them for this call.  Only Algorithm::kFpm reads them.
    std::span<const core::MonotoneTime> envelopes{};
};

/// The full answer: integer shares plus (optionally) the column-based
/// 2-D layout and the predicted quality metrics.
struct PartitionPlan {
    std::int64_t n = 0;
    Algorithm algorithm = Algorithm::kFpm;
    bool with_layout = true;
    std::vector<std::int64_t> blocks;  ///< per-device block counts
    ColumnLayout layout;        ///< rects empty when !with_layout
    double balanced_time = 0.0; ///< equalised time T (0 for cpm/even)
    double makespan = 0.0;      ///< predicted max_i t_i under the models
    std::int64_t comm_cost = 0; ///< half-perimeter sum (0 without layout)
    std::size_t iterations = 0; ///< FPM bisection steps (0 for cpm/even)
};

/// Runs the full pipeline for `request`.  Throws fpm::Error for n <= 0,
/// n > kMaxN, an empty model set or an infeasible workload.
[[nodiscard]] PartitionPlan partition(const PartitionRequest& request);

} // namespace fpm::part
