#include "fpm/part/request.hpp"

#include <algorithm>

#include "fpm/common/error.hpp"
#include "fpm/obs/trace.hpp"
#include "fpm/part/integer.hpp"
#include "fpm/part/partition.hpp"

namespace fpm::part {

const char* to_string(Algorithm algorithm) noexcept {
    switch (algorithm) {
    case Algorithm::kFpm:
        return "fpm";
    case Algorithm::kCpm:
        return "cpm";
    case Algorithm::kEven:
        return "even";
    }
    return "?";
}

std::optional<Algorithm> parse_algorithm(std::string_view text) noexcept {
    if (text == "fpm") {
        return Algorithm::kFpm;
    }
    if (text == "cpm") {
        return Algorithm::kCpm;
    }
    if (text == "even") {
        return Algorithm::kEven;
    }
    return std::nullopt;
}

PartitionPlan partition(const PartitionRequest& request) {
    obs::Span span("part.partition", static_cast<std::uint64_t>(request.n));
    FPM_CHECK(request.n > 0, "workload size must be positive");
    FPM_CHECK(request.n <= kMaxN, "workload size n*n must be exact in a double");
    FPM_CHECK(!request.models.empty(), "need at least one device");
    const auto& models = request.models;
    const double total =
        static_cast<double>(request.n) * static_cast<double>(request.n);

    Partition1D continuous;
    PartitionPlan plan;
    plan.n = request.n;
    plan.algorithm = request.algorithm;
    plan.with_layout = request.with_layout;
    switch (request.algorithm) {
    case Algorithm::kFpm: {
        auto result =
            request.envelopes.empty()
                ? partition_fpm(models, total, request.options)
                : partition_fpm(models, request.envelopes, total,
                                request.options);
        continuous = std::move(result.partition);
        plan.balanced_time = result.balanced_time;
        plan.iterations = result.iterations;
        break;
    }
    case Algorithm::kCpm: {
        // The traditional baseline: each model collapses to its speed at
        // the even share.
        std::vector<double> speeds;
        speeds.reserve(models.size());
        const double share = total / static_cast<double>(models.size());
        for (const auto& model : models) {
            speeds.push_back(model.speed(std::min(share, model.max_problem())));
        }
        continuous = partition_cpm(speeds, total);
        break;
    }
    case Algorithm::kEven:
        continuous = partition_homogeneous(models.size(), total);
        break;
    }

    auto rounded = round_partition(continuous, request.n * request.n, models);
    plan.makespan =
        makespan(models, std::span<const std::int64_t>(rounded.blocks));
    if (request.with_layout) {
        plan.layout = column_partition(request.n, rounded.blocks);
        plan.comm_cost = plan.layout.comm_cost();
    }
    plan.blocks = std::move(rounded.blocks);
    return plan;
}

} // namespace fpm::part
