#include "fpm/part/integer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "fpm/common/error.hpp"

namespace fpm::part {

std::int64_t IntPartition1D::total() const {
    return std::accumulate(blocks.begin(), blocks.end(), std::int64_t{0});
}

IntPartition1D round_largest_remainder(const Partition1D& partition,
                                       std::int64_t total) {
    FPM_CHECK(!partition.share.empty(), "empty partition");
    FPM_CHECK(total >= 0, "total must be non-negative");

    const std::size_t p = partition.share.size();
    IntPartition1D result;
    result.blocks.assign(p, 0);

    std::int64_t assigned = 0;
    std::vector<std::pair<double, std::size_t>> remainders;
    remainders.reserve(p);
    for (std::size_t i = 0; i < p; ++i) {
        FPM_CHECK(partition.share[i] >= 0.0, "shares must be non-negative");
        const double floor_value = std::floor(partition.share[i]);
        result.blocks[i] = static_cast<std::int64_t>(floor_value);
        assigned += result.blocks[i];
        remainders.emplace_back(partition.share[i] - floor_value, i);
    }

    std::int64_t leftover = total - assigned;
    FPM_CHECK(leftover >= 0, "continuous shares exceed the integer total");
    FPM_CHECK(leftover <= static_cast<std::int64_t>(p),
              "continuous shares fall short of the integer total by more "
              "than one block per device; the partition does not sum to "
              "the total");

    std::sort(remainders.begin(), remainders.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (std::int64_t k = 0; k < leftover; ++k) {
        result.blocks[remainders[static_cast<std::size_t>(k)].second] += 1;
    }
    return result;
}

IntPartition1D round_partition(const Partition1D& partition, std::int64_t total,
                               std::span<const core::SpeedFunction> models,
                               std::size_t max_moves) {
    FPM_CHECK(models.size() == partition.share.size(),
              "models and partition must have equal length");
    IntPartition1D result = round_largest_remainder(partition, total);
    const std::size_t p = result.blocks.size();

    // Repair any capacity violations introduced by remainder assignment.
    auto capacity = [&](std::size_t i) {
        return models[i].max_problem();
    };
    for (std::size_t i = 0; i < p; ++i) {
        while (static_cast<double>(result.blocks[i]) > capacity(i)) {
            // Move one block to the device with the most headroom.
            std::size_t best = p;
            double best_room = 0.0;
            for (std::size_t j = 0; j < p; ++j) {
                const double room =
                    capacity(j) - static_cast<double>(result.blocks[j]);
                if (j != i && room > best_room) {
                    best_room = room;
                    best = j;
                }
            }
            FPM_CHECK(best < p && best_room >= 1.0,
                      "no device has room for the capacity overflow");
            result.blocks[i] -= 1;
            result.blocks[best] += 1;
        }
    }

    // Local search: repeatedly move one block from the straggler to the
    // device whose time grows least, while the makespan strictly improves.
    // A move changes two devices, so every device's time at its current
    // count and at one block more is cached, and only the straggler and
    // the receiver are re-evaluated after a move.
    std::vector<double> current(p, 0.0);  // t_i(blocks_i), 0 when idle
    std::vector<double> grown(p, 0.0);    // t_i(blocks_i + 1) within capacity
    auto refresh = [&](std::size_t i) {
        const std::int64_t blocks = result.blocks[i];
        current[i] = blocks > 0 ? models[i].time(static_cast<double>(blocks))
                                : 0.0;
        if (static_cast<double>(blocks + 1) <= capacity(i)) {
            grown[i] = models[i].time(static_cast<double>(blocks + 1));
        }
    };
    for (std::size_t i = 0; i < p; ++i) {
        refresh(i);
    }
    for (std::size_t move = 0; move < max_moves; ++move) {
        // Find the straggler.
        std::size_t worst = p;
        double worst_time = 0.0;
        for (std::size_t i = 0; i < p; ++i) {
            if (result.blocks[i] > 0 && current[i] > worst_time) {
                worst_time = current[i];
                worst = i;
            }
        }
        if (worst == p) {
            break;
        }

        // Best receiver: minimises its own new time, must stay below the
        // straggler's current time and within capacity.
        std::size_t receiver = p;
        double receiver_time = worst_time;
        for (std::size_t j = 0; j < p; ++j) {
            if (j == worst) {
                continue;
            }
            if (static_cast<double>(result.blocks[j] + 1) > capacity(j)) {
                continue;
            }
            if (grown[j] < receiver_time) {
                receiver_time = grown[j];
                receiver = j;
            }
        }
        if (receiver == p) {
            break;  // no strictly improving move exists
        }

        // The move must actually reduce the makespan: the straggler's time
        // shrinks and the receiver stays below the old makespan.
        result.blocks[worst] -= 1;
        result.blocks[receiver] += 1;
        refresh(worst);
        refresh(receiver);
        double new_makespan = 0.0;
        for (std::size_t i = 0; i < p; ++i) {
            if (result.blocks[i] > 0) {
                new_makespan = std::max(new_makespan, current[i]);
            }
        }
        if (new_makespan >= worst_time) {
            result.blocks[worst] += 1;
            result.blocks[receiver] -= 1;
            break;
        }
    }

    return result;
}

} // namespace fpm::part
