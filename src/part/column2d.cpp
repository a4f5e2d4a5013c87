#include "fpm/part/column2d.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "fpm/common/error.hpp"

namespace fpm::part {

std::int64_t ColumnLayout::comm_cost() const {
    std::int64_t cost = 0;
    for (const auto& rect : rects) {
        if (rect.area() > 0) {
            cost += rect.half_perimeter();
        }
    }
    return cost;
}

std::vector<std::vector<std::size_t>> ColumnLayout::columns() const {
    std::vector<std::size_t> devices;
    for (std::size_t i = 0; i < rects.size(); ++i) {
        if (rects[i].area() > 0) {
            devices.push_back(i);
        }
    }
    std::sort(devices.begin(), devices.end(), [&](std::size_t a, std::size_t b) {
        return std::pair(rects[a].col0, rects[a].row0) <
               std::pair(rects[b].col0, rects[b].row0);
    });
    std::vector<std::vector<std::size_t>> result;
    for (const std::size_t device : devices) {
        if (result.empty() ||
            rects[result.back().front()].col0 != rects[device].col0) {
            result.emplace_back();
        }
        result.back().push_back(device);
    }
    return result;
}

std::vector<std::int64_t> ColumnLayout::column_widths() const {
    std::vector<std::int64_t> widths;
    for (const auto& column : columns()) {
        widths.push_back(rects[column.front()].w);
    }
    return widths;
}

std::vector<std::int64_t> ColumnLayout::actual_areas() const {
    std::vector<std::int64_t> areas;
    areas.reserve(rects.size());
    for (const auto& rect : rects) {
        areas.push_back(rect.area());
    }
    return areas;
}

void ColumnLayout::validate() const {
    std::int64_t covered = 0;
    for (const auto& rect : rects) {
        FPM_ASSERT(rect.w >= 0 && rect.h >= 0);
        if (rect.area() == 0) {
            continue;
        }
        FPM_ASSERT(rect.col0 >= 0 && rect.row0 >= 0);
        FPM_ASSERT(rect.col0 + rect.w <= n);
        FPM_ASSERT(rect.row0 + rect.h <= n);
        covered += rect.area();
    }
    FPM_ASSERT(covered == n * n);

    // Pairwise disjointness of non-empty rectangles.
    for (std::size_t i = 0; i < rects.size(); ++i) {
        if (rects[i].area() == 0) {
            continue;
        }
        for (std::size_t j = i + 1; j < rects.size(); ++j) {
            if (rects[j].area() == 0) {
                continue;
            }
            const bool disjoint_cols = rects[i].col0 + rects[i].w <= rects[j].col0 ||
                                       rects[j].col0 + rects[j].w <= rects[i].col0;
            const bool disjoint_rows = rects[i].row0 + rects[i].h <= rects[j].row0 ||
                                       rects[j].row0 + rects[j].h <= rects[i].row0;
            FPM_ASSERT(disjoint_cols || disjoint_rows);
        }
    }
}

namespace {

/// Largest-remainder split of `total` into parts proportional to weights;
/// every positive-weight part gets at least `minimum` (stolen from the
/// largest parts), provided total >= minimum * positive_weights.
std::vector<std::int64_t> proportional_split(std::span<const double> weights,
                                             std::int64_t total,
                                             std::int64_t minimum) {
    const double weight_sum = std::accumulate(weights.begin(), weights.end(), 0.0);
    FPM_CHECK(weight_sum > 0.0, "proportional split needs positive weight");

    const std::size_t p = weights.size();
    std::vector<std::int64_t> parts(p, 0);
    std::vector<std::pair<double, std::size_t>> remainders;
    std::int64_t assigned = 0;
    for (std::size_t i = 0; i < p; ++i) {
        const double exact =
            static_cast<double>(total) * weights[i] / weight_sum;
        parts[i] = static_cast<std::int64_t>(std::floor(exact));
        assigned += parts[i];
        remainders.emplace_back(exact - std::floor(exact), i);
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (std::int64_t k = 0; k < total - assigned; ++k) {
        parts[remainders[static_cast<std::size_t>(k)].second] += 1;
    }

    // Enforce the minimum for positive weights.
    for (std::size_t i = 0; i < p; ++i) {
        while (weights[i] > 0.0 && parts[i] < minimum) {
            std::size_t donor = p;
            std::int64_t donor_size = minimum;
            for (std::size_t j = 0; j < p; ++j) {
                if (j != i && parts[j] > donor_size) {
                    donor_size = parts[j];
                    donor = j;
                }
            }
            FPM_CHECK(donor < p, "cannot satisfy the minimum part size");
            parts[donor] -= 1;
            parts[i] += 1;
        }
    }
    return parts;
}

} // namespace

ColumnLayout column_partition(std::int64_t n, std::span<const std::int64_t> areas) {
    FPM_CHECK(n >= 1, "matrix size must be positive");
    FPM_CHECK(!areas.empty(), "need at least one device");
    std::int64_t total = 0;
    for (const auto a : areas) {
        FPM_CHECK(a >= 0, "areas must be non-negative");
        total += a;
    }
    FPM_CHECK(total == n * n, "areas must sum exactly to n*n");

    ColumnLayout layout;
    layout.n = n;
    layout.rects.assign(areas.size(), Rect{});

    // Active devices, sorted by area in non-increasing order (Beaumont's
    // contiguity property holds for this order).
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < areas.size(); ++i) {
        if (areas[i] > 0) {
            order.push_back(i);
        }
    }
    FPM_CHECK(!order.empty(), "all areas are zero");
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return areas[a] > areas[b];
    });

    const std::size_t m = order.size();
    const double nf = static_cast<double>(n);

    // Prefix sums of sorted areas for O(1) segment sums.
    std::vector<double> prefix(m + 1, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
        prefix[i + 1] = prefix[i] + static_cast<double>(areas[order[i]]);
    }

    // DP over suffixes: best[i] = minimal half-perimeter cost of laying
    // out sorted devices i..m-1; a column of devices [i, j) of summed area
    // S has width S/n and costs (j - i) * S / n (widths) + n (heights).
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> best(m + 1, kInf);
    std::vector<std::size_t> next(m + 1, m);
    best[m] = 0.0;
    for (std::size_t i = m; i-- > 0;) {
        for (std::size_t j = i + 1; j <= m; ++j) {
            if (static_cast<std::int64_t>(j - i) > n) {
                break;  // a column cannot host more devices than rows
            }
            const double width = (prefix[j] - prefix[i]) / nf;
            const double cost =
                static_cast<double>(j - i) * width + nf + best[j];
            if (cost < best[i]) {
                best[i] = cost;
                next[i] = j;
            }
        }
    }
    FPM_CHECK(std::isfinite(best[0]),
              "no feasible column arrangement (more devices than blocks?)");

    // Recover the column segments.
    std::vector<std::pair<std::size_t, std::size_t>> segments;
    for (std::size_t i = 0; i < m; i = next[i]) {
        segments.emplace_back(i, next[i]);
    }

    // Integer column widths proportional to column areas.
    std::vector<double> column_area;
    column_area.reserve(segments.size());
    for (const auto& [b, e] : segments) {
        column_area.push_back(prefix[e] - prefix[b]);
    }
    const std::vector<std::int64_t> widths =
        proportional_split(column_area, n, /*minimum=*/1);

    // Lay out each column: heights proportional to device areas.
    std::int64_t col0 = 0;
    for (std::size_t c = 0; c < segments.size(); ++c) {
        const auto [b, e] = segments[c];
        const std::int64_t width = widths[c];

        std::vector<double> weights;
        weights.reserve(e - b);
        for (std::size_t k = b; k < e; ++k) {
            weights.push_back(static_cast<double>(areas[order[k]]));
        }
        const std::vector<std::int64_t> heights =
            proportional_split(weights, n, /*minimum=*/1);

        std::int64_t row0 = 0;
        for (std::size_t k = b; k < e; ++k) {
            const std::size_t device = order[k];
            Rect rect;
            rect.col0 = col0;
            rect.row0 = row0;
            rect.w = width;
            rect.h = heights[k - b];
            layout.rects[device] = rect;
            row0 += rect.h;
        }
        FPM_ASSERT(row0 == n);
        col0 += width;
    }
    FPM_ASSERT(col0 == n);
    return layout;
}

} // namespace fpm::part
