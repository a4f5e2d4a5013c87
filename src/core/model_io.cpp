#include "fpm/core/model_io.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <optional>

#include "fpm/common/text.hpp"

namespace fpm::core {

namespace {

constexpr const char* kColumnHeader = "name,max_problem,x,speed";

/// Strict double parse for one CSV cell; throws ParseError pinpointing
/// `column` (1-based cell index) on failure.
double parse_cell(std::string_view text, const std::string& origin,
                  std::size_t line, std::size_t column) {
    const auto value = text::to_number<double>(text);
    if (!value) {
        throw ParseError(origin, line, column,
                         "non-numeric value '" + std::string(text) + "'");
    }
    return *value;
}

/// Parses the `fpmmodel v<N>` magic line; returns 0 when `line` is not a
/// header at all (a v1 file), throws for a recognisable header carrying
/// an unusable version.
int parse_magic(std::string_view line, const std::string& origin) {
    const auto tokens = text::split_blanks(line);
    if (tokens.empty() || tokens[0] != kModelFileMagic) {
        return 0;
    }
    const std::string_view version = tokens.size() > 1 ? tokens[1] : "";
    const auto parsed = version.starts_with('v')
                            ? text::to_number<int>(version.substr(1))
                            : std::nullopt;
    if (!parsed || *parsed <= 0) {
        throw ParseError(origin, 1, 0,
                         "malformed format version '" + std::string(version) +
                             "'");
    }
    if (*parsed > kModelFormatVersion) {
        throw ParseError(origin, 1, 0,
                         "unsupported format version v" +
                             std::to_string(*parsed) + " (this build reads up "
                             "to v" + std::to_string(kModelFormatVersion) +
                             ")");
    }
    if (tokens.size() > 2) {
        throw ParseError(origin, 1, 0,
                         "trailing tokens after the format header");
    }
    return *parsed;
}

} // namespace

ParseError::ParseError(std::string origin, std::size_t line,
                       std::size_t column, std::string reason)
    : Error(origin + ":" + std::to_string(line) +
            (column > 0 ? std::string(":") + std::to_string(column)
                        : std::string{}) +
            ": " + reason),
      origin_(std::move(origin)), line_(line), column_(column),
      reason_(std::move(reason)) {}

void write_speed_functions(std::ostream& out,
                           const std::vector<SpeedFunction>& models) {
    FPM_CHECK(!models.empty(), "nothing to save");
    // Full precision so a load() reproduces every double bit-for-bit.
    out << std::setprecision(std::numeric_limits<double>::max_digits10);

    out << kModelFileMagic << " v" << kModelFormatVersion << '\n';
    out << kColumnHeader << '\n';
    for (const auto& model : models) {
        FPM_CHECK(model.name().find(',') == std::string::npos,
                  "model names must not contain commas");
        for (const auto& point : model.points()) {
            out << model.name() << ',';
            if (std::isfinite(model.max_problem())) {
                out << model.max_problem();
            } else {
                out << "inf";
            }
            out << ',' << point.x << ',' << point.speed << '\n';
        }
    }
    FPM_CHECK(out.good(), "model write failed");
}

std::vector<SpeedFunction> read_speed_functions(std::istream& in,
                                                const std::string& origin) {
    std::string line;
    if (!std::getline(in, line)) {
        throw ParseError(origin, 1, 0, "model input is empty");
    }
    std::size_t line_number = 1;
    const int version = parse_magic(line, origin);
    if (version > 0) {
        // v2+: the magic line is followed by the column header.
        if (!std::getline(in, line)) {
            throw ParseError(origin, 2, 0,
                             "missing column header after the format header");
        }
        ++line_number;
    }
    if (line != kColumnHeader) {
        throw ParseError(origin, line_number, 0,
                         "unexpected column header '" + line + "' (want '" +
                             kColumnHeader + "')");
    }

    std::vector<SpeedFunction> models;
    std::string current_name;
    double current_max = std::numeric_limits<double>::infinity();
    std::vector<SpeedPoint> current_points;
    std::size_t model_first_line = 0;

    auto flush = [&]() {
        if (!current_points.empty()) {
            try {
                models.emplace_back(std::move(current_points), current_name,
                                    current_max);
            } catch (const Error& e) {
                throw ParseError(origin, model_first_line, 0,
                                 "invalid model '" + current_name +
                                     "': " + e.what());
            }
            current_points = {};
        }
    };

    while (std::getline(in, line)) {
        ++line_number;
        if (line.empty()) {
            continue;
        }
        const auto cells = text::split(line, ',');
        if (cells.size() != 4) {
            throw ParseError(origin, line_number, 0,
                             "expected 4 CSV cells, got " +
                                 std::to_string(cells.size()));
        }

        const std::string_view name = cells[0];
        if (name != current_name || current_points.empty()) {
            if (name != current_name) {
                flush();
            }
            current_name = std::string(name);
            model_first_line = line_number;
            current_max = parse_cell(cells[1], origin, line_number, 2);
        }
        current_points.push_back(
            SpeedPoint{parse_cell(cells[2], origin, line_number, 3),
                       parse_cell(cells[3], origin, line_number, 4)});
    }
    flush();
    if (models.empty()) {
        throw ParseError(origin, line_number, 0, "model input holds no points");
    }
    return models;
}

void save_speed_functions_csv(const std::string& path,
                              const std::vector<SpeedFunction>& models) {
    std::ofstream out(path);
    FPM_CHECK(out.good(), "cannot open model file for writing: " + path);
    write_speed_functions(out, models);
    FPM_CHECK(out.good(), "write failed: " + path);
}

std::vector<SpeedFunction> load_speed_functions_csv(const std::string& path) {
    std::ifstream in(path);
    FPM_CHECK(in.good(), "cannot open model file: " + path);
    return read_speed_functions(in, path);
}

} // namespace fpm::core
