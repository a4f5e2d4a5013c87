/// \file tool_args.hpp
/// \brief Declarative command-line flag table shared by the fpmpart tools.
///
/// Each tool declares its surface once: a flag name, a value
/// placeholder, and a *binding* — a pointer to the field the value
/// lands in (typically a ServeConfig/AdaptConfig member, so the flag's
/// default is the config struct's default and nothing restates it).
/// The table generates the usage text from the declarations, rejects
/// unknown flags, flags missing their value, duplicates of
/// non-repeatable flags, garbage numbers and out-of-range values, and
/// on any of those prints `error: ...` plus the usage to stderr so the
/// tool can exit 2 — the same contract the previous hand-rolled parser
/// enforced, now without a tool ever writing its own usage string.
///
/// Bindings: std::string (verbatim), bool (`on|off`), any non-bool
/// integral type and double (a number read by fpm::text::to_number,
/// then an inclusive range check), and repeatable string lists.
/// `--trace FILE` is shared by every tool via trace(): an explicit flag
/// wins, otherwise the FPMPART_TRACE environment variable decides.
#pragma once

#include <climits>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "fpm/common/error.hpp"
#include "fpm/common/text.hpp"
#include "fpm/obs/trace.hpp"

namespace fpmtool {

/// See file comment.
class FlagTable {
public:
    /// `program` names the tool in the generated usage line.
    explicit FlagTable(std::string program) : program_(std::move(program)) {}

    /// String flag: the value is stored verbatim.
    FlagTable& bind(const char* flag, const char* placeholder,
                    std::string* target) {
        add(flag, placeholder, false,
            [target](const std::string& value) { *target = value; });
        return *this;
    }

    /// Boolean flag: the value must be `on` or `off`.
    FlagTable& bind(const char* flag, const char* placeholder, bool* target) {
        const std::string name = flag;
        add(flag, placeholder, false,
            [target, name](const std::string& value) {
                FPM_CHECK(value == "on" || value == "off",
                          name + " expects on|off, got '" + value + "'");
                *target = value == "on";
            });
        return *this;
    }

    /// Integral flag with an inclusive range check (defaults accept
    /// anything long long holds); the whole token must parse.
    template <typename T,
              typename = std::enable_if_t<std::is_integral_v<T> &&
                                          !std::is_same_v<T, bool>>>
    FlagTable& bind(const char* flag, const char* placeholder, T* target,
                    long long min = LLONG_MIN, long long max = LLONG_MAX) {
        const std::string name = flag;
        add(flag, placeholder, false,
            [target, name, min, max](const std::string& value) {
                const auto parsed = fpm::text::to_number<long long>(value);
                FPM_CHECK(parsed && *parsed >= min && *parsed <= max,
                          name + " expects an integer in [" +
                              std::to_string(min) + ", " +
                              std::to_string(max) + "], got " + value);
                *target = static_cast<T>(*parsed);
            });
        return *this;
    }

    /// Floating-point flag with an inclusive range check.
    FlagTable& bind(const char* flag, const char* placeholder, double* target,
                    double min = -std::numeric_limits<double>::infinity(),
                    double max = std::numeric_limits<double>::infinity()) {
        const std::string name = flag;
        add(flag, placeholder, false,
            [target, name, min, max](const std::string& value) {
                const auto parsed = fpm::text::to_number<double>(value);
                FPM_CHECK(parsed && *parsed >= min && *parsed <= max,
                          name + " expects a number in range, got " +
                              value);
                *target = *parsed;
            });
        return *this;
    }

    /// Repeatable string flag: every occurrence appends, in order.
    FlagTable& bind_list(const char* flag, const char* placeholder,
                         std::vector<std::string>* target) {
        add(flag, placeholder, true,
            [target](const std::string& value) { target->push_back(value); });
        return *this;
    }

    /// Marks the most recently bound flag as required: parse() fails
    /// when it never appeared.
    FlagTable& require() {
        FPM_CHECK(!flags_.empty(), "require() before any bind()");
        flags_.back().required = true;
        return *this;
    }

    /// Registers the shared `--trace FILE` flag; parse() applies it
    /// (explicit flag wins, else FPMPART_TRACE decides).
    FlagTable& trace() {
        trace_enabled_ = true;
        bind("--trace", "FILE", &trace_path_);
        return *this;
    }

    /// The generated usage text: required flags first (repeatable ones
    /// showing their `[--flag V ...]` tail), optional flags bracketed,
    /// wrapped to terminal width.
    [[nodiscard]] std::string usage() const {
        std::string text = "usage: " + program_;
        const std::string indent(7 + program_.size() > 24
                                     ? std::size_t{8}
                                     : 7 + program_.size() + 1,
                                 ' ');
        std::size_t column = 7 + program_.size();
        auto append = [&](const std::string& item) {
            if (column + 1 + item.size() > 78 && column > indent.size()) {
                text += "\n" + indent;
                column = indent.size();
            } else {
                text += ' ';
                ++column;
            }
            text += item;
            column += item.size();
        };
        for (const Flag& flag : flags_) {
            if (!flag.required) {
                continue;
            }
            std::string item = flag.name + " " + flag.placeholder;
            if (flag.repeatable) {
                item += " [" + flag.name + " " + flag.placeholder + " ...]";
            }
            append(item);
        }
        for (const Flag& flag : flags_) {
            if (flag.required) {
                continue;
            }
            append("[" + flag.name + " " + flag.placeholder + "]");
        }
        text += "\n";
        return text;
    }

    /// Parses argv against the table, applying every binding.  On any
    /// error (unknown flag, missing value, duplicate, malformed or
    /// out-of-range number, missing required flag) prints the error and
    /// the usage to stderr and returns false — the caller exits 2.
    [[nodiscard]] bool parse(int argc, char** argv) {
        try {
            for (int i = 1; i < argc; ++i) {
                const std::string name = argv[i];
                const auto it = index_.find(name);
                FPM_CHECK(it != index_.end(), "unknown flag: " + name);
                Flag& flag = flags_[it->second];
                FPM_CHECK(i + 1 < argc, "missing value for " + name);
                FPM_CHECK(flag.repeatable || !flag.seen,
                          "duplicate flag: " + name);
                flag.seen = true;
                flag.apply(argv[++i]);
            }
            for (const Flag& flag : flags_) {
                FPM_CHECK(!flag.required || flag.seen,
                          flag.name + " is required");
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error: %s\n%s", e.what(), usage().c_str());
            return false;
        }
        if (trace_enabled_) {
            if (!trace_path_.empty()) {
                fpm::obs::enable_tracing(trace_path_);
            } else {
                fpm::obs::init_tracing_from_env();
            }
        }
        return true;
    }

    /// Whether `flag` appeared on the command line (valid after parse()).
    [[nodiscard]] bool seen(const std::string& flag) const {
        const auto it = index_.find(flag);
        return it != index_.end() && flags_[it->second].seen;
    }

private:
    struct Flag {
        std::string name;
        std::string placeholder;
        bool repeatable = false;
        bool required = false;
        bool seen = false;
        std::function<void(const std::string&)> apply;
    };

    void add(const char* flag, const char* placeholder, bool repeatable,
             std::function<void(const std::string&)> apply) {
        FPM_CHECK(index_.find(flag) == index_.end(),
                  std::string("flag declared twice: ") + flag);
        index_[flag] = flags_.size();
        flags_.push_back(
            Flag{flag, placeholder, repeatable, false, false, std::move(apply)});
    }

    std::string program_;
    std::vector<Flag> flags_;
    std::map<std::string, std::size_t> index_;
    bool trace_enabled_ = false;
    std::string trace_path_;
};

} // namespace fpmtool
