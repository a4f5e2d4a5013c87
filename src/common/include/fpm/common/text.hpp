/// \file text.hpp
/// \brief The one strict reader of tokens and numbers in text input.
///
/// Every text format of the project — protocol lines, model CSVs, WAL
/// and snapshot headers, REPL control lines, fault specs, endpoint
/// lists and tool flags — is read through these four helpers, so all of
/// them share one grammar:
///
///  * split_blanks() cuts a line at runs of blanks (what `operator>>`
///    treats as white space); split() cuts at every occurrence of one
///    character; field() finds a whole-token `key=value`.  Tokens are
///    views into the caller's text: nothing is copied.
///  * to_number() reads an integer (any base `std::from_chars` takes,
///    no `0x` prefix) or a double.  The number must be the whole token:
///    no blanks, no leading `+`, an unsigned value takes no sign at all,
///    and a value out of range for T (an integer overflow, a double that
///    overflows or underflows to zero) is no number.  Subnormal doubles
///    parse exactly, so `%.17g` output round-trips bit for bit.  `inf`
///    and `nan` are numbers here; a caller that needs a finite value
///    checks for it.
///
/// The helpers return std::optional and never throw: each caller keeps
/// its own error type and message.
#pragma once

#include <charconv>
#include <concepts>
#include <optional>
#include <string_view>
#include <system_error>
#include <vector>

namespace fpm::text {

/// The blank-separated tokens of `line`; none for an all-blank line.
/// Blanks are what `operator>>` skips: space, \t, \n, \v, \f, \r.
[[nodiscard]] inline std::vector<std::string_view>
split_blanks(std::string_view line) {
    const auto is_blank = [](char ch) {
        return ch == ' ' || (ch >= '\t' && ch <= '\r');
    };
    std::vector<std::string_view> tokens;
    std::size_t at = 0;
    while (true) {
        while (at < line.size() && is_blank(line[at])) {
            ++at;
        }
        if (at == line.size()) {
            return tokens;
        }
        const std::size_t begin = at;
        while (at < line.size() && !is_blank(line[at])) {
            ++at;
        }
        tokens.push_back(line.substr(begin, at - begin));
    }
}

/// The `sep`-separated fields of `text`, empty ones included (k
/// separators make k + 1 fields); none for empty text.
[[nodiscard]] inline std::vector<std::string_view> split(std::string_view text,
                                                         char sep) {
    std::vector<std::string_view> fields;
    if (text.empty()) {
        return fields;
    }
    std::size_t at = 0;
    for (std::size_t end; (end = text.find(sep, at)) != text.npos; at = end + 1) {
        fields.push_back(text.substr(at, end - at));
    }
    fields.push_back(text.substr(at));
    return fields;
}

/// The value of the first blank-separated token of `line` that reads
/// `key=<value>`; nullopt when no token does.
[[nodiscard]] inline std::optional<std::string_view>
field(std::string_view line, std::string_view key) {
    for (const std::string_view token : split_blanks(line)) {
        if (token.size() > key.size() && token.starts_with(key) &&
            token[key.size()] == '=') {
            return token.substr(key.size() + 1);
        }
    }
    return std::nullopt;
}

/// `text` as an integer in `base` (no prefix), or nullopt unless all of
/// it is one in-range number.
template <std::integral T>
[[nodiscard]] std::optional<T> to_number(std::string_view text,
                                         int base = 10) noexcept {
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value, base);
    if (ec != std::errc() || ptr != end) {
        return std::nullopt;
    }
    return value;
}

/// `text` as a double, or nullopt unless all of it is one decimal
/// number that neither overflows nor underflows to zero.
template <std::floating_point T>
[[nodiscard]] std::optional<T> to_number(std::string_view text) noexcept {
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end) {
        return std::nullopt;
    }
    return value;
}

} // namespace fpm::text
