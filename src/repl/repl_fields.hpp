/// \file repl_fields.hpp
/// \brief The one `key=value` reader of REPL control lines, shared by
///        both ends of the replication stream.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>

#include "fpm/common/error.hpp"

namespace fpm::repl {

/// The value of the first space-separated `key=value` token of `line`;
/// throws fpm::Error when no token carries `key`.
inline std::string line_field(const std::string& line,
                              const std::string& key) {
    const std::string needle = key + "=";
    for (std::size_t at = 0; at < line.size();) {
        std::size_t end = line.find(' ', at);
        if (end == std::string::npos) {
            end = line.size();
        }
        if (line.compare(at, needle.size(), needle) == 0) {
            return line.substr(at + needle.size(), end - at - needle.size());
        }
        at = end + 1;
    }
    throw Error("REPL line missing " + key + "=: " + line);
}

/// line_field() as a decimal u64: digits only, so an empty value, a sign
/// or a value past 2^64 - 1 throws fpm::Error instead of wrapping.
inline std::uint64_t parse_u64_field(const std::string& line,
                                     const std::string& key) {
    const std::string text = line_field(line, key);
    std::uint64_t value = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    FPM_CHECK(ec == std::errc() && end == text.data() + text.size(),
              "malformed " + key + "= in REPL line: " + line);
    return value;
}

} // namespace fpm::repl
