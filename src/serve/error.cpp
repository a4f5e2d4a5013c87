#include "fpm/serve/error.hpp"

#include <array>

namespace fpm::serve {

namespace {

/// Indexed by static_cast<std::size_t>(ErrorCode).
constexpr std::array<std::string_view, 7> kTokens = {
    "internal",          "busy",        "unsupported_verb",
    "feedback_disabled", "bad_request", "store_unavailable",
    "read_only",
};

} // namespace

std::string_view error_token(ErrorCode code) noexcept {
    const auto index = static_cast<std::size_t>(code);
    return index < kTokens.size() ? kTokens[index] : kTokens[0];
}

std::optional<ErrorCode> parse_error_token(std::string_view token) noexcept {
    for (std::size_t i = 0; i < kTokens.size(); ++i) {
        if (token == kTokens[i]) {
            return static_cast<ErrorCode>(i);
        }
    }
    return std::nullopt;
}

} // namespace fpm::serve
