/// \file error.hpp
/// \brief Typed error codes of the partition-service protocol.
///
/// Every error carries a stable machine-readable token that leads the
/// ERR line, so callers react to a *specific* failure (the client's
/// retry loop on `busy`, say) without string-matching:
///
///     ERR <token> [<message>]
///
/// The tokens are a closed, append-only set (`error_token()` /
/// `parse_error_token()` below); the human-readable message after the
/// token stays free-form and may change between releases.  A line whose
/// first token is not a known code decodes as ErrorCode::kInternal.
///
/// ServiceError is the exception that carries a code through the stack:
/// the engine, the registry, the store and the protocol dispatcher all
/// throw it where the failure class is known, and handle_request()
/// preserves the code onto the wire.  Plain fpm::Error still works
/// everywhere and is reported as kInternal.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "fpm/common/error.hpp"

namespace fpm::serve {

/// Stable failure classes of the wire protocol, in wire-token order.
/// Append only — the tokens are a compatibility surface (documented in
/// docs/protocol.md; the docs test enforces the table).
enum class ErrorCode {
    kInternal = 0,      ///< unclassified server-side failure
    kBusy,              ///< admission control rejected the connection
    kUnsupportedVerb,   ///< unknown request verb (e.g. v4 FEEDBACK at v3)
    kFeedbackDisabled,  ///< FEEDBACK without an installed adapt handler
    kBadRequest,        ///< malformed arguments or unknown model set
    kStoreUnavailable,  ///< durable model store rejected the mutation
    kReadOnly,          ///< write verb sent to a replica (v6)
};

/// The wire token of `code` (never empty).
[[nodiscard]] std::string_view error_token(ErrorCode code) noexcept;

/// Maps a wire token back to its code; nullopt for unknown tokens (a
/// newer server's code, or not a token at all).
[[nodiscard]] std::optional<ErrorCode>
parse_error_token(std::string_view token) noexcept;

/// An fpm::Error that knows its protocol error class.  Thrown by the
/// serve/adapt/store layers where the class is known; handle_request()
/// and ServeClient preserve the code across the wire.
class ServiceError : public Error {
public:
    ServiceError(ErrorCode code, const std::string& message)
        : Error(message), code_(code) {}

    [[nodiscard]] ErrorCode code() const noexcept { return code_; }

private:
    ErrorCode code_;
};

} // namespace fpm::serve
