// Error handling primitives shared by every layer of the library.
//
// The library throws exceptions derived from arcade::Error at its API
// boundaries.  Internal invariants use ARCADE_ASSERT, which is active in
// all build types: a violated invariant in a numerical engine silently
// produces wrong probabilities, which is far worse than an abort.
#ifndef ARCADE_SUPPORT_ERRORS_HPP
#define ARCADE_SUPPORT_ERRORS_HPP

#include <stdexcept>
#include <string>

namespace arcade {

/// Root of the library's exception hierarchy.
class Error : public std::runtime_error {
public:
    explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller supplied an argument that violates a documented precondition.
class InvalidArgument : public Error {
public:
    explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// A textual input (expression, PRISM model, XML, CSL formula) failed to parse.
class ParseError : public Error {
public:
    ParseError(const std::string& what, std::size_t line, std::size_t column)
        : Error(what + " (line " + std::to_string(line) + ", column " +
                std::to_string(column) + ")"),
          line_(line),
          column_(column) {}

    explicit ParseError(const std::string& what) : Error(what), line_(0), column_(0) {}

    [[nodiscard]] std::size_t line() const noexcept { return line_; }
    [[nodiscard]] std::size_t column() const noexcept { return column_; }

private:
    std::size_t line_;
    std::size_t column_;
};

/// An iterative numerical method failed to converge within its budget.
class ConvergenceError : public Error {
public:
    explicit ConvergenceError(const std::string& what) : Error(what) {}
};

/// A model is structurally unsuitable for the requested analysis
/// (e.g. steady state of an empty chain, reward query without rewards).
class ModelError : public Error {
public:
    explicit ModelError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] void assertion_failed(const char* expr, const char* file, int line,
                                   const std::string& message);
}  // namespace detail

}  // namespace arcade

/// Always-on invariant check.  `msg` may use std::string concatenation.
#define ARCADE_ASSERT(expr, msg)                                              \
    do {                                                                      \
        if (!(expr)) {                                                        \
            ::arcade::detail::assertion_failed(#expr, __FILE__, __LINE__,    \
                                               (msg));                        \
        }                                                                     \
    } while (false)

#endif  // ARCADE_SUPPORT_ERRORS_HPP
