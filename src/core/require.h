// Precondition / invariant checking helpers.
//
// Public API entry points validate their arguments with `require()`, which
// throws std::invalid_argument; internal invariants use `ensure()`, which
// throws std::logic_error. Both are always on: the simulations in this
// library are configuration-heavy and silent misconfiguration is far more
// expensive than a branch. A passing check allocates nothing, so a message
// is either a literal or a callable that builds the message and runs only
// when the check fails:
//
//   require(n > 0, "Foo: n must be positive");
//   require(i < size, [&] { return "Foo: index " + std::to_string(i); });
//
// A `std::string` argument is a compile error: it would be formatted before
// the check runs, on every passing call.
#pragma once

#include <cstddef>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace epm {
namespace detail {

/// The message a failed check throws: `what` itself, or what it returns.
template <typename Message>
decltype(auto) check_message(const Message& what) {
  static_assert(!std::is_same_v<Message, std::string>,
                "require/ensure: pass a literal, or a lambda that formats the "
                "message only when the check fails");
  if constexpr (std::is_invocable_v<const Message&>) {
    return what();
  } else {
    return (what);
  }
}

}  // namespace detail

/// Throws std::invalid_argument with `what` unless `cond` holds.
template <typename Message>
inline void require(bool cond, const Message& what) {
  if (!cond) throw std::invalid_argument(detail::check_message(what));
}

/// Throws std::logic_error with `what` unless `cond` holds.
template <typename Message>
inline void ensure(bool cond, const Message& what) {
  if (!cond) throw std::logic_error(detail::check_message(what));
}

/// `count`, a whole number of steps such as ceil(horizon / step), as a
/// std::size_t, where a plain cast of a NaN, negative or too-large double
/// is undefined behaviour: those throw std::invalid_argument naming `what`.
inline std::size_t checked_count(double count, const char* what) {
  // 2^64 where std::size_t is 64-bit: the first double past its range.
  constexpr double kLimit =
      2.0 * static_cast<double>(std::numeric_limits<std::size_t>::max() / 2 + 1);
  if (!(count >= 0.0 && count < kLimit)) {
    char text[32];
    std::snprintf(text, sizeof text, "%g", count);
    throw std::invalid_argument(std::string(what) + " = " + text +
                                " is not a count std::size_t can hold");
  }
  return static_cast<std::size_t>(count);
}

}  // namespace epm
