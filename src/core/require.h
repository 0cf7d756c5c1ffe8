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

}  // namespace epm
