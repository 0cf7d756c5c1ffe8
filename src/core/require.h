// Precondition / invariant checking helpers.
//
// Public API entry points validate their arguments with `require()`, which
// throws std::invalid_argument; internal invariants use `ensure()`, which
// throws std::logic_error. Both are always on: the simulations in this
// library are configuration-heavy and silent misconfiguration is far more
// expensive than a branch, but a passing check must not build a std::string
// from a literal message (a heap round trip), so messages pass through as is.
#pragma once

#include <stdexcept>
#include <string>

namespace epm {

/// Throws std::invalid_argument with `what` unless `cond` holds.
template <typename Message>
inline void require(bool cond, const Message& what) {
  if (!cond) throw std::invalid_argument(what);
}

/// Throws std::logic_error with `what` unless `cond` holds.
template <typename Message>
inline void ensure(bool cond, const Message& what) {
  if (!cond) throw std::logic_error(what);
}

}  // namespace epm
