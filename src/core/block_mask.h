// Sixteen-lane test masks for full-population walks.
//
// A walk over millions of clients that acts on few of them branches once
// per client on a test most clients fail. These kernels test a block of
// kBlockLanes consecutive elements at once and return the results as a bit
// mask (bit i for element i), so the walk branches once per block and then
// visits only the set bits, lowest first, with for_each_bit.
//
// Each kernel has a plain 16-lane loop beside it. The plain loop is the
// build for targets without SSE2 and the oracle the kernels are tested
// against (BlockMask.*). The kernels load unaligned, so a block may start at
// any element; it must not run past the end of its array.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace epm {

inline constexpr std::size_t kBlockLanes = 16;

/// Bit i set when !(x[i] >= bound): the exact negation of `x >= bound`, so
/// a NaN lane (or a NaN bound) sets its bit.
inline std::uint32_t mask_not_ge_plain(const double* x, double bound) {
  std::uint32_t mask = 0;
  for (std::size_t i = 0; i < kBlockLanes; ++i) {
    mask |= static_cast<std::uint32_t>(!(x[i] >= bound)) << i;
  }
  return mask;
}

/// Bit i set when x[i] == value.
inline std::uint32_t mask_eq_plain(const std::uint8_t* x, std::uint8_t value) {
  std::uint32_t mask = 0;
  for (std::size_t i = 0; i < kBlockLanes; ++i) {
    mask |= static_cast<std::uint32_t>(x[i] == value) << i;
  }
  return mask;
}

/// mask_not_ge_plain with SSE2: eight unaligned pairs through cmpnge_pd, an
/// unordered-true predicate like the plain loop's negation.
inline std::uint32_t mask_not_ge(const double* x, double bound) {
#ifdef __SSE2__
  const __m128d b = _mm_set1_pd(bound);
  std::uint32_t mask = 0;
#pragma GCC unroll 8
  for (std::size_t i = 0; i < kBlockLanes; i += 2) {
    const __m128d lanes = _mm_cmpnge_pd(_mm_loadu_pd(x + i), b);
    mask |= static_cast<std::uint32_t>(_mm_movemask_pd(lanes)) << i;
  }
  return mask;
#else
  return mask_not_ge_plain(x, bound);
#endif
}

/// mask_eq_plain with SSE2: one unaligned 16-byte compare.
inline std::uint32_t mask_eq(const std::uint8_t* x, std::uint8_t value) {
#ifdef __SSE2__
  const __m128i lanes = _mm_cmpeq_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(x)),
      _mm_set1_epi8(static_cast<char>(value)));
  return static_cast<std::uint32_t>(_mm_movemask_epi8(lanes));
#else
  return mask_eq_plain(x, value);
#endif
}

/// visit(base + i) for every set bit i of `mask`, lowest first.
template <typename Visit>
inline void for_each_bit(std::uint32_t mask, std::size_t base, Visit&& visit) {
  for (; mask != 0; mask &= mask - 1) {
    visit(base + static_cast<std::size_t>(std::countr_zero(mask)));
  }
}

}  // namespace epm
