// Deterministic pseudo-random number generation.
//
// Every stochastic component in the library owns an epm::Rng seeded from the
// experiment configuration, so runs are exactly reproducible and independent
// components draw from statistically independent streams (derive per-component
// seeds with Rng::fork or SplitMix64).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

namespace epm {

/// SplitMix64: tiny, high-quality 64-bit mixer. Used to expand one user seed
/// into many stream seeds and to seed Xoshiro state.
///
/// The generator is a pure function of its counter: the k-th output after
/// seeding with `s` is `mix(s + k * kGamma)`. Batch consumers (the epoch
/// engine's per-client streams) exploit this by keeping only a draw count
/// k in a flat array and rebuilding the counter when they draw; `next()`
/// on an equivalent SplitMix64 produces the identical stream bit-for-bit
/// (asserted by the stream-equivalence regression test).
class SplitMix64 {
 public:
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  /// The stateless finalizer: one stream step is mix(state += kGamma).
  static constexpr std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t next() { return mix(state_ += kGamma); }

  /// Raw counter state, for block-draw consumers that advance streams in
  /// flat arrays and need to round-trip through a SplitMix64.
  std::uint64_t state() const { return state_; }

 private:
  std::uint64_t state_;
};

/// 64-bit FNV-1a over `words`, eight little-endian bytes each, continuing
/// from `hash` (by default the offset basis, the hash of no words).
constexpr std::uint64_t fnv1a(std::initializer_list<std::uint64_t> words,
                              std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const std::uint64_t word : words) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (byte * 8)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

/// A uniform draw in [0, 1) keyed by `words`: their FNV-1a through
/// SplitMix64::mix, top 53 bits. Every key owns an independent counter-mode
/// stream, so adding keys never perturbs the draws of others and no state
/// is kept.
inline double keyed_uniform(std::initializer_list<std::uint64_t> words) {
  return static_cast<double>(SplitMix64::mix(fnv1a(words)) >> 11) * 0x1.0p-53;
}

/// xoshiro256** generator with a distribution toolkit sized for this library.
///
/// Satisfies UniformRandomBitGenerator, so it also composes with <random>
/// distributions when needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 256-bit state words via SplitMix64 from `seed`.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Raw 64 uniform bits.
  result_type operator()() { return next_u64(); }
  result_type next_u64();

  /// A new independent generator derived from this one's stream.
  Rng fork();

  /// Uniform double in [0, 1).
  double uniform01();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Box-Muller (cached second deviate).
  double normal(double mean = 0.0, double stddev = 1.0);
  /// Lognormal with the given parameters of the underlying normal.
  double lognormal(double mu, double sigma);
  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate);
  /// Poisson-distributed count with the given mean (Knuth for small mean,
  /// normal approximation above 64).
  std::int64_t poisson(double mean);
  /// Bernoulli trial.
  bool bernoulli(double p);
  /// Pareto (heavy-tailed) with scale xm > 0 and shape alpha > 0.
  double pareto(double xm, double alpha);
  /// Index drawn according to `weights` (need not be normalized).
  std::size_t weighted_index(const std::vector<double>& weights);

 private:
  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace epm
