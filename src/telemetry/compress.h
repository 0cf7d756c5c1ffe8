// Columnar block compression for the §5.3 telemetry firehose.
//
// Two codecs, both bit-exact round-trips over arbitrary doubles (NaN,
// denormals, signed zero — they operate on raw bit patterns, never on
// arithmetic values):
//
//   * Timestamps: predictive delta-of-delta. Counter samples arrive on a
//     fixed cadence, so t[i] almost always equals the linear prediction
//     t[i-1] + (t[i-1] - t[i-2]) *evaluated in binary64*; a predictor hit
//     costs one bit. Misses (first two samples, cadence changes, gaps)
//     store the raw 64-bit pattern. Because the decoder re-evaluates the
//     same double expression, reconstruction is bit-exact by construction —
//     no rounding argument needed.
//
//   * Values: Gorilla-style XOR (Pelkonen et al., VLDB'15). Fleet counters
//     are near-constant or slowly ramping, so consecutive bit patterns
//     share sign/exponent/high-mantissa bits; the XOR is zero or has a
//     narrow window of meaningful bits. Identical value -> 1 bit; window
//     reuse -> '10' + meaningful bits; new window -> '11' + 5-bit leading-
//     zero count + 6-bit length + meaningful bits.
//
// On the reference counter mix (see workload/fleet_counters.h) the two
// codecs together hold a sealed block under 2 bytes/point against 16 bytes
// raw — the >= 8x in-memory compression the EXP-AA gate enforces.
//
// Both streams move 64-bit words, as Gorilla packs its XOR stream: the
// writer gathers bits in a word and stores it whole, the reader refills a
// word-sized buffer with one load. The bytes are those of a stream written
// and read one bit at a time (TelemetryCompress.* pins them against a
// bit-at-a-time reference).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace epm::telemetry {

/// Append-only MSB-first bit stream. Bits gather in a 64-bit accumulator
/// that is stored a whole word at a time.
class BitWriter {
 public:
  /// Appends the low `n` bits of `bits` (0..64), most significant first;
  /// bits above the low `n` are ignored.
  void put(std::uint64_t bits, unsigned n) {
    bits &= n < 64 ? (1ull << n) - 1 : ~0ull;
    const unsigned room = 64 - fill_;
    if (n < room) {
      acc_ = (acc_ << n) | bits;
      fill_ += n;
      return;
    }
    // Top off the accumulator with the high `room` bits, store it, and keep
    // the remaining low bits.
    const unsigned rest = n - room;
    store_word((room < 64 ? acc_ << room : 0) | (bits >> rest));
    acc_ = bits;
    fill_ = rest;
  }
  void put_bit(bool bit) { put(bit ? 1u : 0u, 1); }

  /// Flushes the partial word (zero-padded to a byte) and returns the
  /// stream.
  std::vector<std::uint8_t> finish() {
    const std::uint64_t word = fill_ > 0 ? acc_ << (64 - fill_) : 0;
    for (unsigned k = 0; k < (fill_ + 7) / 8; ++k) {
      bytes_.push_back(static_cast<std::uint8_t>(word >> (56 - 8 * k)));
    }
    acc_ = 0;
    fill_ = 0;
    return std::move(bytes_);
  }

  std::size_t bit_count() const { return bytes_.size() * 8 + fill_; }

 private:
  void store_word(std::uint64_t word) {
    bytes_.resize(bytes_.size() + 8);
    std::uint8_t* out = bytes_.data() + bytes_.size() - 8;
    for (unsigned k = 0; k < 8; ++k) out[k] = static_cast<std::uint8_t>(word >> (56 - 8 * k));
  }

  std::vector<std::uint8_t> bytes_;
  /// The low `fill_` bits (0..63) are pending, oldest highest; bits above
  /// them are stale and shift out before a store.
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;
};

/// MSB-first reader over a BitWriter stream. Refills a 64-bit buffer with
/// one 8-byte load while 8 bytes remain, byte by byte near the end, and
/// never reads a byte past the stream; bits past the end read as zeros.
class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t bytes)
      : data_(data), bytes_(bytes) {}
  explicit BitReader(const std::vector<std::uint8_t>& bytes)
      : BitReader(bytes.data(), bytes.size()) {}

  /// Reads the next `n` bits (0..64) as an integer, first bit highest.
  std::uint64_t get(unsigned n) {
    if (n > avail_) {
      if (n > 56) {
        // A refill guarantees 56 bits: split wide reads.
        const std::uint64_t high = get(n - 32);
        return (high << 32) | get(32);
      }
      refill();
    }
    if (n == 0) return 0;
    const std::uint64_t out = buf_ >> (64 - n);
    buf_ = n < 64 ? buf_ << n : 0;
    avail_ -= n;
    return out;
  }
  bool get_bit() { return get(1) != 0; }

 private:
  /// Tops the buffer up to at least 56 bits (64 of them once the stream is
  /// exhausted: zeros follow the end). Bits below `avail_` are zeros or the
  /// stream's next bits — a word load also copies the bytes from `pos_` on
  /// that did not fit whole — so OR-ing the next bytes in place is exact.
  void refill() {
    if (bytes_ - pos_ >= 8) {
      buf_ |= load_word(data_ + pos_) >> avail_;
      pos_ += (63 - avail_) / 8;  // the bytes that fit whole under avail_
      avail_ |= 56;               // avail_ plus 8 bits per such byte
      return;
    }
    while (avail_ <= 56 && pos_ < bytes_) {
      buf_ |= static_cast<std::uint64_t>(data_[pos_++]) << (56 - avail_);
      avail_ += 8;
    }
    if (pos_ == bytes_) avail_ = 64;
  }

  /// The 8 bytes at `p` as a big-endian word: one load and a byte swap.
  static std::uint64_t load_word(const std::uint8_t* p) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, 8);
    if constexpr (std::endian::native == std::endian::little) {
      w = ((w & 0x00ff00ff00ff00ffull) << 8) | ((w >> 8) & 0x00ff00ff00ff00ffull);
      w = ((w & 0x0000ffff0000ffffull) << 16) | ((w >> 16) & 0x0000ffff0000ffffull);
      w = (w << 32) | (w >> 32);
    }
    return w;
  }

  const std::uint8_t* data_;
  std::size_t bytes_;
  std::size_t pos_ = 0;
  /// The next `avail_` (0..64) bits of the stream, first bit highest.
  std::uint64_t buf_ = 0;
  unsigned avail_ = 0;
};

/// Encodes `n` timestamps with the linear predictor; bit-exact decode.
void encode_times(const double* times_s, std::size_t n, BitWriter& out);
void decode_times(BitReader& in, double* times_s, std::size_t n);

/// Encodes `n` values with the Gorilla XOR scheme; bit-exact decode.
void encode_values(const double* values, std::size_t n, BitWriter& out);
void decode_values(BitReader& in, double* values, std::size_t n);

}  // namespace epm::telemetry
