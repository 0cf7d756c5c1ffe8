// Property test for the columnar codecs (compress.h): encode -> decode is
// a bit-exact identity over arbitrary doubles. 10,000 randomized series per
// seed x 3 seeds, mixing the shapes real counters produce (constant runs,
// monotone ramps, stuck-at alternation) with adversarial bit patterns
// (NaNs with payloads, denormals, infinities, signed zero) that arithmetic
// comparison would mangle — the codecs must treat every double as an opaque
// 64-bit pattern. A round trip alone would pass a writer and reader that
// agree on different bytes, so the word-wise bit streams are also pinned
// byte for byte against a bit-at-a-time reference written here.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "telemetry/compress.h"

namespace epm::telemetry {
namespace {

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

double nasty_double(Rng& rng) {
  static const double kPool[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::signaling_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::epsilon(),
      1.0,
      -1.0,
      1e308,
      4.9e-324,
  };
  if (rng.bernoulli(0.5)) {
    return kPool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(std::size(kPool)) - 1))];
  }
  // A fully random bit pattern: hits NaN payloads, denormals, and every
  // exponent with equal prejudice.
  return std::bit_cast<double>(rng.next_u64());
}

/// One randomized series: (times, values) of length 0..40 in one of the
/// reference-mix shapes, or raw adversarial patterns.
void make_series(Rng& rng, std::vector<double>& times, std::vector<double>& values) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(0, 40));
  times.clear();
  values.clear();
  const int shape = static_cast<int>(rng.uniform_int(0, 4));
  double t = rng.uniform(0.0, 1e6);
  const double cadence = rng.bernoulli(0.5) ? 15.0 : rng.uniform(0.1, 120.0);
  double v = static_cast<double>(rng.uniform_int(-1000, 1000));
  const double stuck = static_cast<double>(rng.uniform_int(-1000, 1000));
  for (std::size_t i = 0; i < n; ++i) {
    switch (shape) {
      case 0:  // constant run on a fixed cadence
        break;
      case 1:  // monotone ramp (cumulative counter)
        v += static_cast<double>(rng.uniform_int(0, 100));
        break;
      case 2:  // stuck-at alternation in runs
        if (rng.bernoulli(0.2)) v = rng.bernoulli(0.5) ? stuck : v + 1.0;
        break;
      case 3:  // adversarial values on a sane cadence
        v = nasty_double(rng);
        break;
      default:  // adversarial values AND times (codec-contract torture)
        v = nasty_double(rng);
        break;
    }
    times.push_back(shape == 4 ? nasty_double(rng) : t);
    values.push_back(v);
    t += cadence;
    if (shape != 4 && rng.bernoulli(0.05)) t += cadence * 37.0;  // gap
  }
}

TEST(TelemetryCompressProperty, EncodeDecodeIsBitExactOver30kRandomSeries) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    std::vector<double> times;
    std::vector<double> values;
    std::vector<double> rt_times;
    std::vector<double> rt_values;
    for (int series = 0; series < 10'000; ++series) {
      make_series(rng, times, values);

      BitWriter tw;
      encode_times(times.data(), times.size(), tw);
      const auto time_bytes = tw.finish();
      BitReader tr(time_bytes);
      rt_times.assign(times.size(), 0.0);
      decode_times(tr, rt_times.data(), rt_times.size());
      ASSERT_TRUE(bit_equal(times, rt_times))
          << "time round-trip diverged (seed " << seed << ", series " << series
          << ", n " << times.size() << ")";

      BitWriter vw;
      encode_values(values.data(), values.size(), vw);
      const auto value_bytes = vw.finish();
      BitReader vr(value_bytes);
      rt_values.assign(values.size(), 0.0);
      decode_values(vr, rt_values.data(), rt_values.size());
      ASSERT_TRUE(bit_equal(values, rt_values))
          << "value round-trip diverged (seed " << seed << ", series " << series
          << ", n " << values.size() << ")";
    }
  }
}

TEST(TelemetryCompressProperty, BitStreamRoundTripsArbitraryWidths) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::pair<std::uint64_t, unsigned>> chunks;
    BitWriter writer;
    for (int i = 0; i < 50; ++i) {
      const auto width = static_cast<unsigned>(rng.uniform_int(1, 64));
      const std::uint64_t bits =
          width == 64 ? rng.next_u64() : (rng.next_u64() & ((1ull << width) - 1));
      chunks.emplace_back(bits, width);
      writer.put(bits, width);
    }
    const auto bytes = writer.finish();
    BitReader reader(bytes);
    for (const auto& [bits, width] : chunks) {
      ASSERT_EQ(reader.get(width), bits) << "width " << width;
    }
  }
}

/// The stream format, one bit at a time: MSB first, the last byte
/// zero-padded.
struct ReferenceWriter {
  std::vector<std::uint8_t> bytes;
  std::size_t bits = 0;

  void put(std::uint64_t value, unsigned n) {
    for (unsigned i = n; i-- > 0;) {
      if (bits % 8 == 0) bytes.push_back(0);
      if ((value >> i) & 1u) {
        bytes.back() = static_cast<std::uint8_t>(bytes.back() | (0x80u >> (bits % 8)));
      }
      ++bits;
    }
  }
};

/// Reads `n` bits at bit offset `pos` of `bytes`, MSB first; bits past the
/// end read as zeros.
std::uint64_t reference_get(const std::vector<std::uint8_t>& bytes, std::size_t& pos,
                            unsigned n) {
  std::uint64_t out = 0;
  for (unsigned i = 0; i < n; ++i, ++pos) {
    const unsigned bit =
        pos / 8 < bytes.size() ? (bytes[pos / 8] >> (7 - pos % 8)) & 1u : 0u;
    out = (out << 1) | bit;
  }
  return out;
}

std::uint64_t low_bits(std::uint64_t value, unsigned n) {
  return n == 64 ? value : value & ((1ull << n) - 1);
}

TEST(TelemetryCompress, BitStreamsMatchABitAtATimeReferenceAtEveryOffset) {
  // Every fill offset 0-63 of the writer's word, then every width 1-64 with
  // garbage above the width, then a chunk of random width across the next
  // word boundary. The reader gets an exact-size heap copy, so a read past
  // the stream is a heap overflow under ASan, and it must read every chunk
  // back, then zeros past the end.
  Rng rng(64);
  for (unsigned offset = 0; offset < 64; ++offset) {
    for (unsigned width = 1; width <= 64; ++width) {
      const unsigned tail = static_cast<unsigned>(rng.uniform_int(1, 64));
      const std::uint64_t chunks[] = {rng.next_u64(), rng.next_u64(), rng.next_u64()};
      const unsigned widths[] = {offset, width, tail};
      BitWriter writer;
      ReferenceWriter reference;
      for (int c = 0; c < 3; ++c) {
        writer.put(chunks[c], widths[c]);
        reference.put(chunks[c], widths[c]);
      }
      ASSERT_EQ(writer.bit_count(), reference.bits);
      const std::vector<std::uint8_t> bytes = writer.finish();
      ASSERT_EQ(bytes, reference.bytes) << "offset " << offset << ", width " << width;

      const auto exact = std::make_unique<std::uint8_t[]>(bytes.size());
      std::copy(bytes.begin(), bytes.end(), exact.get());
      BitReader reader(exact.get(), bytes.size());
      for (int c = 0; c < 3; ++c) {
        ASSERT_EQ(reader.get(widths[c]), low_bits(chunks[c], widths[c]))
            << "offset " << offset << ", width " << width << ", chunk " << c;
      }
      EXPECT_EQ(reader.get(64), 0u);
      EXPECT_EQ(reader.get(7), 0u);

      // Reads of random widths that do not line up with the chunks, past
      // the end too.
      BitReader wide(exact.get(), bytes.size());
      std::size_t pos = 0;
      while (pos < reference.bits + 80) {
        const auto n = static_cast<unsigned>(rng.uniform_int(1, 64));
        ASSERT_EQ(wide.get(n), reference_get(bytes, pos, n))
            << "offset " << offset << ", width " << width << ", bit " << pos;
      }
    }
  }
}

TEST(TelemetryCompress, ConstantCadenceSeriesCompressesFarBelowRaw) {
  // 1024 identical values on a fixed 15 s cadence: after the two seed
  // samples, every timestamp is a predictor hit (1 bit) and every value an
  // identical-XOR (1 bit) — the whole block should land near 2 bits/point
  // against 128 raw.
  constexpr std::size_t kN = 1024;
  std::vector<double> times(kN);
  std::vector<double> values(kN, 42.0);
  for (std::size_t i = 0; i < kN; ++i) times[i] = 15.0 * static_cast<double>(i);
  BitWriter tw;
  encode_times(times.data(), kN, tw);
  BitWriter vw;
  encode_values(values.data(), kN, vw);
  const std::size_t payload = tw.finish().size() + vw.finish().size();
  EXPECT_LT(payload, kN * 16 / 32);  // >= 32x on the ideal series
}

}  // namespace
}  // namespace epm::telemetry
