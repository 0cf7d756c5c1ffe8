#include "telemetry/compress.h"

namespace epm::telemetry {
namespace {

std::uint64_t to_bits(double v) { return std::bit_cast<std::uint64_t>(v); }
double from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }

}  // namespace

void encode_times(const double* times_s, std::size_t n, BitWriter& out) {
  if (n == 0) return;
  out.put(to_bits(times_s[0]), 64);
  if (n == 1) return;
  out.put(to_bits(times_s[1]), 64);
  for (std::size_t i = 2; i < n; ++i) {
    // Linear predictor evaluated in binary64 — the decoder repeats the same
    // expression, so a hit reproduces the stored bit pattern exactly.
    const double predicted = times_s[i - 1] + (times_s[i - 1] - times_s[i - 2]);
    if (to_bits(times_s[i]) == to_bits(predicted)) {
      out.put_bit(false);
    } else {
      out.put_bit(true);
      out.put(to_bits(times_s[i]), 64);
    }
  }
}

void decode_times(BitReader& in, double* times_s, std::size_t n) {
  if (n == 0) return;
  double before = from_bits(in.get(64));
  times_s[0] = before;
  if (n == 1) return;
  double last = from_bits(in.get(64));
  times_s[1] = last;
  // The two previous times stay in registers rather than being read back
  // from the output.
  for (std::size_t i = 2; i < n; ++i) {
    const double t = in.get_bit() ? from_bits(in.get(64)) : last + (last - before);
    times_s[i] = t;
    before = last;
    last = t;
  }
}

void encode_values(const double* values, std::size_t n, BitWriter& out) {
  if (n == 0) return;
  std::uint64_t prev = to_bits(values[0]);
  out.put(prev, 64);
  // Current meaningful-bits window; invalid until the first non-zero XOR.
  unsigned win_lead = 65;
  unsigned win_len = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint64_t bits = to_bits(values[i]);
    const std::uint64_t x = bits ^ prev;
    prev = bits;
    if (x == 0) {
      out.put_bit(false);
      continue;
    }
    out.put_bit(true);
    // Cap the leading-zero count at 31 so it fits the 5-bit field; the
    // window just widens a little for tiny XORs.
    unsigned lead = static_cast<unsigned>(std::countl_zero(x));
    if (lead > 31) lead = 31;
    const unsigned trail = static_cast<unsigned>(std::countr_zero(x));
    const unsigned len = 64 - lead - trail;
    const unsigned win_trail = 64 - win_lead - win_len;
    if (win_lead <= 64 && lead >= win_lead && trail >= win_trail) {
      // Fits the previous window: '0' + the window's meaningful bits.
      out.put_bit(false);
      out.put(x >> win_trail, win_len);
    } else {
      // New window: '1' + 5-bit lead + 6-bit (len-1) + meaningful bits.
      out.put_bit(true);
      out.put(lead, 5);
      out.put(len - 1, 6);
      out.put(x >> trail, len);
      win_lead = lead;
      win_len = len;
    }
  }
}

void decode_values(BitReader& in, double* values, std::size_t n) {
  if (n == 0) return;
  std::uint64_t prev = in.get(64);
  values[0] = from_bits(prev);
  unsigned win_lead = 65;
  unsigned win_len = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (!in.get_bit()) {
      values[i] = from_bits(prev);
      continue;
    }
    std::uint64_t x = 0;
    if (!in.get_bit()) {
      const unsigned win_trail = 64 - win_lead - win_len;
      x = in.get(win_len) << win_trail;
    } else {
      const unsigned lead = static_cast<unsigned>(in.get(5));
      const unsigned len = static_cast<unsigned>(in.get(6)) + 1;
      const unsigned trail = 64 - lead - len;
      x = in.get(len) << trail;
      win_lead = lead;
      win_len = len;
    }
    prev ^= x;
    values[i] = from_bits(prev);
  }
}

}  // namespace epm::telemetry
