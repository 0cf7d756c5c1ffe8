// The sixteen-lane mask kernels against their plain loops: random blocks at
// every alignment, pinned IEEE edge values (NaN of either sign, signed
// zeros, infinities, subnormals and the finite limits) as lanes and as the
// bound, and every byte value in every lane.
#include "core/block_mask.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/rng.h"

namespace epm {
namespace {

using Limits = std::numeric_limits<double>;

const std::vector<double>& edge_values() {
  static const std::vector<double> values = {
      Limits::quiet_NaN(),     -Limits::quiet_NaN(),
      Limits::signaling_NaN(), Limits::infinity(),
      -Limits::infinity(),     0.0,
      -0.0,                    Limits::denorm_min(),
      -Limits::denorm_min(),   Limits::min() / 2.0,
      1e-310,                  Limits::min(),
      -Limits::min(),          Limits::max(),
      Limits::lowest(),        1.0,
      -1.0,                    Limits::epsilon(),
  };
  return values;
}

// Each edge value against each edge bound, in every lane, with the other
// lanes cycling through the edge values. A NaN lane or bound sets its bit:
// cmpnge is unordered-true, cmplt is not.
TEST(BlockMask, NotGePinsEveryEdgeValueAgainstEveryEdgeBound) {
  const auto& edges = edge_values();
  std::array<double, kBlockLanes> block;
  for (std::size_t shift = 0; shift < edges.size(); ++shift) {
    for (std::size_t i = 0; i < kBlockLanes; ++i) {
      block[i] = edges[(i + shift) % edges.size()];
    }
    for (const double bound : edges) {
      EXPECT_EQ(mask_not_ge(block.data(), bound),
                mask_not_ge_plain(block.data(), bound))
          << "shift " << shift << " bound " << bound;
    }
  }
  // The first 16 edge values against 0: set for the three NaNs, -inf,
  // -denorm_min, -min and lowest (lanes 0, 1, 2, 4, 8, 12, 14).
  std::copy_n(edges.begin(), kBlockLanes, block.begin());
  EXPECT_EQ(mask_not_ge_plain(block.data(), 0.0), 0x5117u);
  EXPECT_EQ(mask_not_ge(block.data(), 0.0), 0x5117u);
  // Against a NaN bound every lane is set.
  EXPECT_EQ(mask_not_ge(block.data(), Limits::quiet_NaN()), 0xffffu);
}

// Random blocks mixing ordinary values, values equal to the bound and edge
// values, loaded at every offset of a buffer (the kernels load unaligned).
TEST(BlockMask, NotGeMatchesPlainLoopOnRandomBlocksAtEveryOffset) {
  const auto& edges = edge_values();
  Rng rng(0xb10c);
  std::vector<double> buffer(kBlockLanes * 4);
  for (int round = 0; round < 2000; ++round) {
    const double bound =
        rng.uniform01() < 0.2
            ? edges[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(edges.size()) - 1))]
            : rng.uniform(-10.0, 10.0);
    for (double& x : buffer) {
      const double pick = rng.uniform01();
      if (pick < 0.15) {
        x = edges[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(edges.size()) - 1))];
      } else if (pick < 0.25) {
        x = bound;
      } else if (pick < 0.3) {
        x = std::nextafter(bound, rng.uniform01() < 0.5 ? -Limits::infinity()
                                                        : Limits::infinity());
      } else {
        x = rng.uniform(-12.0, 12.0);
      }
    }
    for (std::size_t offset = 0; offset + kBlockLanes <= buffer.size();
         ++offset) {
      const double* x = buffer.data() + offset;
      ASSERT_EQ(mask_not_ge(x, bound), mask_not_ge_plain(x, bound))
          << "round " << round << " offset " << offset;
    }
  }
}

// Every byte value in every lane, against every value compared for; each
// block is loaded at an odd offset.
TEST(BlockMask, EqMatchesPlainLoopForEveryByteInEveryLane) {
  std::array<std::uint8_t, kBlockLanes + 1> buffer{};
  std::uint8_t* block = buffer.data() + 1;
  for (std::size_t lane = 0; lane < kBlockLanes; ++lane) {
    for (unsigned byte = 0; byte < 256; ++byte) {
      for (std::size_t i = 0; i < kBlockLanes; ++i) {
        // The other lanes hold a spread of values, one of them equal.
        block[i] = static_cast<std::uint8_t>(byte + 17 * (i + 1));
      }
      block[lane] = static_cast<std::uint8_t>(byte);
      ASSERT_TRUE(mask_eq(block, block[lane]) & (1u << lane));
      for (unsigned value = 0; value < 256; ++value) {
        const auto v = static_cast<std::uint8_t>(value);
        ASSERT_EQ(mask_eq(block, v), mask_eq_plain(block, v))
            << "lane " << lane << " byte " << byte << " value " << value;
      }
    }
  }
}

TEST(BlockMask, EqMatchesPlainLoopOnRandomBlocksAtEveryOffset) {
  Rng rng(0xe9);
  std::vector<std::uint8_t> buffer(kBlockLanes * 4);
  for (int round = 0; round < 2000; ++round) {
    // Few distinct values, so lanes often match.
    for (std::uint8_t& x : buffer) {
      x = static_cast<std::uint8_t>(rng.uniform_int(0, 4) * 63);
    }
    const auto value = static_cast<std::uint8_t>(rng.uniform_int(0, 4) * 63);
    for (std::size_t offset = 0; offset + kBlockLanes <= buffer.size();
         ++offset) {
      const std::uint8_t* x = buffer.data() + offset;
      ASSERT_EQ(mask_eq(x, value), mask_eq_plain(x, value))
          << "round " << round << " offset " << offset;
    }
  }
}

TEST(BlockMask, ForEachBitVisitsSetBitsLowestFirst) {
  std::vector<std::size_t> seen;
  for_each_bit(0u, 100, [&](std::size_t i) { seen.push_back(i); });
  EXPECT_TRUE(seen.empty());
  for_each_bit(0x8421u, 100, [&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{100, 105, 110, 115}));
  seen.clear();
  for_each_bit(0xffffu, 0, [&](std::size_t i) { seen.push_back(i); });
  ASSERT_EQ(seen.size(), kBlockLanes);
  for (std::size_t i = 0; i < kBlockLanes; ++i) EXPECT_EQ(seen[i], i);
}

}  // namespace
}  // namespace epm
