#include "math/vec3.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace swarmfuzz::math {
namespace {

TEST(Vec3, ArithmeticOperators) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(a * 2.0, Vec3(2, 4, 6));
  EXPECT_EQ(2.0 * a, Vec3(2, 4, 6));
  EXPECT_EQ(b / 2.0, Vec3(2, 2.5, 3));
  EXPECT_EQ(-a, Vec3(-1, -2, -3));
}

TEST(Vec3, CompoundAssignment) {
  Vec3 v{1, 1, 1};
  v += Vec3{1, 2, 3};
  EXPECT_EQ(v, Vec3(2, 3, 4));
  v -= Vec3{1, 1, 1};
  EXPECT_EQ(v, Vec3(1, 2, 3));
  v *= 3.0;
  EXPECT_EQ(v, Vec3(3, 6, 9));
}

TEST(Vec3, DotAndCross) {
  const Vec3 x{1, 0, 0}, y{0, 1, 0}, z{0, 0, 1};
  EXPECT_DOUBLE_EQ(x.dot(y), 0.0);
  EXPECT_DOUBLE_EQ(Vec3(1, 2, 3).dot(Vec3(4, 5, 6)), 32.0);
  EXPECT_EQ(x.cross(y), z);
  EXPECT_EQ(y.cross(x), -z);
}

TEST(Vec3, Norms) {
  const Vec3 v{3, 4, 12};
  EXPECT_DOUBLE_EQ(v.norm_sq(), 169.0);
  EXPECT_DOUBLE_EQ(v.norm(), 13.0);
  EXPECT_DOUBLE_EQ(v.norm_xy(), 5.0);
  EXPECT_EQ(v.horizontal(), Vec3(3, 4, 0));
}

TEST(Vec3, NormalizedUnitLength) {
  const Vec3 v{3, -4, 0};
  const Vec3 n = v.normalized();
  EXPECT_NEAR(n.norm(), 1.0, 1e-12);
  EXPECT_NEAR(n.x, 0.6, 1e-12);
  EXPECT_NEAR(n.y, -0.8, 1e-12);
}

TEST(Vec3, NormalizedZeroIsZero) {
  EXPECT_EQ(Vec3{}.normalized(), Vec3{});
}

TEST(Vec3, ClampedLimitsNorm) {
  const Vec3 v{3, 4, 0};
  EXPECT_EQ(v.clamped(10.0), v);  // under the limit: unchanged
  const Vec3 c = v.clamped(1.0);
  EXPECT_NEAR(c.norm(), 1.0, 1e-12);
  // Direction preserved.
  EXPECT_NEAR(c.x / c.y, v.x / v.y, 1e-12);
}

TEST(Vec3, DistanceHelpers) {
  EXPECT_DOUBLE_EQ(distance(Vec3(0, 0, 0), Vec3(3, 4, 0)), 5.0);
  EXPECT_DOUBLE_EQ(distance_xy(Vec3(0, 0, 10), Vec3(3, 4, -5)), 5.0);
}

TEST(Vec3, Lerp) {
  const Vec3 a{0, 0, 0}, b{10, 20, 30};
  EXPECT_EQ(lerp(a, b, 0.0), a);
  EXPECT_EQ(lerp(a, b, 1.0), b);
  EXPECT_EQ(lerp(a, b, 0.5), Vec3(5, 10, 15));
  // Not clamped: extrapolation allowed.
  EXPECT_EQ(lerp(a, b, 2.0), Vec3(20, 40, 60));
}

// The early return in clamped() must reproduce the sqrt-first rule bit for
// bit, including at the boundary, for degenerate bounds and for non-finite
// input.
Vec3 clamped_sqrt_first(const Vec3& v, double max_norm) {
  const double n = v.norm();
  return (n > max_norm && n > 0.0) ? v * (max_norm / n) : v;
}

void expect_same_bits(const Vec3& v, double max_norm) {
  const Vec3 got = v.clamped(max_norm);
  const Vec3 want = clamped_sqrt_first(v, max_norm);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.x), std::bit_cast<std::uint64_t>(want.x))
      << v << " max " << max_norm;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.y), std::bit_cast<std::uint64_t>(want.y))
      << v << " max " << max_norm;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.z), std::bit_cast<std::uint64_t>(want.z))
      << v << " max " << max_norm;
}

TEST(Vec3, ClampedMatchesSqrtFirstBitForBit) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Norm equal to the bound and one ulp either side of it, for the bound
  // and for the vector.
  for (const Vec3& v : {Vec3{3, 4, 0}, Vec3{0.1, 0.2, 0.3}, Vec3{-7e5, 2e5, 1e-3},
                        Vec3{1e-140, 2e-140, 0}, Vec3{4.5, 0, 0}}) {
    const double n = v.norm();
    for (const double max_norm : {n, std::nextafter(n, 0.0), std::nextafter(n, inf)}) {
      expect_same_bits(v, max_norm);
      for (const double scale : {std::nextafter(1.0, 0.0), std::nextafter(1.0, 2.0)}) {
        expect_same_bits(v * scale, max_norm);
        expect_same_bits(Vec3{std::nextafter(v.x, inf), v.y, v.z}, max_norm);
        expect_same_bits(Vec3{std::nextafter(v.x, -inf), v.y, v.z}, max_norm);
      }
    }
  }
  // The zero vector, and bounds of zero, below zero, +inf and NaN.
  for (const Vec3& v : {Vec3{}, Vec3{-0.0, 0.0, -0.0}, Vec3{1, 2, 3}, Vec3{1e300, 0, 0}}) {
    for (const double max_norm : {0.0, -0.0, -1.0, inf, -inf, nan, 1.0, 1e-300}) {
      expect_same_bits(v, max_norm);
    }
  }
  // NaN and infinite components.
  for (const Vec3& v : {Vec3{nan, 0, 0}, Vec3{0, inf, 0}, Vec3{-inf, 1, 2}, Vec3{nan, inf, 1},
                        Vec3{1e200, 1e200, 0}}) {
    for (const double max_norm : {0.0, 1.0, 1e300, inf}) expect_same_bits(v, max_norm);
  }
  // Near-boundary vectors across magnitudes, down to bounds whose square
  // is subnormal or underflows.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next_unit = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) * 0x1p-53;
  };
  for (int e = -170; e <= 170; e += 4) {
    for (int k = 0; k < 200; ++k) {
      const Vec3 v{next_unit() - 0.5, next_unit() - 0.5, next_unit() - 0.5};
      const Vec3 scaled = v * std::pow(10.0, e);
      const double max_norm = scaled.norm() * (1.0 + (next_unit() - 0.5) * 1e-11);
      expect_same_bits(scaled, max_norm);
    }
  }
}

TEST(Vec3, StreamOutput) {
  std::ostringstream os;
  os << Vec3{1, 2.5, -3};
  EXPECT_EQ(os.str(), "(1, 2.5, -3)");
}

}  // namespace
}  // namespace swarmfuzz::math
