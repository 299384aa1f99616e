// 3-D vector used throughout the simulator.
//
// Drone positions/velocities live in a local ENU-like frame: x east (mission
// axis), y north (lateral), z up. Most swarm-control math is horizontal, so
// helpers for the XY projection are provided.
#pragma once

#include <cmath>
#include <ostream>

namespace swarmfuzz::math {

struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  constexpr Vec3() = default;
  constexpr Vec3(double x_, double y_, double z_) : x(x_), y(y_), z(z_) {}

  constexpr Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
  constexpr Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  constexpr Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
  constexpr Vec3 operator/(double s) const { return {x / s, y / s, z / s}; }
  constexpr Vec3 operator-() const { return {-x, -y, -z}; }

  constexpr Vec3& operator+=(const Vec3& o) {
    x += o.x; y += o.y; z += o.z;
    return *this;
  }
  constexpr Vec3& operator-=(const Vec3& o) {
    x -= o.x; y -= o.y; z -= o.z;
    return *this;
  }
  constexpr Vec3& operator*=(double s) {
    x *= s; y *= s; z *= s;
    return *this;
  }

  constexpr bool operator==(const Vec3&) const = default;

  [[nodiscard]] constexpr double dot(const Vec3& o) const {
    return x * o.x + y * o.y + z * o.z;
  }
  [[nodiscard]] constexpr Vec3 cross(const Vec3& o) const {
    return {y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x};
  }
  [[nodiscard]] constexpr double norm_sq() const { return dot(*this); }
  [[nodiscard]] double norm() const { return std::sqrt(norm_sq()); }

  // Horizontal (XY-plane) helpers.
  [[nodiscard]] constexpr double norm_xy_sq() const { return x * x + y * y; }
  [[nodiscard]] double norm_xy() const { return std::sqrt(norm_xy_sq()); }
  [[nodiscard]] constexpr Vec3 horizontal() const { return {x, y, 0.0}; }

  // Unit vector; returns the zero vector when the norm underflows.
  [[nodiscard]] Vec3 normalized() const {
    const double n = norm();
    return n > 1e-12 ? *this / n : Vec3{};
  }

  // Returns this vector scaled so its norm does not exceed `max_norm`.
  //
  // Vectors well inside the bound return before the sqrt. Rounding is
  // monotone and s = norm_sq() is a double, so s < fl(fl(max^2) (1 - 1e-12))
  // implies s < max^2 exactly, hence sqrt(s) < max_norm and the sqrt-first
  // test below would return *this too. The 1e-12 margin also absorbs a
  // norm_sq() that a contracting compiler evaluates differently in the two
  // places. Every other input (NaN, inf, a non-positive bound) takes the
  // original path unchanged (DESIGN.md §9).
  [[nodiscard]] Vec3 clamped(double max_norm) const {
    if (max_norm > 0.0 && norm_sq() < max_norm * max_norm * (1.0 - 1e-12)) {
      return *this;
    }
    const double n = norm();
    return (n > max_norm && n > 0.0) ? *this * (max_norm / n) : *this;
  }
};

constexpr Vec3 operator*(double s, const Vec3& v) { return v * s; }

inline double distance(const Vec3& a, const Vec3& b) { return (a - b).norm(); }
inline double distance_xy(const Vec3& a, const Vec3& b) { return (a - b).norm_xy(); }

// Linear interpolation a + t*(b-a); t is not clamped.
constexpr Vec3 lerp(const Vec3& a, const Vec3& b, double t) {
  return a + (b - a) * t;
}

inline std::ostream& operator<<(std::ostream& os, const Vec3& v) {
  return os << '(' << v.x << ", " << v.y << ", " << v.z << ')';
}

}  // namespace swarmfuzz::math
