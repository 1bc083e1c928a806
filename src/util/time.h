// Virtual time for the discrete-event simulator.
//
// All simulated durations and instants are nanosecond-resolution signed
// 64-bit integers wrapped in strong types, so real (wall-clock) time and
// simulated time can never be mixed by accident. 2^63 ns ≈ 292 years of
// simulated time, far beyond any experiment here.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

namespace farm::util {

class Duration {
 public:
  constexpr Duration() = default;
  static constexpr Duration ns(std::int64_t v) { return Duration{v}; }
  static constexpr Duration us(std::int64_t v) { return Duration{v * 1'000}; }
  static constexpr Duration ms(std::int64_t v) {
    return Duration{v * 1'000'000};
  }
  static constexpr Duration sec(std::int64_t v) {
    return Duration{v * 1'000'000'000};
  }
  static constexpr Duration minutes(std::int64_t v) {
    return Duration{v * 60'000'000'000};
  }
  // Converts a floating-point second count (e.g. from an Almanac
  // expression like 10/res().PCIe) rounding to the nearest nanosecond.
  static constexpr Duration from_seconds(double s) {
    return Duration{static_cast<std::int64_t>(s * 1e9 + (s >= 0 ? 0.5 : -0.5))};
  }

  constexpr std::int64_t count_ns() const { return ns_; }
  constexpr double seconds() const { return static_cast<double>(ns_) / 1e9; }
  constexpr double millis() const { return static_cast<double>(ns_) / 1e6; }

  constexpr bool is_zero() const { return ns_ == 0; }
  constexpr bool is_positive() const { return ns_ > 0; }

  friend constexpr Duration operator+(Duration a, Duration b) {
    return Duration{a.ns_ + b.ns_};
  }
  friend constexpr Duration operator-(Duration a, Duration b) {
    return Duration{a.ns_ - b.ns_};
  }
  friend constexpr Duration operator*(Duration a, std::int64_t k) {
    return Duration{a.ns_ * k};
  }
  friend constexpr Duration operator*(std::int64_t k, Duration a) {
    return a * k;
  }
  friend constexpr Duration operator/(Duration a, std::int64_t k) {
    return Duration{a.ns_ / k};
  }
  constexpr Duration& operator+=(Duration o) {
    ns_ += o.ns_;
    return *this;
  }
  constexpr Duration& operator-=(Duration o) {
    ns_ -= o.ns_;
    return *this;
  }
  friend constexpr auto operator<=>(Duration, Duration) = default;

  std::string to_string() const;

 private:
  constexpr explicit Duration(std::int64_t v) : ns_(v) {}
  std::int64_t ns_ = 0;
};

class TimePoint {
 public:
  constexpr TimePoint() = default;
  static constexpr TimePoint origin() { return TimePoint{}; }
  static constexpr TimePoint from_ns(std::int64_t v) { return TimePoint{v}; }

  constexpr std::int64_t count_ns() const { return ns_; }
  constexpr double seconds() const { return static_cast<double>(ns_) / 1e9; }

  friend constexpr TimePoint operator+(TimePoint t, Duration d) {
    return TimePoint{t.ns_ + d.count_ns()};
  }
  friend constexpr TimePoint operator+(Duration d, TimePoint t) {
    return t + d;
  }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) {
    return Duration::ns(a.ns_ - b.ns_);
  }
  friend constexpr TimePoint operator-(TimePoint t, Duration d) {
    return TimePoint{t.ns_ - d.count_ns()};
  }
  constexpr TimePoint& operator+=(Duration d) {
    ns_ += d.count_ns();
    return *this;
  }
  friend constexpr auto operator<=>(TimePoint, TimePoint) = default;

  std::string to_string() const;

 private:
  constexpr explicit TimePoint(std::int64_t v) : ns_(v) {}
  std::int64_t ns_ = 0;
};

}  // namespace farm::util
