#pragma once
// Strong time types for the simulator.
//
// All simulation time is kept as an integral number of picoseconds so that
// event ordering is exact and runs are bit-reproducible. Nanosecond doubles
// (the unit the paper reports) appear only at the edges: configuration and
// reporting.

#include <compare>
#include <cstdint>
#include <string>

namespace bb {

/// A point in simulated time or a duration, in integral picoseconds.
///
/// One type serves both instants and durations; the arithmetic below is the
/// common subset that is meaningful for either. Negative values are allowed
/// for intermediate arithmetic but never appear as event timestamps.
class TimePs {
 public:
  constexpr TimePs() = default;
  constexpr explicit TimePs(std::int64_t ps) : ps_(ps) {}

  /// Converts from nanoseconds, rounding to the nearest picosecond.
  static constexpr TimePs from_ns(double ns) {
    const double ps = ns * 1000.0;
    return TimePs(static_cast<std::int64_t>(ps >= 0 ? ps + 0.5 : ps - 0.5));
  }
  static constexpr TimePs from_us(double us) { return from_ns(us * 1e3); }
  static constexpr TimePs zero() { return TimePs(0); }
  /// A sentinel later than any reachable simulation time.
  static constexpr TimePs max() { return TimePs(INT64_MAX); }

  constexpr std::int64_t ps() const { return ps_; }
  constexpr double to_ns() const { return static_cast<double>(ps_) / 1000.0; }

  constexpr auto operator<=>(const TimePs&) const = default;

  constexpr TimePs operator+(TimePs o) const { return TimePs(ps_ + o.ps_); }
  constexpr TimePs operator-(TimePs o) const { return TimePs(ps_ - o.ps_); }
  constexpr TimePs& operator+=(TimePs o) {
    ps_ += o.ps_;
    return *this;
  }
  constexpr TimePs& operator-=(TimePs o) {
    ps_ -= o.ps_;
    return *this;
  }
  constexpr TimePs operator*(std::int64_t k) const { return TimePs(ps_ * k); }
  constexpr TimePs operator/(std::int64_t k) const { return TimePs(ps_ / k); }
  /// Scales by a real factor (used by the what-if engine); rounds to ps.
  constexpr TimePs scaled(double f) const {
    const double v = static_cast<double>(ps_) * f;
    return TimePs(static_cast<std::int64_t>(v >= 0 ? v + 0.5 : v - 0.5));
  }

  /// Renders as e.g. "282.33 ns" (two decimals), for reports.
  std::string str() const;

 private:
  std::int64_t ps_ = 0;
};

namespace literals {
constexpr TimePs operator""_ps(unsigned long long v) {
  return TimePs(static_cast<std::int64_t>(v));
}
constexpr TimePs operator""_ns(unsigned long long v) {
  return TimePs(static_cast<std::int64_t>(v) * 1000);
}
constexpr TimePs operator""_ns(long double v) {
  return TimePs::from_ns(static_cast<double>(v));
}
constexpr TimePs operator""_us(unsigned long long v) {
  return TimePs(static_cast<std::int64_t>(v) * 1'000'000);
}
constexpr TimePs operator""_us(long double v) {
  return TimePs::from_us(static_cast<double>(v));
}
constexpr TimePs operator""_ms(unsigned long long v) {
  return TimePs(static_cast<std::int64_t>(v) * 1'000'000'000);
}
}  // namespace literals

}  // namespace bb
