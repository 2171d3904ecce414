// Simulated time. All of Rover runs on a virtual clock driven by the
// discrete-event simulator; nothing in the library reads wall-clock time.
//
// Duration and TimePoint are strong wrappers around a signed microsecond
// count. Microsecond resolution is fine: the slowest modelled link
// (2.4 Kbit/s dial-up) transfers one bit in ~417us, and the fastest events
// (local RDO invocations) are modelled at >= 1us granularity.

#ifndef ROVER_SRC_UTIL_TIME_H_
#define ROVER_SRC_UTIL_TIME_H_

#include <cstdint>
#include <ostream>
#include <string>

namespace rover {

class Duration {
 public:
  constexpr Duration() : micros_(0) {}

  static constexpr Duration Micros(int64_t us) { return Duration(us); }
  static constexpr Duration Millis(int64_t ms) { return Duration(ms * 1000); }
  static constexpr Duration Seconds(double s) {
    return Duration(static_cast<int64_t>(s * 1e6));
  }
  static constexpr Duration Zero() { return Duration(0); }

  constexpr int64_t micros() const { return micros_; }
  constexpr double millis() const { return static_cast<double>(micros_) / 1e3; }
  constexpr double seconds() const { return static_cast<double>(micros_) / 1e6; }

  constexpr bool is_zero() const { return micros_ == 0; }
  constexpr bool is_infinite() const { return micros_ == INT64_MAX; }

  constexpr Duration operator+(Duration d) const { return Duration(micros_ + d.micros_); }
  constexpr Duration operator-(Duration d) const { return Duration(micros_ - d.micros_); }
  constexpr Duration operator*(double k) const {
    return Duration(static_cast<int64_t>(static_cast<double>(micros_) * k));
  }
  constexpr double operator/(Duration d) const {
    return static_cast<double>(micros_) / static_cast<double>(d.micros_);
  }
  Duration& operator+=(Duration d) {
    micros_ += d.micros_;
    return *this;
  }
  Duration& operator-=(Duration d) {
    micros_ -= d.micros_;
    return *this;
  }

  constexpr auto operator<=>(const Duration&) const = default;

  // "12.5ms", "3.2s", "250us"
  std::string ToString() const;

 private:
  explicit constexpr Duration(int64_t us) : micros_(us) {}
  int64_t micros_;
};

class TimePoint {
 public:
  constexpr TimePoint() : micros_(0) {}

  static constexpr TimePoint FromMicros(int64_t us) { return TimePoint(us); }
  static constexpr TimePoint Epoch() { return TimePoint(0); }

  constexpr int64_t micros() const { return micros_; }
  constexpr double seconds() const { return static_cast<double>(micros_) / 1e6; }

  constexpr TimePoint operator+(Duration d) const { return TimePoint(micros_ + d.micros()); }
  constexpr TimePoint operator-(Duration d) const { return TimePoint(micros_ - d.micros()); }
  constexpr Duration operator-(TimePoint t) const {
    return Duration::Micros(micros_ - t.micros_);
  }
  TimePoint& operator+=(Duration d) {
    micros_ += d.micros();
    return *this;
  }

  constexpr auto operator<=>(const TimePoint&) const = default;

  std::string ToString() const;

 private:
  explicit constexpr TimePoint(int64_t us) : micros_(us) {}
  int64_t micros_;
};

std::ostream& operator<<(std::ostream& os, Duration d);
std::ostream& operator<<(std::ostream& os, TimePoint t);

}  // namespace rover

#endif  // ROVER_SRC_UTIL_TIME_H_
