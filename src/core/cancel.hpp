// Cooperative cancellation: a wall-clock deadline threaded through
// discovery.
//
// The fleet scheduler arms one Deadline per job attempt (DiscoverOptions::
// deadline); the stage-graph runner checks it before every stage and raises
// TimeoutError when the budget is spent. Cancellation is cooperative and
// stage-granular — a stage that has started runs to completion, so the
// overshoot is bounded by the longest single stage, and a cancelled
// discovery never leaves a half-merged report (the throw happens before any
// merging).
//
// A default-constructed Deadline is unlimited and costs nothing to check
// beyond one branch; only armed deadlines read the clock.
#pragma once

#include <chrono>
#include <stdexcept>
#include <string>

namespace mt4g::core {

/// Raised by deadline checks. A distinct type so the scheduler can classify
/// the failure as a timeout (retryable, counted separately) rather than a
/// benchmark error.
class TimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Deadline {
 public:
  /// Unlimited: never expires, never reads the clock.
  Deadline() = default;

  /// Expires @p seconds of wall time from now. A budget that is not > 0
  /// (NaN included), or that the clock cannot represent from now, is
  /// unlimited.
  static Deadline after(double seconds) {
    using Clock = std::chrono::steady_clock;
    Deadline deadline;
    if (!(seconds > 0.0)) return deadline;
    const Clock::time_point now = Clock::now();
    // One second of slack absorbs the rounding of the double conversions.
    const std::chrono::duration<double> headroom =
        Clock::time_point::max() - now - std::chrono::seconds(1);
    if (seconds < headroom.count()) {
      deadline.limited_ = true;
      deadline.at_ = now + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
    }
    return deadline;
  }

  bool limited() const { return limited_; }

  bool expired() const {
    return limited_ && std::chrono::steady_clock::now() >= at_;
  }

  /// Throws TimeoutError when expired; @p what names the checkpoint.
  void check(const char* what) const {
    if (expired()) {
      throw TimeoutError(std::string("wall-clock deadline exceeded at ") +
                         what);
    }
  }

 private:
  bool limited_ = false;
  std::chrono::steady_clock::time_point at_{};
};

}  // namespace mt4g::core
