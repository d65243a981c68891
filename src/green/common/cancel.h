#ifndef GREEN_COMMON_CANCEL_H_
#define GREEN_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>

namespace green {

/// Cooperative cancellation for a running cell: a host steady-clock
/// deadline. Whoever owns the cell arms it (CancelAfter for a time
/// limit, Cancel for "stop now"); the workload polls cancelled() at its
/// loop heads and between charge slices (via ExecutionContext::Cancelled)
/// and winds down with a DeadlineExceeded status. The deadline only ever
/// moves earlier and the clock only forward, so cancellation is
/// monotonic: once cancelled, a token stays cancelled. An unarmed token
/// reads no clock when polled.
class CancelToken {
  using Clock = std::chrono::steady_clock;

 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Cancels now: a deadline earlier than any clock reading.
  void Cancel() { CancelAtTick(kCancelled); }

  /// Arms a deadline `seconds` of host time from now. Zero or negative
  /// cancels at once; NaN, or a horizon of about 95 years or more, arms
  /// nothing (the tick arithmetic must not overflow).
  void CancelAfter(double seconds) {
    if (!(seconds < 3e9)) return;
    if (seconds <= 0.0) return Cancel();
    const std::chrono::duration<double> allowance(seconds);
    CancelAtTick(
        (Clock::now() + std::chrono::duration_cast<Clock::duration>(allowance))
            .time_since_epoch()
            .count());
  }

  bool cancelled() const {
    const Clock::rep deadline = deadline_.load(std::memory_order_acquire);
    return deadline != kNever &&
           Clock::now().time_since_epoch().count() >= deadline;
  }

 private:
  static constexpr Clock::rep kNever =
      Clock::time_point::max().time_since_epoch().count();
  static constexpr Clock::rep kCancelled =
      Clock::time_point::min().time_since_epoch().count();

  /// Moves the deadline to `tick` if that is earlier than the current one.
  void CancelAtTick(Clock::rep tick) {
    Clock::rep current = deadline_.load(std::memory_order_relaxed);
    while (tick < current &&
           !deadline_.compare_exchange_weak(current, tick,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
    }
  }

  std::atomic<Clock::rep> deadline_{kNever};
};

}  // namespace green

#endif  // GREEN_COMMON_CANCEL_H_
