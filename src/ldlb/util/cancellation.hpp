// Cooperative cancellation for long-running adversary and validation work.
//
// A CancellationToken is a thread-safe cancel flag plus an optional
// monotonic-clock Deadline and a structured reason. Any thread may call
// request_cancel(); the execution layers (ThreadPool::parallel_for between
// chunks, the simulator's round loop, per-node passes and delivery loop,
// the adversary between phases, the resumable adversary between levels)
// poll the token via check(), which throws the typed Cancelled
// error. The guarded layer (fault/guarded_run.hpp) classifies that throw as
// RunStatus::kCancelled with whatever partial RunDiagnostics the run had
// accumulated — a cancelled run is a *classified outcome*, not a torn one.
//
// Deadlines use std::chrono::steady_clock so that a clock step (NTP, manual
// adjustment) can neither fire a deadline early nor postpone it. A token
// whose deadline has passed reports cancelled() and check() records the
// deadline as the structured reason.
#pragma once

#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <string>

#include "ldlb/util/error.hpp"

namespace ldlb {

/// A point on the monotonic clock after which work should stop. A
/// default-constructed Deadline is unset and never expires.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;

  /// Deadline `seconds` from now (must be >= 0).
  [[nodiscard]] static Deadline in(double seconds);

  /// Deadline at an absolute monotonic time point.
  [[nodiscard]] static Deadline at(Clock::time_point when);

  [[nodiscard]] bool is_set() const { return when_.has_value(); }
  [[nodiscard]] bool expired() const {
    // ldlb-analyze: allow(determinism): expiry aborts a run via
    // CancelledError; it never feeds a certificate byte.
    return when_.has_value() && Clock::now() >= *when_;
  }

  /// Seconds until expiry; negative once expired, +infinity when unset.
  [[nodiscard]] double remaining_seconds() const;

 private:
  std::optional<Clock::time_point> when_;
};

/// Thread-safe cooperative cancellation: any thread can request_cancel(),
/// workers poll via cancelled() / check(). A token may carry a Deadline;
/// once it passes, the token behaves exactly as if request_cancel() had been
/// called with a deadline-describing reason.
class CancellationToken {
 public:
  CancellationToken() = default;
  explicit CancellationToken(Deadline deadline) : deadline_(deadline) {}

  /// Requests cancellation with a structured reason. Idempotent: the first
  /// caller's reason wins, later calls are no-ops.
  void request_cancel(const std::string& reason = "cancelled");

  /// True once cancellation was requested or the deadline passed. Safe to
  /// call concurrently from any thread; a bare flag read plus (when a
  /// deadline is set) one monotonic clock read.
  [[nodiscard]] bool cancelled() const;

  /// The structured reason ("" before any cancellation).
  [[nodiscard]] std::string reason() const;

  /// The deadline this token carries (unset by default).
  [[nodiscard]] const Deadline& deadline() const { return deadline_; }

  /// Throws Cancelled when cancelled() — the single polling point every
  /// execution layer calls.
  void check();

 private:
  Deadline deadline_;
  mutable std::atomic<bool> cancelled_{false};
  mutable std::mutex mutex_;
  // Set once, before cancelled_ goes true.
  mutable std::string reason_;  // ldlb: guarded_by(mutex_)
};

}  // namespace ldlb
