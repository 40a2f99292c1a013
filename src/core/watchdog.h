// Liveness watchdog (robustness layer): a background OS thread that
// periodically scans every registered SBD thread and flags transactions
// that have been blocked — in a lock wait queue or on the §3.3
// transaction-id pool — beyond a threshold. A detected stall is
//   1. recorded in the §6 debug log (obs::EventKind::kWatchdogStall /
//      kIdPoolStall), so the per-lock contention summary
//      (obs::summarize) shows where the system seized up, and
//   2. optionally broken by the abort-victim fallback: after a second,
//      larger timeout the watchdog asks the stalled transaction to
//      abort (TxnManager::request_abort — the same safe path the
//      deadlock resolver uses, so only *waiting* victims are touched).
//
// The watchdog is not an SBD thread: it never touches the managed heap
// and never parks at safepoints, so it keeps running while the world is
// stopped and while every worker is wedged — which is the point.
#pragma once

#include <cstdint>

namespace sbd::core {

class Watchdog {
 public:
  struct Options {
    // A transaction blocked longer than this is a stall.
    uint64_t stallThresholdNanos = 2'000'000'000;
    // Scan period.
    uint64_t pollIntervalNanos = 100'000'000;
    // Abort-victim fallback: a transaction still blocked after this
    // (>= stallThresholdNanos) is asked to abort. 0 disables.
    uint64_t abortVictimAfterNanos = 8'000'000'000;
    // Lockplan-controller heartbeat: a stop-the-world re-plan busy
    // longer than this is wedged — recorded as a stall and cancelled
    // via runtime::lockplan::cancel_current_replan(), tripping the
    // core/degrade wedge accounting instead of hanging the process.
    // 0 disables.
    uint64_t replanStallThresholdNanos = 5'000'000'000;
    // Also print one diagnostic line per stall to stderr.
    bool logToStderr = true;
  };

  // Starts the watchdog thread (no-op if already running).
  static void start(const Options& opts);
  static void start() { start(Options()); }
  // Stops and joins the watchdog thread (no-op if not running).
  static void stop();
  static bool running();

  // Monotonic counters since process start.
  static uint64_t stalls_detected();
  static uint64_t victims_aborted();
};

}  // namespace sbd::core
