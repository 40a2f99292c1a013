// Liveness watchdog (core/watchdog.h): detects transactions blocked
// beyond a threshold, records them in the debug log, and — with the
// fallback enabled — breaks the stall by aborting the waiting victim.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "api/sbd.h"
#include "core/obs.h"
#include "core/watchdog.h"

namespace sbd {
namespace {

class Cell : public runtime::TypedRef<Cell> {
 public:
  SBD_CLASS(WatchdogCell, SBD_SLOT("v"))
  SBD_FIELD_I64(0, v)
};

struct WatchdogGuard {
  explicit WatchdogGuard(const core::Watchdog::Options& o) { core::Watchdog::start(o); }
  ~WatchdogGuard() { core::Watchdog::stop(); }
};

// One writer grabs the lock and sits on it in-section; one reader
// blocks on it past the stall threshold.
void run_stall(uint64_t holdMillis) {
  runtime::GlobalRoot<Cell> cell;
  run_sbd([&] {
    Cell c = Cell::alloc();
    c.init_v(0);
    cell.set(c);
  });
  std::atomic<bool> locked{false};
  {
    SbdThread holder([&] {
      Cell c = cell.get();
      c.set_v(1);  // write lock held until the section ends
      locked = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(holdMillis));
      split();
    });
    SbdThread waiter([&] {
      while (!locked) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      Cell c = cell.get();
      c.set_v(c.v() + 1);
      split();
    });
    holder.start();
    waiter.start();
    holder.join();
    waiter.join();
  }
  run_sbd([&] { EXPECT_EQ(cell.get().v(), 2); });
}

TEST(Watchdog, DetectsLockWaitStall) {
  core::Watchdog::Options o;
  o.stallThresholdNanos = 50'000'000;   // 50 ms
  o.pollIntervalNanos = 10'000'000;     // 10 ms
  o.abortVictimAfterNanos = 0;          // detection only
  o.logToStderr = false;
  WatchdogGuard wd(o);
  const uint64_t before = core::Watchdog::stalls_detected();
  obs::drain();  // discard events from earlier tests
  obs::set_enabled(true);
  run_stall(/*holdMillis=*/400);
  obs::set_enabled(false);
  EXPECT_GT(core::Watchdog::stalls_detected(), before)
      << "a 400 ms lock hold must trip a 50 ms stall threshold";
  const auto events = obs::drain();
  bool sawStall = false;
  for (const auto& e : events)
    if (e.kind == obs::EventKind::kWatchdogStall) sawStall = true;
  EXPECT_TRUE(sawStall) << "stalls must be recorded in the debug log";
  EXPECT_NE(obs::summarize(events).find("stalls"), std::string::npos)
      << "stalls must surface in the debug-log summary";
}

TEST(Watchdog, AbortVictimFallbackBreaksTheWaitAndWorkCompletes) {
  core::Watchdog::Options o;
  o.stallThresholdNanos = 40'000'000;   // 40 ms
  o.pollIntervalNanos = 10'000'000;     // 10 ms
  o.abortVictimAfterNanos = 120'000'000;  // 120 ms: then abort the waiter
  o.logToStderr = false;
  WatchdogGuard wd(o);
  const uint64_t before = core::Watchdog::victims_aborted();
  run_stall(/*holdMillis=*/600);
  EXPECT_GT(core::Watchdog::victims_aborted(), before)
      << "the waiter must be aborted by the timeout fallback";
  // run_stall already asserted the final value: the aborted waiter
  // retried and its update was not lost.
}

TEST(Watchdog, StartStopIdempotent) {
  core::Watchdog::Options o;
  o.logToStderr = false;
  EXPECT_FALSE(core::Watchdog::running());
  core::Watchdog::start(o);
  core::Watchdog::start(o);  // no-op
  EXPECT_TRUE(core::Watchdog::running());
  core::Watchdog::stop();
  core::Watchdog::stop();  // no-op
  EXPECT_FALSE(core::Watchdog::running());
}

}  // namespace
}  // namespace sbd
