// Inevitable transactions (§3.4 alternative), their serialization
// token shared with escalation (core/degrade.h), and the §6 debug log.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "api/sbd.h"
#include "core/degrade.h"
#include "core/fault.h"
#include "core/inevitable.h"
#include "core/obs.h"
#include "core/transaction.h"

namespace sbd {
namespace {

class Cell : public runtime::TypedRef<Cell> {
 public:
  SBD_CLASS(InevCell, SBD_SLOT("v"))
  SBD_FIELD_I64(0, v)
};

// Restores the default budget even when an assertion fails out.
struct BudgetGuard {
  explicit BudgetGuard(uint64_t b) { core::degrade::set_retry_budget(b); }
  ~BudgetGuard() { core::degrade::set_retry_budget(64); }
};

// Waits until `n` threads have counted themselves `finished`. A hung
// SbdThread can be neither joined nor destroyed, so past the deadline
// this fails the test and ends the process instead of hanging until
// the ctest timeout.
void await_finished(const std::atomic<int>& finished, int n, const char* what) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (finished.load() < n) {
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << what << ": threads still blocked after 10 s";
      std::fflush(stdout);
      std::_Exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Tracks how many threads are inside a serialized region at once.
struct Overlap {
  std::atomic<int> now{0}, max{0};
  void enter() {
    const int n = now.fetch_add(1) + 1;
    int seen = max.load();
    while (n > seen && !max.compare_exchange_weak(seen, n)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    now.fetch_sub(1);
  }
};

// `threads` threads each run `sections` inevitable sections; returns
// the largest number of them that were ever inevitable at once.
int contend_for_inevitability(int threads, int sections) {
  Overlap overlap;
  std::atomic<int> finished{0};
  std::vector<SbdThread> ts;
  for (int t = 0; t < threads; t++) {
    ts.emplace_back([&] {
      for (int i = 0; i < sections; i++) {
        core::become_inevitable();
        overlap.enter();
        split();  // releases the token
      }
      finished.fetch_add(1);
    });
  }
  for (auto& t : ts) t.start();
  await_finished(finished, threads, "contended become_inevitable");
  for (auto& t : ts) t.join();
  return overlap.max.load();
}

TEST(Inevitable, TokenHeldUntilSectionEnd) {
  run_sbd([&] {
    EXPECT_FALSE(core::is_inevitable());
    core::become_inevitable();
    EXPECT_TRUE(core::is_inevitable());
    core::become_inevitable();  // idempotent
    EXPECT_TRUE(core::is_inevitable());
    split();
    EXPECT_FALSE(core::is_inevitable()) << "split must release the token";
  });
}

TEST(Inevitable, OnlyOneAtATime) {
  const uint64_t before = core::inevitable_acquisitions();
  EXPECT_EQ(contend_for_inevitability(3, 30), 1)
      << "at most one inevitable section may exist (paper 3.4)";
  EXPECT_EQ(core::inevitable_acquisitions() - before, 90u);
}

TEST(Inevitable, WorksWithEscalationDisabled) {
  // A busy token aborts the caller and the abort path waits for it;
  // that wait must not depend on the escalation retry budget.
  BudgetGuard budget(0);
  EXPECT_EQ(contend_for_inevitability(3, 20), 1);
}

TEST(Inevitable, LockHolderWantingTheTokenDoesNotDeadlock) {
  // T1 holds the token and then needs b; T2 holds b and then wants the
  // token. T2 must not wait for the token while holding b (T1 waits
  // for b, and the token wait is invisible to deadlock detection): it
  // aborts, releasing b, and waits for the token holding nothing.
  runtime::GlobalRoot<Cell> b;
  run_sbd([&] {
    Cell cb = Cell::alloc();
    cb.init_v(0);
    b.set(cb);
  });
  std::atomic<bool> t1Inevitable{false}, t2Wrote{false};
  std::atomic<int> finished{0};
  {
    SbdThread t1([&] {
      core::become_inevitable();
      t1Inevitable = true;
      while (!t2Wrote) std::this_thread::yield();
      b.get().set_v(b.get().v() + 1);
      split();
      finished.fetch_add(1);
    });
    SbdThread t2([&] {
      while (!t1Inevitable) std::this_thread::yield();
      b.get().set_v(b.get().v() + 10);
      t2Wrote = true;
      core::become_inevitable();
      split();
      finished.fetch_add(1);
    });
    t1.start();
    t2.start();
    await_finished(finished, 2, "inevitable T1 waits for b held by T2 wanting the token");
    t1.join();
    t2.join();
  }
  run_sbd([&] { EXPECT_EQ(b.get().v(), 11) << "each section must commit exactly once"; });
}

TEST(Inevitable, EscalatedAndInevitableSectionsExcludeEachOther) {
  BudgetGuard budget(2);
  const uint64_t escalationsBefore = core::degrade::escalations();
  const uint64_t inevitableBefore = core::inevitable_acquisitions();
  Overlap overlap;
  std::atomic<int> finished{0};
  {
    // 90% of splits abort: the thrasher exhausts its 2-retry budget and
    // escalates. Inevitable sections are exempt from split injection.
    fault::PlanScope storm(fault::single_site(fault::Site::kSplitAbort, 0.9, 21));
    SbdThread thrasher([&] {
      for (int i = 0; i < 20; i++) {
        if (core::degrade::serialized(core::tls_context())) overlap.enter();
        split();
      }
      finished.fetch_add(1);
    });
    SbdThread inevitable([&] {
      for (int i = 0; i < 20; i++) {
        core::become_inevitable();
        overlap.enter();
        split();
      }
      finished.fetch_add(1);
    });
    thrasher.start();
    inevitable.start();
    await_finished(finished, 2, "escalated vs inevitable sections");
    thrasher.join();
    inevitable.join();
  }
  EXPECT_GT(core::degrade::escalations(), escalationsBefore);
  EXPECT_EQ(core::inevitable_acquisitions() - inevitableBefore, 20u);
  EXPECT_EQ(overlap.max.load(), 1)
      << "escalated and inevitable sections share one token";
}

TEST(Inevitable, NeverChosenAsDeadlockVictim) {
  runtime::GlobalRoot<Cell> a, b;
  run_sbd([&] {
    Cell ca = Cell::alloc();
    ca.init_v(0);
    a.set(ca);
    Cell cb = Cell::alloc();
    cb.init_v(0);
    b.set(cb);
  });
  std::atomic<int> phase{0};
  {
    // The inevitable thread writes a then b; the plain thread writes
    // b then a. The cycle must always sacrifice the plain thread.
    SbdThread inevitableT([&] {
      core::become_inevitable();
      a.get().set_v(1);
      phase.fetch_add(1);
      while (phase.load() < 2) {
      }
      b.get().set_v(1);
      split();
    });
    SbdThread plainT([&] {
      b.get().set_v(2);
      phase.fetch_add(1);
      while (phase.load() < 2) {
      }
      a.get().set_v(2);  // deadlock: this thread must be the victim
      split();
    });
    inevitableT.start();
    plainT.start();
    inevitableT.join();
    plainT.join();
  }
  run_sbd([&] {
    // The inevitable section committed exactly once; values are from a
    // serializable order.
    const int64_t av = a.get().v(), bv = b.get().v();
    EXPECT_TRUE((av == 1 || av == 2) && (bv == 1 || bv == 2)) << av << " " << bv;
  });
}

TEST(DebugLogT, RecordsBlockedAndDeadlockEvents) {
  obs::set_enabled(true);
  obs::drain();
  runtime::GlobalRoot<Cell> a, b;
  run_sbd([&] {
    Cell ca = Cell::alloc();
    ca.init_v(0);
    a.set(ca);
    Cell cb = Cell::alloc();
    cb.init_v(0);
    b.set(cb);
  });
  std::atomic<int> phase{0};
  {
    SbdThread t1([&] {
      a.get().set_v(1);
      phase.fetch_add(1);
      while (phase.load() < 2) {
      }
      b.get().set_v(1);
    });
    SbdThread t2([&] {
      b.get().set_v(2);
      phase.fetch_add(1);
      while (phase.load() < 2) {
      }
      a.get().set_v(2);
    });
    t1.start();
    t2.start();
    t1.join();
    t2.join();
  }
  obs::set_enabled(false);
  const auto events = obs::drain();
  bool sawBlocked = false, sawDeadlock = false, sawAbort = false;
  for (const auto& e : events) {
    sawBlocked |= e.kind == obs::EventKind::kBlocked;
    sawDeadlock |= e.kind == obs::EventKind::kDeadlock;
    sawAbort |= e.kind == obs::EventKind::kAborted;
  }
  EXPECT_TRUE(sawBlocked);
  EXPECT_TRUE(sawDeadlock);
  EXPECT_TRUE(sawAbort);
  const std::string summary = obs::summarize(events);
  EXPECT_NE(summary.find("deadlocks"), std::string::npos);
  // Contention is attributed symbolically (class.field via the class
  // registry), not by recyclable raw lock-word address.
  EXPECT_NE(summary.find("InevCell.v"), std::string::npos) << summary;
}

TEST(DebugLogT, DisabledMeansFree) {
  obs::set_enabled(false);
  obs::drain();
  obs::record(obs::EventKind::kBlocked, 1, -1, nullptr, nullptr, obs::kNoIndex, false);
  EXPECT_EQ(obs::approx_size(), 0u);
}

}  // namespace
}  // namespace sbd
