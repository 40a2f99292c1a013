// Thread-operation edge cases (§3.5) and the foreign-action wrapper.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "api/sbd.h"

namespace sbd::threads {
namespace {

TEST(ThreadOps, AbortedStarterNeverLaunchesThenRetryDoes) {
  std::atomic<int> launches{0};
  run_sbd([&] {
    static bool aborted;
    aborted = false;
    // Constructed before the checkpoint: an object created after it may
    // leak on abort (docs/SEMANTICS.md, the C++-specific contract).
    SbdThread child([&] { launches++; });
    split();
    child.start();  // deferred to this section's commit
    if (!aborted) {
      aborted = true;
      // The abort discards the deferred start: the child never ran for
      // this attempt.
      core::abort_and_restart(core::tls_context());
    }
    // Retry: start deferred again; the split commits and launches once.
    child.join();
  });
  EXPECT_EQ(launches.load(), 1);
}

TEST(ThreadOps, DeferredSignalDiscardedOnAbortFiresOnRetry) {
  class Flag : public runtime::TypedRef<Flag> {
   public:
    SBD_CLASS(OpsFlag, SBD_SLOT("v"))
    SBD_FIELD_I64(0, v)
  };
  runtime::GlobalRoot<Flag> cond;
  run_sbd([&] {
    Flag f = Flag::alloc();
    f.init_v(0);
    cond.set(f);
  });
  std::atomic<int> wakeFalse{0};
  {
    SbdThread waiter([&] {
      Flag f = cond.get();
      while (f.v() == 0) {
        wait_on(f.raw());
        if (f.v() == 0) wakeFalse++;  // woken without the condition: bug
      }
    });
    SbdThread signaller([&] {
      static bool aborted;
      aborted = false;
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
      split();
      Flag f = cond.get();
      f.set_v(1);
      notify_all(f.raw());
      if (!aborted) {
        aborted = true;
        core::abort_and_restart(core::tls_context());
      }
    });
    waiter.start();
    signaller.start();
    waiter.join();
    signaller.join();
  }
  // A discarded (aborted) signal must not have woken the waiter into a
  // false condition (the re-check loop would catch it, but the deferred
  // delivery means it should not even fire).
  EXPECT_EQ(wakeFalse.load(), 0);
}

TEST(ThreadOps, NestedStartsFromChildThreads) {
  std::atomic<int> leafRuns{0};
  {
    SbdThread parent([&] {
      std::vector<SbdThread> kids;
      for (int i = 0; i < 3; i++) {
        kids.emplace_back([&] { leafRuns++; });
      }
      for (auto& k : kids) k.start();
      for (auto& k : kids) k.join();
    });
    parent.start();
    parent.join();
  }
  EXPECT_EQ(leafRuns.load(), 3);
}

TEST(ThreadOps, DestructorReapsUnjoinedThread) {
  std::atomic<bool> ran{false};
  {
    SbdThread t([&] { ran = true; });
    t.start();
    // No join: the destructor must reap the OS thread.
  }
  EXPECT_TRUE(ran.load());
}

TEST(OnCommit, RunsAtCommitOnly) {
  std::atomic<int> fired{0};
  run_sbd([&] {
    static bool aborted;
    aborted = false;
    split();
    on_commit([&] { fired++; });
    EXPECT_EQ(fired.load(), 0) << "must not run before the section ends";
    if (!aborted) {
      aborted = true;
      core::abort_and_restart(core::tls_context());
    }
    split();  // the retry's registration commits here
    EXPECT_EQ(fired.load(), 1);
  });
  EXPECT_EQ(fired.load(), 1) << "the aborted attempt's action must be discarded";
}

TEST(OnCommit, ImmediateOutsideSections) {
  int fired = 0;
  on_commit([&] { fired++; });
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace sbd::threads
