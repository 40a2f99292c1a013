// sbd::obs tracing + metrics layer: bounded ring overflow accounting,
// cross-thread drain ordering, symbolic lock identity that stays stable
// under lock-pool address recycling, real victim ids on deadlock
// events, the hot-lock contention table, and the metrics snapshot.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "api/sbd.h"
#include "core/obs.h"
#include "core/stats.h"
#include "runtime/class_info.h"
#include "runtime/heap.h"
#include "runtime/lockpool.h"
#include "runtime/object.h"
#include "runtime/ref.h"

namespace sbd {
namespace {

class Cell : public runtime::TypedRef<Cell> {
 public:
  SBD_CLASS(ObsCell, SBD_SLOT("v"))
  SBD_FIELD_I64(0, v)
};

TEST(ObsRing, OverflowDropsAndCountsInsteadOfBlocking) {
  obs::set_enabled(true);
  obs::drain();
  const uint64_t d0 = obs::dropped();
  // Far more events than one ring holds; the producer must never block,
  // it drops the excess and counts every drop.
  const uint64_t n = 3 * 4096 + 17;
  for (uint64_t i = 0; i < n; i++)
    obs::record(obs::EventKind::kAborted, static_cast<int>(i), -1, nullptr,
                nullptr, obs::kNoIndex, false);
  const uint64_t pending = obs::approx_size();
  EXPECT_GT(pending, 0u);
  EXPECT_LT(pending, n);
  EXPECT_EQ(obs::dropped() - d0, n - pending) << "every overflow must be counted";
  obs::drain();
  obs::set_enabled(false);
}

TEST(ObsRing, DrainMergesThreadsByTimestampAndSurvivesThreadExit) {
  obs::set_enabled(true);
  obs::drain();
  constexpr int kPerThread = 100;
  std::thread a([] {
    for (int i = 0; i < kPerThread; i++)
      obs::record(obs::EventKind::kAborted, 1, -1, nullptr, nullptr,
                  obs::kNoIndex, false);
  });
  std::thread b([] {
    for (int i = 0; i < kPerThread; i++)
      obs::record(obs::EventKind::kAborted, 2, -1, nullptr, nullptr,
                  obs::kNoIndex, false);
  });
  a.join();
  b.join();
  // Both producer threads are gone; their retired rings must still
  // drain, merged oldest-first across threads.
  const auto events = obs::drain();
  obs::set_enabled(false);
  int fromA = 0, fromB = 0;
  for (const auto& e : events) {
    fromA += e.txnId == 1;
    fromB += e.txnId == 2;
  }
  EXPECT_EQ(fromA, kPerThread);
  EXPECT_EQ(fromB, kPerThread);
  for (size_t i = 1; i < events.size(); i++)
    ASSERT_LE(events[i - 1].timestampNanos, events[i].timestampNanos)
        << "drain must merge by timestamp at index " << i;
}

TEST(ObsRing, LosslessModeBlocksUntilDrained) {
  obs::set_enabled(true);
  obs::drain();
  const uint64_t d0 = obs::dropped();
  obs::set_lossless(true);
  // Several rings' worth of events from one producer: without lossless
  // mode most would be dropped (see OverflowDropsAndCounts above). With
  // it the producer blocks until the drainer makes room — zero drops.
  const uint64_t n = 3 * 4096 + 17;
  std::atomic<uint64_t> produced{0};
  std::thread producer([&] {
    for (uint64_t i = 0; i < n; i++) {
      obs::record(obs::EventKind::kAborted, 7, -1, nullptr, nullptr,
                  obs::kNoIndex, false);
      produced.fetch_add(1, std::memory_order_release);
    }
  });
  uint64_t mine = 0;
  auto drainCount = [&] {
    for (const auto& e : obs::drain())
      mine += e.kind == obs::EventKind::kAborted && e.txnId == 7;
  };
  while (produced.load(std::memory_order_acquire) < n) {
    drainCount();
    std::this_thread::yield();
  }
  producer.join();
  drainCount();
  obs::set_lossless(false);
  obs::set_enabled(false);
  EXPECT_EQ(obs::dropped() - d0, 0u) << "lossless mode must not drop";
  EXPECT_EQ(mine, n) << "every recorded event must surface in the drain";
}

TEST(ObsRing, ThreadExitRetiresRingWithMarker) {
  obs::set_enabled(true);
  obs::drain();
  std::thread t([] {
    obs::record(obs::EventKind::kAborted, 31, -1, nullptr, nullptr,
                obs::kNoIndex, false);
  });
  t.join();
  const auto events = obs::drain();
  obs::set_enabled(false);
  // The retired ring must carry the thread's payload AND end with the
  // kThreadExit marker, so the oracle can tell "stream ended" from
  // "events missing".
  size_t payloadAt = events.size(), exitAt = events.size();
  for (size_t i = 0; i < events.size(); i++) {
    if (events[i].txnId == 31 && events[i].kind == obs::EventKind::kAborted)
      payloadAt = i;
    if (events[i].kind == obs::EventKind::kThreadExit) exitAt = i;
  }
  ASSERT_LT(payloadAt, events.size());
  ASSERT_LT(exitAt, events.size()) << "ring retirement must record kThreadExit";
  EXPECT_LT(payloadAt, exitAt) << "the exit marker ends the thread's stream";
  EXPECT_LT(events[payloadAt].ordinal, events[exitAt].ordinal)
      << "ordinals must order a thread's own events";
}

TEST(ObsSymbols, AttributionStableUnderLockPoolRecycling) {
  static runtime::ClassInfo* clsA =
      runtime::register_class("ObsRecycleA", {SBD_SLOT("x")}, {});
  static runtime::ClassInfo* clsB =
      runtime::register_class("ObsRecycleB", {SBD_SLOT("y")}, {});
  auto& pool = runtime::LockPool::instance();

  obs::set_enabled(true);
  obs::drain();
  // Same size class: release hands the identical array back, so both
  // events carry the SAME raw word address for DIFFERENT locks.
  core::LockWord* w1 = pool.acquire(1);
  obs::record(obs::EventKind::kBlocked, 1, -1, w1, clsA, 0, true);
  pool.release(w1, 1);
  core::LockWord* w2 = pool.acquire(1);
  obs::record(obs::EventKind::kBlocked, 2, -1, w2, clsB, 0, false);
  pool.release(w2, 1);
  ASSERT_EQ(w1, w2) << "test premise: the pool recycled the array";

  const auto events = obs::drain();
  obs::set_enabled(false);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].lockAddr, events[1].lockAddr);
  const std::string summary = obs::summarize(events);
  // An address-keyed summary would fold these into one lying line; the
  // symbolic identities captured at record time keep them apart.
  EXPECT_NE(summary.find("ObsRecycleA.x"), std::string::npos) << summary;
  EXPECT_NE(summary.find("ObsRecycleB.y"), std::string::npos) << summary;
}

TEST(ObsSymbols, SymbolizeResolvesClassAndIndex) {
  static runtime::ClassInfo* cls =
      runtime::register_class("ObsSymNode", {SBD_SLOT("a"), SBD_SLOT("b")}, {});
  run_sbd([&] {
    runtime::ManagedObject* o = runtime::Heap::instance().alloc_object(cls);
    split();  // escape: the next access materializes the lock array
    (void)tx_read(o, 1);
    const core::LockWord* base = o->locks.load(std::memory_order_acquire);
    ASSERT_NE(base, nullptr);
    const obs::LockSym sym = obs::symbolize(o, base + 1);
    EXPECT_EQ(sym.cls, cls);
    EXPECT_EQ(sym.index, 1u);
    EXPECT_EQ(obs::lock_name(sym.cls, sym.index, 0), "ObsSymNode.b");
    // A word outside the instance's array keeps the class but reports
    // no index rather than inventing one.
    const obs::LockSym out = obs::symbolize(o, base + 99);
    EXPECT_EQ(out.index, obs::kNoIndex);
  });
}

TEST(ObsDeadlock, EventCarriesRealVictimAndContendedLock) {
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
    // Forced 2-cycle: t1 writes a then b, t2 writes b then a.
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
  bool sawDeadlock = false, sawGrantedWait = false;
  for (const auto& e : events) {
    if (e.kind == obs::EventKind::kDeadlock) {
      sawDeadlock = true;
      // The event is recorded AFTER victim selection: it names who was
      // sacrificed and which lock the cycle formed on — not a bare
      // "a deadlock happened somewhere".
      EXPECT_GE(e.other, 0) << "deadlock event must carry the victim txn id";
      EXPECT_NE(e.txnId, -1);
      EXPECT_NE(e.cls, nullptr) << "contended lock must be symbolized";
      EXPECT_NE(e.lockAddr, 0u);
      EXPECT_EQ(obs::lock_name(e), "ObsCell.v");
    }
    if (e.kind == obs::EventKind::kGranted && e.durationNanos > 0)
      sawGrantedWait = true;
  }
  EXPECT_TRUE(sawDeadlock);
  EXPECT_TRUE(sawGrantedWait) << "granted events must carry the wait latency";
}

TEST(ObsHot, ContentionTableRanksAndSurvivesDrain) {
  static runtime::ClassInfo* clsA =
      runtime::register_class("ObsHotA", {SBD_SLOT("x")}, {});
  static runtime::ClassInfo* clsB =
      runtime::register_class("ObsHotB", {SBD_SLOT("y")}, {});
  obs::reset_contention();
  obs::set_enabled(true);
  for (int i = 0; i < 3; i++)
    obs::record(obs::EventKind::kBlocked, 1, -1, nullptr, clsA, 0, true);
  obs::record(obs::EventKind::kBlocked, 2, -1, nullptr, clsB, 0, false);
  obs::drain();  // the table is independent of the rings
  obs::set_enabled(false);
  const auto top = obs::top_contended(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].name, "ObsHotA.x");
  EXPECT_EQ(top[0].blocks, 3u);
  EXPECT_EQ(top[0].writes, 3u);
  EXPECT_EQ(top[1].name, "ObsHotB.y");
  const std::string report = obs::hot_report(2);
  EXPECT_NE(report.find("ObsHotA.x 3x(3w)"), std::string::npos) << report;
  obs::reset_contention();
  EXPECT_TRUE(obs::top_contended(2).empty());
}

TEST(ObsMetrics, StatsCountersAddAndDiffCoverEveryField) {
  // add() and diff() are generated from the SBD_STATS_COUNTERS list;
  // this pins that every field of the struct is on that list.
  constexpr size_t kFields = sizeof(core::StatsCounters) / sizeof(uint64_t);
  core::StatsCounters a{};
  auto* pa = reinterpret_cast<uint64_t*>(&a);
  for (size_t i = 0; i < kFields; i++) pa[i] = i + 1;

  core::StatsCounters sum{};
  sum.add(a);
  sum.add(a);
  const auto* ps = reinterpret_cast<const uint64_t*>(&sum);
  for (size_t i = 0; i < kFields; i++)
    EXPECT_EQ(ps[i], 2 * (i + 1)) << "add() misses field " << i;

  const core::StatsCounters zero = sum.diff(sum);
  const auto* pz = reinterpret_cast<const uint64_t*>(&zero);
  for (size_t i = 0; i < kFields; i++)
    EXPECT_EQ(pz[i], 0u) << "diff() misses field " << i;
}

TEST(ObsMetrics, SnapshotContainsEverySection) {
  const std::string json = obs::metrics_json();
  for (const char* key :
       {"\"counters\"", "\"acqRls\"", "\"deadlocksResolved\"", "\"txnFootprints\"",
        "\"gauges\"", "\"lockpool\"", "\"watchdog\"", "\"degrade\"", "\"trace\"",
        "\"dropped\"", "\"hotLocks\""})
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key << " in:\n"
                                                 << json;
}

TEST(ObsMetrics, ExportWritesRequestedFile) {
  const std::string path = ::testing::TempDir() + "obs_metrics_test.json";
  ASSERT_TRUE(obs::export_metrics(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {0};
  const size_t got = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  ASSERT_GT(got, 0u);
  EXPECT_EQ(buf[0], '{');
}

}  // namespace
}  // namespace sbd
