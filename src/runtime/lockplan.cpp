#include "runtime/lockplan.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/timing.h"
#include "core/degrade.h"
#include "core/fault.h"
#include "core/stats.h"
#include "core/transaction.h"
#include "runtime/heap.h"
#include "runtime/object.h"

namespace sbd::runtime::lockplan {

namespace {

struct Config {
  Mode mode = Mode::kField;
  uint32_t stripes = 4;
};

Config parse_env() {
  Config cfg;
  const char* e = std::getenv("SBD_LOCK_GRANULARITY");
  if (!e || !*e) return cfg;
  const std::string s(e);
  if (s == "field") {
    cfg.mode = Mode::kField;
  } else if (s == "object") {
    cfg.mode = Mode::kObject;
  } else if (s == "versioned") {
    cfg.mode = Mode::kVersioned;
  } else if (s == "adaptive") {
    cfg.mode = Mode::kAdaptive;
  } else if (s.rfind("striped", 0) == 0) {
    cfg.mode = Mode::kStriped;
    const auto colon = s.find(':');
    if (colon != std::string::npos) {
      const long k = std::strtol(s.c_str() + colon + 1, nullptr, 10);
      if (k >= 1 && k <= (1 << 20)) cfg.stripes = static_cast<uint32_t>(k);
    }
  } else {
    std::fprintf(stderr, "sbd: unknown SBD_LOCK_GRANULARITY '%s'; using field\n", e);
  }
  return cfg;
}

const Config& config() {
  static const Config cfg = parse_env();
  return cfg;
}

uint64_t interval_ms() {
  static const uint64_t v = [] {
    const char* e = std::getenv("SBD_LOCKPLAN_INTERVAL_MS");
    const long x = e ? std::strtol(e, nullptr, 10) : 0;
    return x > 0 ? static_cast<uint64_t>(x) : uint64_t{10};
  }();
  return v;
}

std::atomic<uint64_t> gCycles{0};
std::atomic<uint64_t> gReplans{0};
std::atomic<uint64_t> gVetoed{0};
std::atomic<uint64_t> gStops{0};
std::atomic<uint64_t> gWedged{0};

// Wedge-recovery state: the heartbeat the watchdog polls, the cancel
// flag it raises, and the stop-the-world budget.
std::atomic<uint64_t> gReplanBusySince{0};
std::atomic<bool> gReplanCancel{false};
std::atomic<uint64_t> gReplanBudgetNanos{[] {
  const char* e = std::getenv("SBD_REPLAN_BUDGET_MS");
  const long x = e ? std::strtol(e, nullptr, 10) : -1;
  if (x < 0) return uint64_t{2'000'000'000};  // default 2s
  return static_cast<uint64_t>(x) * 1'000'000;
}()};

// RAII heartbeat for one re-plan cycle (scoped under gReplanMu, so at
// most one episode is live). The ctor clears any cancel left over from
// a race with the watchdog cancelling the *previous* episode; a cancel
// that slips in right after only costs one spuriously-skipped cycle.
struct ReplanEpisode {
  ReplanEpisode() {
    gReplanCancel.store(false, std::memory_order_release);
    gReplanBusySince.store(now_nanos(), std::memory_order_release);
  }
  ~ReplanEpisode() { gReplanBusySince.store(0, std::memory_order_release); }
};

// Bounded stop-the-world for a re-plan. False = wedged (budget elapsed
// or watchdog cancel): counted, reported to degrade, maps untouched.
bool stop_world_for_replan(core::ThreadContext& tc) {
  const bool stopped = core::Safepoint::try_stop_world(
      tc, gReplanBudgetNanos.load(std::memory_order_relaxed), &gReplanCancel);
  if (stopped) {
    gStops.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  gWedged.fetch_add(1, std::memory_order_relaxed);
  core::degrade::note_replan_wedged();
  return false;
}

// Serializes re-planners (controller thread, set_class_map, tests).
// Waiters block in a safe region — the holder may be about to stop the
// world, and a waiter that looks "running" would deadlock it.
std::mutex gReplanMu;

// Controller memory, guarded by gReplanMu. "scorched" = the class has
// shown contention at least once; it is reverted to field granularity
// and never re-coarsened (hysteresis against coarsen/revert flapping).
// "versionScorched" = the class stormed version aborts while running
// the versioned map; it is never promoted to versioned again.
struct AdaptState {
  uint64_t lastContention = 0;
  uint64_t lastVersionAborts = 0;
  bool scorched = false;
  bool versionScorched = false;
};
std::unordered_map<ClassInfo*, AdaptState> gAdapt;

// Versioned-promotion thresholds: a class is "read-mostly" once its
// contended reads clear a floor AND outnumber contended writes 4:1; a
// versioned class that burns this many validation/stale aborts in one
// controller cycle is losing more work than invisible readers save.
constexpr uint64_t kReadMostlyFloor = 16;
constexpr uint64_t kReadMostlyRatio = 4;
constexpr uint64_t kVersionAbortStormPerCycle = 128;

std::unique_lock<std::mutex> lock_replan_safely(core::ThreadContext& tc) {
  std::unique_lock<std::mutex> lk(gReplanMu, std::try_to_lock);
  if (!lk.owns_lock()) {
    core::Safepoint::SafeScope safe(tc);
    lk.lock();
  }
  return lk;
}

// The map the adaptive policy wants `ci` at, given its current signal.
LockMap desired_map(ClassInfo* ci, AdaptState& st) {
  const uint64_t hint = ci->lockMapHintBits.load(std::memory_order_relaxed);
  if (ci->lockMapPinned.load(std::memory_order_relaxed))
    return hint != kNoLockHint ? LockMap::from_bits(hint) : ci->lock_map();
  const uint64_t events = ci->contentionEvents.load(std::memory_order_relaxed);
  const uint64_t vAborts = ci->versionAborts.load(std::memory_order_relaxed);
  const bool hot = events != st.lastContention;
  const uint64_t abortDelta = vAborts - st.lastVersionAborts;
  st.lastContention = events;
  st.lastVersionAborts = vAborts;
  if (hot) st.scorched = true;
  // Version-abort storm: invisible readers are re-executing more work
  // than their missing acquire/release pairs save. Scorch back to field
  // granularity and never retry the promotion.
  if (ci->lock_map().versioned() && abortDelta >= kVersionAbortStormPerCycle) {
    st.versionScorched = true;
    return LockMap::field_map();
  }
  if (!st.versionScorched &&
      ci->deadlockEvents.load(std::memory_order_relaxed) == 0) {
    // Sticky: a versioned class that is neither storming nor
    // deadlocking stays versioned (its own write conflicts keep the
    // contention signal "hot", which must not bounce it to field).
    if (ci->lock_map().versioned()) return LockMap::versioned_map();
    // Promotion: contended but read-mostly — the invisible-reader
    // protocol removes the read-side lock traffic entirely.
    const uint64_t reads = ci->contendedReads.load(std::memory_order_relaxed);
    const uint64_t writes = ci->contendedWrites.load(std::memory_order_relaxed);
    if (reads >= kReadMostlyFloor && reads >= kReadMostlyRatio * (writes + 1))
      return LockMap::versioned_map();
  }
  if (st.scorched) return LockMap::field_map();
  if (hint != kNoLockHint) return LockMap::from_bits(hint);
  return LockMap::object_map();
}

struct Candidate {
  LockMap target;
  bool vetoed = false;
  std::vector<ManagedObject*> materialized;
};

// World stopped: veto classes with live lock state, release the
// survivors' lock arrays under the OLD map, then swap the maps. Walks
// every allocated object — including dead-but-unswept garbage — so no
// array sized under the old map outlives the swap; the later sweep
// then releases exactly the width it re-materialized with, keeping the
// Table 8 "Locks" gauge byte-exact across re-plans.
uint64_t apply_stopped(std::unordered_map<ClassInfo*, Candidate>& cand) {
  // Fault site: stretch the veto scan while the world is stopped, so
  // chaos can observe long re-plan pauses (and the watchdog heartbeat).
  if (const uint64_t d = sbd::fault::fire_delay_nanos(sbd::fault::Site::kReplanVeto))
    std::this_thread::sleep_for(std::chrono::nanoseconds(d));
  // Versioned read sets hold raw pointers into lock-word arrays (the
  // invisible reader touches no word, so nothing on the object records
  // its interest). Releasing such an array mid-transaction would leave
  // the parked reader's commit validation chasing pool-recycled memory
  // — veto every candidate class any live read set references.
  core::TxnManager::instance().for_each_thread([&](core::ThreadContext* t) {
    if (!t->txn.active()) return;  // idle threads clear the set on begin
    t->txn.read_set().for_each([&](const core::VersionedRead& vr) {
      auto it = cand.find(vr.obj->h.cls);
      if (it != cand.end()) it->second.vetoed = true;
    });
  });
  Heap::instance().for_each_object([&](ManagedObject* o) {
    auto it = cand.find(o->h.cls);
    if (it == cand.end() || it->second.vetoed) return;
    core::LockWord* lp = o->locks.load(std::memory_order_acquire);
    // nullptr = new in a (parked) transaction, kUnalloc = lazy: neither
    // has lock words to migrate; both materialize under the new map.
    if (lp == nullptr || lp == kUnalloc) return;
    const bool versioned = o->h.cls->lock_map().versioned();
    const uint32_t n = lock_count(o);  // width under the CURRENT map
    for (uint32_t i = 0; i < n; i++) {
      // Any nonzero word — held lock (member bits), writer/upgrader
      // flag, or a bound wait queue (threads parked in slow_acquire
      // leave their queue id in the word) — vetoes the class. Under a
      // versioned map a nonzero word is usually just a version stamp;
      // only the LSB (write-locked) marks live state there.
      const bool live = versioned ? core::version_locked(lp[i]) : lp[i] != 0;
      if (live) {
        it->second.vetoed = true;
        it->second.materialized.clear();
        return;
      }
    }
    it->second.materialized.push_back(o);
  });
  // Fault site: delay between the veto scan and the swap. The world is
  // still stopped, so this cannot invalidate the scan — it only widens
  // the pause the recovery machinery must tolerate.
  if (const uint64_t d = sbd::fault::fire_delay_nanos(sbd::fault::Site::kReplanSwap))
    std::this_thread::sleep_for(std::chrono::nanoseconds(d));
  uint64_t applied = 0;
  for (auto& [ci, c] : cand) {
    if (c.vetoed) {
      gVetoed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    for (ManagedObject* o : c.materialized) release_locks(o);
    ci->lockMapBits.store(c.target.bits(), std::memory_order_relaxed);
    applied++;
  }
  return applied;
}

// --- Controller thread ------------------------------------------------------

std::mutex gCtlMu;
std::thread gCtlThread;
bool gCtlRunning = false;  // guarded by gCtlMu
std::atomic<bool> gCtlStop{false};

void controller_main() {
  // SBD-attached background thread (the MemorySampler pattern): it
  // both requests stop-the-world and must look "safe" to concurrent
  // stoppers (GC, sampler) while it sleeps.
  Heap::instance().attach_current_thread_here();
  core::ThreadContext& tc = core::tls_context();
  while (!gCtlStop.load(std::memory_order_acquire)) {
    replan_now();
    core::Safepoint::SafeScope safe(tc);
    // Sleep in short slices so stop_controller() (atexit) is not held
    // hostage by a long replan interval.
    for (uint64_t slept = 0; slept < interval_ms(); slept += 50) {
      if (gCtlStop.load(std::memory_order_acquire)) break;
      const uint64_t slice = std::min<uint64_t>(50, interval_ms() - slept);
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
    }
  }
}

}  // namespace

Mode mode() { return config().mode; }

uint32_t mode_stripes() { return config().stripes; }

const char* mode_name() {
  switch (config().mode) {
    case Mode::kField:
      return "field";
    case Mode::kStriped:
      return "striped";
    case Mode::kObject:
      return "object";
    case Mode::kVersioned:
      return "versioned";
    case Mode::kAdaptive:
    default:
      return "adaptive";
  }
}

LockMap initial_map() {
  switch (config().mode) {
    case Mode::kStriped:
      return LockMap::striped_map(config().stripes);
    case Mode::kObject:
      return LockMap::object_map();
    case Mode::kVersioned:
      return LockMap::versioned_map();
    case Mode::kField:
    case Mode::kAdaptive:  // starts faithful; coarsens from data
    default:
      return LockMap::field_map();
  }
}

LockMap make_map(LockGranularity g, uint32_t stripes) {
  switch (g) {
    case LockGranularity::kStriped:
      return LockMap::striped_map(stripes);
    case LockGranularity::kObject:
      return LockMap::object_map();
    case LockGranularity::kVersioned:
      return LockMap::versioned_map();
    case LockGranularity::kField:
    default:
      return LockMap::field_map();
  }
}

void on_class_registered(ClassInfo* ci) {
  // Called before the class is published (no instance can exist yet),
  // so a plain store is enough.
  ci->lockMapBits.store(initial_map().bits(), std::memory_order_relaxed);
  if (config().mode == Mode::kAdaptive) start_controller();
}

void note_contention(ManagedObject* obj, bool wantWrite) {
  ClassInfo* cls = obj->h.cls;
  cls->contentionEvents.fetch_add(1, std::memory_order_relaxed);
  (wantWrite ? cls->contendedWrites : cls->contendedReads)
      .fetch_add(1, std::memory_order_relaxed);
}

void note_deadlock(ManagedObject* obj) {
  if (obj == nullptr) return;
  obj->h.cls->deadlockEvents.fetch_add(1, std::memory_order_relaxed);
}

void hint_class_map(ClassInfo* ci, LockMap m) {
  ci->lockMapHintBits.store(m.bits(), std::memory_order_relaxed);
}

bool set_class_map(ClassInfo* ci, LockMap m) {
  core::ThreadContext& tc = core::tls_context();
  auto lk = lock_replan_safely(tc);
  ci->lockMapPinned.store(true, std::memory_order_relaxed);
  // The hint doubles as the pin target: if the apply below is vetoed,
  // the adaptive controller keeps retrying it each cycle.
  ci->lockMapHintBits.store(m.bits(), std::memory_order_relaxed);
  if (ci->lock_map() == m) return true;
  std::unordered_map<ClassInfo*, Candidate> cand;
  cand[ci].target = m;
  ReplanEpisode episode;
  if (!stop_world_for_replan(tc)) return false;  // wedged: pin retried later
  const uint64_t applied = apply_stopped(cand);
  core::Safepoint::resume_world(tc);
  gReplans.fetch_add(applied, std::memory_order_relaxed);
  return applied == 1;
}

uint64_t replan_now() {
  // Quarantine: repeated wedges mean some mutator reliably never
  // reaches a safepoint — stop burning stop-the-world attempts and run
  // with the lock maps we have.
  if (core::degrade::replan_quarantined()) return 0;
  core::ThreadContext& tc = core::tls_context();
  auto lk = lock_replan_safely(tc);
  gCycles.fetch_add(1, std::memory_order_relaxed);
  // Phase 1 (world running): compute the change set cheaply. The
  // signal may go stale before the stop below — benign, the next
  // cycle reverts any class that turned hot in the window.
  std::unordered_map<ClassInfo*, Candidate> cand;
  const bool adaptive = config().mode == Mode::kAdaptive;
  for_each_class([&](ClassInfo* ci) {
    LockMap want = ci->lock_map();
    if (adaptive) {
      want = desired_map(ci, gAdapt[ci]);
    } else if (ci->lockMapPinned.load(std::memory_order_relaxed)) {
      // Fixed modes re-plan only vetoed set_class_map pins.
      const uint64_t hint = ci->lockMapHintBits.load(std::memory_order_relaxed);
      if (hint != kNoLockHint) want = LockMap::from_bits(hint);
    }
    if (want != ci->lock_map()) cand[ci].target = want;
  });
  if (cand.empty()) return 0;
  // Phase 2: stop the world (bounded), migrate, resume.
  ReplanEpisode episode;
  if (!stop_world_for_replan(tc)) return 0;  // wedged: retried next cycle
  const uint64_t applied = apply_stopped(cand);
  core::Safepoint::resume_world(tc);
  gReplans.fetch_add(applied, std::memory_order_relaxed);
  return applied;
}

Counters counters() {
  Counters c;
  c.cycles = gCycles.load(std::memory_order_relaxed);
  c.replans = gReplans.load(std::memory_order_relaxed);
  c.vetoed = gVetoed.load(std::memory_order_relaxed);
  c.stops = gStops.load(std::memory_order_relaxed);
  c.wedged = gWedged.load(std::memory_order_relaxed);
  return c;
}

uint64_t replan_busy_since() {
  return gReplanBusySince.load(std::memory_order_acquire);
}

void cancel_current_replan() {
  if (gReplanBusySince.load(std::memory_order_acquire) != 0)
    gReplanCancel.store(true, std::memory_order_release);
}

void set_replan_budget_nanos(uint64_t nanos) {
  gReplanBudgetNanos.store(nanos, std::memory_order_relaxed);
}

void start_controller() {
  std::lock_guard<std::mutex> lk(gCtlMu);
  if (gCtlRunning) return;
  // Everything the controller touches must be constructed BEFORE the
  // atexit handler below registers: a function-local singleton
  // constructed later would be destroyed before the handler runs,
  // under the controller's feet.
  (void)core::tls_context();
  (void)Heap::instance();
  (void)core::gauges();
  gCtlStop.store(false, std::memory_order_release);
  gCtlThread = std::thread(controller_main);
  gCtlRunning = true;
  static const bool atexitOnce = [] {
    std::atexit([] { stop_controller(); });
    return true;
  }();
  (void)atexitOnce;
}

void stop_controller() {
  std::thread t;
  {
    std::lock_guard<std::mutex> lk(gCtlMu);
    if (!gCtlRunning) return;
    gCtlStop.store(true, std::memory_order_release);
    t = std::move(gCtlThread);
    gCtlRunning = false;
  }
  if (core::ThreadContext* tc = core::tls_context_if_present()) {
    // The controller may be stopping the world and waiting for this
    // thread to park — join from a safe region.
    core::Safepoint::SafeScope safe(*tc);
    t.join();
  } else {
    // Process teardown: this thread's context is already destroyed and
    // unregistered, so the controller's stop never waits on us.
    t.join();
  }
}

}  // namespace sbd::runtime::lockplan
