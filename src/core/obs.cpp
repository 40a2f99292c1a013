#include "core/obs.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/timing.h"
#include "core/degrade.h"
#include "core/queue.h"
#include "core/stats.h"
#include "core/transaction.h"
#include "core/watchdog.h"
#include "runtime/class_info.h"
#include "runtime/lockplan.h"
#include "runtime/lockpool.h"
#include "runtime/object.h"

namespace sbd::obs {

namespace detail {
std::atomic<bool> gEnabled{[] {
  const char* e = std::getenv("SBD_TRACE");
  return e != nullptr && *e != '\0' && std::strcmp(e, "0") != 0;
}()};
std::atomic<bool> gFullTrace{[] {
  const char* e = std::getenv("SBD_TRACE");
  if (e != nullptr && std::strcmp(e, "full") == 0) return true;
  const char* f = std::getenv("SBD_TRACE_FULL");
  return f != nullptr && *f != '\0' && std::strcmp(f, "0") != 0;
}()};
std::atomic<bool> gLossless{[] {
  const char* e = std::getenv("SBD_TRACE_LOSSLESS");
  return e != nullptr && *e != '\0' && std::strcmp(e, "0") != 0;
}()};
thread_local uint32_t tDurTick = 0;
}  // namespace detail

namespace {

// ---------------------------------------------------------------------------
// Per-thread SPSC ring buffers
// ---------------------------------------------------------------------------
//
// One producer (the owning thread), one consumer at a time (drain holds
// the registry mutex). The producer publishes a slot with a release
// store of head; the consumer retires slots with a release store of
// tail, which the producer acquires before overwriting — the standard
// bounded SPSC protocol, so the record path takes no lock ever.

constexpr size_t kRingEntries = 4096;  // power of two; ~320 KiB per thread

struct Ring {
  std::atomic<uint64_t> head{0};     // next slot to write (producer)
  std::atomic<uint64_t> tail{0};     // next slot to read (consumer)
  std::atomic<uint64_t> dropped{0};  // overflow count (producer)
  Event slots[kRingEntries];
};

// Global record ordinal. A relaxed fetch_add suffices for the oracle's
// ordering guarantee: for two records separated by a happens-before
// edge (the release record is sequenced before the word-clearing CAS,
// which synchronizes with the acquiring CAS sequenced before the
// acquire record), write-write coherence forces the earlier record to
// draw the smaller ordinal.
std::atomic<uint64_t> gOrdinal{0};

// Lossless mode gives up after this long without drain progress so a
// missing drainer degrades to drop-and-count instead of a hang.
constexpr uint64_t kLosslessMaxWaitNanos = 5'000'000'000ull;

// Appends one fully-formed event to `r`, dropping on overflow. Split
// out of record() so ~RingHolder can stamp kThreadExit into its ring
// directly (my_ring() must not run during TLS destruction).
void append_event(Ring& r, EventKind kind, int txnId, int other, uint64_t lockAddr,
                  const runtime::ClassInfo* cls, uint32_t lockIndex, bool wantWrite,
                  uint64_t durationNanos, uint64_t epoch, uint64_t seq) {
  const uint64_t h = r.head.load(std::memory_order_relaxed);
  if (h - r.tail.load(std::memory_order_acquire) >= kRingEntries) {
    r.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Event& e = r.slots[h & (kRingEntries - 1)];
  e.kind = kind;
  e.wantWrite = wantWrite;
  e.txnId = txnId;
  e.other = other;
  e.lockIndex = lockIndex;
  e.cls = cls;
  e.lockAddr = lockAddr;
  e.ordinal = gOrdinal.fetch_add(1, std::memory_order_relaxed) + 1;
  e.timestampNanos = now_nanos();
  e.durationNanos = durationNanos;
  e.epoch = epoch;
  e.seq = seq;
  r.head.store(h + 1, std::memory_order_release);
}

std::mutex gRingMu;                // registration + drain only, never record
// Both registries are leaked on purpose: threads joined from atexit
// handlers (e.g. the adaptive lock-plan controller) run their TLS
// ~RingHolder after static destruction has begun, and a function-local
// static vector would already be gone by then.
std::vector<Ring*>& all_rings() {
  static auto& v = *new std::vector<Ring*>();
  return v;
}
std::vector<Ring*>& free_rings() {  // retired by exited threads, adoptable
  static auto& v = *new std::vector<Ring*>();
  return v;
}

// The TLS holder retires the ring on thread exit so its buffered events
// stay drainable and the ring itself is adopted by the next new thread
// (memory stays bounded by the peak thread count).
struct RingHolder {
  Ring* r = nullptr;
  ~RingHolder() {
    if (!r) return;
    // End-of-stream marker: once this ring is adopted by another thread
    // the oracle needs to distinguish "the original thread's trace
    // ends here" from "events were lost". Drops (never blocks) on a
    // full ring — TLS destruction must not wait on a drainer.
    if (enabled())
      append_event(*r, EventKind::kThreadExit, -1, -1, 0, nullptr, kNoIndex,
                   false, 0, 0, 0);
    std::lock_guard<std::mutex> lk(gRingMu);
    free_rings().push_back(r);
    r = nullptr;
  }
};
thread_local RingHolder tRing;

Ring& my_ring() {
  if (!tRing.r) {
    std::lock_guard<std::mutex> lk(gRingMu);
    if (!free_rings().empty()) {
      tRing.r = free_rings().back();
      free_rings().pop_back();
    } else {
      tRing.r = new Ring();
      all_rings().push_back(tRing.r);
    }
  }
  return *tRing.r;
}

// ---------------------------------------------------------------------------
// Hot-lock contention table
// ---------------------------------------------------------------------------
//
// Fixed-size open-addressed table of (class, lock index) -> blocked
// counts, bumped on every kBlocked record. Lock-free: a slot's key is
// claimed once by CAS and never changes. Class pointers fit in 48 bits
// (canonical user-space addresses), so key = cls << 16 | min(index,
// 0xFFFF) is exact for every field and for array indices < 65535.

constexpr size_t kHotSlots = 512;  // power of two
constexpr int kHotProbes = 8;

struct HotSlot {
  std::atomic<uint64_t> key{0};
  std::atomic<uint64_t> blocks{0};
  std::atomic<uint64_t> writes{0};
};
HotSlot gHot[kHotSlots];
std::atomic<uint64_t> gHotOverflow{0};  // bumps that found no free slot

uint64_t hot_key(const runtime::ClassInfo* cls, uint32_t index) {
  const uint64_t idx = index == kNoIndex ? 0xFFFF : std::min<uint64_t>(index, 0xFFFF);
  return (reinterpret_cast<uint64_t>(cls) << 16) | idx;
}

void bump_hot(const runtime::ClassInfo* cls, uint32_t index, bool write) {
  if (!cls) return;  // only symbolized identities are rankable
  const uint64_t key = hot_key(cls, index);
  uint64_t h = key * 0x9E3779B97F4A7C15ull;
  for (int p = 0; p < kHotProbes; p++) {
    HotSlot& s = gHot[(h + static_cast<uint64_t>(p)) & (kHotSlots - 1)];
    uint64_t k = s.key.load(std::memory_order_acquire);
    if (k == 0) {
      uint64_t expected = 0;
      if (s.key.compare_exchange_strong(expected, key, std::memory_order_acq_rel))
        k = key;
      else
        k = expected;  // someone else claimed it; maybe with our key
    }
    if (k == key) {
      s.blocks.fetch_add(1, std::memory_order_relaxed);
      if (write) s.writes.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  gHotOverflow.fetch_add(1, std::memory_order_relaxed);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // class names are printable
    out.push_back(c);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Control + record
// ---------------------------------------------------------------------------

void set_enabled(bool on) { detail::gEnabled.store(on, std::memory_order_release); }

void set_full_trace(bool on) {
  detail::gFullTrace.store(on, std::memory_order_release);
  if (on) detail::gEnabled.store(true, std::memory_order_release);
}

void set_lossless(bool on) { detail::gLossless.store(on, std::memory_order_release); }

uint64_t next_commit_seq() {
  // One clock for commit seqs AND versioned stamps (core/transaction.h):
  // a stamp on a versioned word is the commit seq of its writer.
  return core::advance_version_clock();
}

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kBlocked: return "blocked";
    case EventKind::kGranted: return "granted";
    case EventKind::kDeadlock: return "deadlock";
    case EventKind::kAborted: return "aborted";
    case EventKind::kWatchdogStall: return "watchdog-stall";
    case EventKind::kIdPoolStall: return "idpool-stall";
    case EventKind::kEscalated: return "escalated";
    case EventKind::kCommit: return "commit";
    case EventKind::kSplit: return "split";
    case EventKind::kGcPause: return "gc-pause";
    case EventKind::kSafepointStop: return "safepoint-stop";
    case EventKind::kAcquire: return "acquire";
    case EventKind::kRelease: return "release";
    case EventKind::kCommitOrder: return "commit-order";
    case EventKind::kThreadExit: return "thread-exit";
    case EventKind::kValidate: return "validate";
    case EventKind::kVersionAbort: return "version-abort";
  }
  return "?";
}

LockSym symbolize(const runtime::ManagedObject* obj, const core::LockWord* word) {
  LockSym sym;
  if (!obj) return sym;
  sym.cls = obj->h.cls;
  const core::LockWord* base = obj->locks.load(std::memory_order_acquire);
  if (base != nullptr && base != runtime::kUnalloc && word >= base) {
    const uint64_t idx = static_cast<uint64_t>(word - base);
    if (idx < runtime::lock_count(obj)) sym.index = static_cast<uint32_t>(idx);
  }
  return sym;
}

void record(EventKind kind, int txnId, int other, const void* lockAddr,
            const runtime::ClassInfo* cls, uint32_t lockIndex, bool wantWrite,
            uint64_t durationNanos, uint64_t epoch, uint64_t seq) {
  if (!enabled()) return;
  // kVersionAbort feeds the hot table too: an invisible-reader class
  // that keeps aborting is contended even though nothing ever blocks.
  if (kind == EventKind::kBlocked || kind == EventKind::kVersionAbort)
    bump_hot(cls, lockIndex, wantWrite);
  Ring& r = my_ring();
  uint64_t h = r.head.load(std::memory_order_relaxed);
  if (h - r.tail.load(std::memory_order_acquire) >= kRingEntries) {
    if (!lossless()) {
      r.dropped.fetch_add(1, std::memory_order_relaxed);  // bounded: never block
      return;
    }
    // Lossless: poll for drain progress. Bounded by kLosslessMaxWaitNanos
    // so a run without a drainer thread stalls, then degrades to a
    // counted drop rather than hanging forever.
    const uint64_t t0 = now_nanos();
    for (;;) {
      std::this_thread::sleep_for(std::chrono::microseconds(10));
      if (h - r.tail.load(std::memory_order_acquire) < kRingEntries) break;
      if (now_nanos() - t0 >= kLosslessMaxWaitNanos || !lossless()) {
        r.dropped.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  }
  append_event(r, kind, txnId, other, reinterpret_cast<uint64_t>(lockAddr), cls,
               lockIndex, wantWrite, durationNanos, epoch, seq);
}

void record_lock_event(EventKind kind, int txnId, int other,
                       const runtime::ManagedObject* obj, const core::LockWord* word,
                       bool wantWrite, uint64_t durationNanos, uint64_t epoch,
                       uint64_t seq) {
  if (!enabled()) return;
  const LockSym sym = symbolize(obj, word);
  record(kind, txnId, other, word, sym.cls, sym.index, wantWrite, durationNanos,
         epoch, seq);
}

// ---------------------------------------------------------------------------
// Drain + summaries
// ---------------------------------------------------------------------------

std::vector<Event> drain() {
  std::vector<Event> out;
  {
    std::lock_guard<std::mutex> lk(gRingMu);
    for (Ring* r : all_rings()) {
      uint64_t t = r->tail.load(std::memory_order_relaxed);
      const uint64_t h = r->head.load(std::memory_order_acquire);
      for (; t != h; t++) out.push_back(r->slots[t & (kRingEntries - 1)]);
      r->tail.store(t, std::memory_order_release);
    }
  }
  // Timestamp primary (human-readable traces stay chronological), the
  // global ordinal breaking ties — which is exactly the ambiguous case
  // the oracle needs resolved for conflicting lock operations.
  std::stable_sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    if (a.timestampNanos != b.timestampNanos) return a.timestampNanos < b.timestampNanos;
    return a.ordinal < b.ordinal;
  });
  return out;
}

size_t approx_size() {
  std::lock_guard<std::mutex> lk(gRingMu);
  size_t n = 0;
  for (Ring* r : all_rings())
    n += static_cast<size_t>(r->head.load(std::memory_order_acquire) -
                             r->tail.load(std::memory_order_acquire));
  return n;
}

uint64_t recorded() {
  std::lock_guard<std::mutex> lk(gRingMu);
  uint64_t n = 0;
  for (Ring* r : all_rings()) n += r->head.load(std::memory_order_acquire);
  return n;
}

uint64_t dropped() {
  std::lock_guard<std::mutex> lk(gRingMu);
  uint64_t n = 0;
  for (Ring* r : all_rings()) n += r->dropped.load(std::memory_order_relaxed);
  return n;
}

std::string lock_name(const runtime::ClassInfo* cls, uint32_t index, uint64_t addr) {
  if (cls) {
    std::ostringstream os;
    os << cls->name;
    if (index == kNoIndex) {
      os << ".?";
    } else if (cls->isArray) {
      os << "[" << index << "]";
    } else if (index < cls->slotNames.size()) {
      os << "." << cls->slotNames[index];
    } else {
      os << ".slot" << index;  // statics holder / out-of-registry slots
    }
    return os.str();
  }
  if (addr != 0) {
    std::ostringstream os;
    os << "0x" << std::hex << addr;
    return os.str();
  }
  return "-";
}

std::string lock_name(const Event& e) { return lock_name(e.cls, e.lockIndex, e.lockAddr); }

std::string summarize(const std::vector<Event>& events) {
  struct LockStats {
    uint64_t blocks = 0;
    uint64_t writes = 0;
    uint64_t grants = 0;
    uint64_t waitNanos = 0;
  };
  // Keyed on the symbolic name, so contention attribution is stable
  // even when the lock pool recycles the underlying array address.
  std::map<std::string, LockStats> byLock;
  uint64_t deadlocks = 0, aborts = 0, stalls = 0, idStalls = 0, escalations = 0;
  uint64_t commits = 0, splits = 0, gcPauses = 0, spStops = 0;
  uint64_t acquires = 0, releases = 0, commitOrders = 0, threadExits = 0;
  uint64_t validates = 0, versionAborts = 0;
  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::kBlocked: {
        LockStats& s = byLock[lock_name(e)];
        s.blocks++;
        if (e.wantWrite) s.writes++;
        break;
      }
      case EventKind::kGranted: {
        LockStats& s = byLock[lock_name(e)];
        s.grants++;
        s.waitNanos += e.durationNanos;
        break;
      }
      case EventKind::kDeadlock:
        deadlocks++;
        break;
      case EventKind::kAborted:
        aborts++;
        break;
      case EventKind::kWatchdogStall:
        stalls++;
        break;
      case EventKind::kIdPoolStall:
        idStalls++;
        break;
      case EventKind::kEscalated:
        escalations++;
        break;
      case EventKind::kCommit:
        commits++;
        break;
      case EventKind::kSplit:
        splits++;
        break;
      case EventKind::kGcPause:
        gcPauses++;
        break;
      case EventKind::kSafepointStop:
        spStops++;
        break;
      case EventKind::kAcquire:
        acquires++;
        break;
      case EventKind::kRelease:
        releases++;
        break;
      case EventKind::kCommitOrder:
        commitOrders++;
        break;
      case EventKind::kThreadExit:
        threadExits++;
        break;
      case EventKind::kValidate:
        validates++;
        break;
      case EventKind::kVersionAbort: {
        versionAborts++;
        LockStats& s = byLock[lock_name(e)];
        s.blocks++;
        if (e.wantWrite) s.writes++;
        break;
      }
    }
  }
  std::ostringstream os;
  os << "debug log: " << events.size() << " events, " << deadlocks << " deadlocks, "
     << aborts << " aborts";
  if (stalls || idStalls || escalations)
    os << ", " << stalls << " stalls, " << idStalls << " id-pool stalls, "
       << escalations << " escalations";
  if (commits || splits)
    os << ", " << commits << " commit / " << splits << " split samples";
  if (gcPauses || spStops)
    os << ", " << gcPauses << " gc pauses, " << spStops << " safepoint stops";
  if (acquires || releases || commitOrders)
    os << ", full trace: " << acquires << " acquires / " << releases
       << " releases / " << commitOrders << " ordered commits";
  if (validates || versionAborts)
    os << ", versioned: " << validates << " validations / " << versionAborts
       << " version aborts";
  if (threadExits) os << ", " << threadExits << " thread exits";
  os << "\n";
  for (const auto& [name, s] : byLock) {
    os << "  lock " << name << ": blocked " << s.blocks << "x (" << s.writes
       << " writes)";
    if (s.grants > 0) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f",
                    static_cast<double>(s.waitNanos) / static_cast<double>(s.grants) / 1e6);
      os << ", avg wait " << buf << "ms";
    }
    os << "\n";
  }
  return os.str();
}

bool write_trace(const std::string& path, const std::vector<Event>& events,
                 uint64_t droppedEvents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  bool ok = std::fprintf(f, "# sbd-trace v1\n# dropped=%llu recorded=%zu\n",
                         static_cast<unsigned long long>(droppedEvents),
                         events.size()) > 0;
  for (const Event& e : events) {
    // The symbolic lock name goes last so it may contain spaces.
    ok = ok && std::fprintf(
                   f,
                   "%s txn=%d epoch=%llu other=%d seq=%llu w=%d ord=%llu "
                   "ts=%llu dur=%llu addr=0x%llx name=%s\n",
                   event_kind_name(e.kind), e.txnId,
                   static_cast<unsigned long long>(e.epoch), e.other,
                   static_cast<unsigned long long>(e.seq), e.wantWrite ? 1 : 0,
                   static_cast<unsigned long long>(e.ordinal),
                   static_cast<unsigned long long>(e.timestampNanos),
                   static_cast<unsigned long long>(e.durationNanos),
                   static_cast<unsigned long long>(e.lockAddr),
                   lock_name(e).c_str()) > 0;
  }
  return std::fclose(f) == 0 && ok;
}

// ---------------------------------------------------------------------------
// Hot-lock reports
// ---------------------------------------------------------------------------

std::vector<HotLock> top_contended(size_t n) {
  struct Raw {
    uint64_t key;
    uint64_t blocks;
    uint64_t writes;
  };
  std::vector<Raw> raw;
  for (HotSlot& s : gHot) {
    const uint64_t k = s.key.load(std::memory_order_acquire);
    if (k == 0) continue;
    raw.push_back({k, s.blocks.load(std::memory_order_relaxed),
                   s.writes.load(std::memory_order_relaxed)});
  }
  std::sort(raw.begin(), raw.end(),
            [](const Raw& a, const Raw& b) { return a.blocks > b.blocks; });
  if (raw.size() > n) raw.resize(n);
  std::vector<HotLock> out;
  out.reserve(raw.size());
  for (const Raw& r : raw) {
    const auto* cls = reinterpret_cast<const runtime::ClassInfo*>(r.key >> 16);
    const uint32_t idx = static_cast<uint32_t>(r.key & 0xFFFF);
    out.push_back({lock_name(cls, idx == 0xFFFF ? kNoIndex : idx, 0), r.blocks, r.writes});
  }
  return out;
}

std::string hot_report(size_t n) {
  const std::vector<HotLock> top = top_contended(n);
  if (top.empty()) return "";
  std::ostringstream os;
  os << "top contended:";
  for (const HotLock& h : top)
    os << " " << h.name << " " << h.blocks << "x(" << h.writes << "w)";
  return os.str();
}

void reset_contention() {
  for (HotSlot& s : gHot) {
    s.key.store(0, std::memory_order_relaxed);
    s.blocks.store(0, std::memory_order_relaxed);
    s.writes.store(0, std::memory_order_relaxed);
  }
  gHotOverflow.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Metrics snapshot
// ---------------------------------------------------------------------------

namespace {
// Extension sections (e.g. sbd::serve). Intentionally leaked singleton,
// like the ring registries: providers may be queried from atexit paths.
struct ExtraSections {
  std::mutex mu;
  std::vector<std::pair<std::string, std::string (*)()>> entries;
};
ExtraSections& extra_sections() {
  static ExtraSections* s = new ExtraSections();
  return *s;
}
}  // namespace

void register_metrics_section(const char* name, std::string (*provider)()) {
  ExtraSections& s = extra_sections();
  std::lock_guard<std::mutex> lk(s.mu);
  for (auto& [n, p] : s.entries) {
    if (n == name) {
      p = provider;
      return;
    }
  }
  s.entries.emplace_back(name, provider);
}

std::string metrics_json() {
  const core::StatsCounters c = core::TxnManager::instance().snapshot_stats();
  const core::GlobalGauges& g = core::gauges();
  const runtime::LockPool::Stats lp = runtime::LockPool::instance().stats();
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  const char* sep = "";
#define SBD_STATS_JSON(name)                  \
  os << sep << "\"" #name "\": " << c.name; \
  sep = ", ";
  SBD_STATS_COUNTERS(SBD_STATS_JSON)
#undef SBD_STATS_JSON
  os << "},\n  \"gauges\": {";
  os << "\"lockStructBytes\": " << g.lockStructBytes.load(std::memory_order_relaxed)
     << ", \"versionWordBytes\": " << g.versionWordBytes.load(std::memory_order_relaxed)
     << ", \"heapBytes\": " << g.heapBytes.load(std::memory_order_relaxed)
     << ", \"gcRuns\": " << g.gcRuns.load(std::memory_order_relaxed);
  os << "},\n  \"lockpool\": {";
  os << "\"pooledArrays\": " << lp.pooledArrays << ", \"pooledBytes\": " << lp.pooledBytes
     << ", \"reuses\": " << lp.reuses << ", \"allocs\": " << lp.allocs;
  os << "},\n  \"lockplan\": {";
  const runtime::lockplan::Counters lpc = runtime::lockplan::counters();
  os << "\"mode\": \"" << runtime::lockplan::mode_name() << "\""
     << ", \"cycles\": " << lpc.cycles << ", \"replans\": " << lpc.replans
     << ", \"vetoed\": " << lpc.vetoed << ", \"stops\": " << lpc.stops
     << ", \"wedged\": " << lpc.wedged;
  os << "},\n  \"parking\": {";
  const core::ParkingLot::Counters pk = core::ParkingLot::counters();
  os << "\"parked\": " << pk.parked << ", \"spun_granted\": " << pk.spunGranted
     << ", \"futex_wakes\": " << pk.futexWakes << ", \"handoffs\": " << pk.handoffs
     << ", \"id_wakes\": " << pk.idWakes;
  os << "},\n  \"watchdog\": {";
  os << "\"stalls\": " << core::Watchdog::stalls_detected()
     << ", \"victims\": " << core::Watchdog::victims_aborted();
  os << "},\n  \"degrade\": {";
  os << "\"escalations\": " << core::degrade::escalations()
     << ", \"retryBudget\": " << core::degrade::retry_budget();
  os << "},\n  \"trace\": {";
  os << "\"enabled\": " << (enabled() ? "true" : "false")
     << ", \"full\": " << (full_trace() ? "true" : "false")
     << ", \"lossless\": " << (lossless() ? "true" : "false")
     << ", \"recorded\": " << recorded() << ", \"dropped\": " << dropped()
     << ", \"pending\": " << approx_size()
     << ", \"hotTableOverflow\": " << gHotOverflow.load(std::memory_order_relaxed);
  os << "},\n  \"hotLocks\": [";
  const std::vector<HotLock> top = top_contended(10);
  for (size_t i = 0; i < top.size(); i++) {
    os << (i == 0 ? "" : ", ") << "{\"lock\": \"" << json_escape(top[i].name)
       << "\", \"blocks\": " << top[i].blocks << ", \"writes\": " << top[i].writes << "}";
  }
  os << "]";
  {
    ExtraSections& s = extra_sections();
    std::lock_guard<std::mutex> lk(s.mu);
    for (const auto& [name, provider] : s.entries)
      os << ",\n  \"" << json_escape(name) << "\": " << provider();
  }
  os << "\n}\n";
  return os.str();
}

bool export_metrics(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string json = metrics_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

bool export_metrics_if_requested() {
  const char* path = std::getenv("SBD_METRICS_JSON");
  if (!path || !*path) return false;
  if (!export_metrics(path)) {
    std::fprintf(stderr, "[sbd-obs] cannot write metrics to %s\n", path);
    return false;
  }
  return true;
}

}  // namespace sbd::obs
