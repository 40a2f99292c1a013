// sbd::obs — the always-on tracing + metrics layer grown out of the
// paper's §6 debug mode ("log the blocked threads, and deadlock
// situations ... resolve these issues mechanically by looking through
// this log").
//
// Design constraints, in order:
//
//   1. The record path must be cheap enough to leave enabled under the
//      chaos and perf-smoke runs: no global lock, no allocation. Each
//      thread appends to its own bounded SPSC ring buffer; on overflow
//      events are dropped and counted, never blocked on.
//   2. Lock identity must be symbolic. runtime/lockpool recycles
//      lock-word arrays across unrelated objects, so a raw word address
//      misattributes contention the moment an array is reused. Events
//      capture (ClassInfo*, lock index) at record time — while the
//      object is pinned by the wait queue — and summaries key on
//      "Class.field" / "Class[index]", which stays stable forever.
//   3. Everything aggregates into one metrics snapshot: StatsCounters,
//      GlobalGauges, lock-pool stats, watchdog/degrade counters, and a
//      top-N hot-lock contention table, exported as JSON via the
//      SBD_METRICS_JSON env var or the API below.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fwd.h"

namespace sbd::runtime {
struct ClassInfo;  // defined in runtime/class_info.h
}

namespace sbd::obs {

// The first seven kinds mirror the original §6 debug mode; the rest
// are the duration events of the always-on tracer and (after
// kSafepointStop) the full-trace events consumed by the sbd::oracle
// happens-before checker. New kinds must be APPENDED: the order is
// pinned.
enum class EventKind : uint8_t {
  kBlocked,        // a transaction entered a wait queue
  kGranted,        // ...and eventually got the lock (duration = wait latency)
  kDeadlock,       // a cycle was resolved; `other` is the chosen victim
  kAborted,        // a transaction rolled back and will retry
  kWatchdogStall,  // watchdog saw a transaction blocked past the threshold
  kIdPoolStall,    // id-pool acquire exceeded a timeout slice (§3.3 pressure)
  kEscalated,      // retry budget exhausted; section now runs serialized
  kCommit,         // sampled: one commit_section, duration = commit work
  kSplit,          // sampled: one split_section, duration incl. the commit
  kGcPause,        // one GC stop-the-world, duration = full pause
  kSafepointStop,  // one stop_world, duration = time to stop all threads
  kAcquire,        // full-trace: a lock was granted (`other` 1 = read->write upgrade)
  kRelease,        // full-trace: a lock was released (`other` 1 = commit, 0 = abort)
  kCommitOrder,    // full-trace: commit sequence drawn while locks held (`seq`)
  kThreadExit,     // the recording thread retired its ring (end of its stream)
  kValidate,       // full-trace: versioned read set validated (`seq` = read
                   // snapshot, `other` = entries) — the oracle joins the
                   // clocks of every commit with seq <= snapshot
  kVersionAbort,   // a versioned section aborted (`other` = reason below);
                   // always-on like kAborted, bumps the hot-lock table
};

const char* event_kind_name(EventKind k);

// Event::other reason codes carried by kVersionAbort.
inline constexpr int kVersionAbortStale = 0;          // read saw a stamp past the snapshot
inline constexpr int kVersionAbortWriteConflict = 1;  // foreign write lock outlasted the spin
inline constexpr int kVersionAbortValidation = 2;     // split/commit re-validation failed

// Marks "lock index unknown" in symbolized events (e.g. an event that
// only carries a raw address, or a word outside its object's array).
inline constexpr uint32_t kNoIndex = 0xFFFFFFFFu;

struct Event {
  EventKind kind;
  bool wantWrite;
  int txnId;   // who the event happened to (-1 if n/a)
  int other;   // victim id (kDeadlock), upgrade/commit flag (kAcquire/kRelease), -1 otherwise
  uint32_t lockIndex;                // lock-word index in the instance, or kNoIndex
  const runtime::ClassInfo* cls;     // symbolic identity; null if unknown
  uint64_t lockAddr;                 // raw word address (0 if n/a); NOT stable
  uint64_t timestampNanos;
  uint64_t durationNanos;            // kGranted: wait latency; k*Pause/kCommit/kSplit
  // Transaction epoch: Transaction::start_seq() at record time, so the
  // oracle can tell recycled txn ids apart (0 = no transaction).
  uint64_t epoch;
  // kCommitOrder: the global commit sequence number; kDeadlock: the
  // victim's epoch (start_seq); 0 otherwise.
  uint64_t seq;
  // Global record ordinal: the modification order of one atomic counter,
  // drawn inside record(). For two conflicting lock operations (release
  // recorded BEFORE the word is cleared, acquire recorded AFTER the CAS)
  // ordinal order is guaranteed to match real-time order even when the
  // clock ties — the tie-break the oracle's replay relies on.
  uint64_t ordinal;
};

// Symbolic identity of one lock word, resolved against the instance
// that owns it (the runtime class registry supplies the names).
struct LockSym {
  const runtime::ClassInfo* cls = nullptr;
  uint32_t index = kNoIndex;
};

namespace detail {
extern std::atomic<bool> gEnabled;
extern std::atomic<bool> gFullTrace;
extern std::atomic<bool> gLossless;
extern thread_local uint32_t tDurTick;
}  // namespace detail

// Duration events (kCommit/kSplit) are sampled 1-in-64 so the per-split
// tracer cost stays within the perf-smoke budget; contention events are
// never sampled (they live on the slow path already).
inline constexpr uint32_t kDurationSamplePeriod = 64;

// Enable/disable recording. Also auto-enabled at startup when the
// SBD_TRACE environment variable is set to a non-"0" value.
void set_enabled(bool on);
inline bool enabled() { return detail::gEnabled.load(std::memory_order_relaxed); }

// Full-trace mode: additionally record kAcquire/kRelease/kCommitOrder
// on every lock grant, release, and commit — the input the sbd::oracle
// happens-before checker needs. Costs one relaxed load per hot-path
// site while off. Implies enabled(). Auto-enabled at startup by
// SBD_TRACE=full or SBD_TRACE_FULL=1.
void set_full_trace(bool on);
inline bool full_trace() { return detail::gFullTrace.load(std::memory_order_relaxed); }

// Lossless mode: on ring overflow record() blocks (polling the ring
// tail) until a drainer makes room, instead of dropping. Only safe with
// a concurrent drain() loop on a non-SBD thread; as a liveness backstop
// a producer gives up after ~5s of no progress and falls back to
// drop-and-count. Default off (the bounded-buffer "never block" policy
// stands). Auto-enabled at startup by SBD_TRACE_LOSSLESS=1.
void set_lossless(bool on);
inline bool lossless() { return detail::gLossless.load(std::memory_order_relaxed); }

// Draws the next global commit sequence number (first call returns 1).
// commit_section draws it while every lock is still held, so the
// per-lock release->acquire order implies commit-sequence order — the
// linearization fact the oracle verifies. Since the versioned-
// granularity work this delegates to core::advance_version_clock():
// commit seqs and version stamps are the SAME counter, so a stamp on a
// versioned word IS the commit seq of the write that produced it.
uint64_t next_commit_seq();

// True on every kDurationSamplePeriod-th call per thread while enabled;
// callers bracket their duration measurement with it.
inline bool sample_duration() {
  if (!enabled()) return false;
  if (++detail::tDurTick < kDurationSamplePeriod) return false;
  detail::tDurTick = 0;
  return true;
}

// Resolves word -> (class, lock index) against the owning instance.
// Safe to call wherever the object is pinned (lock held, wait queue
// bound, or single-threaded); returns an address-free identity.
LockSym symbolize(const runtime::ManagedObject* obj, const core::LockWord* word);

// Records one event into the calling thread's ring (lock-free; drops
// and counts on overflow unless lossless() — see above). No-op while
// disabled. `epoch` is the recording transaction's start_seq (0 = no
// txn); `seq` is the commit sequence (kCommitOrder) or victim epoch
// (kDeadlock).
void record(EventKind kind, int txnId, int other, const void* lockAddr,
            const runtime::ClassInfo* cls, uint32_t lockIndex, bool wantWrite,
            uint64_t durationNanos = 0, uint64_t epoch = 0, uint64_t seq = 0);

// Convenience: record + symbolize in one step for lock-carrying events.
void record_lock_event(EventKind kind, int txnId, int other,
                       const runtime::ManagedObject* obj, const core::LockWord* word,
                       bool wantWrite, uint64_t durationNanos = 0,
                       uint64_t epoch = 0, uint64_t seq = 0);

// Drains every thread's ring and returns the merged trace, oldest
// first (merged by timestamp).
std::vector<Event> drain();

// Events currently buffered across all rings (approximate: producers
// keep appending while we sum).
size_t approx_size();

// Totals since process start: events recorded into rings, and events
// dropped to ring overflow (the bounded-buffer "never block" policy).
uint64_t recorded();
uint64_t dropped();

// Human-readable identity of an event's lock: "Class.field",
// "Class[index]", or the raw address when no symbol was captured.
std::string lock_name(const runtime::ClassInfo* cls, uint32_t index, uint64_t addr);
std::string lock_name(const Event& e);

// Renders events into the per-lock contention summary the paper's
// workflow needs: "which locks block whom, how often" — keyed on
// symbolic identity, with average granted-wait latency when available.
std::string summarize(const std::vector<Event>& events);

// Writes a drained trace as the "# sbd-trace v1" text format that
// tools/sbd_oracle reads back (one event per line, symbolic lock name
// last). `droppedEvents` goes into the header so the oracle knows
// whether the trace is complete. Returns false on I/O error.
bool write_trace(const std::string& path, const std::vector<Event>& events,
                 uint64_t droppedEvents);

// --- Hot-lock contention table ---------------------------------------------
// A small fixed-size concurrent table bumped on every kBlocked record,
// independent of the rings (surviving drains), so the watchdog and the
// metrics export can rank contended locks without consuming the trace.

struct HotLock {
  std::string name;
  uint64_t blocks = 0;
  uint64_t writes = 0;
};

// Top `n` contended locks, most blocked first.
std::vector<HotLock> top_contended(size_t n);

// One-line report ("top contended: A.x 12x(8w), B[3] 5x") or "" when
// the table is empty; the watchdog appends this to stall diagnoses.
std::string hot_report(size_t n);

// Clears the contention table (tests, measurement windows).
void reset_contention();

// --- Metrics snapshot --------------------------------------------------------

// Aggregates StatsCounters + GlobalGauges + lock-pool, watchdog,
// degradation, and tracer counters, plus the top-10 hot locks, into a
// JSON object.
std::string metrics_json();

// Registers an extra top-level metrics section: metrics_json() appends
// `"name": <provider()>` for each registration, letting subsystems the
// core cannot link against (sbd::serve) contribute without a dependency
// cycle. `provider` must return a complete JSON value and stay callable
// for the life of the process (register function pointers or lambdas
// over process-lifetime state, not over short-lived objects).
// Re-registering a name replaces the previous provider.
void register_metrics_section(const char* name, std::string (*provider)());

// Writes metrics_json() to `path`; returns false on I/O error.
bool export_metrics(const std::string& path);

// Honors the SBD_METRICS_JSON environment variable if set (called by
// tools/sbd_chaos and the benches at exit). Returns true if a file was
// written.
bool export_metrics_if_requested();

}  // namespace sbd::obs
