// sbd::oracle — offline happens-before serializability checker over a
// drained obs trace (the valgrind-drd style of vector-clock propagation
// applied to SBD's visible-reader lock words).
//
// Input: the full trace recorded under obs::set_full_trace(true) —
// kAcquire / kRelease / kCommitOrder plus the always-on kBlocked /
// kDeadlock / kAborted / kThreadExit events. The checker proves, for
// one run:
//
//   1. Lock discipline (per-word replay, keyed on the raw word address,
//      which is stable within a run*): no write grant while the word is
//      held, no read grant under a writer, upgrades only from a sole
//      read holder, no double grants, no phantom or mode-mismatched
//      releases, and (for complete traces) nothing left held at the
//      end.
//   2. Serializability: commit sequence numbers (drawn while all locks
//      are held) form a total order that is a linear extension of the
//      happens-before order induced by committed releases — i.e. no
//      transaction observes state from a commit that is ordered after
//      its own. Verified with per-transaction vector clocks: a write
//      acquire joins the lock's full release clock, a read acquire
//      joins only its writer-release clock (so commuting readers stay
//      unordered), and the commit sweep checks seq order against the
//      clocks in O(n * kMaxIds).
//   3. Transaction lifecycle, keyed on (txn id, epoch): recycled txn
//      ids must not alias (epoch = Transaction::epoch(), strictly
//      increasing per id), no grant after the epoch's commit, at most one commit
//      per epoch, no abort after commit.
//   4. Deadlock events name a victim that actually participated: the
//      (victim id, victim epoch) pair carried by the event must have a
//      prior kBlocked.
//
// (*) Address keying is sound because the lock pool only recycles
// all-zero (fully released) arrays and held locks pin their objects as
// GC roots — so a recycled address's event stream is still a valid
// single-lock history, and the happens-before edges it induces are
// real. The symbolic name rides along for reporting only; hand-built
// test fixtures may use small integers as lock keys.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/obs.h"

namespace sbd::oracle {

// One trace event, decoupled from live runtime pointers.
struct Rec {
  obs::EventKind kind = obs::EventKind::kAborted;
  int txn = -1;        // transaction id (0..55), -1 if n/a
  uint64_t epoch = 0;  // Transaction::epoch() at record time (0 = unknown)
  int other = -1;      // kDeadlock: victim id; kAcquire: 1 = upgrade; kRelease: 1 = commit
  uint64_t seq = 0;    // kCommitOrder: commit seq; kDeadlock: victim epoch
  bool write = false;  // lock mode
  uint64_t lockKey = 0;  // per-run-stable lock identity (raw word address)
  std::string lockName;  // symbolic "Class.field" (diagnostics only)
  uint64_t ord = 0;      // global record ordinal (tie-break within equal ts)
  uint64_t ts = 0;       // timestampNanos
};

struct Violation {
  size_t index = 0;  // position of the offending event in the checked trace
  std::string rule;  // e.g. "conflicting-grant", "commit-order-inversion"
  std::string detail;
};

struct Report {
  std::vector<Violation> violations;
  uint64_t events = 0;
  uint64_t txns = 0;      // distinct (id, epoch) incarnations seen
  uint64_t acquires = 0;
  uint64_t releases = 0;
  uint64_t commits = 0;   // kCommitOrder events
  uint64_t threadExits = 0;
  uint64_t droppedEvents = 0;
  // False when events were dropped: the end-of-trace checks (unreleased
  // locks, balanced lifecycles) are skipped because absence of an event
  // no longer proves absence of the operation.
  bool complete = true;
  // True when the violation list was capped (cascades suppressed).
  bool truncated = false;
  bool ok() const { return violations.empty(); }
};

// Checks a trace. `trace` need not be sorted — events are ordered by
// (ts, ord) internally, the same order obs::drain() produces.
Report check(const std::vector<Rec>& trace, uint64_t droppedEvents = 0);

// Converts a drained obs trace (resolves symbolic lock names; requires
// the recording process's class registry, i.e. in-process use).
std::vector<Rec> from_obs(const std::vector<obs::Event>& events);

// Reads a "# sbd-trace v1" file written by obs::write_trace. Returns
// false on I/O or parse error (parse errors name the line on stderr).
bool read_trace(const std::string& path, std::vector<Rec>& out,
                uint64_t& droppedEvents);

// One-line rendering of an event (for reports and windows).
std::string format_event(const Rec& r);

// The offending event windows: for each violation, the surrounding
// `context` events with the offender marked. This is what a failing
// differential chaos run prints and what CI uploads as the artifact.
std::string format_windows(const std::vector<Rec>& trace, const Report& rep,
                           size_t context = 6);

// "oracle: OK ..." / "oracle: N violation(s) ..." one-liner.
std::string summary_line(const Report& rep);

}  // namespace sbd::oracle
