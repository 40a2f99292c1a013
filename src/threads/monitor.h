// Condition signaling over managed objects (§3.5, Figure 6).
//
//   wait_on(obj)     — splits (committing the section and releasing all
//                      locks including the ones on the waited condition,
//                      plus the transaction id), blocks until a signal,
//                      then begins a new section. The caller re-checks
//                      the condition in a loop, as with Java monitors.
//   notify_all(obj)  — deferred until the signalling section commits, so
//                      an aborted section never signals and the
//                      condition's locks are already released when
//                      waiters wake (no thundering-herd reconvoy).
//   notify_one(obj)  — as notify_all, but wakes one waiter.
//
// Waiters park in core::ParkingLot as keyed nodes, keyed by the object's
// address; a signal with nobody waiting is dropped. The lost-wakeup
// protocol relies on the SBD locking discipline: the waiter publishes
// its node BEFORE the split commits, while it still holds a read lock on
// the condition (under versioned maps, while commit-time validation
// still guards its read), so a signaller — which needs the write lock —
// can only commit, and signal, after the node is visible.
#pragma once

#include "core/fwd.h"

namespace sbd::threads {

// Must be called inside an atomic section.
void wait_on(runtime::ManagedObject* obj);

// Deferred to commit when inside a section; immediate otherwise.
void notify_all(runtime::ManagedObject* obj);
void notify_one(runtime::ManagedObject* obj);

}  // namespace sbd::threads
