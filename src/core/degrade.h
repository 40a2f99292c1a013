// The serialization token and graceful degradation (robustness layer).
//
// One process-wide token serializes sections for two reasons:
//   - escalation: a section that keeps aborting is thrashing — each
//     retry redoes the same work and loses the same conflict. After a
//     bounded retry budget the section re-executes under the token, so
//     escalated retries never run concurrently with each other, which
//     drains abort storms instead of letting them feed on themselves;
//   - inevitability: become_inevitable() (core/inevitable.h) needs the
//     token, because at most one section may be unabortable (§3.4).
// A holder keeps the token across its own aborts (a setcontext stack
// restore) and gives it back when the section commits. An escalated
// section that calls become_inevitable() already holds it.
//
// Deadlock-freedom: the token is only ever *waited for* in
// abort_and_restart, after LockEngine::release_all. Waiters hold no
// locks; holders may block on locks but are never waited on by a lock
// holder. So the token can never close a lock-wait cycle, and Dreadlocks
// resolves every cycle among lock waiters by aborting one that is not
// inevitable. become_inevitable() therefore only try-acquires: when the
// token is busy it marks the thread as wanting it and aborts, and the
// abort path waits for it holding nothing.
//
// An escalated section is still an ordinary, abortable transaction (it
// can lose a dueling upgrade); only an inevitable one can never abort.
#pragma once

#include <cstdint>

namespace sbd::core {

struct ThreadContext;

namespace degrade {

// Consecutive aborts of one logical section before escalation.
// 0 disables escalation entirely (not inevitability). Default: 64.
void set_retry_budget(uint64_t aborts);
uint64_t retry_budget();

// Process-wide escalation count since start (monotonic; also kept per
// thread in StatsCounters::escalations).
uint64_t escalations();

// True while the calling thread's section runs under the token.
bool serialized(const ThreadContext& tc);

// Called by become_inevitable(): returns true with the token held if it
// was free or already this thread's. Otherwise marks the thread as
// wanting the token and returns false; the caller must then abort, and
// on_abort waits for the token.
bool take_token_for_inevitability(ThreadContext& tc);

// Called by abort_and_restart after locks are released: bumps the
// consecutive-abort count and blocks for the token if the thread wants
// it or, over budget, escalates.
void on_abort(ThreadContext& tc);

// Called by commit_section: resets the abort count and releases the
// token if held.
void on_commit(ThreadContext& tc);

// --- Lock re-plan wedge accounting -----------------------------------------
// The adaptive lockplan controller stops the world to swap lock maps; a
// mutator that never reaches a safepoint wedges that stop. The
// controller reports each abandoned (timed-out or watchdog-cancelled)
// re-plan here, and after `wedge budget` wedges the controller is
// quarantined: further re-plans are skipped so the process degrades to
// its current lock map instead of hanging or thrashing stop-the-worlds.

// Called by runtime/lockplan when a re-plan stop-the-world is abandoned.
void note_replan_wedged();

// Abandoned re-plans since process start (monotonic).
uint64_t replans_wedged();

// Wedges tolerated before quarantine; 0 disables quarantine. Default: 3.
void set_replan_wedge_budget(uint64_t wedges);
uint64_t replan_wedge_budget();

// True once replans_wedged() >= the (non-zero) wedge budget; re-plans
// are skipped while true. Raising the budget lifts the quarantine.
bool replan_quarantined();

}  // namespace degrade
}  // namespace sbd::core
