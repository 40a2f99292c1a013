#include "core/degrade.h"

#include <atomic>
#include <condition_variable>
#include <mutex>

#include "core/obs.h"
#include "core/transaction.h"

namespace sbd::core::degrade {

namespace {

std::atomic<uint64_t> gRetryBudget{64};
std::atomic<uint64_t> gEscalations{0};

// The serialization token. A plain bool under a mutex (not a
// std::mutex held across the section) because the holder keeps it
// across aborts — i.e. across setcontext stack restores, which a held
// std::unique_lock would not survive.
std::mutex gTokenMu;
std::condition_variable gTokenCv;
bool gTokenHeld = false;

std::atomic<uint64_t> gReplanWedges{0};
std::atomic<uint64_t> gReplanWedgeBudget{3};

}  // namespace

void set_retry_budget(uint64_t aborts) {
  gRetryBudget.store(aborts, std::memory_order_relaxed);
}

uint64_t retry_budget() { return gRetryBudget.load(std::memory_order_relaxed); }

uint64_t escalations() { return gEscalations.load(std::memory_order_relaxed); }

bool serialized(const ThreadContext& tc) { return tc.serialToken == SerialToken::kHeld; }

bool take_token_for_inevitability(ThreadContext& tc) {
  if (serialized(tc)) return true;
  std::lock_guard<std::mutex> lk(gTokenMu);
  if (gTokenHeld) {
    tc.serialToken = SerialToken::kWanted;
    return false;
  }
  gTokenHeld = true;
  tc.serialToken = SerialToken::kHeld;
  return true;
}

void on_abort(ThreadContext& tc) {
  const uint64_t aborts =
      tc.consecutiveAborts.fetch_add(1, std::memory_order_relaxed) + 1;
  if (serialized(tc)) return;  // the holder keeps the token across aborts
  const bool wanted = tc.serialToken == SerialToken::kWanted;
  const uint64_t budget = gRetryBudget.load(std::memory_order_relaxed);
  if (!wanted && (budget == 0 || aborts < budget)) return;
  {
    // The wait can be long (another serialized section is running); let
    // the GC scan us meanwhile. We hold no SBD locks here (pre: caller
    // already ran LockEngine::release_all).
    Safepoint::SafeScope safe(tc);
    std::unique_lock<std::mutex> lk(gTokenMu);
    gTokenCv.wait(lk, [] { return !gTokenHeld; });
    gTokenHeld = true;
  }
  tc.serialToken = SerialToken::kHeld;
  if (wanted) return;
  tc.stats.escalations++;
  gEscalations.fetch_add(1, std::memory_order_relaxed);
  obs::record(obs::EventKind::kEscalated, tc.txn.id(), -1, nullptr, nullptr,
              obs::kNoIndex, false);
}

void on_commit(ThreadContext& tc) {
  tc.consecutiveAborts.store(0, std::memory_order_relaxed);
  if (!serialized(tc)) return;
  tc.serialToken = SerialToken::kNone;
  // Cleared before the token is free, so at most one section is ever
  // flagged inevitable.
  tc.txn.set_inevitable(false);
  {
    std::lock_guard<std::mutex> lk(gTokenMu);
    gTokenHeld = false;
  }
  gTokenCv.notify_one();
}

void note_replan_wedged() {
  gReplanWedges.fetch_add(1, std::memory_order_relaxed);
}

uint64_t replans_wedged() { return gReplanWedges.load(std::memory_order_relaxed); }

void set_replan_wedge_budget(uint64_t wedges) {
  gReplanWedgeBudget.store(wedges, std::memory_order_relaxed);
}

uint64_t replan_wedge_budget() {
  return gReplanWedgeBudget.load(std::memory_order_relaxed);
}

bool replan_quarantined() {
  const uint64_t budget = gReplanWedgeBudget.load(std::memory_order_relaxed);
  return budget != 0 && gReplanWedges.load(std::memory_order_relaxed) >= budget;
}

}  // namespace sbd::core::degrade
