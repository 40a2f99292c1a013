#include "core/inevitable.h"

#include <atomic>

#include "common/check.h"
#include "core/degrade.h"
#include "core/transaction.h"

namespace sbd::core {

namespace {
std::atomic<uint64_t> gAcquisitions{0};
}  // namespace

void become_inevitable() {
  auto& tc = tls_context();
  SBD_CHECK_MSG(tc.txn.active(), "become_inevitable outside an atomic section");
  if (tc.txn.inevitable()) return;
  // This section may hold locks, so it must not wait for the token: a
  // busy token aborts it instead, and the retry arrives here holding it.
  if (!degrade::take_token_for_inevitability(tc)) abort_and_restart(tc);
  // Pin down the invisible reads: an inevitable section can never abort,
  // and versioned reads settle conflicts by aborting the reader — so
  // every versioned read-set entry is locked exclusively and the
  // snapshot validated NOW, while this transaction is still revocable
  // (an abort here keeps the token for the retry).
  LockEngine::versioned_promote_for_inevitable(tc);
  tc.txn.set_inevitable(true);
  gAcquisitions.fetch_add(1, std::memory_order_relaxed);
}

bool is_inevitable() {
  auto* tc = tls_context_if_present();
  return tc != nullptr && tc->txn.inevitable();
}

uint64_t inevitable_acquisitions() {
  return gAcquisitions.load(std::memory_order_relaxed);
}

}  // namespace sbd::core
