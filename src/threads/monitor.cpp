#include "threads/monitor.h"

#include "common/check.h"
#include "core/queue.h"
#include "core/resource.h"
#include "core/transaction.h"

namespace sbd::threads {

namespace {

// Condition waiters park in the lot keyed by the object's address.
const core::LockWord* key_of(runtime::ManagedObject* obj) {
  return reinterpret_cast<const core::LockWord*>(obj);
}

// Unlinks the published node if the split's own commit aborts (versioned
// read validation can fail there): the abort restores a stack without
// the node's frame. Thread-local because transactional resources live
// off the SBD stack (docs/SEMANTICS.md, the C++-specific contract).
struct UnlinkOnAbort final : core::TxResource {
  core::WaitNode* node = nullptr;
  void on_commit() override {}
  void on_abort() override { core::ParkingLot::instance().remove(*node); }
};
thread_local UnlinkOnAbort tUnlink;

void signal(runtime::ManagedObject* obj, bool all) {
  auto wake = [obj, all] { core::ParkingLot::instance().unpark_keyed(key_of(obj), all); };
  auto* tc = core::tls_context_if_present();
  // Deferred signal (§3.5): delivered only if this section commits,
  // after its locks are released.
  if (tc && tc->txn.active())
    tc->txn.defer(wake);
  else
    wake();
}

}  // namespace

void wait_on(runtime::ManagedObject* obj) {
  auto& tc = core::tls_context();
  SBD_CHECK_MSG(tc.txn.active(), "wait_on outside an atomic section");
  SBD_CHECK_MSG(tc.noSplitDepth == 0, "wait_on inside a noSplit block");
  auto& lot = core::ParkingLot::instance();
  // Publish BEFORE the split commits, while the section still guards
  // the condition (monitor.h): a signaller for the next condition state
  // runs after this commit and finds the node.
  core::WaitNode node;
  node.word = key_of(obj);
  node.boundObj = obj;  // GC root while we wait
  node.keyed = true;
  lot.publish(node);
  tUnlink.node = &node;
  tc.txn.add_resource(&tUnlink);
  auto blocked = [&] {
    {
      core::Safepoint::SafeScope safe(tc);
      while (node.state.load(std::memory_order_acquire) == core::kNodeWaiting)
        lot.park(node, 0);
    }
    lot.remove(node);
  };
  core::split_section_releasing_id(tc, blocked);
}

void notify_all(runtime::ManagedObject* obj) { signal(obj, true); }
void notify_one(runtime::ManagedObject* obj) { signal(obj, false); }

}  // namespace sbd::threads
