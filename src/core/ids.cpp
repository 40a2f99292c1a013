#include "core/ids.h"

#include <bit>
#include <chrono>
#include <sstream>

#include "common/check.h"
#include "core/queue.h"

namespace sbd::core {

namespace {
// Home-shard assignment: round-robin per thread, so concurrently active
// threads start their claim sweep on different shard words.
std::atomic<unsigned> gHomeGen{0};
unsigned home_shard() {
  static thread_local const unsigned home = gHomeGen.fetch_add(1, std::memory_order_relaxed);
  return home;
}

// One park slice while over-subscribed. Short enough that a wake lost
// to barging (a never-parked thread stealing the freed id) costs
// bounded latency, long enough that 100+ parked threads do not turn
// into a polling herd.
constexpr uint64_t kParkSliceNanos = 10'000'000;
}  // namespace

TxnIdPool::TxnIdPool() {
  for (int s = 0; s < kShards; s++)
    shards_[s].store((1ULL << kIdsPerShard) - 1, std::memory_order_relaxed);
}

int TxnIdPool::try_acquire() {
  const unsigned home = home_shard();
  for (int i = 0; i < kShards; i++) {
    const int s = static_cast<int>((home + i) % kShards);
    uint64_t bits = shards_[s].load(std::memory_order_seq_cst);
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      if (shards_[s].compare_exchange_weak(bits, bits & ~(1ULL << bit),
                                           std::memory_order_acq_rel))
        return s * kIdsPerShard + bit;
    }
  }
  return -1;
}

int TxnIdPool::acquire_for(uint64_t timeoutNanos) {
  int id = try_acquire();
  if (id >= 0) return id;

  auto& lot = ParkingLot::instance();
  WaitNode node;
  node.word = &parkSentinel_;
  node.keyed = true;
  // Order matters against release(): the waiter count rises BEFORE the
  // re-check below, and release() frees the id BEFORE reading the
  // count — so either the releaser sees us (and wakes), or our re-check
  // sees the freed id. Both seq_cst RMWs, a store-load fence apart.
  waiters_.fetch_add(1, std::memory_order_seq_cst);
  lot.publish(node);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(timeoutNanos);
  for (;;) {
    // Consume a pending signal first: if it raced in between the last
    // try_acquire and here, the freed bit is already visible below.
    uint32_t st = kNodeSignaled;
    node.state.compare_exchange_strong(st, kNodeWaiting, std::memory_order_relaxed);
    id = try_acquire();
    if (id >= 0) break;
    const auto left = deadline - std::chrono::steady_clock::now();
    if (left <= std::chrono::nanoseconds::zero()) break;
    const uint64_t slice =
        std::min<uint64_t>(static_cast<uint64_t>(left.count()), kParkSliceNanos);
    lot.park(node, slice);
  }
  waiters_.fetch_sub(1, std::memory_order_seq_cst);
  lot.remove(node);
  // Pass the baton: we may have absorbed a wake we did not use (we
  // timed out, or barged an id a signal was not meant for). If ids are
  // free and someone still waits, hand the wake on.
  if (waiters_.load(std::memory_order_seq_cst) > 0 && available() > 0)
    lot.unpark_keyed(&parkSentinel_, /*all=*/false);
  return id;
}

int TxnIdPool::acquire() {
  for (;;) {
    const int id = acquire_for(1'000'000'000);
    if (id >= 0) return id;
  }
}

void TxnIdPool::release(int id) {
  SBD_CHECK(id >= 0 && id < kMaxTxns);
  const int s = id / kIdsPerShard;
  const uint64_t bit = 1ULL << (id % kIdsPerShard);
  const uint64_t prev = shards_[s].fetch_or(bit, std::memory_order_seq_cst);
  SBD_CHECK_MSG((prev & bit) == 0, "double release of txn id");
  if (waiters_.load(std::memory_order_seq_cst) > 0)
    ParkingLot::instance().unpark_keyed(&parkSentinel_, /*all=*/false);
}

int TxnIdPool::available() const {
  int n = 0;
  for (int s = 0; s < kShards; s++)
    n += std::popcount(shards_[s].load(std::memory_order_acquire));
  return n;
}

int TxnIdPool::waiters() const { return waiters_.load(std::memory_order_acquire); }

std::string TxnIdPool::diagnose() const {
  std::ostringstream os;
  os << "txn-id pool: " << available() << "/" << kMaxTxns << " free, " << waiters()
     << " waiting";
  return os.str();
}

}  // namespace sbd::core
