#include "runtime/lockpool.h"

#include <bit>
#include <cstring>

namespace sbd::runtime {

LockPool& LockPool::instance() {
  // Intentionally leaked, like Heap::instance(): pooled arrays stay
  // reachable through the free lists until exit, and no exit hook can
  // outlive the pool.
  static LockPool* pool = new LockPool();
  return *pool;
}

int LockPool::class_for(uint32_t nWords) {
  if (nWords == 0 || nWords > kMaxPooledWords) return -1;
  return std::bit_width(nWords - 1);  // ceil(log2(nWords)), 0 for nWords == 1
}

core::LockWord* LockPool::acquire(uint32_t nWords) {
  const int cls = class_for(nWords);
  if (cls < 0) {
    allocs_.fetch_add(1, std::memory_order_relaxed);
    return new core::LockWord[nWords]();
  }
  SizeClass& sc = classes_[cls];
  core::LockWord* arr = nullptr;
  {
    std::lock_guard<std::mutex> lk(sc.mu);
    if (!sc.free.empty()) {
      arr = sc.free.back();
      sc.free.pop_back();
    }
  }
  if (arr) {
    reuses_.fetch_add(1, std::memory_order_relaxed);
    std::memset(arr, 0, nWords * sizeof(core::LockWord));
    return arr;
  }
  allocs_.fetch_add(1, std::memory_order_relaxed);
  return new core::LockWord[class_words(cls)]();
}

void LockPool::release(core::LockWord* arr, uint32_t nWords) {
  const int cls = class_for(nWords);
  if (cls >= 0) {
    SizeClass& sc = classes_[cls];
    std::lock_guard<std::mutex> lk(sc.mu);
    if (sc.free.size() < kMaxPerClass) {
      sc.free.push_back(arr);
      return;
    }
  }
  delete[] arr;
}

LockPool::Stats LockPool::stats() {
  Stats s;
  for (int c = 0; c < kNumClasses; c++) {
    std::lock_guard<std::mutex> lk(classes_[c].mu);
    s.pooledArrays += classes_[c].free.size();
    s.pooledBytes += classes_[c].free.size() * class_words(c) * sizeof(core::LockWord);
  }
  s.reuses = reuses_.load(std::memory_order_relaxed);
  s.allocs = allocs_.load(std::memory_order_relaxed);
  return s;
}

void LockPool::trim() {
  for (auto& sc : classes_) {
    std::lock_guard<std::mutex> lk(sc.mu);
    for (core::LockWord* arr : sc.free) delete[] arr;
    sc.free.clear();
  }
}

}  // namespace sbd::runtime
