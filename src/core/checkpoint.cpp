#include "core/checkpoint.h"

#include <cstddef>
#include <cstring>

#include "common/check.h"

namespace sbd::core {

namespace {
// The trampoline has no way to receive arguments through makecontext
// portably (int-sized args only), so the engine parks itself here.
thread_local CheckpointEngine* tActiveEngine = nullptr;
thread_local Checkpoint* tActiveCheckpoint = nullptr;

#if defined(__SANITIZE_ADDRESS__)
#define SBD_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SBD_ASAN 1
#endif
#endif

// Copies stack bytes. Under ASan a live stack carries redzones around
// instrumented locals, so an intercepted memcpy across it reports an
// overflow; the uninstrumented byte loop does not. Elsewhere memcpy:
// the byte loop, even vectorized, made the heap-bank benchmark's p50
// about 6% slower (4-core Xeon, GCC 12.2).
__attribute__((no_sanitize("address"))) void copy_stack(void* dst, const void* src,
                                                        size_t n) {
#if defined(SBD_ASAN)
  auto* d = static_cast<unsigned char*>(dst);
  const auto* s = static_cast<const unsigned char*>(src);
  for (size_t i = 0; i < n; i++) d[i] = s[i];
#else
  std::memcpy(dst, src, n);
#endif
}

#if !SBD_FASTCTX
inline void* current_sp_from(const ucontext_t& ctx) {
#if defined(__x86_64__)
  return reinterpret_cast<void*>(ctx.uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  return reinterpret_cast<void*>(ctx.uc_mcontext.sp);
#else
#error "unsupported architecture for SBD checkpointing"
#endif
}
#endif
}  // namespace

CheckpointEngine::CheckpointEngine() : trampolineStack_(64 * 1024) {}

CheckpointEngine::~CheckpointEngine() = default;

void CheckpointEngine::set_anchor_at(void* anchor) {
  anchor_ = reinterpret_cast<void*>(reinterpret_cast<uintptr_t>(anchor) & ~uintptr_t{15});
}

CheckpointResult CheckpointEngine::take(Checkpoint& cp) {
  SBD_CHECK_MSG(anchor_ != nullptr, "set_anchor_at() not called on this thread");
#if SBD_FASTCTX
  // Control reaches this point twice: sbd_ctx_save returns 0 on the
  // initial capture and 1 when the restore trampoline jumps back after
  // copying the captured stack bytes back in place.
  if (sbd_ctx_save(&cp.fctx_) != 0) return CheckpointResult::kRestored;
  void* sp = fastctx_sp(cp.fctx_);
#else
  resumedFromRestore_ = false;
  getcontext(&cp.ctx_);
  // Control reaches this point twice: right after getcontext (initial
  // capture) and again after restore() jumps back. The flag lives in
  // the engine (heap), not on the restored stack, so it distinguishes
  // the two arrivals.
  if (resumedFromRestore_) {
    resumedFromRestore_ = false;
    return CheckpointResult::kRestored;
  }
  void* sp = current_sp_from(cp.ctx_);
#endif
  SBD_CHECK_MSG(sp < anchor_, "stack pointer above anchor — anchor taken too low");
  const size_t len = static_cast<size_t>(static_cast<std::byte*>(anchor_) -
                                         static_cast<std::byte*>(sp));
  cp.sp_ = sp;
  cp.stackCopy_.resize(len);
  copy_stack(cp.stackCopy_.data(), sp, len);
  return CheckpointResult::kTaken;
}

void CheckpointEngine::restore(Checkpoint& cp) {
  SBD_CHECK_MSG(cp.valid(), "restoring an empty checkpoint");
  resumedFromRestore_ = true;
  restoring_ = &cp;
  tActiveEngine = this;
  tActiveCheckpoint = &cp;
  // The copy-back must not run on the stack it overwrites: hop onto the
  // trampoline stack first.
  getcontext(&trampolineCtx_);
  trampolineCtx_.uc_stack.ss_sp = trampolineStack_.data();
  trampolineCtx_.uc_stack.ss_size = trampolineStack_.size();
  trampolineCtx_.uc_link = nullptr;
  makecontext(&trampolineCtx_, reinterpret_cast<void (*)()>(&trampoline_entry), 0);
  setcontext(&trampolineCtx_);
  SBD_CHECK_MSG(false, "setcontext returned");
  __builtin_unreachable();
}

void CheckpointEngine::trampoline_entry() {
  CheckpointEngine* eng = tActiveEngine;
  Checkpoint* cp = tActiveCheckpoint;
  copy_stack(cp->sp_, cp->stackCopy_.data(), cp->stackCopy_.size());
  (void)eng;
#if SBD_FASTCTX
  sbd_ctx_jump(&cp->fctx_);
#else
  setcontext(&cp->ctx_);
#endif
}

}  // namespace sbd::core
