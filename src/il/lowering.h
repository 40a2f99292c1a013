// The shared lowering contract between the two execution backends.
//
// interp.cpp (tree walker) and compile.cpp (threaded code) must agree
// on every observable detail of IL execution — frame limits, arithmetic,
// the canSplit dynamic scope, and which runtime entry point each opcode
// maps to — because the differential suite asserts bit-identical
// results AND bit-identical StatsCounters deltas between them. Anything
// both backends need lives here; a semantic change made in only one
// backend is a bug the diff tests are designed to catch.
#pragma once

#include <cstdint>

#include "common/check.h"
#include "core/transaction.h"
#include "il/ir.h"

namespace sbd::il {

// Frame limits (both backends allocate fixed-size C++ stack frames so
// the STM checkpoint/restore abort path rolls frames back for free).
inline constexpr int kMaxLocals = 128;
inline constexpr int kMaxDepth = 64;

// IL arithmetic is total: add/sub/mul wrap in two's complement,
// division by 0 yields 0, INT64_MIN / -1 wraps to INT64_MIN and
// INT64_MIN % -1 is 0 (x % -1 is 0 for every x). No operator is
// undefined behaviour and none traps.
namespace binop {
inline int64_t wrap(uint64_t v) { return static_cast<int64_t>(v); }
inline uint64_t u(int64_t v) { return static_cast<uint64_t>(v); }
}  // namespace binop

// The one list of IL binary operators: X(Name, expression over int64_t
// l and r). Both backends are generated from it — eval_bin below for
// the interpreter, one arithmetic and one compare-branch handler per
// entry in compile.cpp — so operator semantics live here only. Entry
// order must match BinOp (checked below).
#define SBD_IL_BINOPS(X)                                               \
  X(Add, binop::wrap(binop::u(l) + binop::u(r)))                       \
  X(Sub, binop::wrap(binop::u(l) - binop::u(r)))                       \
  X(Mul, binop::wrap(binop::u(l) * binop::u(r)))                       \
  X(Div, r == 0 ? 0 : r == -1 ? binop::wrap(0 - binop::u(l)) : l / r) \
  X(Mod, r == 0 || r == -1 ? 0 : l % r)                                \
  X(And, l & r)                                                        \
  X(Or, l | r)                                                         \
  X(Xor, l ^ r)                                                        \
  X(Lt, l < r)                                                         \
  X(Le, l <= r)                                                        \
  X(Eq, l == r)                                                        \
  X(Ne, l != r)

namespace binop {
#define SBD_IL_BINOP_FN(name, expr) \
  inline int64_t name(int64_t l, int64_t r) { return expr; }
SBD_IL_BINOPS(SBD_IL_BINOP_FN)
#undef SBD_IL_BINOP_FN

enum class Order {
#define SBD_IL_BINOP_ORDER(name, expr) name,
  SBD_IL_BINOPS(SBD_IL_BINOP_ORDER)
#undef SBD_IL_BINOP_ORDER
  kCount
};
#define SBD_IL_BINOP_ORDER_CHECK(name, expr)                                   \
  static_assert(static_cast<int>(BinOp::k##name) == static_cast<int>(Order::name), \
                "SBD_IL_BINOPS order must match BinOp");
SBD_IL_BINOPS(SBD_IL_BINOP_ORDER_CHECK)
#undef SBD_IL_BINOP_ORDER_CHECK
inline constexpr int kCount = static_cast<int>(Order::kCount);
}  // namespace binop

inline int64_t eval_bin(BinOp op, int64_t l, int64_t r) {
  switch (op) {
#define SBD_IL_BINOP_CASE(name, expr) \
  case BinOp::k##name:                \
    return binop::name(l, r);
    SBD_IL_BINOPS(SBD_IL_BINOP_CASE)
#undef SBD_IL_BINOP_CASE
  }
  return 0;
}

// The canSplit modifier as a dynamic scope (§2.2), entered on function
// entry and exited on return. canSplit functions require an armed
// allowSplit call site (or an already-open canSplit scope) and open a
// new one; non-canSplit functions mask splits entirely for their
// dynamic extent.
// `engaged = false` elides the bookkeeping entirely — sound only when
// the compiler has proven no split (and no canSplit entry check) can
// execute within the function's dynamic extent, making the depth
// save/restore unobservable (compile.cpp's needsScope analysis; canSplit
// functions are always engaged).
class CanSplitScope {
 public:
  CanSplitScope(core::ThreadContext& tc, bool canSplit, bool engaged = true)
      : tc_(tc), canSplit_(canSplit), engaged_(engaged) {
    if (!engaged_) return;
    if (canSplit_) {
      SBD_CHECK_MSG(tc_.canSplitDepth > 0 || tc_.allowSplitArmed,
                    "IL canSplit function invoked without allowSplit");
      tc_.allowSplitArmed = false;
      tc_.canSplitDepth++;
    } else {
      saved_ = tc_.canSplitDepth;
      tc_.canSplitDepth = 0;
    }
  }
  ~CanSplitScope() {
    if (!engaged_) return;
    if (canSplit_)
      tc_.canSplitDepth--;
    else
      tc_.canSplitDepth = saved_;
  }
  CanSplitScope(const CanSplitScope&) = delete;
  CanSplitScope& operator=(const CanSplitScope&) = delete;

 private:
  core::ThreadContext& tc_;
  bool canSplit_;
  bool engaged_;
  int saved_ = 0;
};

}  // namespace sbd::il
