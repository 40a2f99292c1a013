// The threaded-code backend: lowers verified IL to arrays of
// pre-decoded handler ops executed by computed-goto dispatch.
//
// Why not a tree walker? Table 7's argument is about *lock operations*,
// and the interpreter's per-instruction costs — opcode switch, ~100-byte
// Instr decode, a std::map<std::string> lookup per kCall, a TLS lookup
// per frame — dwarf the Figure 5 fast path being measured. Compilation
// strips them, so that each IL instruction costs one dispatch and
// control flow costs as little as possible:
//
//   * each Instr is pre-decoded into a 40-byte CInstr carrying its
//     handler address (direct threading: GNU labels-as-values, so GCC
//     or Clang only),
//   * arithmetic and compare-branch get one opcode per BinOp, generated
//     from the operator list in lowering.h (SBD_IL_BINOPS), so no
//     handler takes a second indirect jump through an operator switch,
//   * a block-terminating kBin that defines the branch condition is
//     fused with the branch into one compare-branch op (its store to
//     the condition local is kept),
//   * conditional branches carry both targets — taken (`aux`) and
//     not-taken (`alt`) — so neither edge needs a second instruction,
//   * blocks are laid out in greedy chains: block 0 first (code index
//     0), then each block's fallthrough-preferred successor (the
//     unconditional target, or the false edge of a conditional), so
//     straight-line chains need no kCBr,
//   * after patching, jumps are threaded: a kCBr to a kCBr goes
//     straight to the final target, and a kCBr whose target is a
//     conditional branch becomes a copy of that branch — a loop
//     back-edge costs one dispatch,
//   * kCall sites pre-resolve the callee to a CompiledFunction pointer,
//   * the cached-context runtime API (tx_read(tc, ...) and friends,
//     field_access.h) is bound directly into handlers, so a compiled
//     section pays one tls_context() at entry, not one per operation.
//
// The backend is intentionally NOT an optimizer: layout, fusion and
// threading change control-transfer instructions only. The compiled
// code executes exactly the non-branch instruction sequence the IL
// contains, calling exactly the same runtime entry points as the
// interpreter, in the same order, with the same stores. That is what
// makes the two backends bit-identical in results and in StatsCounters
// lock-op deltas (il_backend_diff_test), which in turn is what lets
// benchmarks attribute interp-vs-compiled deltas to dispatch cost and
// none-vs-O1 deltas to eliminated lock ops, nothing else.
//
// compile() validates the structural invariants it depends on (operand
// locals in range, branch targets in range, callees resolvable, frame
// limits) and SBD_CHECK-fails on violation; run il::verify first for
// diagnosable errors.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "il/ir.h"
#include "il/lowering.h"

namespace sbd::il {

// Flattened opcodes, in one list so the enum and compile.cpp's handler
// table cannot disagree on order: X(op) for a single op, BIN/CMPBR for
// one op per SBD_IL_BINOPS entry. Lock and access forms are split per
// mode/shape so handlers are branch-free where the IL instruction
// wasn't.
//   kCBin<Op>:   locals[a] = locals[b] <Op> locals[c]
//   kCBr:        jump to code index `aux`
//   kCCbr:       jump to `aux` if locals[a] != 0, else to `alt`
//   kCCmpBr<Op>: locals[a] = locals[b] <Op> locals[c]; jump to `aux` if
//                that is != 0, else to `alt` (a block-terminating kBin
//                fused with its branch; the store is kept)
//   kCRet:       return locals[a] (a < 0: return 0)
#define SBD_IL_COPS(X, BIN, CMPBR)                                         \
  X(kCConst)                                                               \
  X(kCMove)                                                                \
  SBD_IL_BINOPS(BIN)                                                       \
  X(kCNew)                                                                 \
  X(kCNewArr)                                                              \
  X(kCLockReadF)                                                           \
  X(kCLockWriteF)                                                          \
  X(kCLockReadE)                                                           \
  X(kCLockWriteE)                                                          \
  X(kCGetF)                                                                \
  X(kCSetF)                                                                \
  X(kCGetFNl)                                                              \
  X(kCSetFNl)                                                              \
  X(kCGetE)                                                                \
  X(kCSetE)                                                                \
  X(kCGetENl)                                                              \
  X(kCSetENl)                                                              \
  X(kCLen)                                                                 \
  X(kCCall)                                                                \
  X(kCSplit)                                                               \
  X(kCPrint)                                                               \
  X(kCBr)                                                                  \
  X(kCCbr)                                                                 \
  SBD_IL_BINOPS(CMPBR)                                                     \
  X(kCRet)

enum class COp : uint8_t {
#define SBD_IL_COP_ENUM(n) n,
#define SBD_IL_COP_BIN_ENUM(name, expr) kCBin##name,
#define SBD_IL_COP_CMPBR_ENUM(name, expr) kCCmpBr##name,
  SBD_IL_COPS(SBD_IL_COP_ENUM, SBD_IL_COP_BIN_ENUM, SBD_IL_COP_CMPBR_ENUM)
#undef SBD_IL_COP_ENUM
#undef SBD_IL_COP_BIN_ENUM
#undef SBD_IL_COP_CMPBR_ENUM
  kCCount,
};

// kCCbr and the compare-branches: the two-target ops.
inline bool is_cond_branch(COp op) {
  const int i = static_cast<int>(op) - static_cast<int>(COp::kCCmpBrAdd);
  return op == COp::kCCbr || (i >= 0 && i < binop::kCount);
}

// One pre-decoded op: 40 bytes vs sizeof(Instr) ≈ 100 with two
// out-of-line members, no indirection on the hot fields.
struct CInstr {
  const void* handler = nullptr;  // direct-threaded dispatch target
  COp op = COp::kCRet;            // handler table index
  uint8_t sub = 0;                // ElemKind (kCNewArr)
  int16_t a = -1, b = -1, c = -1;
  int32_t aux = -1;  // jump / taken target (code index) or call-site index
  int32_t alt = -1;  // not-taken target of a conditional branch
  int64_t imm = 0;   // kCConst payload
  runtime::ClassInfo* cls = nullptr;
};

// A call site with the callee resolved at compile time — the interp's
// per-call name lookup is the single largest dispatch cost it pays.
struct CallSite {
  const struct CompiledFunction* callee = nullptr;
  std::vector<int16_t> args;
  bool allowSplit = false;
};

struct CompiledFunction {
  std::string name;
  int numParams = 0;
  int numLocals = 0;
  bool canSplit = false;
  // Whether the canSplit dynamic scope must actually be maintained:
  // true for canSplit functions and for any function whose dynamic
  // extent can reach a kSplit or a canSplit entry check (computed
  // transitively over the call graph). For the rest the depth
  // save/zero/restore is unobservable and elided — the interpreter
  // keeps it unconditionally, which is fine: the bookkeeping has no
  // effect visible to results, lock ops, or traces.
  bool needsScope = true;
  std::vector<CInstr> code;
  std::vector<CallSite> calls;
};

struct CompiledModule {
  std::map<std::string, std::unique_ptr<CompiledFunction>> functions;

  const CompiledFunction* get(const std::string& name) const {
    auto it = functions.find(name);
    return it == functions.end() ? nullptr : it->second.get();
  }
};

// Lowers every function of `m`. The module must be execution-ready
// (locks inserted / optimized as desired): compilation is a snapshot,
// later mutations of `m` do not affect the compiled code.
CompiledModule compile(const Module& m);

// Executes `fnName`, mirroring il::execute() exactly: requires an
// active atomic section, arms allowSplit for a canSplit entry.
int64_t execute(const CompiledModule& cm, const std::string& fnName,
                const std::vector<int64_t>& args = {});

}  // namespace sbd::il
