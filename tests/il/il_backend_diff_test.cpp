// Differential testing of the two IL execution backends: every program
// — random and directed, raw and optimized — must produce the same
// result AND the same StatsCounters lock-op delta under the tree
// interpreter and the threaded-code backend, and full traces of both
// must pass the happens-before oracle. Registered once per
// lock-granularity mode in tests/CMakeLists.txt (the mode is parsed
// once per process), so bit-identity holds under field, striped,
// object, adaptive, and versioned maps.
//
// Also the home of the maySplit unit tests (compute_summaries, O1
// across calls, optimize() fixpoint) and the verifier negative fixtures
// (V5 call checks, V6 coverage / lock-mode mismatch).
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "analyzer/oracle.h"
#include "api/sbd.h"
#include "common/rng.h"
#include "core/obs.h"
#include "il/compile.h"
#include "il/interp.h"
#include "il/opt.h"
#include "il/summary.h"
#include "il/transform.h"
#include "il/verify.h"

namespace sbd::il {
namespace {

runtime::ClassInfo* obj_class() {
  static runtime::ClassInfo* ci = runtime::register_class(
      "BackendObj", {{"f0", false, false}, {"f1", false, false}, {"f2", false, false}});
  return ci;
}

// The lock-operation effects both backends must agree on exactly, plus
// the versioned-granularity counters (stamped reads and validations are
// lock operations in the Table 7 sense).
struct Delta {
  uint64_t lockInit = 0, checkNew = 0, checkOwned = 0, acqRls = 0;
  uint64_t versionedReads = 0, validations = 0, versionAborts = 0;
  uint64_t commits = 0;

  uint64_t lock_ops() const { return lockInit + checkNew + checkOwned + acqRls; }

  bool operator==(const Delta& o) const {
    return lockInit == o.lockInit && checkNew == o.checkNew &&
           checkOwned == o.checkOwned && acqRls == o.acqRls &&
           versionedReads == o.versionedReads && validations == o.validations &&
           versionAborts == o.versionAborts && commits == o.commits;
  }
  friend std::ostream& operator<<(std::ostream& os, const Delta& d) {
    return os << "{init=" << d.lockInit << " new=" << d.checkNew
              << " owned=" << d.checkOwned << " acqRls=" << d.acqRls
              << " vReads=" << d.versionedReads << " vVal=" << d.validations
              << " vAbort=" << d.versionAborts << " commits=" << d.commits << "}";
  }
};

Delta make_delta(const core::StatsCounters& d) {
  Delta out;
  out.lockInit = d.lockInit;
  out.checkNew = d.checkNew;
  out.checkOwned = d.checkOwned;
  out.acqRls = d.acqRls;
  out.versionedReads = d.versionedReads;
  out.validations = d.validations;
  out.versionAborts = d.versionAborts;
  out.commits = d.commits;
  return out;
}

struct Outcome {
  int64_t result = 0;
  Delta delta;
};

enum class Backend { kInterp, kCompiled };

// One measured run: fresh escaped object, then the program under the
// chosen backend with the stats window around exactly the execution.
Outcome run_one(const Module& m, const CompiledModule& cm, Backend be,
                const std::string& entry, int64_t scratch, int numArgs) {
  Outcome out;
  run_sbd([&] {
    auto* o = runtime::Heap::instance().alloc_object(obj_class());
    runtime::init_write(o, 0, 3);
    runtime::init_write(o, 1, 5);
    runtime::init_write(o, 2, 7);
    split();  // escape: accesses must lock
    std::vector<int64_t> args{reinterpret_cast<int64_t>(o)};
    if (numArgs > 1) args.push_back(scratch);
    auto& tc = core::tls_context();
    const auto before = tc.stats;
    out.result = be == Backend::kCompiled ? execute(cm, entry, args)
                                          : execute(m, entry, args);
    out.delta = make_delta(tc.stats.diff(before));
  });
  return out;
}

// Asserts the bit-identity contract on one module: same result, same
// lock-op delta, both backends.
void expect_backends_agree(const Module& m, const std::string& entry, int64_t scratch,
                           int numArgs, const char* tag) {
  const CompiledModule cm = compile(m);
  const Outcome i = run_one(m, cm, Backend::kInterp, entry, scratch, numArgs);
  const Outcome c = run_one(m, cm, Backend::kCompiled, entry, scratch, numArgs);
  EXPECT_EQ(i.result, c.result) << tag << " scratch=" << scratch;
  EXPECT_EQ(i.delta, c.delta) << tag << " scratch=" << scratch
                              << ": backends disagree on lock operations";
}

// --- Program generators ------------------------------------------------------

// Random field programs (same field shape as il_differential_test,
// which covers optimizer-vs-plain; here the axis is interp-vs-compiled).
// Every BinOp runs on operands seeded from the arithmetic edge cases;
// control flow mixes parameter diamonds, compare-terminated blocks
// (fused compare-branches), bounded top- and bottom-tested loops (jump
// threading of back-edges), and empty and unreachable blocks (chain
// layout).
//   l0 object, l1 scratch param, l2..l8 values,
//   l9 loop counter, l10 loop bound, l11 const 1, l12 loop condition.
constexpr int64_t kEdgeOperands[] = {0, 1, -1, 2, 7, INT64_MIN, INT64_MAX};

int rand_value(Rng& rng) { return 2 + static_cast<int>(rng.below(7)); }
int rand_source(Rng& rng) { return 1 + static_cast<int>(rng.below(8)); }
BinOp rand_binop(Rng& rng) { return static_cast<BinOp>(rng.below(binop::kCount)); }
int64_t rand_edge(Rng& rng) {
  return kEdgeOperands[rng.below(sizeof(kEdgeOperands) / sizeof(kEdgeOperands[0]))];
}

// One straight-line instruction over the value locals.
void straight_op(FnBuilder& fb, Rng& rng) {
  const int dst = rand_value(rng);
  switch (rng.below(4)) {
    case 0:
      fb.cst(dst, rand_edge(rng));
      break;
    case 1:
      fb.getf(dst, 0, static_cast<int>(rng.below(3)), obj_class());
      break;
    case 2:
      fb.setf(0, static_cast<int>(rng.below(3)), dst, obj_class());
      break;
    case 3:
      fb.bin(dst, rand_binop(rng), rand_source(rng), rand_source(rng));
      break;
  }
}

void generate(Module& m, Rng& rng) {
  FnBuilder fb(m, "f", 2, 13);
  for (int l = 2; l <= 8; l++) fb.cst(l, rand_edge(rng));
  fb.cst(11, 1);
  const int numOps = 6 + static_cast<int>(rng.below(14));
  for (int i = 0; i < numOps; i++) {
    switch (rng.below(8)) {
      case 0:
      case 1:
      case 2:
        straight_op(fb, rng);
        break;
      case 3: {  // diamond on the scratch parameter
        const int dst = rand_value(rng);
        const int thenB = fb.block();
        const int elseB = fb.block();
        const int merge = fb.block();
        fb.cbr(1, thenB, elseB);
        fb.at(thenB);
        fb.getf(dst, 0, 0, obj_class());
        fb.br(merge);
        fb.at(elseB);
        fb.setf(0, 1, 1, obj_class());
        fb.br(merge);
        fb.at(merge);
        break;
      }
      case 4: {  // compare-terminated block; the else arm may be empty
        const int cond = rand_value(rng);
        const int thenB = fb.block();
        const int elseB = fb.block();
        const int merge = fb.block();
        fb.bin(cond, rand_binop(rng), rand_source(rng), rand_source(rng));
        fb.cbr(cond, thenB, elseB);
        fb.at(thenB);
        straight_op(fb, rng);
        fb.br(merge);
        fb.at(elseB);
        if (rng.below(2)) straight_op(fb, rng);
        fb.br(merge);
        fb.at(merge);
        break;
      }
      case 5: {  // top-tested loop, 0..3 iterations
        const bool fused = rng.below(2) != 0;
        const int head = fb.block();
        const int body = fb.block();
        const int exit = fb.block();
        fb.cst(9, 0);
        fb.cst(10, static_cast<int64_t>(rng.below(4)));
        fb.br(head);
        fb.at(head);
        fb.bin(12, BinOp::kLt, 9, 10);
        if (!fused) straight_op(fb, rng);  // the condition is not the last def
        fb.cbr(12, body, exit);
        fb.at(body);
        straight_op(fb, rng);
        straight_op(fb, rng);
        fb.bin(9, BinOp::kAdd, 9, 11);
        fb.br(head);
        fb.at(exit);
        break;
      }
      case 6: {  // bottom-tested loop through an empty latch, 1..3 iterations
        const int body = fb.block();
        const int latch = fb.block();
        const int exit = fb.block();
        fb.cst(9, 0);
        fb.cst(10, 1 + static_cast<int64_t>(rng.below(3)));
        fb.br(body);
        fb.at(body);
        straight_op(fb, rng);
        fb.bin(9, BinOp::kAdd, 9, 11);
        fb.bin(12, BinOp::kLt, 9, 10);
        fb.cbr(12, latch, exit);
        fb.at(latch);
        fb.br(body);
        fb.at(exit);
        break;
      }
      case 7: {  // a chain of empty blocks and an unreachable block
        const int e1 = fb.block();
        const int dead = fb.block();
        const int e2 = fb.block();
        const int cont = fb.block();
        fb.br(e1);
        fb.at(e1);
        fb.br(e2);
        fb.at(dead);
        straight_op(fb, rng);
        fb.br(rng.below(2) ? e1 : cont);
        fb.at(e2);
        fb.br(cont);
        fb.at(cont);
        break;
      }
    }
  }
  fb.getf(3, 0, 0, obj_class());
  fb.getf(4, 0, 1, obj_class());
  fb.getf(5, 0, 2, obj_class());
  fb.bin(6, BinOp::kAdd, 3, 4);
  fb.bin(6, BinOp::kAdd, 6, 5);
  fb.bin(6, BinOp::kXor, 6, 2);
  fb.bin(6, BinOp::kAdd, 6, 7);
  fb.bin(6, BinOp::kAdd, 6, 8);
  fb.ret(6);
}

// canSplit loop: f0 += 1, iters times, one split per iteration —
// exercises kSplit, branches, and the re-lock after every split.
void build_worker(Module& m) {
  FnBuilder fb(m, "worker", 2, 8);  // l0 = object, l1 = iterations
  fb.can_split();
  const int head = fb.block();
  const int body = fb.block();
  const int done = fb.block();
  fb.cst(2, 0);  // i
  fb.cst(5, 1);  // const 1
  fb.br(head);
  fb.at(head);
  fb.bin(3, BinOp::kLt, 2, 1);
  fb.cbr(3, body, done);
  fb.at(body);
  fb.getf(4, 0, 0, obj_class());
  fb.bin(4, BinOp::kAdd, 4, 5);
  fb.setf(0, 0, 4, obj_class());
  fb.split();
  fb.bin(2, BinOp::kAdd, 2, 5);
  fb.br(head);
  fb.at(done);
  fb.getf(6, 0, 0, obj_class());
  fb.ret(6);
}

// Array program: a = new i64[n]; a[i] = 2i; sum + len == n^2.
// Exercises kNewArr/kSetE/kGetE/kLen and this-transaction-new coverage.
void build_array_fn(Module& m) {
  FnBuilder fb(m, "arr", 2, 8);  // l0 = object (unused), l1 = n
  const int h1 = fb.block();
  const int b1 = fb.block();
  const int mid = fb.block();
  const int h2 = fb.block();
  const int b2 = fb.block();
  const int done = fb.block();
  fb.new_arr(2, runtime::ElemKind::kI64, 1);
  fb.cst(3, 0);  // i
  fb.cst(4, 1);  // const 1
  fb.cst(5, 2);  // const 2
  fb.cst(6, 0);  // acc
  fb.br(h1);
  fb.at(h1);
  fb.bin(7, BinOp::kLt, 3, 1);
  fb.cbr(7, b1, mid);
  fb.at(b1);
  fb.bin(7, BinOp::kMul, 3, 5);
  fb.sete(2, 3, 7);
  fb.bin(3, BinOp::kAdd, 3, 4);
  fb.br(h1);
  fb.at(mid);
  fb.cst(3, 0);
  fb.br(h2);
  fb.at(h2);
  fb.bin(7, BinOp::kLt, 3, 1);
  fb.cbr(7, b2, done);
  fb.at(b2);
  fb.gete(7, 2, 3);
  fb.bin(6, BinOp::kAdd, 6, 7);
  fb.bin(3, BinOp::kAdd, 3, 4);
  fb.br(h2);
  fb.at(done);
  fb.len(7, 2);
  fb.bin(6, BinOp::kAdd, 6, 7);
  fb.ret(6);
}

// Caller/callee pair: `reader` locks f0 and f1 of its parameter; `main`
// reads f0 before the call and f0, f1 after it. reader never splits, so
// main's own f0 fact survives the call and O1 drops main's re-lock of
// f0; reader's locks are not visible to main. The callee is padded past
// the inline threshold so O3 keeps the call.
void build_cross_call(Module& m) {
  {
    FnBuilder fb(m, "reader", 1, 6);
    for (int k = 0; k < 26; k++) fb.cst(1, k);
    fb.getf(2, 0, 0, obj_class());
    fb.getf(3, 0, 1, obj_class());
    fb.bin(4, BinOp::kAdd, 2, 3);
    fb.ret(4);
  }
  {
    FnBuilder fb(m, "main", 1, 6);
    fb.getf(5, 0, 0, obj_class());
    fb.call(1, "reader", {0});
    fb.getf(2, 0, 0, obj_class());
    fb.getf(3, 0, 1, obj_class());
    fb.bin(4, BinOp::kAdd, 1, 2);
    fb.bin(4, BinOp::kAdd, 4, 3);
    fb.bin(4, BinOp::kAdd, 4, 5);
    fb.ret(4);
  }
}

bool has_diag(const std::vector<std::string>& diags, const std::string& needle) {
  for (const auto& d : diags)
    if (d.find(needle) != std::string::npos) return true;
  return false;
}

void erase_first_lock(Function& f, LockMode mode) {
  for (auto& b : f.blocks)
    for (auto it = b.instrs.begin(); it != b.instrs.end(); ++it)
      if (it->op == Op::kLock && it->mode == mode) {
        b.instrs.erase(it);
        return;
      }
}

// --- Random differential: interp vs compiled, raw and optimized -------------

class IlBackendDiff : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IlBackendDiff, CompiledIsBitIdenticalToInterp) {
  Rng rngA(GetParam()), rngB(GetParam());
  Module plain, optimized;
  generate(plain, rngA);
  generate(optimized, rngB);
  insert_locks(plain);
  insert_locks(optimized);
  ASSERT_TRUE(verify(plain).empty());
  optimize(optimized);
  ASSERT_TRUE(verify(optimized, compute_summaries(optimized)).empty())
      << "optimized module must still pass V6 coverage";

  for (int64_t scratch : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{-3}, int64_t{42},
                          INT64_MIN, INT64_MAX}) {
    expect_backends_agree(plain, "f", scratch, 2, "plain");
    expect_backends_agree(optimized, "f", scratch, 2, "optimized");
    // And across the optimizer axis, results (not lock counts) agree.
    const CompiledModule cp = compile(plain);
    const CompiledModule co = compile(optimized);
    EXPECT_EQ(run_one(plain, cp, Backend::kCompiled, "f", scratch, 2).result,
              run_one(optimized, co, Backend::kCompiled, "f", scratch, 2).result)
        << "seed=" << GetParam() << " scratch=" << scratch;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IlBackendDiff,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233,
                                           377, 610, 987, 1597));

// --- Directed programs: splits, calls, arrays -------------------------------

TEST(IlBackendDirected, SplitLoopAgreesAcrossBackends) {
  Module m;
  build_worker(m);
  insert_locks(m);
  ASSERT_TRUE(verify(m).empty());
  for (int64_t iters : {0, 1, 7}) {
    expect_backends_agree(m, "worker", iters, 2, "worker");
  }
  const CompiledModule cm = compile(m);
  EXPECT_EQ(run_one(m, cm, Backend::kCompiled, "worker", 7, 2).result, 3 + 7);
}

TEST(IlBackendDirected, ArrayProgramAgreesAcrossBackends) {
  Module m;
  build_array_fn(m);
  insert_locks(m);
  ASSERT_TRUE(verify(m).empty());
  Module opt;
  build_array_fn(opt);
  insert_locks(opt);
  optimize(opt);
  for (int64_t n : {0, 1, 5, 16}) {
    expect_backends_agree(m, "arr", n, 2, "arr");
    expect_backends_agree(opt, "arr", n, 2, "arr-opt");
  }
  const CompiledModule cm = compile(m);
  EXPECT_EQ(run_one(m, cm, Backend::kCompiled, "arr", 5, 2).result, 25);
}

TEST(IlBackendDirected, CallsAgreeAcrossBackends) {
  Module m;
  build_cross_call(m);
  insert_locks(m);
  ASSERT_TRUE(verify(m).empty());
  expect_backends_agree(m, "main", 0, 1, "calls-plain");
  Module opt;
  build_cross_call(opt);
  insert_locks(opt);
  optimize(opt);
  expect_backends_agree(opt, "main", 0, 1, "calls-opt");
  const CompiledModule cm = compile(m);
  const CompiledModule co = compile(opt);
  EXPECT_EQ(run_one(m, cm, Backend::kCompiled, "main", 0, 1).result,
            run_one(opt, co, Backend::kCompiled, "main", 0, 1).result);
}

// --- Compiled code layout and arithmetic ------------------------------------

static_assert(sizeof(CInstr) <= 40, "CInstr must stay within 40 bytes");

int count_cops(const CompiledFunction& cf, COp op) {
  int n = 0;
  for (const CInstr& ci : cf.code) n += ci.op == op;
  return n;
}

// After threading no jump lands on a kCBr, and no kCBr lands on a
// conditional branch (it would have become a copy of it).
void expect_threaded(const CompiledFunction& cf) {
  for (size_t i = 0; i < cf.code.size(); i++) {
    const CInstr& ci = cf.code[i];
    if (ci.op == COp::kCBr) {
      const COp t = cf.code[static_cast<size_t>(ci.aux)].op;
      EXPECT_NE(t, COp::kCBr) << cf.name << ": kCBr at " << i << " targets a kCBr";
      EXPECT_FALSE(is_cond_branch(t))
          << cf.name << ": kCBr at " << i << " targets a conditional branch";
    } else if (is_cond_branch(ci.op)) {
      EXPECT_NE(cf.code[static_cast<size_t>(ci.aux)].op, COp::kCBr) << cf.name << " at " << i;
      EXPECT_NE(cf.code[static_cast<size_t>(ci.alt)].op, COp::kCBr) << cf.name << " at " << i;
    }
  }
}

constexpr int64_t kEntryMarker = 0x5bd;

// A loop whose body is a compare-terminated diamond and whose back-edge
// runs through an empty latch: l1 = n; returns the sum over i < n of
// (i even ? i : -1).
void build_latch_loop(Module& m) {
  FnBuilder fb(m, "loop", 2, 8);
  const int head = fb.block();
  const int body = fb.block();
  const int even = fb.block();
  const int odd = fb.block();
  const int latch = fb.block();
  const int exit = fb.block();
  fb.cst(2, kEntryMarker);
  fb.cst(3, 0);  // i
  fb.cst(4, 1);  // const 1
  fb.cst(2, 0);  // acc
  fb.br(head);
  fb.at(head);
  fb.bin(5, BinOp::kLt, 3, 1);
  fb.cbr(5, body, exit);
  fb.at(body);
  fb.bin(6, BinOp::kAnd, 3, 4);
  fb.cbr(6, odd, even);
  fb.at(even);
  fb.bin(2, BinOp::kAdd, 2, 3);
  fb.bin(3, BinOp::kAdd, 3, 4);
  fb.br(latch);
  fb.at(odd);
  fb.bin(2, BinOp::kSub, 2, 4);
  fb.bin(3, BinOp::kAdd, 3, 4);
  fb.br(latch);
  fb.at(latch);
  fb.br(head);
  fb.at(exit);
  fb.ret(2);
}

// Three paths to one exit block, one of them through an empty block
// laid out away from both its source and its target, so a kCBr first
// lands on a kCBr. l1 < 0 -> 1471, l1 == 0 -> 1470, l1 > 0 -> 1475.
void build_jump_chain(Module& m) {
  FnBuilder fb(m, "chain", 2, 6);
  const int mid = fb.block();
  const int viaB = fb.block();
  const int exit = fb.block();
  const int viaA = fb.block();
  const int join = fb.block();
  const int viaC = fb.block();
  fb.cst(2, kEntryMarker);
  fb.cst(3, 1);
  fb.cst(5, 0);
  fb.bin(4, BinOp::kLt, 1, 5);
  fb.cbr(4, viaA, mid);
  fb.at(mid);
  fb.cbr(1, viaC, viaB);
  fb.at(viaB);
  fb.br(exit);
  fb.at(exit);
  fb.bin(2, BinOp::kAdd, 2, 3);
  fb.ret(2);
  fb.at(viaA);
  fb.bin(3, BinOp::kAdd, 3, 3);
  fb.br(join);
  fb.at(join);
  fb.br(exit);
  fb.at(viaC);
  fb.bin(3, BinOp::kAdd, 3, 1);
  fb.br(join);
}

TEST(IlCompiledLayout, EntryFirstAndJumpsThreaded) {
  Module m;
  build_latch_loop(m);
  build_jump_chain(m);
  ASSERT_TRUE(verify(m).empty());
  const CompiledModule cm = compile(m);
  for (const char* fn : {"loop", "chain"}) {
    const CompiledFunction& cf = *cm.get(fn);
    ASSERT_FALSE(cf.code.empty());
    EXPECT_EQ(cf.code[0].op, COp::kCConst) << fn << ": code index 0 must be block 0's";
    EXPECT_EQ(cf.code[0].imm, kEntryMarker) << fn;
    expect_threaded(cf);
  }

  // Both loop back-edges (the empty latch and the jump into it) became
  // copies of the loop's compare-branch: no kCBr is left at all, and
  // every compare feeding a branch is fused per operator.
  const CompiledFunction& loop = *cm.get("loop");
  EXPECT_EQ(count_cops(loop, COp::kCBr), 0);
  EXPECT_EQ(count_cops(loop, COp::kCCmpBrLt), 3);
  EXPECT_EQ(count_cops(loop, COp::kCCmpBrAnd), 1);
  EXPECT_EQ(count_cops(loop, COp::kCCbr), 0);

  // The jump out of viaC went through `join` (itself a kCBr) and now
  // lands on the exit block's add directly.
  // The entry block's false edge is its layout successor.
  const CompiledFunction& chain = *cm.get("chain");
  for (size_t i = 0; i < chain.code.size(); i++) {
    if (chain.code[i].op == COp::kCCmpBrLt) {
      EXPECT_EQ(chain.code[i].alt, static_cast<int32_t>(i + 1));
    }
  }
  EXPECT_EQ(count_cops(chain, COp::kCCbr), 1);
  EXPECT_EQ(count_cops(chain, COp::kCCmpBrLt), 1);
  EXPECT_EQ(count_cops(chain, COp::kCBr), 2);
  const CInstr& last = chain.code.back();
  ASSERT_EQ(last.op, COp::kCBr);
  EXPECT_EQ(chain.code[static_cast<size_t>(last.aux)].op, COp::kCBinAdd);

  for (int64_t n : {0, 1, 5, 8}) expect_backends_agree(m, "loop", n, 2, "loop");
  EXPECT_EQ(run_one(m, cm, Backend::kCompiled, "loop", 5, 2).result, 4);
  for (int64_t s : {-3, 0, 5}) expect_backends_agree(m, "chain", s, 2, "chain");
  EXPECT_EQ(run_one(m, cm, Backend::kCompiled, "chain", -3, 2).result, 1471);
  EXPECT_EQ(run_one(m, cm, Backend::kCompiled, "chain", 0, 2).result, 1470);
  EXPECT_EQ(run_one(m, cm, Backend::kCompiled, "chain", 5, 2).result, 1475);
}

// IL arithmetic is total and wraps: no operand pair traps or is UB.
// Each case runs as a plain kBin ("plain") and fused into a
// compare-branch ("fused") on both backends.
TEST(IlBackendArithmetic, EdgeOperandsWrapOnBothBackends) {
  struct Case {
    BinOp op;
    int64_t l, r, want;
  };
  const Case cases[] = {
      {BinOp::kDiv, INT64_MIN, -1, INT64_MIN}, {BinOp::kMod, INT64_MIN, -1, 0},
      {BinOp::kDiv, 7, 0, 0},                  {BinOp::kMod, 7, 0, 0},
      {BinOp::kDiv, -7, 2, -3},                {BinOp::kMod, -7, 2, -1},
      {BinOp::kDiv, INT64_MAX, -1, -INT64_MAX}, {BinOp::kMod, 5, -1, 0},
      {BinOp::kAdd, INT64_MAX, 1, INT64_MIN},  {BinOp::kSub, INT64_MIN, 1, INT64_MAX},
      {BinOp::kMul, INT64_MIN, -1, INT64_MIN}, {BinOp::kMul, INT64_MAX, 2, -2},
      {BinOp::kLt, INT64_MIN, INT64_MAX, 1},   {BinOp::kNe, -1, -1, 0},
  };
  for (const Case& c : cases) {
    Module m;
    {
      FnBuilder fb(m, "plain", 2, 4);
      fb.cst(2, c.l);
      fb.bin(3, c.op, 2, 1);
      fb.ret(3);
    }
    {
      FnBuilder fb(m, "fused", 2, 4);
      const int t = fb.block();
      const int e = fb.block();
      fb.cst(2, c.l);
      fb.bin(3, c.op, 2, 1);
      fb.cbr(3, t, e);
      fb.at(t);
      fb.ret(3);
      fb.at(e);
      fb.ret(3);
    }
    ASSERT_TRUE(verify(m).empty());
    const CompiledModule cm = compile(m);
    for (const char* fn : {"plain", "fused"})
      for (Backend be : {Backend::kInterp, Backend::kCompiled})
        EXPECT_EQ(run_one(m, cm, be, fn, c.r, 2).result, c.want)
            << fn << " op=" << static_cast<int>(c.op) << " l=" << c.l << " r=" << c.r
            << (be == Backend::kCompiled ? " compiled" : " interp");
  }
}

// --- maySplit and O1 across calls -----------------------------------------

TEST(IlMaySplit, SelfRecursionWithoutSplitIsFalse) {
  Module m;
  FnBuilder fb(m, "rec", 1, 3);
  fb.call(1, "rec", {0});
  fb.ret(1);
  const MaySplit ms = compute_summaries(m);
  EXPECT_FALSE(ms.at("rec")) << "a cycle with no split cannot end the section";
}

TEST(IlMaySplit, CallerOfSplittingCalleeIsTrue) {
  Module m;
  {
    FnBuilder fb(m, "splitter", 0, 1);
    fb.can_split();
    fb.split();
    fb.ret();
  }
  {
    FnBuilder fb(m, "caller", 0, 1);
    fb.can_split();
    fb.call(-1, "splitter", {}, /*allowSplit=*/true);
    fb.ret();
  }
  {
    FnBuilder fb(m, "outer", 0, 1);
    fb.can_split();
    fb.call(-1, "caller", {}, /*allowSplit=*/true);
    fb.ret();
  }
  ASSERT_TRUE(verify(m).empty());
  const MaySplit ms = compute_summaries(m);
  EXPECT_TRUE(ms.at("splitter"));
  EXPECT_TRUE(ms.at("caller"));
  EXPECT_TRUE(ms.at("outer")) << "maySplit is transitive";
}

TEST(IlMaySplit, UnknownCalleeIsTrue) {
  Module m;
  FnBuilder fb(m, "caller", 1, 3);
  fb.call(1, "nope", {0});
  fb.ret(1);
  const MaySplit ms = compute_summaries(m);
  EXPECT_TRUE(ms.at("caller"));
  EXPECT_TRUE(may_split(ms, "nope")) << "a callee absent from the map may split";
}

TEST(IlMaySplit, O1KeepsFactsAcrossNonSplittingCallees) {
  // Both callees are canSplit; only `splits` actually splits. Each
  // caller reads f0, calls, and reads f0 again: the re-lock is covered
  // across `quiet` and not across `splits`.
  Module m;
  {
    FnBuilder fb(m, "quiet", 0, 1);
    fb.can_split();
    fb.ret();
  }
  {
    FnBuilder fb(m, "splits", 0, 1);
    fb.can_split();
    fb.split();
    fb.ret();
  }
  for (const char* callee : {"quiet", "splits"}) {
    FnBuilder fb(m, std::string("via_") + callee, 1, 4);
    fb.can_split();
    fb.getf(1, 0, 0, obj_class());
    fb.call(-1, callee, {}, /*allowSplit=*/true);
    fb.getf(2, 0, 0, obj_class());
    fb.bin(3, BinOp::kAdd, 1, 2);
    fb.ret(3);
  }
  insert_locks(m);
  ASSERT_TRUE(verify(m).empty());
  const MaySplit ms = compute_summaries(m);
  EXPECT_FALSE(ms.at("quiet"));
  EXPECT_TRUE(ms.at("splits"));
  const OptStats s = eliminate_redundant_locks(m, ms);
  EXPECT_EQ(s.locksEliminated, 1);
  EXPECT_EQ(s.crossCallEliminated, 0);
  EXPECT_EQ(count_ops(*m.get("via_quiet"), Op::kLock), 1);
  EXPECT_EQ(count_ops(*m.get("via_splits"), Op::kLock), 2)
      << "a split releases every lock: the re-read must lock again";
  EXPECT_TRUE(verify(m, ms).empty()) << "V6 must accept exactly what O1 eliminated";
}

TEST(IlInterproc, OptimizeReachesFixpoint) {
  Module m;
  build_cross_call(m);
  insert_locks(m);
  const OptStats s1 = optimize(m);
  EXPECT_GT(s1.locksEliminated, 0);
  EXPECT_GE(s1.rounds, 2) << "a changing round must be followed by the quiescent one";
  const OptStats s2 = optimize(m);
  EXPECT_EQ(s2.locksEliminated, 0) << "optimize must be idempotent at the fixpoint";
  EXPECT_EQ(s2.locksHoisted, 0);
  EXPECT_EQ(s2.rounds, 1);
}

// --- Verifier negative fixtures (V5 call checks, V6 coverage) ---------------

TEST(IlVerifyNegative, UnknownCalleeAndArity) {
  Module m;
  {
    FnBuilder fb(m, "callee", 1, 3);
    fb.ret(0);
  }
  {
    FnBuilder fb(m, "bad", 1, 4);
    fb.call(1, "nope", {0});       // unknown callee
    fb.call(2, "callee", {});      // arity mismatch
    fb.call(3, "callee", {7});     // arg local out of range
    fb.ret(1);
  }
  const auto diags = verify(m);
  EXPECT_TRUE(has_diag(diags, "unknown function nope (V5)"));
  EXPECT_TRUE(has_diag(diags, "arity mismatch calling callee (V5)"));
  EXPECT_TRUE(has_diag(diags, "l7 out of range"));
}

TEST(IlVerifyNegative, UncoveredNoLockReadRejected) {
  Module m;
  FnBuilder fb(m, "r", 1, 3);
  fb.getf(1, 0, 0, obj_class());
  fb.ret(1);
  insert_locks(m);
  ASSERT_TRUE(verify(m, compute_summaries(m)).empty());  // positive control
  erase_first_lock(*m.get("r"), LockMode::kRead);
  const auto diags = verify(m, compute_summaries(m));
  EXPECT_TRUE(has_diag(diags, "no-lock field read"));
  EXPECT_TRUE(has_diag(diags, "(V6)"));
}

TEST(IlVerifyNegative, CalleeReadSummaryDoesNotCoverWrite) {
  // reader2 read-locks f0 of its parameter; wmain then writes f0 with
  // its own write lock stripped. Nothing is imported from callees, so
  // the write after the call is simply uncovered and the verifier must
  // reject it (the write's undo logging rides on the eliminated lock).
  Module m;
  {
    FnBuilder fb(m, "reader2", 1, 4);
    fb.getf(1, 0, 0, obj_class());
    fb.ret(1);
  }
  {
    FnBuilder fb(m, "wmain", 1, 4);
    fb.call(1, "reader2", {0});
    fb.setf(0, 0, 1, obj_class());
    fb.ret(1);
  }
  insert_locks(m);
  ASSERT_TRUE(verify(m, compute_summaries(m)).empty());  // positive control
  erase_first_lock(*m.get("wmain"), LockMode::kWrite);
  const auto diags = verify(m, compute_summaries(m));
  EXPECT_TRUE(has_diag(diags, "no-lock field write"));
  EXPECT_TRUE(has_diag(diags, "(V6)"));
}

// --- Oracle: concurrent compiled execution is serializable ------------------

void oracle_clean_run(Backend be) {
  Module m;
  build_worker(m);
  insert_locks(m);
  ASSERT_TRUE(verify(m).empty());
  const CompiledModule cm = compile(m);
  constexpr int kThreads = 2;
  constexpr int64_t kIters = 24;

  obs::set_enabled(true);
  obs::drain();
  const uint64_t droppedBefore = obs::dropped();
  obs::set_full_trace(true);

  runtime::ManagedObject* obj = nullptr;
  run_sbd([&] {
    obj = runtime::Heap::instance().alloc_object(obj_class());
    runtime::init_write(obj, 0, 0);
    runtime::init_write(obj, 1, 0);
    runtime::init_write(obj, 2, 0);
  });

  {
    // Built before the threads start: inside the section, a replay
    // would skip the vector's destructor and leak its buffer.
    const std::vector<int64_t> args{reinterpret_cast<int64_t>(obj), kIters};
    std::vector<SbdThread> ts;
    for (int t = 0; t < kThreads; t++) {
      ts.emplace_back([&] {
        if (be == Backend::kCompiled)
          (void)execute(cm, "worker", args);
        else
          (void)execute(m, "worker", args);
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }

  int64_t final = 0;
  run_sbd([&] {
    // worker with 0 iterations just reads f0 back.
    final = execute(m, "worker", {reinterpret_cast<int64_t>(obj), 0});
  });
  EXPECT_EQ(final, kThreads * kIters)
      << "each increment is atomic between splits: no lost updates";

  obs::set_full_trace(false);
  const auto events = obs::drain();
  obs::set_enabled(false);
  const uint64_t dropped = obs::dropped() - droppedBefore;
  EXPECT_EQ(dropped, 0u) << "ring overflow would blind the oracle";

  const std::vector<oracle::Rec> recs = oracle::from_obs(events);
  const oracle::Report rep = oracle::check(recs, dropped);
  EXPECT_TRUE(rep.ok()) << oracle::summary_line(rep) << "\n"
                        << oracle::format_windows(recs, rep);
  EXPECT_GT(rep.commits, 0u) << "splits must carry commit-order events";
}

TEST(IlBackendOracle, InterpTraceIsOracleClean) { oracle_clean_run(Backend::kInterp); }

TEST(IlBackendOracle, CompiledTraceIsOracleClean) {
  oracle_clean_run(Backend::kCompiled);
}

}  // namespace
}  // namespace sbd::il
