// Ablation A1 — the paper's §3.3 compile-time optimizations, measured
// on SBD-IL: the same program is executed unoptimized, with each pass
// alone, and with the full pipeline; the table reports dynamic
// lock-operation counts (the quantity the optimizations exist to cut)
// and wall time.
// Each variant runs on both execution backends; the bit-identity
// contract (tests/il/il_backend_diff_test.cpp) means the two must
// report the same result and dynamic lock-op count, so the table
// shows one pair of time columns per variant.
#include <cstdio>

#include "api/sbd.h"
#include "common/table.h"
#include "common/timing.h"
#include "il/compile.h"
#include "il/interp.h"
#include "il/opt.h"
#include "il/transform.h"
#include "runtime/heap.h"

namespace {

using namespace sbd;

runtime::ClassInfo* acc_class() {
  static runtime::ClassInfo* ci =
      runtime::register_class("AblAccum", {{"sum", false, false}, {"aux", false, false}});
  return ci;
}

// The hot function: for i in 0..n { p.sum += arr[i]; p.aux = p.sum; }
// plus a helper call (inlining fodder).
void build_workload(il::Module& m) {
  {
    il::FnBuilder fb(m, "scale", 1, 3);
    fb.cst(1, 2);
    fb.bin(2, il::BinOp::kMul, 0, 1);
    fb.ret(2);
  }
  // Loop body (accumulator accesses lead, so their locks are loop-
  // invariant and hoistable; the element access is per-iteration):
  //   sum = p.sum; p.aux = sum; e = arr[i]; s = scale(e); p.sum = sum + s
  il::FnBuilder fb(m, "hot", 3, 12);
  const int p = 0, arr = 1, n = 2, i = 3, one = 4, cond = 5, elem = 6, sum = 7,
            scaled = 8;
  fb.cst(i, 0);
  fb.cst(one, 1);
  const int pre = fb.block();
  const int head = fb.block();
  const int done = fb.block();
  fb.br(pre);
  fb.at(pre);
  fb.br(head);
  fb.at(head);
  fb.getf(sum, p, 0);
  fb.setf(p, 1, sum);
  fb.gete(elem, arr, i);
  fb.call(scaled, "scale", {elem});
  fb.bin(sum, il::BinOp::kAdd, sum, scaled);
  fb.setf(p, 0, sum);
  fb.bin(i, il::BinOp::kAdd, i, one);
  fb.bin(cond, il::BinOp::kLt, i, n);
  fb.cbr(cond, head, done);
  fb.at(done);
  fb.getf(sum, p, 0);
  fb.ret(sum);
}

struct Variant {
  const char* name;
  std::function<void(il::Module&)> prepare;
};

}  // namespace

int main() {
  SBD_ATTACH_THREAD();
  const int64_t kIters = 20000;

  std::vector<Variant> variants = {
      {"unoptimized", [](il::Module&) {}},
      {"O1 eliminate", [](il::Module& m) { il::eliminate_redundant_locks(m); }},
      {"O2 hoist", [](il::Module& m) { il::hoist_loop_locks(m); }},
      {"O3 inline+O1",
       [](il::Module& m) {
         il::inline_small(m);
         il::eliminate_redundant_locks(m);
       }},
      {"full pipeline", [](il::Module& m) { il::optimize(m); }},
  };

  std::printf("=== Ablation A1: IL compile-time optimizations (paper 3.3) ===\n\n");
  TextTable t({"Variant", "Static locks", "Dyn lock ops", "Interp[ms]", "Compiled[ms]",
               "Result"});
  bool agree = true;
  for (auto& v : variants) {
    il::Module m;
    build_workload(m);
    il::insert_locks(m);
    v.prepare(m);
    const il::CompiledModule cm = il::compile(m);
    const int staticLocks = il::count_ops(*m.get("hot"), il::Op::kLock);
    uint64_t dynOps[2] = {0, 0};
    int64_t result[2] = {0, 0};
    double ms[2] = {0, 0};
    for (int be = 0; be < 2; be++) {
      run_sbd([&] {
        auto* p = runtime::Heap::instance().alloc_object(acc_class());
        auto* arr = runtime::Heap::instance().alloc_array(runtime::ElemKind::kI64,
                                                          static_cast<uint64_t>(kIters));
        for (int64_t i = 0; i < kIters; i++)
          runtime::init_write_elem(arr, static_cast<uint64_t>(i),
                                   static_cast<uint64_t>(i % 7));
        split();
        auto& tc = core::tls_context();
        const auto before = tc.stats;
        Stopwatch sw;
        const std::vector<int64_t> args{reinterpret_cast<int64_t>(p),
                                        reinterpret_cast<int64_t>(arr), kIters};
        result[be] = be ? il::execute(cm, "hot", args) : il::execute(m, "hot", args);
        ms[be] = sw.seconds() * 1000;
        const auto d = tc.stats.diff(before);
        dynOps[be] = d.checkNew + d.checkOwned + d.acqRls + d.lockInit;
      });
    }
    if (result[0] != result[1] || dynOps[0] != dynOps[1]) {
      std::fprintf(stderr, "FAIL: backends disagree at variant %s\n", v.name);
      agree = false;
    }
    t.add_row({v.name, std::to_string(staticLocks), std::to_string(dynOps[0]),
               TextTable::fmt(ms[0], 1), TextTable::fmt(ms[1], 1),
               std::to_string(result[0])});
  }
  t.print();
  std::printf(
      "\nShape check: every variant computes the same result on both backends;\n"
      "the full pipeline removes most dynamic lock operations (the paper's\n"
      "Table 7 counts are post-optimization numbers).\n");
  return agree ? 0 : 1;
}
