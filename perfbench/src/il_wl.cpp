// il: the SBD-IL pipeline — assemble, verify, insert_locks, optimize
// (as `sbdil --optimize` runs it: O1 lock elimination with the
// interprocedural LockSummary pass, O2 hoisting, O3 inlining), compile —
// then execution on both backends. Inputs: examples/{sort,list,fib}.sbdil, each with a
// small entry function appended, and the Table 7b call-dense module.
// Single-threaded, in one atomic section per execution: the time is IL
// dispatch and whatever lock operations the optimizer left.
//
// Every result must agree across the two backends and with a plain C++
// reference (closed form for list). One round runs the pipeline on all
// four programs (the set-up) and then executes each on the compiled
// backend; the interpreter executes each program once per run, for the
// agreement check and its own timing.
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/sbd.h"
#include "common/rng.h"
#include "il/asm.h"
#include "il/compile.h"
#include "il/interp.h"
#include "il/ir.h"
#include "il/opt.h"
#include "il/summary.h"
#include "il/transform.h"
#include "il/verify.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sbd::il::BinOp;

// Entry functions appended to the example sources. They fold each program's
// output into one checkable integer.
const char* kSortEntry = R"(
fn perf_sort(n) {
entry:
  arr = newarr [n]
  call fill (arr, n)
  call sort (arr, n)
  ok = call is_sorted (arr, n)
  i = 0
  one = 1
  acc = 0
  br loop
loop:
  c = lt i n
  cbr c body done
body:
  v = gete arr[i]
  i = add i one
  v = mul v i
  acc = add acc v
  br loop
done:
  acc = mul acc ok
  ret acc
}
)";

const char* kFibEntry = R"(
fn perf_fib(reps, k) {
entry:
  acc = 0
  r = 0
  one = 1
  span = 91
  p1 = 1000003
  p2 = 999983
  br loop
loop:
  c = lt r reps
  cbr c body done
body:
  nn = add r k
  nn = mod nn span
  a = call fib (nn)
  b = call fib_boxed (nn)
  a = mod a p1
  b = mod b p2
  acc = add acc a
  acc = add acc b
  r = add r one
  br loop
done:
  ret acc
}
)";

sbd::runtime::ClassInfo* t7_class() {
  static sbd::runtime::ClassInfo* ci = sbd::runtime::register_class(
      "PerfT7Accum", {{"sum", false, false}, {"aux", false, false}});
  return ci;
}

// The Table 7b module: a hot loop whose body is mostly small calls that
// read one object field, so lock elimination across calls is what the
// optimizer can win on it.
void build_t7b(sbd::il::Module& m) {
  {
    sbd::il::FnBuilder fb(m, "leaf", 1, 4);
    fb.getf(1, 0, 0, t7_class());
    fb.ret(1);
  }
  {
    sbd::il::FnBuilder fb(m, "wrap", 2, 3);
    fb.bin(2, BinOp::kMod, 0, 1);
    fb.ret(2);
  }
  {
    sbd::il::FnBuilder fb(m, "step", 3, 5);
    fb.bin(3, BinOp::kAdd, 0, 1);
    fb.call(4, "wrap", {3, 2});
    fb.ret(4);
  }
  sbd::il::FnBuilder fb(m, "hot", 3, 12);
  const int p = 0, arr = 1, n = 2, i = 3, one = 4, cond = 5, elem = 6, sum = 7, r = 8, acc = 9;
  fb.cst(i, 0);
  fb.cst(one, 1);
  const int head = fb.block();
  const int done = fb.block();
  fb.br(head);
  fb.at(head);
  fb.call(r, "leaf", {p});
  fb.getf(sum, p, 0, t7_class());
  fb.gete(elem, arr, i);
  fb.call(acc, "step", {elem, i, n});
  fb.call(acc, "step", {acc, r, n});
  fb.call(acc, "step", {acc, elem, n});
  fb.call(sum, "step", {sum, acc, n});
  fb.call(sum, "step", {sum, r, n});
  fb.call(sum, "step", {sum, i, n});
  fb.setf(p, 0, sum, t7_class());
  fb.bin(i, BinOp::kAdd, i, one);
  fb.bin(cond, BinOp::kLt, i, n);
  fb.cbr(cond, head, done);
  fb.at(done);
  fb.getf(sum, p, 0, t7_class());
  fb.ret(sum);
}

struct Program {
  std::string name;
  std::string source;  // empty: built in C++ (t7b)
  std::string entry;
  std::vector<int64_t> args;  // t7b: {iters}; p and arr are prepended per run
  int64_t expected = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int64_t ref_sort(int64_t n) {
  std::vector<int64_t> a(static_cast<size_t>(n));
  int64_t seed = 1234567;
  for (auto& v : a) {
    seed = seed * 31 % 9973;
    v = seed;
  }
  std::sort(a.begin(), a.end());
  int64_t acc = 0;
  for (int64_t i = 0; i < n; i++) acc += a[static_cast<size_t>(i)] * (i + 1);
  return acc;
}

int64_t ref_fib(int64_t reps, int64_t k) {
  int64_t acc = 0;
  for (int64_t r = 0; r < reps; r++) {
    const int64_t nn = (r + k) % 91;
    int64_t a = 0, b = 1;
    for (int64_t i = 0; i < nn; i++) {
      const int64_t t = a + b;
      a = b;
      b = t;
    }
    acc += a % 1000003 + a % 999983;
  }
  return acc;
}

int64_t t7_elem(uint64_t seed, int64_t i) {
  return static_cast<int64_t>(sbd::mix64(seed + static_cast<uint64_t>(i)) % 7);
}

int64_t ref_t7b(uint64_t seed, int64_t n) {
  int64_t psum = 0;
  for (int64_t i = 0; i < n; i++) {
    const int64_t r = psum, elem = t7_elem(seed, i);
    int64_t acc = (elem + i) % n;
    acc = (acc + r) % n;
    acc = (acc + elem) % n;
    int64_t sum = (psum + acc) % n;
    sum = (sum + r) % n;
    sum = (sum + i) % n;
    psum = sum;
  }
  return psum;
}

struct Built {
  sbd::il::Module m;
  sbd::il::CompiledModule cm;
  sbd::il::OptStats stats;
  bool verified = true;
};

struct StageTimes {
  double assemble = 0, verify = 0, insert = 0, optimize = 0, compile = 0;  // ns
};

// The pipeline, each stage timed (and traced as an il.* span).
void build(const Program& prog, Built& b, StageTimes& st) {
  auto timed = [](const char* span, double& acc, auto&& fn) {
    trace::Scope s(span);
    const uint64_t t = now_ns();
    fn();
    acc += static_cast<double>(now_ns() - t);
  };
  timed("il.assemble", st.assemble, [&] {
    if (prog.source.empty())
      build_t7b(b.m);
    else
      sbd::il::assemble(b.m, prog.source);
  });
  timed("il.verify", st.verify, [&] { b.verified = sbd::il::verify(b.m).empty(); });
  timed("il.insert_locks", st.insert, [&] { sbd::il::insert_locks(b.m); });
  timed("il.optimize", st.optimize, [&] {
    b.stats = sbd::il::optimize(b.m);
  });
  // The optimized module must still pass the lock-coverage verifier.
  timed("il.verify", st.verify, [&] {
    b.verified = b.verified && sbd::il::verify(b.m, sbd::il::compute_summaries(b.m)).empty();
  });
  timed("il.compile", st.compile, [&] { b.cm = sbd::il::compile(b.m); });
}

struct Exec {
  int64_t result = 0;
  double ms = 0;
  uint64_t lockOps = 0;
};

Exec execute(const Program& prog, const Built& b, bool compiled, uint64_t seed) {
  Exec e;
  sbd::run_sbd([&] {
    std::vector<int64_t> args = prog.args;
    auto& tc = sbd::context();
    if (prog.source.empty()) {  // t7b: accumulator object + input array
      const int64_t n = args[0];
      auto* p = sbd::runtime::Heap::instance().alloc_object(t7_class());
      auto* arr = sbd::runtime::Heap::instance().alloc_array(sbd::runtime::ElemKind::kI64,
                                                               static_cast<uint64_t>(n));
      for (int64_t i = 0; i < n; i++)
        sbd::runtime::init_write_elem(arr, static_cast<uint64_t>(i),
                                      static_cast<uint64_t>(t7_elem(seed, i)));
      sbd::split();  // escape: the hot loop pays real lock operations
      args = {reinterpret_cast<int64_t>(p), reinterpret_cast<int64_t>(arr), n};
    }
    trace::Scope s(compiled ? "il.exec_compiled" : "il.exec_interp");
    const auto before = tc.stats;
    const uint64_t t = now_ns();
    e.result = compiled ? sbd::il::execute(b.cm, prog.entry, args)
                        : sbd::il::execute(b.m, prog.entry, args);
    e.ms = static_cast<double>(now_ns() - t) / 1e6;
    const auto d = tc.stats.diff(before);
    e.lockOps = d.lockInit + d.checkNew + d.checkOwned + d.acqRls;
  });
  return e;
}

}  // namespace

Outcome run_il(const Params& p) {
  Outcome out;
  const bool small = p.tiny;
  const std::string ex = p.root + "/examples/";
  const int64_t sortN = small ? 64 : 1400;
  const int64_t listN = small ? 200 : 150000;
  const int64_t fibReps = small ? 91 : 91 * 330;  // whole cycles: the same work for every k
  const int64_t fibK = static_cast<int64_t>(sbd::mix64(p.seed) % 91);
  const int64_t t7N = small ? 500 : 150000;
  std::vector<Program> progs = {
      {"sort", read_file(ex + "sort.sbdil") + kSortEntry, "perf_sort", {sortN}, ref_sort(sortN)},
      {"list", read_file(ex + "list.sbdil"), "main", {listN}, listN * (listN - 1) / 2},
      {"fib", read_file(ex + "fib.sbdil") + kFibEntry, "perf_fib", {fibReps, fibK},
       ref_fib(fibReps, fibK)},
      {"t7b", "", "hot", {t7N}, ref_t7b(p.seed, t7N)},
  };
  if (p.inject == "il-reference") progs[2].expected += 1;

  std::vector<double> roundRun, roundSetup;
  std::vector<std::vector<double>> compiledMs(progs.size());
  std::vector<double> interpMs(progs.size(), 0);
  std::vector<uint64_t> lockOps(progs.size(), 0);
  StageTimes stages;
  int eliminated = 0, crossCall = 0;
  const uint64_t deadline = now_ns() + static_cast<uint64_t>(p.seconds * 1e9);
  const int minRounds = (p.mini || p.tiny) ? 1 : 3;
  for (int round = 0; round < minRounds || now_ns() < deadline; round++) {
    double run = 0;
    const uint64_t setupStart = now_ns();
    std::vector<Built> built(progs.size());
    for (size_t i = 0; i < progs.size(); i++) build(progs[i], built[i], stages);
    roundSetup.push_back(static_cast<double>(now_ns() - setupStart) / 1e9);
    for (size_t i = 0; i < progs.size(); i++) {
      const Program& prog = progs[i];
      const Built& b = built[i];
      if (round == 0) {
        out.gate(b.verified, "il: " + prog.name + " failed verification");
        eliminated += b.stats.locksEliminated;
        crossCall += b.stats.crossCallEliminated;
      }
      const Exec c = execute(prog, b, /*compiled=*/true, p.seed);
      run += c.ms / 1e3;
      compiledMs[i].push_back(c.ms);
      out.attempted++;
      bool ok = c.result == prog.expected;
      out.gate(ok, "il: " + prog.name + " compiled result " + std::to_string(c.result) +
                       " != reference " + std::to_string(prog.expected));
      if (round == 0) {
        lockOps[i] = c.lockOps;
        const Exec in = execute(prog, b, /*compiled=*/false, p.seed);
        int64_t interpResult = in.result;
        if (p.inject == "il-backend" && prog.name == "sort") interpResult += 1;
        interpMs[i] = in.ms;
        out.attempted++;
        const bool agree = interpResult == c.result && in.lockOps == c.lockOps;
        out.gate(agree, "il: " + prog.name + " backends disagree (interp " +
                            std::to_string(interpResult) + "/" + std::to_string(in.lockOps) +
                            " lock ops, compiled " + std::to_string(c.result) + "/" +
                            std::to_string(c.lockOps) + ")");
        ok = ok && agree;
      }
      if (!ok) out.failed++;
    }
    roundRun.push_back(run);
  }

  double interp = 0;
  for (double m : interpMs) interp += m;
  out.cost = median(roundRun);
  out.set_e2e("setup_s", median(roundSetup), "s");
  out.set_e2e("p50_ms", median(roundRun) * 1e3, "ms");
  out.info["il.rounds"] = static_cast<double>(roundRun.size());
  out.info["il.round_p99_ms"] = quantile(roundRun, 0.99) * 1e3;
  out.info["il.interp_s"] = interp / 1e3;
  if (p.traced) {
    const double builds = static_cast<double>(roundSetup.size());
    out.set_layer("il.assemble_us", stages.assemble / builds / 1e3, "us");
    out.set_layer("il.verify_us", stages.verify / builds / 1e3, "us");
    out.set_layer("il.insert_locks_us", stages.insert / builds / 1e3, "us");
    out.set_layer("il.optimize_us", stages.optimize / builds / 1e3, "us");
    out.set_layer("il.compile_us", stages.compile / builds / 1e3, "us");
    out.set_layer("il.locks_eliminated", eliminated, "count");
    out.set_layer("il.cross_call_eliminated", crossCall, "count");
    out.set_layer("il.interp_s", interp / 1e3, "s");
    out.set_layer("il.round_p99_ms", quantile(roundRun, 0.99) * 1e3, "ms");
    for (size_t i = 0; i < progs.size(); i++) {
      out.set_layer("il.exec_ms.compiled." + progs[i].name, median(compiledMs[i]), "ms");
      out.set_layer("il.exec_ms.interp." + progs[i].name, interpMs[i], "ms");
      out.set_layer("il.lock_ops." + progs[i].name, static_cast<double>(lockOps[i]), "count");
    }
  }
  return out;
}

}  // namespace perfbench
