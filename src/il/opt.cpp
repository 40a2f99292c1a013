#include "il/opt.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/check.h"

namespace sbd::il {

// ---------------------------------------------------------------------------
// O1: redundant-lock elimination
// ---------------------------------------------------------------------------
// The must-locked dataflow itself (LockState/transfer/solve_must_locked)
// lives in summary.cpp, shared with the verifier; this pass only adds
// the rewrite.

namespace {

// Returns the number of kLocks removed from `f`.
int eliminate_in(Function& f, const MaySplit& ms) {
  int eliminated = 0;
  const auto in = solve_must_locked(f, ms);

  // Rewrite: drop covered locks. Instructions after a kRet in the same
  // block are unreachable — copied verbatim, never eliminated (the
  // dataflow does not flow past the return either).
  for (size_t b = 0; b < f.blocks.size(); b++) {
    if (in[b].top) continue;  // unreachable
    LockState st = in[b];
    std::vector<Instr> kept;
    kept.reserve(f.blocks[b].instrs.size());
    bool returned = false;
    for (const Instr& i : f.blocks[b].instrs) {
      if (returned) {
        kept.push_back(i);
        continue;
      }
      if (i.op == Op::kRet) returned = true;
      bool kill = false;
      transfer(st, i, ms, &kill);
      if (kill && i.op == Op::kLock) {
        eliminated++;
        continue;
      }
      kept.push_back(i);
    }
    f.blocks[b].instrs = std::move(kept);
  }
  return eliminated;
}

}  // namespace

OptStats eliminate_redundant_locks(Module& m, const MaySplit& ms) {
  OptStats total;
  for (auto& [name, f] : m.functions)
    total.locksEliminated += eliminate_in(*f, ms);
  return total;
}

OptStats eliminate_redundant_locks(Module& m) {
  return eliminate_redundant_locks(m, compute_summaries(m));
}

// ---------------------------------------------------------------------------
// O2: loop hoisting
// ---------------------------------------------------------------------------

namespace {

// Iterative dominator sets (CFGs here are tiny).
std::vector<std::set<int>> dominators(const Function& f) {
  const int n = static_cast<int>(f.blocks.size());
  auto preds = predecessors(f);
  std::set<int> all;
  for (int i = 0; i < n; i++) all.insert(i);
  std::vector<std::set<int>> dom(static_cast<size_t>(n), all);
  dom[0] = {0};
  bool changed = true;
  while (changed) {
    changed = false;
    for (int b = 1; b < n; b++) {
      std::set<int> d = all;
      if (preds[static_cast<size_t>(b)].empty()) d = {b};
      for (int p : preds[static_cast<size_t>(b)]) {
        std::set<int> tmp;
        std::set_intersection(d.begin(), d.end(), dom[static_cast<size_t>(p)].begin(),
                              dom[static_cast<size_t>(p)].end(),
                              std::inserter(tmp, tmp.begin()));
        d = std::move(tmp);
      }
      d.insert(b);
      if (d != dom[static_cast<size_t>(b)]) {
        dom[static_cast<size_t>(b)] = std::move(d);
        changed = true;
      }
    }
  }
  return dom;
}

// Natural loop of back edge tail->head.
std::set<int> natural_loop(const Function& f, int tail, int head) {
  auto preds = predecessors(f);
  std::set<int> loop = {head, tail};
  std::vector<int> work = {tail};
  while (!work.empty()) {
    const int b = work.back();
    work.pop_back();
    if (b == head) continue;
    for (int p : preds[static_cast<size_t>(b)]) {
      if (loop.insert(p).second) work.push_back(p);
    }
  }
  return loop;
}

bool loop_assigns_local(const Function& f, const std::set<int>& loop, int local) {
  for (int b : loop)
    for (const Instr& i : f.blocks[static_cast<size_t>(b)].instrs)
      if (defined_local(i) == local) return true;
  return false;
}

// Whether calling `f` can acquire locks (directly or transitively):
// checked accesses, explicit Lock ops, splits, or calls to unknown
// functions all count. Memoized; recursion is treated conservatively.
bool fn_may_lock(const Function* f, const Module& m,
                 std::map<const Function*, int>& memo) {
  auto it = memo.find(f);
  if (it != memo.end()) return it->second != 0;
  memo[f] = 1;  // assume the worst while resolving cycles
  bool may = false;
  for (const Block& b : f->blocks) {
    for (const Instr& i : b.instrs) {
      switch (i.op) {
        case Op::kLock:
        case Op::kGetF:
        case Op::kSetF:
        case Op::kGetE:
        case Op::kSetE:
        case Op::kSplit:
          may = true;
          break;
        case Op::kCall: {
          const Function* callee = m.get(i.calleeName);
          if (!callee || fn_may_lock(callee, m, memo)) may = true;
          break;
        }
        default:
          break;
      }
      if (may) break;
    }
    if (may) break;
  }
  memo[f] = may ? 1 : 0;
  return may;
}

bool loop_may_split(const Function& f, const std::set<int>& loop, const MaySplit& ms) {
  for (int b : loop)
    for (const Instr& i : f.blocks[static_cast<size_t>(b)].instrs) {
      if (i.op == Op::kSplit) return true;
      if (i.op == Op::kCall && may_split(ms, i.calleeName)) return true;
    }
  return false;
}

// Returns the number of kLocks hoisted out of `f`'s loops.
int hoist_in(Function& f, const Module& m, const MaySplit& ms) {
  int hoisted = 0;
  auto dom = dominators(f);
  const int n = static_cast<int>(f.blocks.size());
  auto preds = predecessors(f);

  for (int tail = 0; tail < n; tail++) {
    const Block& tb = f.blocks[static_cast<size_t>(tail)];
    std::vector<int> succs;
    if (tb.next >= 0) succs.push_back(tb.next);
    if (tb.condLocal >= 0 && tb.nextAlt >= 0) succs.push_back(tb.nextAlt);
    for (int head : succs) {
      if (!dom[static_cast<size_t>(tail)].count(head)) continue;  // not a back edge
      auto loop = natural_loop(f, tail, head);
      if (loop_may_split(f, loop, ms)) continue;

      // Preheader: the unique out-of-loop predecessor of the header with
      // an unconditional fallthrough into it.
      int pre = -1;
      bool clean = true;
      for (int p : preds[static_cast<size_t>(head)]) {
        if (loop.count(p)) continue;
        if (pre >= 0) clean = false;
        pre = p;
      }
      if (!clean || pre < 0) continue;
      const Block& pb = f.blocks[static_cast<size_t>(pre)];
      if (pb.condLocal >= 0 || pb.next != head) continue;

      // Hoist invariant kLock instructions from the header, preserving
      // their first-iteration order in the preheader. Scanning stops at
      // the first instruction that could itself acquire a lock (checked
      // access, call) or at a non-invariant lock — past those, moving a
      // lock would reorder acquisitions (§3.3 "if the locking order can
      // be preserved").
      Block& hb = f.blocks[static_cast<size_t>(head)];
      std::vector<size_t> hoistIdx;
      std::map<const Function*, int> lockMemo;
      for (size_t k = 0; k < hb.instrs.size(); k++) {
        const Instr& i = hb.instrs[k];
        if (i.op == Op::kLock) {
          if (loop_assigns_local(f, loop, i.a)) break;
          if (i.c >= 0 && loop_assigns_local(f, loop, i.c)) break;
          hoistIdx.push_back(k);
          continue;
        }
        if (i.op == Op::kGetF || i.op == Op::kSetF || i.op == Op::kGetE ||
            i.op == Op::kSetE || i.op == Op::kSplit)
          break;  // may acquire locks itself: stop to keep the order
        if (i.op == Op::kCall) {
          const Function* callee = m.get(i.calleeName);
          if (!callee || fn_may_lock(callee, m, lockMemo))
            break;  // unknown or locking callee: stop
          continue;  // provably lock-free call: locking order unaffected
        }
      }
      if (hoistIdx.empty()) continue;
      Block& pbm = f.blocks[static_cast<size_t>(pre)];
      for (size_t k : hoistIdx) pbm.instrs.push_back(hb.instrs[k]);
      for (auto it = hoistIdx.rbegin(); it != hoistIdx.rend(); ++it)
        hb.instrs.erase(hb.instrs.begin() + static_cast<long>(*it));
      hoisted += static_cast<int>(hoistIdx.size());
    }
  }
  return hoisted;
}

}  // namespace

OptStats hoist_loop_locks(Module& m, const MaySplit& ms) {
  OptStats total;
  for (auto& [name, f] : m.functions) total.locksHoisted += hoist_in(*f, m, ms);
  return total;
}

OptStats hoist_loop_locks(Module& m) { return hoist_loop_locks(m, compute_summaries(m)); }

// ---------------------------------------------------------------------------
// O3: inlining
// ---------------------------------------------------------------------------

namespace {

int instr_count(const Function& f) {
  int n = 0;
  for (const auto& b : f.blocks) n += static_cast<int>(b.instrs.size());
  return n;
}

// Splices `callee` into `f` at (blockIdx, instrIdx). Returns true on
// success. The call instruction is replaced by argument moves, the
// callee body (blocks appended with remapped locals), and a join block
// holding the instructions after the call.
bool inline_call_at(Function& f, size_t blockIdx, size_t instrIdx,
                    const Function& callee) {
  const Instr call = f.blocks[blockIdx].instrs[instrIdx];
  const int localBase = f.numLocals;
  f.numLocals += callee.numLocals;
  const int blockBase = static_cast<int>(f.blocks.size());

  // Join block: tail of the caller block + original terminator.
  Block join;
  join.instrs.assign(f.blocks[blockIdx].instrs.begin() + static_cast<long>(instrIdx) + 1,
                     f.blocks[blockIdx].instrs.end());
  join.condLocal = f.blocks[blockIdx].condLocal;
  join.next = f.blocks[blockIdx].next;
  join.nextAlt = f.blocks[blockIdx].nextAlt;

  // Caller block: head + argument moves, then jump into the callee.
  Block& cb = f.blocks[blockIdx];
  cb.instrs.erase(cb.instrs.begin() + static_cast<long>(instrIdx), cb.instrs.end());
  for (size_t a = 0; a < call.args.size(); a++) {
    Instr mv;
    mv.op = Op::kMove;
    mv.a = localBase + static_cast<int>(a);
    mv.b = call.args[a];
    cb.instrs.push_back(mv);
  }
  cb.condLocal = -1;
  cb.next = blockBase;

  const int joinIdx = blockBase + static_cast<int>(callee.blocks.size());

  // Copy callee blocks, remapping locals and block targets; kRet turns
  // into a move to the call's destination plus a jump to the join.
  // Operand roles per opcode: `a`, `b`, `c` are locals except where a
  // field index is encoded (kLock field form: b; kGetF*: c; kSetF*: b).
  auto remap_instr = [&](Instr& ni) {
    auto rm = [&](int l) { return l < 0 ? l : l + localBase; };
    switch (ni.op) {
      case Op::kConst:
      case Op::kPrint:
        ni.a = rm(ni.a);
        break;
      case Op::kMove:
      case Op::kLen:
      case Op::kNewArr:
        ni.a = rm(ni.a);
        ni.b = rm(ni.b);
        break;
      case Op::kBin:
      case Op::kGetE:
      case Op::kSetE:
      case Op::kGetENl:
      case Op::kSetENl:
        ni.a = rm(ni.a);
        ni.b = rm(ni.b);
        ni.c = rm(ni.c);
        break;
      case Op::kNew:
        ni.a = rm(ni.a);
        break;
      case Op::kLock:
        ni.a = rm(ni.a);
        if (ni.c >= 0) ni.c = rm(ni.c);  // element form: c is an index local
        break;                           // field form: b is a field index
      case Op::kGetF:
      case Op::kGetFNl:
        ni.a = rm(ni.a);
        ni.b = rm(ni.b);  // c is a field index
        break;
      case Op::kSetF:
      case Op::kSetFNl:
        ni.a = rm(ni.a);  // b is a field index
        ni.c = rm(ni.c);
        break;
      case Op::kCall:
        ni.a = rm(ni.a);
        for (int& arg : ni.args) arg = rm(arg);
        break;
      case Op::kSplit:
      case Op::kRet:
        break;
    }
  };

  for (const Block& src : callee.blocks) {
    Block nb;
    bool terminated = false;
    for (const Instr& si : src.instrs) {
      if (si.op == Op::kRet) {
        if (call.a >= 0 && si.a >= 0) {
          Instr mv;
          mv.op = Op::kMove;
          mv.a = call.a;
          mv.b = si.a + localBase;
          nb.instrs.push_back(mv);
        }
        nb.condLocal = -1;
        nb.next = joinIdx;
        terminated = true;
        break;
      }
      Instr ni = si;
      remap_instr(ni);
      nb.instrs.push_back(ni);
    }
    if (!terminated) {
      nb.condLocal = src.condLocal < 0 ? -1 : src.condLocal + localBase;
      nb.next = src.next < 0 ? joinIdx : src.next + blockBase;
      nb.nextAlt = src.nextAlt < 0 ? -1 : src.nextAlt + blockBase;
    }
    f.blocks.push_back(std::move(nb));
  }
  f.blocks.push_back(std::move(join));
  return true;
}

}  // namespace

OptStats inline_small(Module& m, int maxCalleeInstrs) {
  OptStats stats;
  for (auto& [name, fp] : m.functions) {
    Function& f = *fp;
    bool again = true;
    int guard = 0;
    while (again && guard++ < 8) {
      again = false;
      for (size_t b = 0; b < f.blocks.size() && !again; b++) {
        for (size_t k = 0; k < f.blocks[b].instrs.size() && !again; k++) {
          const Instr& i = f.blocks[b].instrs[k];
          if (i.op != Op::kCall) continue;
          const Function* callee = m.get(i.calleeName);
          if (!callee || callee->canSplit || callee == &f) continue;
          if (instr_count(*callee) > maxCalleeInstrs) continue;
          if (inline_call_at(f, b, k, *callee)) {
            stats.callsInlined++;
            again = true;  // block structure changed; restart scan
          }
        }
      }
    }
  }
  return stats;
}

// ---------------------------------------------------------------------------
// The pipeline
// ---------------------------------------------------------------------------

OptStats optimize(Module& m) {
  OptStats total = inline_small(m);
  const MaySplit ms = compute_summaries(m);
  // O1 and O2 feed each other (a hoisted lock dominates the loop body
  // and covers re-locks after it), so iterate the pair to a fixed
  // point. Termination: each round either removes a kLock (finite
  // supply) or moves one strictly outward (bounded nesting); a round
  // that does neither is the last.
  bool changed = true;
  while (changed) {
    total.rounds++;
    const OptStats e = eliminate_redundant_locks(m, ms);
    const OptStats h = hoist_loop_locks(m, ms);
    total.locksEliminated += e.locksEliminated;
    total.locksHoisted += h.locksHoisted;
    changed = e.locksEliminated > 0 || h.locksHoisted > 0;
  }
  return total;
}

}  // namespace sbd::il
