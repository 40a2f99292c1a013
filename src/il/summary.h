// The shared must-locked dataflow and the one per-function call fact,
// maySplit.
//
// O1's knowledge about calls is the paper's canSplit property, sharpened
// from the modifier to the code: a function may split if it contains a
// kSplit or calls an unknown or maySplit callee (a monotone fixpoint
// over the module, so recursion without a split is not maySplit). Locks
// are released only at split or commit (docs/SEMANTICS.md "Lock facts
// across calls"), so every must-held fact survives a call to a
// non-maySplit callee; a maySplit callee clears them all. Nothing is
// imported from callees.
//
// The must-locked dataflow (LockState/transfer/solve_must_locked) is
// shared verbatim by O1 and O2 (opt.cpp) and the verifier's no-lock
// coverage check (verify.cpp), so they can never drift apart on what
// "covered" means.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "il/ir.h"

namespace sbd::il {

// Function name -> whether calling it may end the section. A callee
// absent from the map is unknown and may split.
using MaySplit = std::map<std::string, bool>;

// The maySplit fixpoint over every function of `m`.
MaySplit compute_summaries(const Module& m);

// Whether a kCall to `callee` may end the section.
bool may_split(const MaySplit& ms, const std::string& callee);

// --- Shared must-locked dataflow -------------------------------------------

// Facts keyed through a class's LockMap: "this transaction holds the
// lock WORD that cls's map assigns to mapped index `lockIdx` of the
// object in local `base`". These let locks on *different* slots that
// share a word dedupe statically — but only READ locks may be
// eliminated this way: eliminating a write lock would also skip its
// undo logging (the no-lock store never reaches the runtime's
// coarse-map owned-path re-log), and there is no covering undo entry
// for a slot that was never written before.
struct MappedFact {
  int base;
  uint32_t lockIdx;
  bool write;
  const runtime::ClassInfo* cls;
  bool operator<(const MappedFact& o) const {
    if (base != o.base) return base < o.base;
    if (lockIdx != o.lockIdx) return lockIdx < o.lockIdx;
    if (write != o.write) return write < o.write;
    return cls < o.cls;
  }
  bool operator==(const MappedFact& o) const {
    return base == o.base && lockIdx == o.lockIdx && write == o.write && cls == o.cls;
  }
};

// A class's LockMap may be consulted at analysis time only if it cannot
// change afterwards: any fixed SBD_LOCK_GRANULARITY mode, or a pinned
// class under adaptive (pins are permanent). A later
// set_lock_granularity() call invalidates modules optimized before it
// — the documented JIT-style contract (SEMANTICS.md).
bool map_is_static(const runtime::ClassInfo* cls);

// The must-locked lattice element flowing through one program point.
struct LockState {
  bool top = true;  // "unvisited": identity of the intersection meet
  std::set<uint64_t> facts;
  std::set<MappedFact> mapped;
  std::set<int> newLocals;  // locals known to hold this-transaction-new objects

  bool meet(const LockState& other);  // returns true if changed
  void kill_local(int l);
  void clear_all();
  bool covers(int base, int fieldOrIdx, bool isElem, LockMode mode) const;
  // Read coverage through the LockMap: a held word — read- or
  // write-locked — covers any read it protects.
  bool covers_mapped(int base, uint32_t lockIdx, const runtime::ClassInfo* cls) const;

  bool operator==(const LockState& o) const {
    return top == o.top && facts == o.facts && mapped == o.mapped &&
           newLocals == o.newLocals;
  }
};

uint64_t fact_key(int base, int fieldOrIdx, bool isElem, LockMode mode);

// Applies one instruction's transfer function: a kCall clears the state
// when the callee may split and otherwise keeps every fact (minus those
// on the overwritten destination). `coveredLock` is set for kLock
// instructions whose location is already covered.
void transfer(LockState& st, const Instr& i, const MaySplit& ms, bool* coveredLock);

// Solves the forward must-locked dataflow and returns the block-entry
// states (in[0] is the entry block's, never top). Walk each block with
// transfer() to reconstruct intermediate points.
std::vector<LockState> solve_must_locked(const Function& f, const MaySplit& ms);

}  // namespace sbd::il
