// The paper's three intraprocedural compile-time optimizations (§3.3):
//
//   O1  Redundant-lock elimination: a Lock(base.field, mode) is removed
//       when every control-flow path to it already established a lock
//       of sufficient mode on the same location (must-locked forward
//       dataflow, intersection at merges). The analysis exploits the
//       canSplit property, read from the code as the per-function
//       maySplit fact (summary.h): held locks survive a call to a
//       callee that cannot split the section.
//   O2  Loop hoisting: a Lock in a loop whose base local is loop-
//       invariant moves to the preheader when the loop cannot split
//       (locking order is preserved because the hoisted lock is still
//       acquired before every access it covers).
//   O3  Inlining: small non-canSplit callees are spliced into the
//       caller (the paper drives this from HotSpot inline profiles; we
//       use a size threshold), widening the scope of O1/O2.
//
// All passes run after insert_locks() and preserve semantics: they only
// remove or move Lock operations that are provably redundant.
#pragma once

#include "il/ir.h"
#include "il/summary.h"

namespace sbd::il {

struct OptStats {
  int locksEliminated = 0;
  // Always 0; kept only because perfbench reads it.
  int crossCallEliminated = 0;
  int locksHoisted = 0;
  int callsInlined = 0;
  // O1+O2 rounds optimize() ran before reaching the fixed point (the
  // last round changes nothing, by construction).
  int rounds = 0;
};

// O3 — run first so O1/O2 see the widened scope.
OptStats inline_small(Module& m, int maxCalleeInstrs = 24);

// O1 and O2. `ms` is compute_summaries(m); the one-argument forms
// compute it themselves.
OptStats eliminate_redundant_locks(Module& m, const MaySplit& ms);
OptStats eliminate_redundant_locks(Module& m);
OptStats hoist_loop_locks(Module& m, const MaySplit& ms);
OptStats hoist_loop_locks(Module& m);

// The full pipeline: O3 once, then O1+O2 iterated to a fixed point
// (hoisting exposes elimination and vice versa). Neither O1 nor O2 adds
// or removes a split or a call, so maySplit is computed once, after
// inlining.
OptStats optimize(Module& m);

}  // namespace sbd::il
