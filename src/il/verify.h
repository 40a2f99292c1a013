// Static checking of the paper's §2.2 modifier rules on SBD-IL:
//
//   V1  split may appear only in canSplit functions
//   V2  a call to a canSplit function must carry allowSplit
//   V3  allowSplit may appear only inside canSplit functions
//   V4  constructors cannot be canSplit (uninitialized instances must
//       not escape an atomic section)
//   V5  callees must exist with matching arity; local indices must be
//       in range; frames must fit the backends' limits
//   V6  (with the maySplit map) every no-lock access is covered by a
//       must-held lock of sufficient mode at that point — computed with
//       the SAME dataflow the optimizer uses (summary.h), so anything O1
//       would eliminate, V6 accepts, and nothing else.
//
// (The paper's override rule — canSplit can only override canSplit —
// has no analog here because SBD-IL has no inheritance.)
#pragma once

#include <string>
#include <vector>

#include "il/ir.h"
#include "il/summary.h"

namespace sbd::il {

// Structural checks V1–V5. Returns human-readable diagnostics; empty
// means the module verifies.
std::vector<std::string> verify(const Module& m);

// V1–V5 plus the V6 lock-coverage check against `ms` (typically
// compute_summaries(m)). V6 runs only when the structural checks are
// clean — the dataflow indexes blocks and locals the structural pass
// has validated. Intended for transformed modules (insert_locks output,
// optionally optimized), where every no-lock access must be provably
// covered; raw hand-built modules that never use the *Nl forms verify
// trivially.
std::vector<std::string> verify(const Module& m, const MaySplit& ms);

}  // namespace sbd::il
