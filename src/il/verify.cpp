#include "il/verify.h"

#include <sstream>

#include "il/lowering.h"
#include "il/summary.h"

namespace sbd::il {

namespace {
void check_local(const Function& f, int idx, bool allowNeg, const std::string& where,
                 std::vector<std::string>& out) {
  if (idx < 0 && allowNeg) return;
  if (idx < 0 || idx >= f.numLocals) {
    std::ostringstream os;
    os << f.name << ": local l" << idx << " out of range at " << where;
    out.push_back(os.str());
  }
}

// V6 — every no-lock access must be covered, at its program point, by a
// must-held lock of sufficient mode. The check reuses transfer()'s own
// kLock coverage logic on a synthetic probe, so the verifier accepts
// exactly the coverage the optimizer would have used to eliminate the
// access's lock — the two can never disagree.
void verify_coverage(const Module& m, const MaySplit& ms,
                     std::vector<std::string>& diags) {
  for (const auto& [name, fptr] : m.functions) {
    const Function& f = *fptr;
    const auto in = solve_must_locked(f, ms);
    for (size_t b = 0; b < f.blocks.size(); b++) {
      if (in[b].top) continue;  // unreachable
      LockState st = in[b];

      auto covered = [&](int base, int loc, bool isElem, LockMode mode,
                         runtime::ClassInfo* cls) {
        Instr probe;
        probe.op = Op::kLock;
        probe.a = base;
        probe.b = isElem ? -1 : loc;
        probe.c = isElem ? loc : -1;
        probe.mode = mode;
        probe.cls = cls;
        LockState copy = st;
        bool cov = false;
        transfer(copy, probe, ms, &cov);
        return cov;
      };
      auto diag = [&](size_t blk, const char* what) {
        std::ostringstream os;
        os << f.name << ": " << what << " at b" << blk
           << " — not covered by a must-held lock of sufficient mode (V6)";
        diags.push_back(os.str());
      };

      for (const Instr& i : f.blocks[b].instrs) {
        switch (i.op) {
          case Op::kGetFNl:
            if (!covered(i.b, i.c, false, LockMode::kRead, i.cls))
              diag(b, "no-lock field read");
            break;
          case Op::kSetFNl:
            // Write coverage demands an exact write-mode fact (or a
            // this-transaction-new base): a read fact is a mode
            // mismatch, because the write's undo logging rides on the
            // eliminated lock.
            if (!covered(i.a, i.b, false, LockMode::kWrite, i.cls))
              diag(b, "no-lock field write");
            break;
          case Op::kGetENl:
            if (!covered(i.b, i.c, true, LockMode::kRead, i.cls))
              diag(b, "no-lock element read");
            break;
          case Op::kSetENl:
            if (!covered(i.a, i.b, true, LockMode::kWrite, i.cls))
              diag(b, "no-lock element write");
            break;
          default:
            break;
        }
        if (i.op == Op::kRet) break;  // the rest of the block is unreachable
        transfer(st, i, ms, nullptr);
      }
    }
  }
}
}  // namespace

std::vector<std::string> verify(const Module& m) {
  std::vector<std::string> diags;
  for (const auto& [name, fptr] : m.functions) {
    const Function& f = *fptr;
    if (f.isConstructor && f.canSplit)
      diags.push_back(f.name + ": constructors cannot be canSplit (V4)");
    if (f.blocks.empty()) diags.push_back(f.name + ": function has no blocks (V5)");
    if (f.numLocals > kMaxLocals)
      diags.push_back(f.name + ": frame exceeds backend local limit (V5)");
    if (f.numParams < 0 || f.numParams > f.numLocals)
      diags.push_back(f.name + ": param count exceeds locals (V5)");
    for (size_t bi = 0; bi < f.blocks.size(); bi++) {
      const Block& b = f.blocks[bi];
      std::ostringstream osb;
      osb << "b" << bi;
      const std::string where = osb.str();
      if (b.condLocal >= 0) {
        check_local(f, b.condLocal, false, where + " terminator", diags);
        if (b.next < 0 || b.next >= static_cast<int>(f.blocks.size()) || b.nextAlt < 0 ||
            b.nextAlt >= static_cast<int>(f.blocks.size()))
          diags.push_back(f.name + ": branch target out of range in " + where);
      } else if (b.next >= static_cast<int>(f.blocks.size())) {
        diags.push_back(f.name + ": jump target out of range in " + where);
      }
      for (const Instr& i : b.instrs) {
        switch (i.op) {
          case Op::kSplit:
            if (!f.canSplit)
              diags.push_back(f.name + ": split in a function without canSplit (V1)");
            break;
          case Op::kCall: {
            const Function* callee = m.get(i.calleeName);
            if (!callee) {
              diags.push_back(f.name + ": call to unknown function " + i.calleeName +
                              " (V5)");
              break;
            }
            if (callee->canSplit && !i.allowSplit)
              diags.push_back(f.name + ": call to canSplit " + i.calleeName +
                              " without allowSplit (V2)");
            if (i.allowSplit && !f.canSplit)
              diags.push_back(f.name + ": allowSplit call in a function without canSplit (V3)");
            if (static_cast<int>(i.args.size()) != callee->numParams)
              diags.push_back(f.name + ": arity mismatch calling " + i.calleeName +
                              " (V5)");
            for (int a : i.args) check_local(f, a, false, where + " call arg", diags);
            check_local(f, i.a, true, where + " call dst", diags);
            break;
          }
          case Op::kConst:
            check_local(f, i.a, false, where, diags);
            break;
          case Op::kMove:
          case Op::kLen:
            check_local(f, i.a, false, where, diags);
            check_local(f, i.b, false, where, diags);
            break;
          case Op::kBin:
          case Op::kGetE:
          case Op::kSetE:
          case Op::kGetENl:
          case Op::kSetENl:
            check_local(f, i.a, false, where, diags);
            check_local(f, i.b, false, where, diags);
            check_local(f, i.c, false, where, diags);
            break;
          case Op::kGetF:
          case Op::kGetFNl:
            // a = dst, b = base object; c is a field index, not a local.
            check_local(f, i.a, false, where, diags);
            check_local(f, i.b, false, where, diags);
            break;
          case Op::kSetF:
          case Op::kSetFNl:
            // a = base object, c = source; b is a field index.
            check_local(f, i.a, false, where, diags);
            check_local(f, i.c, false, where, diags);
            break;
          case Op::kLock:
            check_local(f, i.a, false, where, diags);
            if (i.c >= 0) check_local(f, i.c, false, where, diags);
            break;
          case Op::kNew:
            check_local(f, i.a, false, where, diags);
            if (!i.cls) diags.push_back(f.name + ": new with null class (V5)");
            break;
          case Op::kNewArr:
            check_local(f, i.a, false, where, diags);
            check_local(f, i.b, false, where, diags);
            break;
          case Op::kRet:
            check_local(f, i.a, true, where, diags);
            break;
          case Op::kPrint:
            check_local(f, i.a, false, where, diags);
            break;
        }
      }
    }
  }
  return diags;
}

std::vector<std::string> verify(const Module& m, const MaySplit& ms) {
  std::vector<std::string> diags = verify(m);
  // The dataflow indexes blocks and locals the structural pass
  // validates; only run it on structurally sound modules.
  if (diags.empty()) verify_coverage(m, ms, diags);
  return diags;
}

}  // namespace sbd::il
