#include "il/summary.h"

#include "runtime/lockplan.h"

namespace sbd::il {

// ---------------------------------------------------------------------------
// Must-locked dataflow state
// ---------------------------------------------------------------------------

// A fact encodes: base local | location (field index or element-index
// local) | field-vs-element | mode.
uint64_t fact_key(int base, int fieldOrIdx, bool isElem, LockMode mode) {
  return (static_cast<uint64_t>(base) << 32) |
         (static_cast<uint64_t>(static_cast<uint32_t>(fieldOrIdx)) << 2) |
         (isElem ? 2u : 0u) | (mode == LockMode::kWrite ? 1u : 0u);
}

bool map_is_static(const runtime::ClassInfo* cls) {
  using runtime::lockplan::Mode;
  return runtime::lockplan::mode() != Mode::kAdaptive ||
         cls->lockMapPinned.load(std::memory_order_relaxed);
}

// Versioned maps need no special casing in this analysis. Invisible
// reads exist only on the value paths (kGetF/kGetE -> tx_read*), which
// O1 never rewrites; a kLock on a versioned class acquires the covered
// word EXCLUSIVELY (runtime/field_access.h pins the IL path to
// versioned_acquire_write), so a held fact still means "this word
// cannot change until the section ends" — exactly the invariant
// redundant-lock elimination relies on. If kLock were ever lowered to
// an invisible read-set append instead, eliminating a covered re-lock
// would skip that read's stale check and admit zombie executions; any
// such change must add a versioned gate here.

namespace {

template <typename Set>
bool intersect_into(Set& dst, const Set& other) {
  bool changed = false;
  for (auto it = dst.begin(); it != dst.end();) {
    if (!other.count(*it)) {
      it = dst.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }
  return changed;
}

// Mapped lock index, when the static class annotation and its
// immutable LockMap determine it: any map kind for field locks
// (constant field index), object maps for element locks (every
// index hits word 0 regardless of the index local's value). -1 when
// the class is unknown, its map may still change, or the element
// index is dynamic under a non-object map.
int mapped_lock_index(const Instr& i) {
  const bool isElem = i.c >= 0;
  if (i.cls == nullptr || !map_is_static(i.cls)) return -1;
  const runtime::LockMap map = i.cls->lock_map();
  if (!isElem) return static_cast<int>(map.index(static_cast<uint32_t>(i.b)));
  if (map.kind == runtime::LockMap::kObject) return 0;
  return -1;
}

}  // namespace

bool LockState::meet(const LockState& other) {
  if (other.top) return false;
  if (top) {
    top = false;
    facts = other.facts;
    mapped = other.mapped;
    newLocals = other.newLocals;
    return true;
  }
  bool changed = false;
  changed |= intersect_into(facts, other.facts);
  changed |= intersect_into(mapped, other.mapped);
  changed |= intersect_into(newLocals, other.newLocals);
  return changed;
}

void LockState::kill_local(int l) {
  newLocals.erase(l);
  for (auto it = facts.begin(); it != facts.end();) {
    const int base = static_cast<int>(*it >> 32);
    const bool isElem = (*it & 2u) != 0;
    const int loc = static_cast<int>((*it >> 2) & 0x3FFFFFFF);
    if (base == l || (isElem && loc == l))
      it = facts.erase(it);
    else
      ++it;
  }
  // Mapped facts never reference an index local (element form exists
  // only for object maps, where the index is irrelevant), so only
  // the base can die.
  for (auto it = mapped.begin(); it != mapped.end();) {
    if (it->base == l)
      it = mapped.erase(it);
    else
      ++it;
  }
}

void LockState::clear_all() {
  facts.clear();
  mapped.clear();
  newLocals.clear();
}

bool LockState::covers(int base, int fieldOrIdx, bool isElem, LockMode mode) const {
  if (newLocals.count(base)) return true;  // new instances need no lock
  if (facts.count(fact_key(base, fieldOrIdx, isElem, LockMode::kWrite))) return true;
  if (mode == LockMode::kRead &&
      facts.count(fact_key(base, fieldOrIdx, isElem, LockMode::kRead)))
    return true;
  return false;
}

bool LockState::covers_mapped(int base, uint32_t lockIdx,
                              const runtime::ClassInfo* cls) const {
  return mapped.count(MappedFact{base, lockIdx, true, cls}) ||
         mapped.count(MappedFact{base, lockIdx, false, cls});
}

bool may_split(const MaySplit& ms, const std::string& callee) {
  auto it = ms.find(callee);
  return it == ms.end() || it->second;
}

void transfer(LockState& st, const Instr& i, const MaySplit& ms, bool* coveredLock) {
  if (coveredLock) *coveredLock = false;
  switch (i.op) {
    case Op::kLock: {
      const bool isElem = i.c >= 0;
      const int loc = isElem ? i.c : i.b;
      const int mappedIdx = mapped_lock_index(i);
      bool covered = st.covers(i.a, loc, isElem, i.mode);
      if (!covered && mappedIdx >= 0 && i.mode == LockMode::kRead)
        covered = st.covers_mapped(i.a, static_cast<uint32_t>(mappedIdx), i.cls);
      if (covered) {
        if (coveredLock) *coveredLock = true;
        return;  // no new fact; the covering fact remains
      }
      st.facts.insert(fact_key(i.a, loc, isElem, i.mode));
      if (mappedIdx >= 0)
        st.mapped.insert(MappedFact{i.a, static_cast<uint32_t>(mappedIdx),
                                    i.mode == LockMode::kWrite, i.cls});
      return;
    }
    case Op::kSplit:
      st.clear_all();
      return;
    case Op::kNew:
    case Op::kNewArr: {
      st.kill_local(i.a);
      st.newLocals.insert(i.a);
      return;
    }
    case Op::kMove: {
      // Copy propagation: after a = b both locals alias the same object,
      // so facts on b transfer to a. This is what lets the analysis see
      // through the argument moves the inliner introduces.
      const bool srcNew = st.newLocals.count(i.b) > 0;
      std::vector<uint64_t> copied;
      for (uint64_t k : st.facts) {
        if (static_cast<int>(k >> 32) == i.b)
          copied.push_back((k & 0xFFFFFFFFull) | (static_cast<uint64_t>(i.a) << 32));
      }
      std::vector<MappedFact> copiedMapped;
      for (const MappedFact& mf : st.mapped) {
        if (mf.base == i.b) {
          MappedFact c = mf;
          c.base = i.a;
          copiedMapped.push_back(c);
        }
      }
      st.kill_local(i.a);
      if (i.a != i.b) {
        st.facts.insert(copied.begin(), copied.end());
        st.mapped.insert(copiedMapped.begin(), copiedMapped.end());
        if (srcNew) st.newLocals.insert(i.a);
      }
      return;
    }
    case Op::kCall:
      if (may_split(ms, i.calleeName)) st.clear_all();
      [[fallthrough]];
    default: {
      const int d = defined_local(i);
      if (d >= 0) st.kill_local(d);
      return;
    }
  }
}

std::vector<LockState> solve_must_locked(const Function& f, const MaySplit& ms) {
  const size_t n = f.blocks.size();
  auto preds = predecessors(f);
  std::vector<LockState> in(n), out(n);
  if (n == 0) return in;
  in[0].top = false;  // entry starts with no facts

  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t b = 0; b < n; b++) {
      LockState cur = in[b];
      for (size_t p = 0; p < preds[b].size(); p++)
        cur.meet(out[static_cast<size_t>(preds[b][p])]);
      if (b == 0) cur.top = false;
      LockState o = cur;
      if (!o.top) {
        for (const Instr& i : f.blocks[b].instrs) {
          transfer(o, i, ms, nullptr);
          if (i.op == Op::kRet) break;  // the rest of the block is unreachable
        }
      }
      if (!(o == out[b])) {
        out[b] = std::move(o);
        changed = true;
      }
      in[b] = std::move(cur);
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// maySplit: least fixpoint over the module
// ---------------------------------------------------------------------------

// Every function starts at false and flips to true — never back — once
// it holds a kSplit or a call to an unknown or maySplit callee, so the
// iteration ends after at most one round per function. A cycle with no
// split anywhere stays false: the section cannot end inside it.
MaySplit compute_summaries(const Module& m) {
  MaySplit ms;
  for (const auto& [name, f] : m.functions) ms[name] = false;
  auto splits = [&](const Function& f) {
    for (const Block& b : f.blocks)
      for (const Instr& i : b.instrs)
        if (i.op == Op::kSplit || (i.op == Op::kCall && may_split(ms, i.calleeName)))
          return true;
    return false;
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& [name, f] : m.functions)
      if (!ms[name] && splits(*f)) ms[name] = changed = true;
  }
  return ms;
}

}  // namespace sbd::il
