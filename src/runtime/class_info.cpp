#include "runtime/class_info.h"

#include <mutex>

#include "common/check.h"
#include "runtime/heap.h"
#include "runtime/lockplan.h"
#include "runtime/object.h"

namespace sbd::runtime {

namespace {
std::mutex gClassMu;
// Leaked on purpose, like the ClassInfos it lists: a static vector
// would be destroyed at exit, leaving every ClassInfo unreachable, and
// LeakSanitizer reports each as a direct leak.
std::vector<ClassInfo*>& class_list() {
  static auto* list = new std::vector<ClassInfo*>();
  return *list;
}
}  // namespace

ClassInfo* register_class(const std::string& name, const std::vector<SlotDesc>& slots,
                          const std::vector<SlotDesc>& staticSlots) {
  SBD_CHECK_MSG(slots.size() <= kMaxSlots, "too many instance slots");
  SBD_CHECK_MSG(staticSlots.size() <= kMaxSlots, "too many static slots");
  auto* ci = new ClassInfo();
  ci->name = name;
  ci->slotCount = static_cast<uint32_t>(slots.size());
  for (uint32_t i = 0; i < ci->slotCount; i++) {
    if (slots[i].isRef) ci->refMask |= 1ULL << i;
    if (slots[i].isFinal) ci->finalMask |= 1ULL << i;
    ci->slotNames.emplace_back(slots[i].name);
  }
  ci->staticSlotCount = static_cast<uint32_t>(staticSlots.size());
  for (uint32_t i = 0; i < ci->staticSlotCount; i++)
    if (staticSlots[i].isRef) ci->staticRefMask |= 1ULL << i;

  if (ci->staticSlotCount > 0) {
    // The statics holder is itself a managed object so static accesses
    // get field-granularity locking. It is registered pre-transactionally.
    // (Its synthetic ::statics class is not in the class list, so it
    // keeps the default field map forever.)
    ci->statics = Heap::instance().alloc_statics_holder(ci);
  }
  // Applies the SBD_LOCK_GRANULARITY initial map; must precede
  // publication — no instance may be allocated under the default map.
  lockplan::on_class_registered(ci);
  std::lock_guard<std::mutex> lk(gClassMu);
  class_list().push_back(ci);
  return ci;
}

void for_each_class(const std::function<void(ClassInfo*)>& fn) {
  std::lock_guard<std::mutex> lk(gClassMu);
  for (ClassInfo* ci : class_list()) fn(ci);
}

ClassInfo* array_class(ElemKind kind) {
  // Array classes go through the same registration hook and class list
  // as named classes: the lockplan controller must see them (array
  // singletons are its most profitable coarsening targets), and the GC
  // statics walk tolerates their statics == nullptr.
  auto make = [](const char* name, ElemKind k) {
    auto* c = new ClassInfo();
    c->name = name;
    c->isArray = true;
    c->elemKind = k;
    lockplan::on_class_registered(c);
    std::lock_guard<std::mutex> lk(gClassMu);
    class_list().push_back(c);
    return c;
  };
  static ClassInfo* i8 = make("byte[]", ElemKind::kI8);
  static ClassInfo* i64 = make("long[]", ElemKind::kI64);
  static ClassInfo* f64 = make("double[]", ElemKind::kF64);
  static ClassInfo* ref = make("Object[]", ElemKind::kRef);
  switch (kind) {
    case ElemKind::kI8:
      return i8;
    case ElemKind::kI64:
      return i64;
    case ElemKind::kF64:
      return f64;
    case ElemKind::kRef:
      return ref;
    default:
      SBD_CHECK_MSG(false, "not an array kind");
      return nullptr;
  }
}

}  // namespace sbd::runtime
