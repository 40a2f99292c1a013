// Layer probes of the traced run, and the public-counter snapshot.
#include <sched.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "api/sbd.h"
#include "common/rng.h"
#include "core/transaction.h"
#include "db/db.h"
#include "net/http.h"
#include "runtime/heap.h"
#include "runtime/lockpool.h"
#include "serve/serve.h"
#include "workloads.h"

namespace perfbench {

int host_cores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return 1;
}

CounterSnapshot snapshot_counters() {
  CounterSnapshot s;
  s.stm = sbd::core::TxnManager::instance().snapshot_stats();
  s.park = sbd::core::ParkingLot::counters();
  s.gcRuns = sbd::core::gauges().gcRuns.load();
  s.heapAllocated = sbd::runtime::Heap::instance().stats().allocatedBytes;
  s.lockpoolReuses = sbd::runtime::LockPool::instance().stats().reuses;
  return s;
}

void report_counter_delta(const CounterSnapshot& a, const CounterSnapshot& b, Outcome& out) {
  const auto d = b.stm.diff(a.stm);
  auto c = [&](const char* name, uint64_t v) { out.set_layer(name, static_cast<double>(v), "count"); };
  c("core.commits", d.commits);
  c("core.aborts", d.aborts);
  out.set_layer("core.abort_ratio",
                d.commits + d.aborts ? static_cast<double>(d.aborts) / static_cast<double>(d.commits + d.aborts) : 0,
                "ratio");
  c("core.deadlocks_resolved", d.deadlocksResolved);
  c("core.escalations", d.escalations);
  c("core.contended_acquires", d.contendedAcquires);
  c("core.cas_failures", d.casFailures);
  c("core.parked", b.park.parked - a.park.parked);
  c("core.spun_granted", b.park.spunGranted - a.park.spunGranted);
  c("core.futex_wakes", b.park.futexWakes - a.park.futexWakes);
  c("core.handoffs", b.park.handoffs - a.park.handoffs);
  c("core.id_wakes", b.park.idWakes - a.park.idWakes);
  out.set_layer("core.rwset_bytes_per_txn",
                d.txnFootprints ? static_cast<double>(d.rwSetBytesSum) / static_cast<double>(d.txnFootprints) : 0,
                "bytes");
  c("runtime.versioned_reads", d.versionedReads);
  c("runtime.validations", d.validations);
  c("runtime.version_aborts", d.versionAborts);
  c("runtime.gc_runs", b.gcRuns - a.gcRuns);
  c("runtime.lockpool_reuses", b.lockpoolReuses - a.lockpoolReuses);
  out.set_layer("runtime.heap_bytes", static_cast<double>(b.heapAllocated - a.heapAllocated), "bytes");
}

namespace {

class ProbeField : public sbd::runtime::TypedRef<ProbeField> {
 public:
  SBD_CLASS(PerfProbeField, SBD_SLOT("value"))
  SBD_FIELD_I64(0, value)
};

class ProbeVField : public sbd::runtime::TypedRef<ProbeVField> {
 public:
  SBD_CLASS(PerfProbeVField, SBD_SLOT("value"))
  SBD_FIELD_I64(0, value)
};

enum class Effect { kNew, kOwned, kAcqRls, kVersioned };

// One Table 6 cell: ns per random access over `instances` objects.
template <typename F>
double table6_cell(Effect e, bool write, uint64_t ops, uint64_t instances, uint64_t seed) {
  std::vector<sbd::runtime::ManagedObject*> objs(instances);
  double ns = 0;
  sbd::run_sbd([&] {
    auto& tc = sbd::context();
    for (uint64_t i = 0; i < instances; i++) {
      F f = F::alloc();
      f.init_value(static_cast<int64_t>(i));
      objs[i] = f.raw();
    }
    if (e != Effect::kNew) sbd::split(tc);
    if (e == Effect::kOwned)
      for (auto* o : objs) {
        F f(o);
        if (write) f.set_value(tc, 1);
        else (void)f.value(tc);
      }
    sbd::Rng rng(seed);
    volatile int64_t sink = 0;
    const bool splitEach = e == Effect::kAcqRls || e == Effect::kVersioned;
    const uint64_t t = now_ns();
    for (uint64_t i = 0; i < ops; i++) {
      F f(objs[rng.below(instances)]);
      if (write) f.set_value(tc, static_cast<int64_t>(i));
      else sink = sink + f.value(tc);
      if (splitEach) sbd::split(tc);
    }
    ns = static_cast<double>(now_ns() - t) / static_cast<double>(ops);
  });
  return ns;
}

}  // namespace

void run_micro_probes(const Params& p, Outcome& out) {
  const uint64_t ops = p.tiny ? 2000 : 100000;
  const uint64_t inst = p.tiny ? 500 : 10000;
  sbd::set_lock_granularity(ProbeVField::klass(), sbd::LockGranularity::kVersioned);
  const struct {
    Effect e;
    const char* name;
  } cells[] = {{Effect::kNew, "new"}, {Effect::kOwned, "owned"}, {Effect::kAcqRls, "acqrls"},
               {Effect::kVersioned, "versioned"}};
  for (bool write : {false, true})
    for (const auto& c : cells) {
      const double ns = c.e == Effect::kVersioned
                            ? table6_cell<ProbeVField>(c.e, write, ops, inst, p.seed)
                            : table6_cell<ProbeField>(c.e, write, ops, inst, p.seed);
      out.set_layer(std::string(write ? "runtime.write_ns." : "runtime.read_ns.") + c.name, ns, "ns");
    }

  // HTTP parse and serialize over serve-kv's own request bytes.
  const auto wires = serve_kv_request_bytes(p.seed, p.tiny ? 500 : 20000);
  uint64_t t = now_ns();
  size_t parsed = 0;
  for (const std::string& w : wires) {
    size_t off = 0;
    auto readFn = [&](void* buf, size_t n) {
      const size_t k = std::min(n, w.size() - off);
      std::memcpy(buf, w.data() + off, k);
      off += k;
      return k;
    };
    sbd::net::HttpRequest req;
    if (sbd::net::read_request_status(readFn, req) == sbd::net::ReadStatus::kOk) parsed++;
  }
  out.set_layer("net.parse_request_ns", static_cast<double>(now_ns() - t) / static_cast<double>(wires.size()), "ns");
  out.gate(parsed == wires.size(), "probe: HTTP parser rejected serve-kv request bytes");
  t = now_ns();
  size_t bytes = 0;
  for (size_t i = 0; i < wires.size(); i++) {
    sbd::net::HttpResponse resp;
    resp.status = i % 10 == 9 ? 409 : (i % 5 == 4 ? 201 : 200);
    resp.body = with_number("v", static_cast<long long>(i));
    bytes += sbd::net::serialize(resp).size();
  }
  out.set_layer("net.serialize_response_ns", static_cast<double>(now_ns() - t) / static_cast<double>(wires.size()), "ns");
  out.info["probe.response_bytes"] = static_cast<double>(bytes);

  // sbd::db statements of serve-kv against warm tables.
  sbd::db::Database db;
  sbd::serve::ensure_tables(db);
  sbd::serve::seed_accounts(db, 256, 1000);
  auto c = db.connect();
  for (int64_t k = 0; k < 4096; k++) c->execute("INSERT INTO kv VALUES (?, ?)", {k, std::string("v")});
  sbd::Rng rng(p.seed);
  const int reps = p.tiny ? 200 : 4000;
  std::vector<double> get, put, txfer;
  for (int i = 0; i < reps; i++) {
    const int64_t key = static_cast<int64_t>(rng.below(4096));
    uint64_t s = now_ns();
    c->execute("SELECT v FROM kv WHERE k = ?", {key});
    get.push_back(static_cast<double>(now_ns() - s) / 1e3);
    s = now_ns();
    c->execute("UPDATE kv SET v = ? WHERE k = ?", {with_number("w", i), key});
    put.push_back(static_cast<double>(now_ns() - s) / 1e3);
    const int64_t from = static_cast<int64_t>(rng.below(256)), to = static_cast<int64_t>(rng.below(256));
    s = now_ns();
    c->begin();
    const int64_t fb = c->execute("SELECT balance FROM accounts WHERE id = ?", {from}).int_at(0, 0);
    const int64_t tb = c->execute("SELECT balance FROM accounts WHERE id = ?", {to}).int_at(0, 0);
    if (from != to) {
      c->execute("UPDATE accounts SET balance = ? WHERE id = ?", {fb - 1, from});
      c->execute("UPDATE accounts SET balance = ? WHERE id = ?", {tb + 1, to});
    }
    c->commit();
    txfer.push_back(static_cast<double>(now_ns() - s) / 1e3);
  }
  out.set_layer("db.exec_us.get", median(get), "us");
  out.set_layer("db.exec_us.put", median(put), "us");
  out.set_layer("db.exec_us.txfer", median(txfer), "us");
  out.gate(sbd::serve::total_balance(db) == 256 * 1000, "probe: db transfers lost balance");
}

}  // namespace perfbench
