// The four perfbench workloads and the traced run's layer probes.
#pragma once

#include "common.h"
#include "core/queue.h"
#include "core/stats.h"

namespace perfbench {

Outcome run_serve_kv(const Params& p);
Outcome run_heap_bank(const Params& p);
Outcome run_dacapo(const Params& p);
Outcome run_il(const Params& p);

// Snapshot of the runtime's public counters (TxnManager, ParkingLot,
// Heap, LockPool); a traced phase reports the difference.
struct CounterSnapshot {
  sbd::core::StatsCounters stm;
  sbd::core::ParkingLot::Counters park;
  uint64_t gcRuns = 0;
  uint64_t heapAllocated = 0;
  uint64_t lockpoolReuses = 0;
};
CounterSnapshot snapshot_counters();
void report_counter_delta(const CounterSnapshot& before, const CounterSnapshot& after,
                          Outcome& out);

// Per-access and per-request probes of the traced run: the Table 6
// cells (New / Owned / Acq&Rls / Versioned), HTTP parse and serialize
// over serve-kv's own request bytes, and sbd::db statement timings.
void run_micro_probes(const Params& p, Outcome& out);

// The wire bytes of `count` serve-kv requests drawn from `seed`.
std::vector<std::string> serve_kv_request_bytes(uint64_t seed, int count);

int host_cores();

}  // namespace perfbench
