// STM statistics: the per-effect lock-operation counters of Table 7,
// the conflict counters of Table 9 (aborts, contended acquires, CAS
// failures), and the memory accounting of Table 8.
//
// Counters are kept per thread (plain uint64_t increments on the fast
// path) and aggregated on demand by the TxnManager.
#pragma once

#include <atomic>
#include <cstdint>

namespace sbd::core {

// Every per-thread counter, in declaration (and metrics JSON) order.
// The fields, add(), diff() and the "counters" object of
// obs::metrics_json() are all generated from this one list.
#define SBD_STATS_COUNTERS(X)                                                     \
  /* Lock-operation effects exactly as the paper subdivides them (§5.3): */       \
  X(lockInit)          /* Init: initialize the locks field of a new instance */   \
  X(checkNew)          /* CheckNew: instance is new in this transaction */        \
  X(checkOwned)        /* CheckOwned: lock already held, check only */            \
  X(acqRls)            /* AcqRls: acquire + (deferred) release incl. undo */      \
  X(commits)                                                                      \
  X(aborts)                                                                       \
  X(contendedAcquires) /* went through a wait queue */                            \
  X(casFailures)       /* lost a CAS race on a lock word */                       \
  X(deadlocksResolved)                                                            \
  X(escalations)       /* retry budget exhausted -> serialized retry */           \
  /* Versioned (invisible-reader) granularity, LockMap::kVersioned: */            \
  X(versionedReads)    /* stamp-validated reads (no lock-word store) */           \
  X(validations)       /* read-set entries re-validated at split/commit */        \
  X(versionAborts)     /* stale read / write conflict / validation fail */        \
  /* Transaction-footprint accounting (Table 8): peak bytes per       */          \
  /* transaction, summed over committed/aborted transactions, plus    */          \
  /* the count, so the harness can report averages.                   */          \
  X(rwSetBytesSum)     /* lock records + undo entries (old values) */             \
  X(bufferBytesSum)    /* transactional I/O buffers */                            \
  X(initLogBytesSum)   /* new-instance log */                                     \
  X(txnFootprints)     /* number of transactions sampled */

struct StatsCounters {
#define SBD_STATS_FIELD(name) uint64_t name = 0;
  SBD_STATS_COUNTERS(SBD_STATS_FIELD)
#undef SBD_STATS_FIELD

  void add(const StatsCounters& o) {
#define SBD_STATS_ADD(name) name += o.name;
    SBD_STATS_COUNTERS(SBD_STATS_ADD)
#undef SBD_STATS_ADD
  }

  StatsCounters diff(const StatsCounters& earlier) const {
    StatsCounters d = *this;
#define SBD_STATS_SUB(name) d.name -= earlier.name;
    SBD_STATS_COUNTERS(SBD_STATS_SUB)
#undef SBD_STATS_SUB
    return d;
  }
};

// Globally shared gauges that are not per-thread.
struct GlobalGauges {
  std::atomic<uint64_t> lockStructBytes{0};  // live lock structures (Table 8 "Locks")
  std::atomic<uint64_t> heapBytes{0};        // live managed heap (Table 8 "Baseline")
  std::atomic<uint64_t> gcRuns{0};
  // Live version-stamp words of versioned-mapped classes. These are not
  // reader bit-sets, so Table 8 reports them in their own column rather
  // than inflating "Locks".
  std::atomic<uint64_t> versionWordBytes{0};
};

GlobalGauges& gauges();

}  // namespace sbd::core
