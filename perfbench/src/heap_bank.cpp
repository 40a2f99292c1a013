// heap-bank: a closed loop of SbdThreads running back-to-back atomic
// sections over managed Account objects — the one workload whose
// sections contend, so field locks, parking, deadlock resolution,
// abort-and-replay and versioned validation decide its time.
//
// Per section (drawn from a per-thread seeded stream):
//   ~90%   transfer: read the fee object, read two balances, write two
//          (source Zipf(0.9), destination uniform)
//   ~10%   audit: sum a window of 64 consecutive accounts (read-only)
//   0.05%  admin: rewrite the fee
// The fee's class is pinned to versioned granularity, so transfers read
// it without locking and an admin write makes them re-validate. The
// total balance is checked at the end.
//
// Latency of a section runs from the previous commit of the same thread
// to this one, so aborted attempts and their replays are charged to the
// section that finally commits.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "api/sbd.h"
#include "common/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

class Account : public sbd::runtime::TypedRef<Account> {
 public:
  SBD_CLASS(PerfBankAccount, SBD_SLOT("balance"))
  SBD_FIELD_I64(0, balance)
};

class Fee : public sbd::runtime::TypedRef<Fee> {
 public:
  SBD_CLASS(PerfBankFee, SBD_SLOT("fee"))
  SBD_FIELD_I64(0, fee)
};

constexpr int64_t kBalance = 1000;
constexpr uint64_t kAdminPer10k = 5;
constexpr uint64_t kAuditPer10k = 1000;  // includes the admin share
constexpr int kAuditWindow = 64;
constexpr uint64_t kSpanSample = 64;  // traced: spans for 1 section in 64

enum Kind : uint8_t { kTransfer, kAudit, kAdmin };

// Per-thread state in native memory: an abort restores the SBD stack,
// not this, so each committed section is recorded exactly once.
struct ThreadState {
  std::vector<Histogram> readWin, writeWin;  // audits / transfers+admin
  Histogram split;
  uint64_t sectionStart = 0;
  uint64_t splitStart = 0;
  uint64_t recordedK = 0;
  uint8_t kind = kTransfer;
  volatile int64_t sink = 0;
};

struct Bank {
  sbd::runtime::GlobalRoot<sbd::runtime::RefArray<Account>> root;
  sbd::runtime::GlobalRoot<Fee> fee;
  std::vector<sbd::runtime::ManagedObject*> accounts;  // read-only after set-up
};

void set_up(Bank& bank, int n) {
  sbd::run_sbd([&] {
    auto arr = sbd::runtime::RefArray<Account>::make(static_cast<uint64_t>(n));
    bank.accounts.assign(static_cast<size_t>(n), nullptr);
    for (int i = 0; i < n; i++) {
      Account a = Account::alloc();
      a.init_balance(kBalance);
      arr.init_set(static_cast<uint64_t>(i), a);
      bank.accounts[static_cast<size_t>(i)] = a.raw();
    }
    Fee f = Fee::alloc();
    f.init_fee(1);
    bank.root.set(arr);
    bank.fee.set(f);
  });
}

void worker(int id, uint64_t seed, const Bank& bank, const Zipf& zipf, uint64_t measureStart,
            uint64_t windowNs, uint64_t endNs, ThreadState& st) {
  auto& tc = sbd::context();
  const uint64_t n = bank.accounts.size();
  Fee fee = bank.fee.get();
  sbd::Rng rng(sbd::mix64(seed * 0x9e37 + static_cast<uint64_t>(id)));
  uint64_t k = 0;
  st.sectionStart = now_ns();
  while (st.sectionStart < endNs) {
    const uint64_t r = rng.below(10000);
    if (r < kAdminPer10k) {
      st.kind = kAdmin;
      fee.set_fee(tc, 1 + static_cast<int64_t>(rng.below(3)));
    } else if (r < kAuditPer10k) {
      st.kind = kAudit;
      const uint64_t start = rng.below(n);
      int64_t sum = 0;
      for (int i = 0; i < kAuditWindow; i++)
        sum += Account(bank.accounts[(start + static_cast<uint64_t>(i)) % n]).balance(tc);
      st.sink = sum;
    } else {
      st.kind = kTransfer;
      const uint64_t from = static_cast<uint64_t>(zipf.sample(rng.unit()));
      uint64_t to = rng.below(n);
      if (to == from) to = (to + 1) % n;
      Account a(bank.accounts[from]), b(bank.accounts[to]);
      const int64_t amount = 1 + fee.fee(tc);
      const int64_t ab = a.balance(tc);
      if (ab >= amount) {
        a.set_balance(tc, ab - amount);
        b.set_balance(tc, b.balance(tc) + amount);
      }
    }
    k++;
    st.splitStart = now_ns();
    sbd::split(tc);
    // Resumes here after the commit, and again after every abort of the
    // next section (the stack, k included, is restored to this point).
    if (st.recordedK != k) {
      const uint64_t t = now_ns();
      st.recordedK = k;
      if (st.sectionStart >= measureStart) {
        const size_t w = (st.sectionStart - measureStart) / windowNs;
        if (w < st.readWin.size())
          (st.kind == kAudit ? st.readWin : st.writeWin)[w].add(t - st.sectionStart);
        st.split.add(t - st.splitStart);
        if (trace::enabled() && k % kSpanSample == 0) {
          const int32_t sec = trace::record("bank.section", st.sectionStart, t, -1, k);
          trace::record("core.split", st.splitStart, t, sec, k);
        }
      }
      st.sectionStart = t;
    }
  }
}

}  // namespace

Outcome run_heap_bank(const Params& p) {
  Outcome out;
  const int n = p.tiny ? 256 : 4096;
  const int threads = p.tiny ? 2 : std::min(4, host_cores());
  const int setups = (p.mini || p.tiny || p.traced) ? 1 : 9;
  const double seconds = (p.mini || p.tiny) ? std::min(p.seconds, 0.5) : p.seconds;
  sbd::set_lock_granularity(Fee::klass(), sbd::LockGranularity::kVersioned);

  Bank bank;
  std::vector<double> setupS;
  for (int i = 0; i < setups; i++) {
    const uint64_t t = now_ns();
    set_up(bank, n);
    setupS.push_back(static_cast<double>(now_ns() - t) / 1e9);
  }

  const Zipf zipf(n, 0.9);
  // Figures are medians over 0.5 s windows, so a stall of the host (a
  // vCPU descheduled for tens of ms) spoils one window, not the run.
  const size_t windows = static_cast<size_t>(std::max(1.0, seconds / 0.5));
  const uint64_t windowNs = static_cast<uint64_t>(seconds * 1e9 / static_cast<double>(windows));
  std::vector<std::unique_ptr<ThreadState>> states;
  for (int t = 0; t < threads; t++) {
    auto st = std::make_unique<ThreadState>();
    st->readWin.resize(windows);
    st->writeWin.resize(windows);
    states.push_back(std::move(st));
  }
  const uint64_t warmupNs = p.mini || p.tiny ? 50'000'000 : 250'000'000;
  const uint64_t measureStart = now_ns() + warmupNs;
  const uint64_t endNs = measureStart + windowNs * windows;
  {
    std::vector<sbd::SbdThread> ts;
    for (int t = 0; t < threads; t++)
      ts.emplace_back([&, t] {
        worker(t, p.seed, bank, zipf, measureStart, windowNs, endNs, *states[static_cast<size_t>(t)]);
      });
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }
  // Conservation.
  int64_t total = 0;
  sbd::run_sbd([&] {
    for (auto* o : bank.accounts) total += Account(o).balance();
  });
  int64_t expected = kBalance * n;
  if (p.inject == "bank-conservation") expected += 1;
  out.gate(total == expected, "heap-bank: balance not conserved (" + std::to_string(expected) +
                                  " expected, " + std::to_string(total) + " found)");

  std::vector<double> p50s, p99s, readP99s, writeP99s, rates;
  Histogram split, reads, writes;
  uint64_t sections = 0;
  for (size_t w = 0; w < windows; w++) {
    Histogram r, wr;
    for (auto& st : states) {
      r.merge(st->readWin[w]);
      wr.merge(st->writeWin[w]);
    }
    reads.merge(r);
    writes.merge(wr);
    Histogram both = r;
    both.merge(wr);
    sections += both.count();
    rates.push_back(static_cast<double>(both.count()) * 1e9 / static_cast<double>(windowNs));
    p50s.push_back(both.quantile_ns(0.5) / 1e6);
    p99s.push_back(both.quantile_ns(0.99) / 1e6);
    readP99s.push_back(r.quantile_ns(0.99) / 1e6);
    writeP99s.push_back(wr.quantile_ns(0.99) / 1e6);
  }
  for (auto& st : states) split.merge(st->split);
  const double throughput = median(rates);

  out.attempted = sections;
  out.failed = out.correct() ? 0 : 1;
  out.cost = 1.0 / std::max(throughput, 1e-9);
  out.set_e2e("setup_s", median(setupS), "s");
  out.set_e2e("p50_ms", median(p50s), "ms");
  out.info["bank.throughput_ops_s"] = throughput;
  out.info["bank.p99_ms"] = median(p99s);
  out.info["bank.read_p99_ms"] = median(readP99s);
  out.info["bank.write_p99_ms"] = median(writeP99s);
  out.info["bank.audits"] = static_cast<double>(reads.count());
  out.info["bank.transfers"] = static_cast<double>(writes.count());
  out.info["bank.threads"] = threads;
  if (p.traced) {
    out.set_layer("bank.throughput_ops_s", throughput, "1/s");
    out.set_layer("bank.p99_ms", median(p99s), "ms");
    out.set_layer("bank.read_p99_ms", median(readP99s), "ms");
    out.set_layer("bank.write_p99_ms", median(writeP99s), "ms");
    out.set_layer("core.split_ns.p50", split.quantile_ns(0.5), "ns");
    out.set_layer("core.split_ns.p99", split.quantile_ns(0.99), "ns");
  }
  return out;
}

}  // namespace perfbench
