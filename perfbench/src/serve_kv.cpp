// serve-kv: open-loop HTTP load on sbd::serve over sbd::db.
//
// Requests are 70:20:10 GET /kv/<k> : PUT /kv/<k> : POST /txfer, keys
// and transfer sources drawn Zipf(0.9), with 1% connection churn. Each
// client thread owns one keep-alive connection and sends request j at
// its due time t0 + j/rate; latency is timed from the due time, so a
// stall is charged to every request queued behind it. A request that
// fails (dead connection, unexpected status) counts as missing every
// latency limit. Clients plus server workers never exceed the core
// count.
//
// Phases: (1) latency at the fixed nominal rate, reported as the median
// over 100 ms windows of each window's p50/p99; (2) a search for the
// highest rate whose p99 meets the limit with no growing backlog.
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/queue.h"
#include "core/transaction.h"
#include "db/db.h"
#include "net/http.h"
#include "net/loopback.h"
#include "runtime/heap.h"
#include "serve/serve.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kZipfTheta = 0.9;
constexpr double kChurn = 0.01;
constexpr double kSloP99Ms = 10.0;
constexpr int64_t kBalance = 1000;

struct Sizes {
  int keys = 4096;
  int accounts = 256;
  double nominalRps = 20000;
  int setups = 5;
};

enum Kind : uint8_t { kGet, kPut, kTxfer };

struct Record {
  float latencyMs;  // from the due time; +inf when the request failed
  float lagMs;      // generator lateness (see client_loop)
  uint32_t dueMs;   // due time relative to the phase start
  uint8_t kind;
};

struct ClientResult {
  std::vector<Record> recs;
  uint64_t failed = 0;      // dead connection or unparseable response
  uint64_t badStatus = 0;   // anything but 200/201/404/409
  uint64_t status5xx = 0;
  uint64_t reconnects = 0;
};

sbd::net::HttpRequest make_request(sbd::Rng& rng, const Zipf& keys, const Zipf& accts,
                                   uint64_t j, Kind& kind) {
  sbd::net::HttpRequest req;
  const uint64_t pick = rng.below(100);
  if (pick < 70) {
    kind = kGet;
    req.method = "GET";
    req.path = with_number("/kv/", keys.sample(rng.unit()));
  } else if (pick < 90) {
    kind = kPut;
    req.method = "PUT";
    req.path = with_number("/kv/", keys.sample(rng.unit()));
    req.body = with_number("v", static_cast<long long>(j));
  } else {
    kind = kTxfer;
    const int from = accts.sample(rng.unit());
    const int to = accts.sample(rng.unit());
    req.method = "POST";
    req.path = "/txfer";
    req.body = "from=" + std::to_string(from) + "&to=" + std::to_string(to) + "&amount=1";
  }
  return req;
}

bool gRejectGet200 = false;  // self-test: --inject serve-status

bool status_allowed(Kind k, int status) {
  switch (k) {
    case kGet: return (status == 200 && !gRejectGet200) || status == 404;
    case kPut: return status == 200 || status == 201;
    case kTxfer: return status == 200 || status == 409;
  }
  return false;
}


struct Phase {
  double rps;
  double seconds;
  uint64_t seedTag;
};

// The generator and the server run on disjoint cores: client i on the
// i-th allowed CPU, the server threads on the rest. Without this the
// wake-up path of a request depended on where the scheduler happened to
// put the two sides, and the median moved by a third between runs.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; c++)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

void pin_to(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

void client_loop(int id, int clients, int port, const Phase& ph, uint64_t seed,
                 const Zipf& keys, const Zipf& accts, Clock::time_point t0,
                 ClientResult& out) {
  sbd::Rng rng(sbd::mix64(seed ^ (ph.seedTag << 20) ^ static_cast<uint64_t>(id) ^ 0xc11e47ULL));
  sbd::net::Socket sock;
  // Sleep to each due time with 1 us timer slack instead of the default
  // 50 us, so the generator is punctual without spinning on a core.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  const auto cpus = allowed_cpus();
  if (static_cast<int>(cpus.size()) > clients) pin_to({cpus[static_cast<size_t>(id)]});
  const uint64_t total = static_cast<uint64_t>(ph.rps * ph.seconds);
  const double perReqNs = 1e9 / ph.rps;
  out.recs.reserve(total / static_cast<uint64_t>(clients) + 1);
  auto prevDone = t0;
  for (uint64_t j = static_cast<uint64_t>(id); j < total; j += static_cast<uint64_t>(clients)) {
    Kind kind;
    const sbd::net::HttpRequest req = make_request(rng, keys, accts, j, kind);
    const std::string wire = sbd::net::serialize(req);
    const auto due = t0 + std::chrono::nanoseconds(static_cast<int64_t>(perReqNs * static_cast<double>(j)));
    std::this_thread::sleep_until(due);
    const auto sent = Clock::now();
    trace::Scope rs("serve.request", j);
    if (!sock.valid()) {
      trace::Scope s("net.connect", j);
      sock = sbd::net::Network::instance().connect(port, /*timeoutMs=*/1000);
      out.reconnects++;
    }
    {
      trace::Scope s("net.write", j);
      sock.write(wire);
    }
    sbd::net::HttpResponse resp;
    sbd::net::ReadStatus st;
    {
      trace::Scope s("net.read_wait", j);
      auto readFn = [&](void* buf, size_t n) { return sock.read(buf, n); };
      st = sbd::net::read_response_status(readFn, resp);
    }
    const auto done = Clock::now();
    bool ok = st == sbd::net::ReadStatus::kOk;
    if (!ok) {
      out.failed++;
      sock.close();
      sock = sbd::net::Socket();
    } else {
      if (resp.status >= 500) out.status5xx++;
      if (!status_allowed(kind, resp.status)) {
        out.badStatus++;
        ok = false;
      }
      auto cc = resp.headers.find("Connection");
      if (cc != resp.headers.end() && cc->second == "close") {
        sock.close();
        sock = sbd::net::Socket();
      }
    }
    // Generator lateness: how long after the request was due (or after
    // this client became free, if it was still busy) it actually went
    // out — the generator's own delay, not the server's.
    const auto ready = std::max(due, prevDone);
    Record r;
    r.latencyMs = ok ? std::chrono::duration<float, std::milli>(done - due).count()
                     : INFINITY;
    r.lagMs = std::chrono::duration<float, std::milli>(sent - ready).count();
    r.dueMs = static_cast<uint32_t>(std::chrono::duration_cast<std::chrono::milliseconds>(due - t0).count());
    r.kind = kind;
    out.recs.push_back(r);
    prevDone = done;
    if (rng.chance(kChurn) && sock.valid()) {
      sock.close();
      sock = sbd::net::Socket();
    }
  }
  if (sock.valid()) sock.close();
}

struct PhaseResult {
  std::vector<Record> recs;
  uint64_t failed = 0, badStatus = 0, status5xx = 0, reconnects = 0;
  double elapsedS = 0;
};

PhaseResult run_phase(int clients, int port, const Phase& ph, uint64_t seed,
                      const Zipf& keys, const Zipf& accts) {
  std::vector<ClientResult> res(static_cast<size_t>(clients));
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  {
    std::vector<std::jthread> ts;
    for (int c = 0; c < clients; c++)
      ts.emplace_back(client_loop, c, clients, port, std::cref(ph), seed, std::cref(keys),
                      std::cref(accts), t0, std::ref(res[static_cast<size_t>(c)]));
  }  // joins the clients
  PhaseResult pr;
  pr.elapsedS = std::chrono::duration<double>(Clock::now() - t0).count();
  for (auto& r : res) {
    pr.recs.insert(pr.recs.end(), r.recs.begin(), r.recs.end());
    pr.failed += r.failed;
    pr.badStatus += r.badStatus;
    pr.status5xx += r.status5xx;
    pr.reconnects += r.reconnects;
  }
  return pr;
}

// Quantile of latencies of the records matching `pred` (failed = +inf).
template <typename Pred>
double lat_q(const std::vector<Record>& recs, double q, Pred pred) {
  std::vector<double> xs;
  for (const Record& r : recs)
    if (pred(r)) xs.push_back(static_cast<double>(r.latencyMs));
  return quantile(std::move(xs), q);
}

// Median over 100 ms windows (by due time) of each window's quantile,
// over the records in [fromMs, toMs) that match `pred`. A stall of the
// host (a vCPU descheduled for tens of ms, which this statistic was
// chosen against) spoils the windows it hits, not the whole run; a
// backlog that grows spoils every window after it starts.
template <typename Pred>
double windowed_q(const std::vector<Record>& recs, double fromMs, double toMs, double q,
                  Pred pred) {
  constexpr double kWindowMs = 100;
  const int windows = std::max(1, static_cast<int>((toMs - fromMs) / kWindowMs));
  std::vector<std::vector<double>> per(static_cast<size_t>(windows));
  for (const Record& r : recs) {
    if (r.dueMs < fromMs || r.dueMs >= toMs || !pred(r)) continue;
    const int w = std::min(windows - 1, static_cast<int>((r.dueMs - fromMs) / kWindowMs));
    per[static_cast<size_t>(w)].push_back(static_cast<double>(r.latencyMs));
  }
  std::vector<double> qs;
  for (auto& xs : per)
    if (!xs.empty()) qs.push_back(quantile(std::move(xs), q));
  return median(qs);
}

struct Stack {
  std::unique_ptr<sbd::db::Database> db;
  std::unique_ptr<sbd::serve::Server> server;
  int port = 0;
};

Stack set_up(const Sizes& sz, int workers, int port) {
  Stack s;
  s.port = port;
  s.db = std::make_unique<sbd::db::Database>();
  sbd::serve::ensure_tables(*s.db);
  sbd::serve::seed_accounts(*s.db, sz.accounts, kBalance);
  {
    auto c = s.db->connect();
    for (int k = 0; k < sz.keys; k++)
      c->execute("INSERT INTO kv VALUES (?, ?)",
                 {static_cast<int64_t>(k), with_number("v", k)});
  }
  sbd::serve::Config cfg;
  cfg.port = port;
  cfg.workers = workers;
  s.server = std::make_unique<sbd::serve::Server>(*s.db, cfg);
  s.server->start();
  return s;
}

}  // namespace

std::vector<std::string> serve_kv_request_bytes(uint64_t seed, int count) {
  const Sizes sz;
  const Zipf keys(sz.keys, kZipfTheta), accts(sz.accounts, kZipfTheta);
  sbd::Rng rng(sbd::mix64(seed ^ 0x9a75eULL));
  std::vector<std::string> out;
  for (int j = 0; j < count; j++) {
    Kind kind;
    out.push_back(sbd::net::serialize(make_request(rng, keys, accts, static_cast<uint64_t>(j), kind)));
  }
  return out;
}

Outcome run_serve_kv(const Params& p) {
  Outcome out;
  Sizes sz;
  if (p.tiny) {
    sz.keys = 64;
    sz.accounts = 16;
    sz.nominalRps = 1000;
  }
  if (p.mini || p.tiny || p.traced) sz.setups = 1;
  gRejectGet200 = p.inject == "serve-status";
  const int cores = host_cores();
  const int workers = std::max(1, cores / 2);
  const int clients = std::max(1, cores - workers);
  static int nextPort = 9100;

  // Set-up: db seeding plus server start, repeated; the last one serves.
  // Server threads inherit the main thread's CPUs at start().
  const auto cpus = allowed_cpus();
  if (static_cast<int>(cpus.size()) > clients)
    pin_to(std::vector<int>(cpus.begin() + clients, cpus.end()));
  std::vector<double> setupS;
  Stack stack;
  for (int i = 0; i < sz.setups; i++) {
    stack.server.reset();  // shuts the previous server down first
    stack.db.reset();
    const uint64_t t = now_ns();
    stack = set_up(sz, workers, nextPort++);
    setupS.push_back(static_cast<double>(now_ns() - t) / 1e9);
  }
  pin_to(cpus);
  const int64_t before = sbd::serve::total_balance(*stack.db);
  const Zipf keys(sz.keys, kZipfTheta), accts(sz.accounts, kZipfTheta);

  auto& counters = sbd::serve::counters();
  const uint64_t reqBefore = counters.requests_total();
  const uint64_t reuseBefore = counters.keepAliveReuses.load();
  const uint64_t abortsBefore = sbd::core::TxnManager::instance().snapshot_stats().aborts;

  // Phase 1: the nominal rate. Sample the parked-waiter depth alongside.
  const double nominalS = (p.mini || p.tiny) ? std::min(p.seconds, 1.0) : p.seconds * 0.5;
  std::vector<double> depth;
  std::jthread sampler([&](std::stop_token stop) {
    while (!stop.stop_requested()) {
      depth.push_back(static_cast<double>(sbd::core::ParkingLot::approx_waiters()));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  PhaseResult nominal = run_phase(clients, stack.port, {sz.nominalRps, nominalS, 0}, p.seed,
                                  keys, accts);
  sampler.request_stop();
  sampler.join();
  const uint64_t reqAfter = counters.requests_total();

  auto all = [](const Record&) { return true; };
  auto isRead = [](const Record& r) { return r.kind == kGet; };
  auto isWrite = [](const Record& r) { return r.kind != kGet; };
  std::vector<double> lags;
  for (const Record& r : nominal.recs) lags.push_back(static_cast<double>(r.lagMs));
  const double lagP99 = quantile(lags, 0.99);

  const double nominalMs = nominalS * 1000;
  const double p50 = windowed_q(nominal.recs, 0, nominalMs, 0.50, all);
  const double p99 = windowed_q(nominal.recs, 0, nominalMs, 0.99, all);
  out.cost = p50;
  out.set_e2e("setup_s", median(setupS), "s");
  out.set_e2e("p50_ms", p50, "ms");
  out.info["serve.p99_ms"] = p99;
  out.info["serve.read_p99_ms"] = windowed_q(nominal.recs, 0, nominalMs, 0.99, isRead);
  out.info["serve.write_p99_ms"] = windowed_q(nominal.recs, 0, nominalMs, 0.99, isWrite);
  out.info["serve.overall_p99_ms"] = lat_q(nominal.recs, 0.99, all);
  out.info["gen.lag_p99_ms"] = lagP99;
  out.info["serve.nominal_rps"] = sz.nominalRps;
  out.info["serve.clients"] = clients;
  out.info["serve.workers"] = workers;

  uint64_t failed = nominal.failed + nominal.badStatus;
  uint64_t bad = nominal.badStatus, s5xx = nominal.status5xx;
  uint64_t attempted = nominal.recs.size();

  // Phase 2: the highest rate meeting the p99 limit. Grow the rate by
  // 1.5x until a step misses, then bisect (geometrically) four times.
  // A step passes when its windowed p99, over the whole step and over its
  // last quarter (a growing backlog shows there first), meets the limit,
  // nothing failed, and the generator kept up. A missed step is tried
  // once more, so one scheduling hiccup of the host does not end the
  // search.
  double bestRps = 0;
  if (!p.mini && !p.traced && !p.headlineOnly) {
    const double searchS = p.tiny ? 1.0 : p.seconds * 0.5;
    const double stepS = std::max(0.2, searchS / 16.0);
    uint64_t tag = 1;
    auto attempt = [&](double rps) {
      PhaseResult r = run_phase(clients, stack.port, {rps, stepS, tag++}, p.seed, keys, accts);
      attempted += r.recs.size();
      failed += r.failed + r.badStatus;
      bad += r.badStatus;
      s5xx += r.status5xx;
      std::vector<double> l;
      for (const Record& x : r.recs) l.push_back(static_cast<double>(x.lagMs));
      const double stepMs = stepS * 1000.0;
      const bool pass = r.failed + r.badStatus == 0 && quantile(l, 0.99) <= 1.0 &&
                        windowed_q(r.recs, 0, stepMs, 0.99, all) <= kSloP99Ms &&
                        windowed_q(r.recs, stepMs * 0.75, stepMs, 0.99, all) <= kSloP99Ms;
      const double achieved = static_cast<double>(r.recs.size()) / r.elapsedS;
      if (pass) bestRps = std::max(bestRps, achieved);
      return pass;
    };
    auto step = [&](double rps) { return attempt(rps) || attempt(rps); };
    double lo = 0, hi = 0, rate = sz.nominalRps;
    for (int i = 0; i < 9; i++, rate *= 1.5) {
      if (!step(rate)) { hi = rate; break; }
      lo = rate;
    }
    if (hi > 0 && lo > 0)
      for (int i = 0; i < 4; i++) {
        const double mid = std::sqrt(lo * hi);
        (step(mid) ? lo : hi) = mid;
      }
    out.info["serve.slo_met_at_nominal"] = lo > 0 ? 1 : 0;
  }
  out.info["serve.max_rps_at_slo"] = bestRps;

  stack.server->shutdown();
  const int64_t after = sbd::serve::total_balance(*stack.db);
  int64_t expected = before;
  if (p.inject == "serve-conservation") expected += 1;
  out.gate(after == expected, "serve-kv: balance not conserved (" + std::to_string(before) +
                                  " -> " + std::to_string(after) + ")");
  out.gate(bad == 0, "serve-kv: " + std::to_string(bad) + " responses with a status other than 200/201/404/409");
  out.gate(s5xx == 0, "serve-kv: " + std::to_string(s5xx) + " 5xx responses");
  // A generator that cannot keep its schedule makes the latency figures
  // meaningless: the run is invalid, not slow. (A probe-sized run only
  // reports its lateness as gen.lag_p99_ms.)
  if (!p.mini)
    out.gate(lagP99 <= 2.0, "serve-kv: generator lagged (p99 lateness " +
                                std::to_string(lagP99) + " ms > 2 ms); run invalid");
  out.attempted = attempted;
  out.failed = failed;

  if (p.traced) {
    const uint64_t reqs = reqAfter - reqBefore;
    const uint64_t aborts = sbd::core::TxnManager::instance().snapshot_stats().aborts - abortsBefore;
    out.set_layer("serve.abort_per_request", reqs ? static_cast<double>(aborts) / static_cast<double>(reqs) : 0, "ratio");
    out.set_layer("serve.keepalive_reuses", static_cast<double>(counters.keepAliveReuses.load() - reuseBefore), "count");
    out.set_layer("serve.parked_waiter_depth", depth.empty() ? 0 : *std::max_element(depth.begin(), depth.end()), "count");
    out.set_layer("serve.p99_ms", p99, "ms");
    out.set_layer("serve.read_p99_ms", out.info["serve.read_p99_ms"], "ms");
    out.set_layer("serve.write_p99_ms", out.info["serve.write_p99_ms"], "ms");
    out.set_layer("gen.lag_p99_ms", lagP99, "ms");
    out.set_layer("net.connect_us", trace::median_duration_us("net.connect"), "us");
    out.set_layer("net.write_us", trace::median_duration_us("net.write"), "us");
    out.set_layer("net.read_wait_us", trace::median_duration_us("net.read_wait"), "us");
  }
  return out;
}

}  // namespace perfbench
