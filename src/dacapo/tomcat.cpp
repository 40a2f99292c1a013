// Tomcat analog: an HTTP server over the in-memory network. N server
// workers accept and serve requests; N client threads issue GETs with
// session cookies. Each request bumps its session counter, consults the
// string manager, updates request statistics, and returns a page.
//
// Paper behaviors reproduced:
//   - 2*N threads total: at N=32 the 56-transaction-id ceiling of the
//     STM is exceeded, which is exactly why the paper's Tomcat stops
//     scaling at 32 threads (§5.4)
//   - Table 4 fixes: per-thread statistics counters aggregated on read,
//     one connection per client thread, string-manager cache DISABLED
//     in the SBD variant, initialization flag set only once
//   - the response is only visible to the client after the serving
//     section splits (transactional socket, §4.4)
#include <atomic>
#include <memory>
#include <thread>

#include "api/sbd.h"
#include "common/rng.h"
#include "dacapo/harness.h"
#include "jcl/collections.h"
#include "net/http.h"
#include "net/loopback.h"
#include "threads/tx_local.h"

namespace sbd::dacapo {

namespace {

struct TomcatConfig {
  uint64_t requestsPerClient;
  int basePort;
};

TomcatConfig make_config(const Scale& s, int basePort) {
  TomcatConfig cfg;
  cfg.requestsPerClient = s.of(60);
  cfg.basePort = basePort;
  return cfg;
}

// "JSP rendering": the per-request computation of the original
// benchmark (statically compiled pages, per the paper's Table 3 mod) —
// template expansion over locals, identical in both variants.
std::string make_page(const std::string& sid, int64_t count, const std::string& status) {
  std::string page = "<html><body><h1>session " + sid + "</h1>";
  uint64_t style = 0;
  for (int row = 0; row < 24; row++) {
    page += "<tr class=c" + std::to_string(row % 4) + "><td>item-" +
            std::to_string(row) + "</td><td>" + std::to_string(count * row) +
            "</td></tr>";
    style = style * 131 + static_cast<uint64_t>(page.size());
  }
  page += "<p>visits=" + std::to_string(count) + " " + status + " s" +
          std::to_string(style % 97) + "</p></body></html>";
  return page;
}

// --- Baseline ---------------------------------------------------------------

uint64_t run_baseline_once(const TomcatConfig& cfg, int threads) {
  auto listener = net::Network::instance().listen(cfg.basePort);
  net::SessionStore sessions;
  net::StringManager strings(/*enableCache=*/true);
  std::mutex stateMu;
  std::atomic<uint64_t> requestsServed{0};
  std::atomic<bool> initialized{false};

  std::vector<std::thread> servers;
  for (int t = 0; t < threads; t++) {
    servers.emplace_back([&] {
      for (;;) {
        net::Socket sock = listener.accept();
        if (!sock.valid()) return;
        for (;;) {
          net::HttpRequest req;
          auto readFn = [&](void* out, size_t n) { return sock.read(out, n); };
          if (net::read_request_status(readFn, req) != net::ReadStatus::kOk) break;
          if (!initialized.exchange(true)) { /* one-time init flag */
          }
          std::string page;
          {
            std::lock_guard<std::mutex> lk(stateMu);
            const std::string sid = req.headers.count("Cookie")
                                        ? req.headers["Cookie"]
                                        : "anon";
            const int64_t count = sessions.bump(sid);
            page = make_page(sid, count, strings.status_message(200, "ok"));
          }
          requestsServed.fetch_add(1, std::memory_order_relaxed);
          net::HttpResponse resp;
          resp.body = page;
          sock.write(net::serialize(resp));
        }
        sock.close();
      }
    });
  }

  std::atomic<uint64_t> checksum{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; t++) {
    clients.emplace_back([&, t] {
      net::Socket sock = net::Network::instance().connect(cfg.basePort);
      uint64_t sum = 0;
      for (uint64_t r = 0; r < cfg.requestsPerClient; r++) {
        net::HttpRequest req;
        req.method = "GET";
        req.path = "/visit";
        req.headers["Cookie"] = "sid-" + std::to_string(t);
        sock.write(net::serialize(req));
        net::HttpResponse resp;
        auto readFn = [&](void* out, size_t n) { return sock.read(out, n); };
        if (net::read_response_status(readFn, resp) != net::ReadStatus::kOk) break;
        sum += sbd::fnv1a(resp.body);
      }
      sock.close();
      checksum.fetch_add(sum, std::memory_order_relaxed);
    });
  }
  for (auto& c : clients) c.join();
  listener.close();
  for (auto& s : servers) s.join();
  return checksum.load() + requestsServed.load();
}

// --- SBD ---------------------------------------------------------------------

uint64_t run_sbd_once(const TomcatConfig& cfg, int threads) {
  const int port = cfg.basePort + 1;
  auto listener = net::Network::instance().listen(port);
  // Managed session store (string -> counter cell).
  runtime::GlobalRoot<jcl::MStrMap> sessions;
  runtime::GlobalRoot<runtime::I64Array> initFlag;
  runtime::GlobalRoot<runtime::I64Array> totals;
  static threads::TxLocalI64 localServed;  // Table 4: thread-local statistics
  run_sbd([&] {
    sessions.set(jcl::MStrMap::make(64));
    initFlag.set(runtime::I64Array::make(1));
    totals.set(runtime::I64Array::make(1));
  });
  // String manager without cache (Table 4 "Remove": the cache is a
  // shared-map write on every request and kills scalability under SBD).
  net::StringManager strings(/*enableCache=*/false);

  class Counter : public runtime::TypedRef<Counter> {
   public:
    SBD_CLASS(TomcatCounter, SBD_SLOT("n"))
    SBD_FIELD_I64(0, n)
  };
  // Session counters are single-slot, so object == field here; the
  // explicit hint pins that down against future slot additions and
  // exercises the per-benchmark annotation path. No-op unless
  // SBD_LOCK_GRANULARITY=adaptive.
  hint_lock_granularity(Counter::klass(), LockGranularity::kObject);

  std::vector<threads::SbdThread> servers;
  for (int t = 0; t < threads; t++) {
    servers.emplace_back([&] {
      for (;;) {
        net::TxSocket* sockPtr = nullptr;
        // Accepting is waiting for a peer: release the transaction id
        // while blocked (same §3.5 rule as condition waits). The
        // wrapper is created INSIDE the blocked callback — before the
        // new section's checkpoint — so an abort-retry of the first
        // request finds the SAME wrapper (whose rearmed replay buffer
        // holds the consumed request bytes), never a fresh one.
        auto& tc = core::tls_context();
        core::split_section_releasing_id(tc, [&] {
          core::Safepoint::SafeScope safe(tc);
          net::Socket raw = listener.accept();
          if (raw.valid()) sockPtr = new net::TxSocket(raw);
        });
        if (!sockPtr) {
          // Push the thread-local statistics into the shared total
          // before exiting (aggregate-on-read, Table 4).
          totals.get().set(0, totals.get().get(0) + localServed.get());
          return;
        }
        net::TxSocket& sock = *sockPtr;
        for (;;) {
          bool served = false;
          // Restore-safety: all heap-owning locals close before the
          // split, so an abort of the next section (a session-map duel,
          // say) never re-unwinds live strings. An abort DURING the
          // scope rolls back to the previous split and re-reads the
          // same request bytes from the socket's replay buffer (§4.4).
          {
            net::HttpRequest req;
            auto readFn = [&](void* out, size_t n) { return sock.read(out, n); };
            if (net::read_request_status(readFn, req) == net::ReadStatus::kOk) {
              // One-time initialization flag, set only once (Table 4
              // "Frequency": test-then-set avoids a write conflict on
              // every request).
              if (initFlag.get().get(0) == 0) initFlag.get().set(0, 1);
              const std::string sid =
                  req.headers.count("Cookie") ? req.headers["Cookie"] : "anon";
              auto* cellRaw = sessions.get().get_or_put(sid, [] {
                Counter c = Counter::alloc();
                c.init_n(0);
                return c.raw();
              });
              Counter cell(cellRaw);
              cell.set_n(cell.n() + 1);
              net::HttpResponse resp;
              resp.body = make_page(sid, cell.n(), strings.status_message(200, "ok"));
              localServed.add(1);  // thread-local statistics (Table 4)
              sock.write(net::serialize(resp));
              served = true;
            }
          }
          if (!served) break;
          // The response reaches the wire only now — and the session
          // locks release — when the section splits (§3.4).
          split();
        }
        sock.close();
        split();
        delete sockPtr;  // no abort can target the window after this split
      }
    });
  }

  std::atomic<uint64_t> checksum{0};
  std::vector<threads::SbdThread> clients;
  for (int t = 0; t < threads; t++) {
    clients.emplace_back([&, t] {
      // Heap-hosted wrapper + deferred connect: the retry of an aborted
      // first section must not open a second connection.
      auto* sockPtr = new net::TxSocket();
      net::TxSocket& sock = *sockPtr;
      sock.connect(port);
      split();  // connection established at this commit
      uint64_t sum = 0;
      for (uint64_t r = 0; r < cfg.requestsPerClient; r++) {
        {
          // Restore-safety: request strings die before the split.
          net::HttpRequest req;
          req.method = "GET";
          req.path = "/visit";
          req.headers["Cookie"] = "sid-" + std::to_string(t);
          sock.write(net::serialize(req));
        }
        split();  // the request must reach the wire before we block on
                  // the response (transactional output, §3.4)
        bool got;
        {
          net::HttpResponse resp;
          auto readFn = [&](void* out, size_t n) { return sock.read(out, n); };
          got = net::read_response_status(readFn, resp) == net::ReadStatus::kOk;
          if (got) sum += sbd::fnv1a(resp.body);
        }
        if (!got) break;
        split();
      }
      sock.close();
      split();
      delete sockPtr;
      checksum.fetch_add(sum, std::memory_order_relaxed);
    });
  }

  for (auto& s : servers) s.start();
  for (auto& c : clients) c.start();
  for (auto& c : clients) c.join();
  listener.close();
  for (auto& s : servers) s.join();

  uint64_t served = 0;
  run_sbd([&] { served = static_cast<uint64_t>(totals.get().get(0)); });
  return checksum.load() + served;
}

}  // namespace

Benchmark tomcat_benchmark() {
  Benchmark b;
  b.name = "Tomcat";
  b.baseline = [](const Scale& s, int threads) {
    const auto cfg = make_config(s, 9100);
    return measure_baseline_run([&] { return run_baseline_once(cfg, threads); });
  };
  b.sbd = [](const Scale& s, int threads) {
    const auto cfg = make_config(s, 9300);
    return measure_sbd_run([&] { return run_sbd_once(cfg, threads); });
  };
  b.effort = EffortReport{6, 2, 4, 1, 1, 3, 15, 11, 50, 333, 140, 6};
  return b;
}

}  // namespace sbd::dacapo
