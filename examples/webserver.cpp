// Web server demo — transactional I/O end to end: an HTTP server whose
// request handling runs inside atomic sections, with responses reaching
// the wire only at the section's split (§3.4), sessions in managed
// state, and reads replayed after any abort (§4.4).
#include <cstdio>

#include "api/sbd.h"
#include "jcl/collections.h"
#include "net/http.h"
#include "net/loopback.h"

using namespace sbd;

class Hits : public runtime::TypedRef<Hits> {
 public:
  SBD_CLASS(WebHits, SBD_SLOT("n"))
  SBD_FIELD_I64(0, n)
};

int main() {
  SBD_ATTACH_THREAD();
  constexpr int kPort = 8088;
  constexpr int kClients = 3;
  constexpr int kRequestsEach = 5;

  runtime::GlobalRoot<jcl::MStrMap> sessions;
  run_sbd([&] { sessions.set(jcl::MStrMap::make(16)); });
  auto listener = net::Network::instance().listen(kPort);

  SbdThread server([&] {
    int served = 0;
    while (served < kClients * kRequestsEach) {
      net::TxSocket* sockPtr = nullptr;
      auto& tc = core::tls_context();
      // The wrapper is created inside the accept callback, before the
      // checkpoint, so an abort-retry reuses the same replay buffers
      // (see README "Restore safety").
      core::split_section_releasing_id(tc, [&] {
        core::Safepoint::SafeScope safe(tc);
        net::Socket raw = listener.accept();
        if (raw.valid()) sockPtr = new net::TxSocket(raw);
      });
      if (!sockPtr) break;
      net::TxSocket& sock = *sockPtr;
      for (;;) {
        bool handled = false;
        // Heap-owning locals close before each split (restore-safety).
        {
          net::HttpRequest req;
          auto readFn = [&](void* out, size_t n) { return sock.read(out, n); };
          if (net::read_request_status(readFn, req) == net::ReadStatus::kOk) {
            const std::string sid =
                req.headers.count("Cookie") ? req.headers["Cookie"] : "anon";
            auto* cellRaw = sessions.get().get_or_put(sid, [] {
              Hits h = Hits::alloc();
              h.init_n(0);
              return h.raw();
            });
            Hits hits(cellRaw);
            hits.set_n(hits.n() + 1);
            net::HttpResponse resp;
            resp.body = "hello " + sid + ", visit #" + std::to_string(hits.n());
            sock.write(net::serialize(resp));
            served++;
            handled = true;
          }
        }
        if (!handled) break;
        split();  // response becomes visible here
      }
      sock.close();
      split();
      delete sockPtr;
    }
  });
  server.start();

  std::vector<SbdThread> clients;
  for (int c = 0; c < kClients; c++) {
    clients.emplace_back([&, c] {
      auto* sockPtr = new net::TxSocket();
      net::TxSocket& sock = *sockPtr;
      sock.connect(kPort);  // deferred to the commit below
      split();
      for (int r = 0; r < kRequestsEach; r++) {
        {
          net::HttpRequest req;
          req.method = "GET";
          req.path = "/hello";
          req.headers["Cookie"] = "client-" + std::to_string(c);
          sock.write(net::serialize(req));
        }
        split();  // flush the request to the wire
        bool got;
        {
          net::HttpResponse resp;
          auto readFn = [&](void* out, size_t n) { return sock.read(out, n); };
          got = net::read_response_status(readFn, resp) == net::ReadStatus::kOk;
          if (got && r == kRequestsEach - 1)
            std::printf("client %d last response: %s\n", c, resp.body.c_str());
        }
        if (!got) break;
        split();
      }
      sock.close();
      split();
      delete sockPtr;
    });
  }
  for (auto& c : clients) c.start();
  for (auto& c : clients) c.join();
  listener.close();
  server.join();

  run_sbd([&] {
    std::printf("distinct sessions: %lld\n",
                static_cast<long long>(sessions.get().size()));
  });
  return 0;
}
