// Minimal HTTP/1.1 framing over the loopback network, plus the
// transactional socket wrapper and server-side helpers (sessions,
// string manager) used by the Tomcat benchmark analog and sbd::serve.
#pragma once

#include <cctype>
#include <functional>
#include <map>
#include <string>

#include "core/resource.h"
#include "net/loopback.h"
#include "tio/deferred.h"

namespace sbd::net {

// HTTP header field names are case-insensitive (RFC 9110 §5.1): a peer
// sending "content-length: 5" frames its body exactly like one sending
// "Content-Length: 5". The map compares keys case-insensitively so
// inserts AND lookups normalize without rewriting callers; the
// originally-inserted spelling is preserved for serialization.
struct HeaderLess {
  bool operator()(const std::string& a, const std::string& b) const noexcept {
    const size_t n = a.size() < b.size() ? a.size() : b.size();
    for (size_t i = 0; i < n; i++) {
      const int ca = std::tolower(static_cast<unsigned char>(a[i]));
      const int cb = std::tolower(static_cast<unsigned char>(b[i]));
      if (ca != cb) return ca < cb;
    }
    return a.size() < b.size();
  }
};
using HeaderMap = std::map<std::string, std::string, HeaderLess>;

// Hard cap on the body bytes a Content-Length header may request: a
// malicious peer must not be able to make the parser allocate
// arbitrarily (or crash std::stoul). Callers with tighter budgets pass
// their own cap to read_request_status.
inline constexpr size_t kMaxBodyBytes = 1u << 20;  // 1 MiB

struct HttpRequest {
  std::string method;
  std::string path;
  HeaderMap headers;
  std::string body;
};

struct HttpResponse {
  int status = 200;
  HeaderMap headers;
  std::string body;
};

// Why one request failed to parse — the serving layer turns these into
// 4xx responses instead of tearing the process down.
enum class ReadStatus {
  kOk,          // a complete request/response was framed
  kEof,         // clean EOF before the first byte (peer closed)
  kBadRequest,  // malformed start-line or Content-Length (non-numeric,
                // negative, overflow): connection framing is lost
  kTooLarge,    // Content-Length exceeded the body cap
};

// Reads one request from `readFn` (a blocking byte source), enforcing
// `maxBody` on the declared Content-Length. Never throws on malformed
// input; a non-kOk status means the connection must be closed (the
// byte stream can no longer be framed).
ReadStatus read_request_status(const std::function<size_t(void*, size_t)>& readFn,
                               HttpRequest& out, size_t maxBody = kMaxBodyBytes);
ReadStatus read_response_status(const std::function<size_t(void*, size_t)>& readFn,
                                HttpResponse& out, size_t maxBody = kMaxBodyBytes);

// Standard reason phrase for a status code ("Not Found", ...); a
// best-effort class default ("Error") for codes not in the table.
const char* reason_phrase(int status);

std::string serialize(const HttpRequest& req);
std::string serialize(const HttpResponse& resp);

// Transactional socket wrapper (§4.4's worked example): reads consumed
// inside an atomic section are recorded in B_R and replayed after an
// abort; writes go to B_W and reach the wire only at commit.
//
// PLACEMENT RULE: like every TxResource with internal buffers, a
// TxSocket must live OFF the SBD stack (heap, or a frame above the
// anchor). A checkpoint restore would roll a stack-resident wrapper's
// buffers back and lose consumed input that only the replay buffer can
// re-serve. Benchmarks heap-allocate per-connection wrappers.
class TxSocket final : public core::TxResource {
 public:
  TxSocket() = default;
  explicit TxSocket(Socket s) : sock_(s) {}

  // Defers establishing the connection to the current section's commit
  // (like a thread start, §3.5): an aborted section never half-opens a
  // connection, and a retry re-defers instead of connecting twice. The
  // socket is usable from the next section on. Immediate outside
  // sections.
  void connect(int port);

  size_t read(void* out, size_t n);
  void write(std::string_view data);

  void on_commit() override;
  void on_abort() override;
  size_t buffered_bytes() const override { return writeBuf_.size() + replay_.size(); }

  void close() { sock_.close(); }
  Socket& raw() { return sock_; }

 private:
  Socket sock_;
  tio::ReplayBuffer replay_;
  tio::DeferBuffer writeBuf_;
};

// Session store keyed by session id (the Tomcat analog's per-client
// state). Thread-safety is the caller's concern: the baseline variant
// wraps it in a mutex, the SBD variant rebuilds it on managed state.
class SessionStore {
 public:
  // Returns the session id's counter after incrementing (the workload's
  // per-session state mutation).
  int64_t bump(const std::string& sid);
  int64_t lookup(const std::string& sid) const;
  size_t size() const { return counters_.size(); }

 private:
  std::map<std::string, int64_t> counters_;
};

// The string manager of the Tomcat analog: formats status messages with
// an optional memoization cache. The paper *disables* this cache in the
// SBD variant because every cache hit is a shared-map read-write
// conflict (Table 4 "Remove" row) — keep the flag so the ablation bench
// can measure exactly that.
class StringManager {
 public:
  explicit StringManager(bool enableCache) : cacheEnabled_(enableCache) {}

  std::string status_message(int code, const std::string& detail);
  size_t cache_size() const { return cache_.size(); }

 private:
  bool cacheEnabled_;
  std::map<std::string, std::string> cache_;
};

}  // namespace sbd::net
