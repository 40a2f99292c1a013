#include "common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  if (q >= 1) return xs.back();
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  if (xs[hi] == xs[lo] || std::isinf(xs[hi])) return xs[hi];  // +inf = failed
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

Zipf::Zipf(int n, double theta) : cdf_(static_cast<size_t>(n)) {
  double sum = 0;
  for (int i = 0; i < n; i++) sum += 1.0 / std::pow(i + 1, theta);
  double acc = 0;
  for (int i = 0; i < n; i++) {
    acc += 1.0 / std::pow(i + 1, theta) / sum;
    cdf_[static_cast<size_t>(i)] = acc;
  }
  cdf_.back() = 1.0;
}

int Zipf::sample(double u) const {
  return static_cast<int>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
}

int Histogram::index(uint64_t v) {
  if (v < 128) return static_cast<int>(v);
  const int msb = 63 - __builtin_clzll(v);  // >= 7
  const int shift = msb - 6;                 // >= 1
  const int sub = static_cast<int>(v >> shift) - 64;  // [0, 64)
  const int idx = 128 + (shift - 1) * 64 + sub;
  return std::min(idx, kBuckets - 1);
}

uint64_t Histogram::lower(int idx) {
  if (idx < 128) return static_cast<uint64_t>(idx);
  const int shift = (idx - 128) / 64 + 1;
  const int sub = (idx - 128) % 64 + 64;
  return static_cast<uint64_t>(sub) << shift;
}

uint64_t Histogram::width(int idx) {
  return idx < 128 ? 1 : uint64_t{1} << ((idx - 128) / 64 + 1);
}

void Histogram::merge(const Histogram& o) {
  for (int i = 0; i < kBuckets; i++) counts_[static_cast<size_t>(i)] += o.counts_[static_cast<size_t>(i)];
  total_ += o.total_;
}

double Histogram::quantile_ns(double q) const {
  if (total_ == 0) return 0;
  const double rank = q * static_cast<double>(total_ - 1);
  double cum = 0;
  for (int i = 0; i < kBuckets; i++) {
    const double c = counts_[static_cast<size_t>(i)];
    if (c == 0) continue;
    if (cum + c > rank) {
      const double frac = (rank - cum + 0.5) / c;
      return static_cast<double>(lower(i)) + frac * static_cast<double>(width(i));
    }
    cum += c;
  }
  return static_cast<double>(lower(kBuckets - 1));
}

// --- span tracer -------------------------------------------------------------

namespace trace {
namespace {

struct Log {
  std::vector<Span> spans;
  int32_t current = -1;
};

std::atomic<bool> gEnabled{false};
std::mutex gMu;
std::vector<std::shared_ptr<Log>>& registry() {
  static std::vector<std::shared_ptr<Log>> r;
  return r;
}

Log& local_log() {
  thread_local std::shared_ptr<Log> log = [] {
    auto l = std::make_shared<Log>();
    l->spans.reserve(1 << 16);
    std::lock_guard<std::mutex> g(gMu);
    registry().push_back(l);
    return l;
  }();
  return *log;
}

}  // namespace

void set_enabled(bool on) { gEnabled.store(on, std::memory_order_release); }
bool enabled() { return gEnabled.load(std::memory_order_relaxed); }

int32_t record(const char* name, uint64_t start, uint64_t end, int32_t parent,
               uint64_t requestId) {
  if (!enabled()) return -1;
  Log& l = local_log();
  l.spans.push_back({name, start, end, parent, requestId});
  return static_cast<int32_t>(l.spans.size() - 1);
}

Scope::Scope(const char* name, uint64_t requestId) {
  if (!enabled()) return;
  Log& l = local_log();
  l.spans.push_back({name, now_ns(), 0, l.current, requestId});
  idx_ = static_cast<int32_t>(l.spans.size() - 1);
  l.current = idx_;
}

Scope::~Scope() {
  if (idx_ < 0) return;
  Log& l = local_log();
  Span& s = l.spans[static_cast<size_t>(idx_)];
  s.end = now_ns();
  l.current = s.parent;
}

void reset() {
  std::lock_guard<std::mutex> g(gMu);
  for (auto& l : registry()) {
    l->spans.clear();
    l->current = -1;
  }
}

uint64_t span_count() {
  std::lock_guard<std::mutex> g(gMu);
  uint64_t n = 0;
  for (auto& l : registry()) n += l->spans.size();
  return n;
}

std::map<std::string, double> self_ms_by_layer() {
  std::lock_guard<std::mutex> g(gMu);
  std::map<std::string, double> out;
  for (auto& l : registry()) {
    const auto& sp = l->spans;
    std::vector<double> childNs(sp.size(), 0);
    for (const Span& s : sp)
      if (s.parent >= 0 && s.end >= s.start)
        childNs[static_cast<size_t>(s.parent)] += static_cast<double>(s.end - s.start);
    for (size_t i = 0; i < sp.size(); i++) {
      if (sp[i].end < sp[i].start) continue;  // never closed
      const std::string name = sp[i].name;
      const std::string layer = name.substr(0, name.find('.'));
      const double self = static_cast<double>(sp[i].end - sp[i].start) - childNs[i];
      out[layer] += std::max(0.0, self) / 1e6;
    }
  }
  return out;
}

double median_duration_us(const char* name) {
  std::lock_guard<std::mutex> g(gMu);
  const std::string want = name;
  std::vector<double> d;
  for (auto& l : registry())
    for (const Span& s : l->spans)
      if (s.end >= s.start && want == s.name) d.push_back(static_cast<double>(s.end - s.start) / 1e3);
  return median(d);
}

}  // namespace trace

std::string json_number(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : (v < 0 ? -1e300 : 0);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') { o += '\\'; o += c; }
    else if (static_cast<unsigned char>(c) < 0x20) o += ' ';
    else o += c;
  }
  return o + "\"";
}

}  // namespace perfbench
