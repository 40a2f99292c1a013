// Shared pieces of the perfbench program: run parameters, the per-run
// outcome record, latency statistics, and the in-memory span tracer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t now_ns() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// What one invocation of a workload runs.
struct Params {
  uint64_t seed = 1;
  double seconds = 10;  // measured time of the main phase
  bool traced = false;  // record spans and per-layer counters
  bool mini = false;    // probe-sized run (traced runs of other workloads)
  bool headlineOnly = false;  // only the phase that sets Outcome::cost
  bool tiny = false;    // self-test sizes
  std::string inject;   // self-test: name of a correctness gate to break
  std::string root = ".";  // repository root (for examples/*.sbdil)
};

struct Metric {
  double value = 0;
  std::string unit;
};

// The result of one workload phase.
struct Outcome {
  std::vector<std::string> gateFailures;  // empty = every gate passed
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> e2e;    // end-to-end metrics
  std::map<std::string, Metric> layer;  // per-layer metrics
  std::map<std::string, double> info;   // extra numbers for the run record
  // Headline cost (lower is better) compared between the untraced and
  // the traced phase to report the tracing overhead.
  double cost = 0;

  bool correct() const { return gateFailures.empty(); }
  void gate(bool ok, const std::string& what) {
    if (!ok) gateFailures.push_back(what);
  }
  void set_e2e(const std::string& k, double v, const char* unit) { e2e[k] = {v, unit}; }
  void set_layer(const std::string& k, double v, const char* unit) { layer[k] = {v, unit}; }
};

// --- statistics --------------------------------------------------------------

// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double quantile(std::vector<double> xs, double q);
inline double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

// Zipf(theta) sampler over [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(int n, double theta);
  int sample(double u) const;

 private:
  std::vector<double> cdf_;
};

// Log-linear latency histogram over nanoseconds: exact below 128 ns,
// then 64 sub-buckets per power of two (<1.6% bucket width). Quantiles
// interpolate inside the bucket, so they are continuous values.
class Histogram {
 public:
  static constexpr int kBuckets = 128 + 40 * 64;
  Histogram() : counts_(kBuckets, 0) {}
  void add(uint64_t ns) { counts_[index(ns)]++; total_++; }
  void merge(const Histogram& o);
  uint64_t count() const { return total_; }
  double quantile_ns(double q) const;

 private:
  static int index(uint64_t v);
  static uint64_t lower(int idx);
  static uint64_t width(int idx);
  std::vector<uint32_t> counts_;
  uint64_t total_ = 0;
};

// --- span tracer -------------------------------------------------------------
//
// Spans are recorded by the benchmark around its calls into each layer
// (name "<layer>.<what>"), kept in per-thread memory, and summarised at
// the end of the run. Recording is off unless a traced phase enables it.
namespace trace {

struct Span {
  const char* name;
  uint64_t start;
  uint64_t end;
  int32_t parent;  // index into the same thread's log, -1 = root
  uint64_t requestId;
};

void set_enabled(bool on);
bool enabled();

// Records a finished span (for code that cannot use a scope, such as
// code resumed by an abort-and-replay); returns its index for children.
int32_t record(const char* name, uint64_t start, uint64_t end, int32_t parent = -1,
               uint64_t requestId = 0);

// RAII span. A no-op while tracing is disabled.
class Scope {
 public:
  Scope(const char* name, uint64_t requestId = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int32_t idx_ = -1;
};

// Drops every recorded span (start of a traced phase).
void reset();
// Total recorded spans across threads.
uint64_t span_count();
// Self time (span duration minus the time its child spans cover),
// summed per layer (the span-name prefix before the first '.'), in ms.
std::map<std::string, double> self_ms_by_layer();
// Median duration of the spans called `name`, in microseconds.
double median_duration_us(const char* name);

}  // namespace trace

// --- output helpers ----------------------------------------------------------

std::string json_number(double v);
// prefix followed by the decimal digits of v (appends: GCC 12 warns,
// wrongly, on short-literal + std::to_string at -O3).
inline std::string with_number(const char* prefix, long long v) {
  std::string s = prefix;
  s += std::to_string(v);
  return s;
}
std::string json_string(const std::string& s);

}  // namespace perfbench
