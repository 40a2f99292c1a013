// perfbench — runs one workload of the repository benchmark and prints
// its result as one JSON line. perfbench/run.py builds this binary and
// is the command to use; see perfbench/README.md.
//
//   perfbench --workload serve-kv|heap-bank|dacapo|il --seed N --seconds S
//             --trace 0|1 [--root DIR] [--tiny] [--inject GATE]
//
// --trace 0: the workload alone; the end-to-end metrics.
// --trace 1: the workload untraced for half the time, then traced (spans
//   and counter deltas) for the other half, then probe-sized traced runs
//   of the other three workloads and the micro probes; the per-layer
//   metrics, the span self time per layer, and the tracing overhead.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <map>
#include <string>

#include "runtime/heap.h"
#include "workloads.h"

namespace {

using namespace perfbench;

const std::map<std::string, std::function<Outcome(const Params&)>>& workloads() {
  static const std::map<std::string, std::function<Outcome(const Params&)>> w = {
      {"serve-kv", run_serve_kv},
      {"heap-bank", run_heap_bank},
      {"dacapo", run_dacapo},
      {"il", run_il}};
  return w;
}

void merge(Outcome& into, const Outcome& from, bool layerIfAbsentOnly) {
  into.gateFailures.insert(into.gateFailures.end(), from.gateFailures.begin(),
                           from.gateFailures.end());
  into.attempted += from.attempted;
  into.failed += from.failed;
  for (const auto& [k, v] : from.layer)
    if (!layerIfAbsentOnly || !into.layer.count(k)) into.layer[k] = v;
  for (const auto& [k, v] : from.info)
    if (!into.info.count(k)) into.info[k] = v;
}

void print(const std::string& workload, const Outcome& o, bool traced) {
  std::string s = "{\"workload\": " + json_string(workload) +
                  ", \"correct\": " + (o.correct() ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(o.attempted) +
                  ", \"failed\": " + std::to_string(o.failed) + ", \"gate_failures\": [";
  for (size_t i = 0; i < o.gateFailures.size(); i++)
    s += (i ? ", " : "") + json_string(o.gateFailures[i]);
  s += "], \"metrics\": {";
  bool first = true;
  for (const auto& [k, m] : traced ? o.layer : o.e2e) {
    s += (first ? "" : ", ") + json_string(k) + ": {\"value\": " + json_number(m.value) +
         ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  s += "}, \"info\": {";
  first = true;
  for (const auto& [k, v] : o.info) {
    s += (first ? "" : ", ") + json_string(k) + ": " + json_number(v);
    first = false;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

Outcome run(const std::string& workload, const std::function<Outcome(const Params&)>& fn,
            const Params& p, bool traced) {
  if (!traced) return fn(p);
  Outcome result;
  // Untraced half, then traced half: the difference in the headline
  // cost is the tracing overhead.
  Params half = p;
  half.seconds = p.seconds / 2;
  half.headlineOnly = true;
  const Outcome plain = fn(half);
  half.traced = true;
  trace::reset();
  trace::set_enabled(true);
  const auto before = snapshot_counters();
  Outcome tr = fn(half);
  const auto after = snapshot_counters();
  trace::set_enabled(false);
  report_counter_delta(before, after, tr);
  for (const auto& [layer, ms] : trace::self_ms_by_layer()) tr.info["trace.self_ms." + layer] = ms;
  tr.info["trace.spans"] = static_cast<double>(trace::span_count());
  tr.set_layer("trace.overhead_pct", plain.cost > 0 ? (tr.cost / plain.cost - 1) * 100 : 0, "%");
  merge(result, plain, false);
  merge(result, tr, false);

  // Probe-sized traced runs of the other workloads fill in the layer
  // metrics this workload does not exercise.
  Params mini = p;
  mini.seconds = 1;
  mini.mini = true;
  mini.traced = true;
  trace::set_enabled(true);
  for (const auto& [name, other] : workloads())
    if (name != workload) merge(result, other(mini), true);
  trace::set_enabled(false);
  Outcome probes;
  run_micro_probes(p, probes);
  merge(result, probes, true);
  return result;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve-kv|heap-bank|dacapo|il --seed N "
               "--seconds S --trace 0|1 [--root DIR] [--tiny] [--inject GATE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  SBD_ATTACH_THREAD();
  Params p;
  std::string workload;
  bool traced = false;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") workload = val();
    else if (a == "--seed") p.seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (a == "--seconds") p.seconds = std::atof(val().c_str());
    else if (a == "--trace") traced = val() == "1";
    else if (a == "--root") p.root = val();
    else if (a == "--inject") p.inject = val();
    else if (a == "--tiny") p.tiny = true;
    else return usage();
  }
  auto it = workloads().find(workload);
  if (it == workloads().end() || p.seconds <= 0) return usage();

  Outcome result;
  try {
    result = run(it->first, it->second, p, traced);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(), e.what());
    return 3;
  }
  print(workload, result, traced);
  return result.correct() ? 0 : 1;
}

