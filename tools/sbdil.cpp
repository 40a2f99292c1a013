// sbdil — the SBD-IL driver tool: assemble, verify, transform,
// optimize, compile, dump, and execute textual IL programs against the
// real STM.
//
//   sbdil prog.sbdil                      # run fn `main` (no args)
//   sbdil prog.sbdil --entry f --args 3,4 # run `f(3, 4)`
//   sbdil prog.sbdil --optimize --stats   # full pipeline + lock-op counts
//   sbdil prog.sbdil --backend=compiled   # threaded-code backend
//   sbdil prog.sbdil --dump               # print the (transformed) IL
//   sbdil prog.sbdil --verify-only
#include <cstdio>
#include <fstream>
#include <sstream>

#include "api/sbd.h"
#include "common/options.h"
#include "il/asm.h"
#include "il/compile.h"
#include "il/interp.h"
#include "il/opt.h"
#include "il/summary.h"
#include "il/transform.h"
#include "il/verify.h"

namespace {

std::vector<int64_t> parse_args(const std::string& csv) {
  std::vector<int64_t> out;
  std::istringstream is(csv);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(std::stoll(item));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  SBD_ATTACH_THREAD();
  sbd::Options opts(argc, argv);
  if (argc < 2 || argv[1][0] == '-') {
    std::fprintf(stderr,
                 "usage: sbdil <file.sbdil> [--entry NAME] [--args a,b,...]\n"
                 "             [--optimize] [--no-locks] [--backend=interp|compiled]\n"
                 "             [--dump] [--verify-only] [--stats]\n");
    return 2;
  }

  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "sbdil: cannot open %s\n", argv[1]);
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();

  sbd::il::Module m;
  try {
    sbd::il::assemble(m, buf.str());
  } catch (const sbd::il::AsmError& e) {
    std::fprintf(stderr, "sbdil: %s\n", e.what());
    return 1;
  }

  const auto diags = sbd::il::verify(m);
  for (const auto& d : diags) std::fprintf(stderr, "verify: %s\n", d.c_str());
  if (!diags.empty()) return 1;
  if (opts.get_bool("verify-only", false)) {
    std::printf("ok: %zu function(s) verified\n", m.functions.size());
    return 0;
  }

  if (!opts.get_bool("no-locks", false)) sbd::il::insert_locks(m);
  if (opts.get_bool("optimize", false)) {
    const auto s = sbd::il::optimize(m);
    std::fprintf(stderr, "optimize: %d eliminated, %d hoisted, %d inlined, %d rounds\n",
                 s.locksEliminated, s.locksHoisted, s.callsInlined, s.rounds);
    // The transformed module must still pass the coverage verifier
    // (V6): every no-lock access covered by a must-held lock. Running
    // it here makes the tool a soundness oracle for the optimizer.
    const auto vdiags = sbd::il::verify(m, sbd::il::compute_summaries(m));
    for (const auto& d : vdiags) std::fprintf(stderr, "verify: %s\n", d.c_str());
    if (!vdiags.empty()) return 1;
  }

  if (opts.get_bool("dump", false)) {
    for (const auto& [name, fn] : m.functions)
      std::fputs(sbd::il::to_string(*fn).c_str(), stdout);
    return 0;
  }

  const std::string entry = opts.get_str("entry", "main");
  const auto args = parse_args(opts.get_str("args", ""));
  if (!m.get(entry)) {
    std::fprintf(stderr, "sbdil: no function '%s'\n", entry.c_str());
    return 1;
  }

  const std::string backend = opts.get_str("backend", "interp");
  if (backend != "interp" && backend != "compiled") {
    std::fprintf(stderr, "sbdil: unknown backend '%s'\n", backend.c_str());
    return 2;
  }

  int64_t result = 0;
  uint64_t lockOps = 0;
  sbd::run_sbd([&] {
    auto& tc = sbd::core::tls_context();
    const auto before = tc.stats;
    if (backend == "compiled") {
      const auto cm = sbd::il::compile(m);
      result = sbd::il::execute(cm, entry, args);
    } else {
      result = sbd::il::execute(m, entry, args);
    }
    const auto after = tc.stats;
    lockOps = (after.acqRls - before.acqRls) + (after.checkOwned - before.checkOwned) +
              (after.checkNew - before.checkNew) + (after.lockInit - before.lockInit);
  });
  std::printf("%lld\n", static_cast<long long>(result));
  if (opts.get_bool("stats", false))
    std::fprintf(stderr, "lock operations: %llu\n",
                 static_cast<unsigned long long>(lockOps));
  return 0;
}
