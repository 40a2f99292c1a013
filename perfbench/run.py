#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload serve-kv|heap-bank|dacapo|il \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or to
.bench_build when that is unset. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer ones
with --trace 1. The line before it is the run record (seed, flags, git
sha, host fingerprint, gate failures and the workload's extra figures).
Exit status: 0 when every correctness gate passed, 1 when one failed,
2 on a usage or build error, 3 when the run itself broke.

Self-test only: --tiny runs at toy sizes, --inject GATE breaks one gate.
"""
import argparse
import json
import os
import platform
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-kv", "heap-bank", "dacapo", "il")
RUN_LIMIT_S = 170  # a run must end within 180 s (plus the build, on the first one)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no SBD sources under {ROOT}/src; nothing to build")
        sys.exit(2)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(len(os.sched_getaffinity(0)))
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            log("build failed")
            sys.exit(2)
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def host_fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            m = re.search(r"^model name\s*:\s*(.+)$", f.read(), re.M)
            cpu = m.group(1) if m else cpu
    except OSError:
        pass
    compiler = build_type = "unknown"
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            cache = f.read()
        m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.+)$", cache, re.M)
        if m:
            v = subprocess.run([m.group(1), "--version"], capture_output=True, text=True, timeout=10)
            compiler = v.stdout.splitlines()[0] if v.stdout else m.group(1)
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
        build_type = m.group(1) if m else build_type
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "compiler": compiler,
            "build_type": build_type, "kernel": platform.release()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--inject", default="", help="self-test: break one correctness gate")
    args = ap.parse_args()
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", ROOT]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_LIMIT_S} s")
        sys.exit(3)
    lines = r.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{args.workload} printed no result (exit {r.returncode})")
        sys.exit(3)

    want = expected_metrics(args.trace)
    got = res["metrics"]
    missing = sorted(set(want) - set(got))
    wrong_unit = sorted(k for k in want if k in got and got[k]["unit"] != want[k])
    if missing or wrong_unit:
        log(f"metrics missing {missing}, wrong unit {wrong_unit}")
        sys.exit(3)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "flags": sys.argv[1:], "git_sha": git_sha(),
              "host": host_fingerprint(), "failed_frac": res["failed"] / max(1, res["attempted"]),
              "gate_failures": res["gate_failures"], "info": res["info"]}
    for g in res["gate_failures"]:
        log(f"GATE FAILED: {g}")
    print("# run-record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": bool(res["correct"]), "attempted": max(1, int(res["attempted"])),
                      "failed": int(res["failed"]),
                      "metrics": {k: got[k] for k in want}}))
    sys.exit(0 if res["correct"] and r.returncode == 0 else 1)


if __name__ == "__main__":
    main()
