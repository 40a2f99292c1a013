#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gates, at toy sizes.

    python3 perfbench/selftest.py

Runs each workload once as is (it must pass, exit 0) and once per gate
with that gate deliberately broken (a wrong expected balance, checksum,
status rule or backend answer); each broken run must exit nonzero and
report correct=false. Takes about a minute after the build.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CASES = [
    ("serve-kv", ""),
    ("heap-bank", ""),
    ("dacapo", ""),
    ("il", ""),
    ("serve-kv", "serve-conservation"),
    ("serve-kv", "serve-status"),
    ("heap-bank", "bank-conservation"),
    ("dacapo", "dacapo-checksum"),
    ("il", "il-reference"),
    ("il", "il-backend"),
]


def run(workload, inject):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", "0", "--tiny"]
    if inject:
        cmd += ["--inject", inject]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    try:
        correct = json.loads(r.stdout.strip().splitlines()[-1])["correct"]
    except (IndexError, ValueError, KeyError):
        correct = None
    return r.returncode, correct, r.stderr


def main():
    failures = 0
    for workload, inject in CASES:
        code, correct, err = run(workload, inject)
        ok = (code == 0 and correct is True) if not inject else (code != 0 and correct is False)
        label = f"{workload} {inject or '(clean)'}"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: exit {code}, correct={correct}", flush=True)
        if not ok:
            failures += 1
            sys.stderr.write(err[-2000:])
    print("selftest: " + ("all gates behave" if failures == 0 else f"{failures} case(s) wrong"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
