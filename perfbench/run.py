#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke              # every workload, tiny, all checks
    python3 perfbench/run.py --overhead --workload <name> --seed <n> --seconds <s>

Run from the root of a checkout. The benchmark binary is built from the
sources in the checkout into .bench_build/perfbench; durable stores and
trace files go to .bench_build/run and are removed or overwritten by later
runs. The last line of standard output is the run's JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "run")
BINARY = os.path.join(BUILD, "aspen_perfbench")
WORKLOADS = ["serve-mixed", "ingest-durable", "snapshot-analytics"]
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    stamp = os.path.getmtime(BINARY) if os.path.exists(BINARY) else None
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    if stamp is None or os.path.getmtime(BINARY) != stamp:
        # Write the fresh build out now, so its writeback does not compete
        # with the durable workload's fsyncs during the first measured run.
        for d, _, files in os.walk(BUILD):
            for f in files:
                fd = os.open(os.path.join(d, f), os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)


def run_once(workload, seed, seconds, trace, smoke=False):
    """Run the binary; returns (result, traced end-to-end or None)."""
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", OUT]
    if smoke:
        cmd.append("--smoke")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S))
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or not lines:
        sys.exit("perfbench: %s exited with code %d" % (workload, r.returncode))
    result = json.loads(lines[-1])
    traced = None
    for l in lines[:-1]:
        obj = json.loads(l)
        if "traced_end_to_end" in obj:
            traced = obj["traced_end_to_end"]
    return result, traced


def smoke():
    ok = True
    for w in WORKLOADS:
        for trace in (False, True):
            res, _ = run_once(w, 1, 1, trace, smoke=True)
            good = res["correct"] and res["failed"] == 0
            ok = ok and good
            print("smoke %-20s trace=%d attempted=%d failed=%d correct=%s" %
                  (w, trace, res["attempted"], res["failed"], res["correct"]))
    return 0 if ok else 1


def overhead(workload, seed, seconds):
    plain, _ = run_once(workload, seed, seconds, False)
    _, traced = run_once(workload, seed, seconds, True)
    for name, m in plain["metrics"].items():
        t = traced[name]["value"]
        base = m["value"]
        share = (t - base) / base if base else float("nan")
        print("overhead %-16s untraced %.6g traced %.6g (%+.1f%%)" %
              (name, base, t, 100 * share))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--overhead", action="store_true")
    a = ap.parse_args()
    build()
    if a.smoke:
        return smoke()
    if not a.workload:
        ap.error("--workload is required")
    if a.overhead:
        return overhead(a.workload, a.seed, a.seconds)
    res, _ = run_once(a.workload, a.seed, a.seconds, a.trace == 1)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
