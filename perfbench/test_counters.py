#!/usr/bin/env python3
"""The benchmark's own test: counters named exact repeat exactly.

    python3 perfbench/test_counters.py [--seed N] [--workload W ...]

For each workload, runs the benchmark twice in fresh processes at one
seed, with --trace 0 and with --trace 1, and requires every exact
counter to be identical across the two processes, every run to report
correct, and every metric of BENCHMARK.json to be present with its unit.
Counters are taken at a fixed pass of a fresh process (pass 0 for the
end-to-end words, the first traced pass for the engine counters), since
allocation differs between passes of one process.  Exits 1 on any
mismatch.  Run from the root of a checkout.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Exact counts per workload and trace mode.  Everything else is a timing
# or depends on timing (the serve client's allocation depends on how many
# reads the socket needed).
EXACT = {
    ("check-full", 0): ["minor_words_per_run"],
    ("wide-n64", 0): ["minor_words_per_run"],
    ("chaos-gst", 0): ["minor_words_per_run"],
    ("serve-loopback", 0): [],
    ("check-full", 1): ["engine.minor_words_per_run", "engine.minor_words_per_round",
                        "engine.rounds_per_run", "engine.msgs_per_run"],
    ("wide-n64", 1): ["engine.minor_words_per_run", "engine.minor_words_per_round",
                      "engine.rounds_per_run", "engine.msgs_per_run"],
    ("chaos-gst", 1): ["chaos.dropped_per_run", "chaos.retrans_per_run",
                       "chaos.exact_cell_ratio"],
    ("serve-loopback", 1): ["ledger.attempts_per_decision",
                            "ledger.rounds_pipelined_per_decision",
                            "serve.errors", "serve.slow_disconnects"],
}


def run(workload, seed, trace, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=400)
    if out.returncode != 0:
        raise SystemExit("%s trace=%d: exit %d\n%s" % (workload, trace, out.returncode, out.stdout))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=3)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    bad = []
    for w in workloads:
        for trace in (0, 1):
            a = run(w, args.seed, trace, args.seconds)
            b = run(w, args.seed, trace, args.seconds)
            for r in (a, b):
                if not r["correct"] or r["failed"] != 0:
                    bad.append("%s trace=%d: correct=%s failed=%d" % (w, trace, r["correct"], r["failed"]))
                for m in wanted[trace]:
                    got = r["metrics"].get(m["name"])
                    if got is None or got["unit"] != m["unit"]:
                        bad.append("%s trace=%d: metric %s missing or wrong unit" % (w, trace, m["name"]))
            for name in EXACT[(w, trace)]:
                va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
                status = "ok" if va == vb else "MISMATCH"
                print("%-15s %-40s %r %r %s" % (w, name, va, vb, status))
                if va != vb:
                    bad.append("%s %s: %r != %r" % (w, name, va, vb))
    for b in bad:
        print("FAIL " + b)
    print("PASS" if not bad else "FAIL: %d problem(s)" % len(bad))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
