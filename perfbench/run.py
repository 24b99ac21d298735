#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/main.exe and the
host-speed reference kernel perfbench/reference.exe from source with dune (the dune cache is disabled, so the build writes only under
_build/), runs it once, and passes its output through: the last line of
stdout is the JSON result.  Exits non-zero, without printing a result,
when the checkout holds no buildable repository or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["check-full", "wide-n64", "chaos-gst", "serve-loopback"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive", 2)

    for need in ("dune-project", "lib", os.path.join("perfbench", "main.ml")):
        if not os.path.exists(need):
            die("no %s here: run from the root of a repository checkout" % need, 2)

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "-j", "2",
             "./perfbench/main.exe", "./perfbench/reference.exe"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build did not complete: %s" % e)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        die("build failed")

    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("run did not complete: %s" % e)
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        die("run exited with code %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(run.stdout)
        die("the last line of the run is not a JSON result")
    if not isinstance(result, dict) or "correct" not in result:
        sys.stdout.write(run.stdout)
        die("the last line of the run is not a result object")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
