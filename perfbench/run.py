#!/usr/bin/env python3
"""Served-path benchmark of Spitz: build, then run one workload.

    python3 perfbench/run.py --workload verified-read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --workload mixed --repeat 5        # steadiness check

Run from the repository root. The script builds the `spitz` CLI and the
OCaml driver (perfbench/spitzbench.ml) with dune, then runs the driver,
which starts `spitz serve` as a child process. The last line of standard
output is the driver's JSON result. See perfbench/README.md.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ["verified-read", "durable-commit", "mixed"]
CLI = os.path.join("_build", "default", "bin", "spitz_cli.exe")
DRIVER = os.path.join("_build", "default", "perfbench", "spitzbench.exe")
WORK = ".perfbench-work"
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def build():
    """Build the CLI and the driver; build output goes to stderr."""
    cmd = ["dune", "build", "--root", ".", "./bin/spitz_cli.exe", "./perfbench/spitzbench.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"build failed: {e}")
    if done.returncode != 0 or not (os.path.isfile(CLI) and os.path.isfile(DRIVER)):
        sys.exit("build failed")


def reap_all():
    """Wait for every descendant: as a child subreaper, orphaned
    grandchildren (a server whose driver died) are reparented to us."""
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run_driver(workload, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout lines)."""
    work = os.path.join(WORK, f"{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--cli", CLI, "--work", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out after {RUN_TIMEOUT} s", file=sys.stderr)
        out, code = "", 124
    finally:
        # the driver's process group holds the server children it started
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        reap_all()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    return code, out.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(workload, seed, seconds, trace, k):
    """Steadiness self-check: k runs on seeds seed..seed+k-1, then each
    metric's median, quartiles and spread (IQR / median)."""
    values = {}
    units = {}
    for i in range(k):
        code, lines = run_driver(workload, seed + i, seconds, trace)
        result = parse_result(lines)
        if code != 0 or result is None:
            print("\n".join(lines))
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"run {i + 1}/{k} seed {seed + i}: " +
              " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
              flush=True)
    print(f"{'metric':34} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8}")
    for name, vs in values.items():
        q1, q2, q3 = quartiles(vs)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        print(f"{name:34} {q1:12.5g} {q2:12.5g} {q3:12.5g} {spread:8.4f} {units[name]}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run the workload this many times and print quartiles")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    # a SIGTERM still runs run_driver's cleanup of the driver's process group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # PR_SET_CHILD_SUBREAPER: orphans of the driver are reparented here
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass

    build()
    if args.repeat > 0:
        if args.workload == "all":
            ap.error("--repeat takes one workload")
        sys.exit(repeat(args.workload, args.seed, args.seconds, args.trace, args.repeat))

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    worst = 0
    results = {}
    for wl in workloads:
        t0 = time.monotonic()
        code, lines = run_driver(wl, args.seed, args.seconds, args.trace)
        result = parse_result(lines)
        if len(workloads) > 1:
            print(f"== {wl} ({time.monotonic() - t0:.1f} s)")
        print("\n".join(lines[:-1] if result else lines), flush=True)
        if result is None:
            print(f"{wl}: no result (exit {code})", file=sys.stderr)
            worst = worst or code or 1
            continue
        if code != 0 or not result["correct"]:
            worst = worst or code or 1
        results[wl] = result
    if len(workloads) == 1 and results:
        print(json.dumps(results[workloads[0]]))
    elif len(results) == len(workloads):
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{wl}/{n}": m for wl, r in results.items()
                        for n, m in r["metrics"].items()},
        }))
    sys.exit(worst)


if __name__ == "__main__":
    main()
