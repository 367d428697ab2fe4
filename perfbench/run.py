#!/usr/bin/env python3
"""Build and run the perfbench harness from the root of a source checkout.

One workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds perfbench/main.exe and bin/rvserved.exe with dune, runs the
workload, and passes its output through: the last stdout line is the
result object.  With --trace 1 the metrics are the per-layer ones.

Every workload, one row each:

    python3 perfbench/run.py --table [--seed N] [--seconds S]

prints every end-to-end metric with its unit, plus error_rate, for the
four workloads.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = ".perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TARGETS = ["./perfbench/main.exe", "./bin/rvserved.exe"]


def env():
    e = dict(os.environ)
    # keep every build artifact inside the checkout
    e["DUNE_CACHE"] = "disabled"
    return e


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", *TARGETS],
            cwd=ROOT, env=env(), timeout=BUILD_TIMEOUT_S,
            stdout=sys.stderr, stderr=sys.stderr,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    if r.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if f.endswith((".ml", ".mli", "dune", "dune-project", ".py")):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return "tree:" + h.hexdigest()


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout lines)."""
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    rvserved = os.path.join("_build", "default", "bin", "rvserved.exe")
    e = env()
    e["PERFBENCH_COMMIT"] = source_id()
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--rvserved", rvserved, "--workdir", WORKDIR]
    # its own process group, so a timeout also takes down the rvserved
    # daemon it started
    p = subprocess.Popen(cmd, cwd=ROOT, env=e, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1, []
    return p.returncode, out.splitlines()


WORKLOADS = ["instrument-dense", "analyze-large", "run-traced", "serve-mix"]


def table(seed, seconds):
    rows = []
    for w in WORKLOADS:
        code, lines = run_workload(w, seed, seconds, 0)
        if code != 0 or len(lines) < 2:
            print(f"perfbench: {w} failed", file=sys.stderr)
            return 1
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
        rows.append((w, details, result))
    names = list(rows[0][2]["metrics"])
    lat = list(rows[0][1]["serve_latency_ms"])
    head = ["workload"] + [f"{n} ({rows[0][2]['metrics'][n]['unit']})" for n in names] \
        + [f"{n} (ms)" for n in lat] + ["error_rate (fraction)", "correct", "samples"]
    print("\t".join(head))
    for w, d, r in rows:
        s = d["samples"]
        cells = [w] + ["%.6g" % r["metrics"][n]["value"] for n in names] + [
            "%.6g" % float(d["serve_latency_ms"][n]) for n in lat] + [
            d["error_rate"], str(r["correct"]).lower(),
            "sessions=%d iterations=%d requests=%d setups=%d" % (
                s["sessions"], s["iterations"], s["requests"], s["setups"])]
        print("\t".join(cells))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=22)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--table", action="store_true")
    a = ap.parse_args()
    if not a.table and a.workload is None:
        ap.error("--workload or --table is required")
    if not build():
        return 1
    if a.table:
        return table(a.seed, a.seconds)
    code, lines = run_workload(a.workload, a.seed, a.seconds, a.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
