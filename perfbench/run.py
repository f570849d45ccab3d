#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the benchmark program
(perfbench/bench.ml and the libraries under lib/) with dune and runs it
once for the workload.  With --trace 0 it also starts the program twice
more, once before and once after that run, for set-up only, and reports
the median of the three set-up times.  Every start gets TMPDIR pointed
at a fresh directory under _build/, removed afterwards, so a run writes
only inside the checkout.  Compares the simulated-statistics digest of
the run with the one recorded for that workload and seed in
perfbench/digests.txt (a mismatch makes the run incorrect), and prints
as its last line one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end
metrics listed in BENCHMARK.json, with --trace 1 the per-layer ones.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 120
SETUP_TIMEOUT_S = 20


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e), 2)


def build():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("%s not found: run from the root of a source checkout" % needed, 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        die("dune not found on PATH", 2)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:])
        die("build failed")


def run_bench(cmd, timeout):
    """Runs the benchmark program with TMPDIR pointed at a fresh directory
    under _build/, removed afterwards.  The program times set-up from
    --launched, the moment it is started."""
    tmp_root = os.path.join(ROOT, "_build", "perfbench-tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        return subprocess.run(cmd + ["--launched", repr(time.time())], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        die("benchmark run timed out")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def setup_sample(cmd):
    """One cold set-up in a fresh process: start to the first timed op."""
    p = run_bench(cmd + ["--setup-only"], SETUP_TIMEOUT_S)
    last = p.stdout.rstrip("\n").split("\n")[-1].split()
    if p.returncode != 0 or len(last) != 2 or last[0] != "setup_s":
        sys.stdout.write(p.stdout)
        die("set-up run failed (exit %d)" % p.returncode)
    return float(last[1])


def recorded_digest(workload, seed):
    try:
        with open(os.path.join(HERE, "digests.txt")) as f:
            for line in f:
                fields = line.split()
                if len(fields) == 3 and fields[0] == workload and fields[1] == str(seed):
                    return fields[2]
    except OSError:
        pass
    return None


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    build()
    base = [EXE, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        p = run_bench(base, RUN_TIMEOUT_S)
    else:
        # Three cold set-ups, each in a fresh process: one before the
        # timed run, the timed run's own and one after it.
        setups = [setup_sample(base)]
        p = run_bench(base, RUN_TIMEOUT_S)
        setups.append(setup_sample(base))
    lines = p.stdout.rstrip("\n").split("\n")
    if p.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(p.stdout)
        die("benchmark program failed (exit %d)" % p.returncode)
    for line in lines[:-1]:
        print(line)
    out = json.loads(lines[-1])
    if not args.trace:
        setups.insert(1, out["metrics"]["setup_s"]["value"])
        out["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print("setup_s samples: %s s (median reported)"
              % ", ".join("%.4f" % t for t in setups))

    correct = bool(out["correct"])
    expected = recorded_digest(args.workload, args.seed)
    if expected is None:
        print("digest: no recorded value for this workload and seed")
    elif expected != out["digest"]:
        print("DIGEST MISMATCH: recorded %s, got %s (a simulated statistic "
              "or compiled result changed)" % (expected, out["digest"]))
        correct = False
    else:
        print("digest: matches the recorded value")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = out["metrics"].get(m["name"])
        if got is None or not isinstance(got["value"], (int, float)) \
                or not math.isfinite(got["value"]):
            die("metric %s missing or not finite" % m["name"])
        if got["unit"] != m["unit"]:
            die("metric %s has unit %s, expected %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
