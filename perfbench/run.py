#!/usr/bin/env python3
"""Build and run the gkll benchmark.

    python3 perfbench/run.py --workload attack|flow|service --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/;
later runs only re-check the build.  Build output goes to stderr, the
driver's report to stdout, and the last stdout line is the JSON result.

Work counters (the "#counters" line) are kept in .bench_build/ledger/,
one file per workload, seed and source tree (a hash of src/ and
perfbench/).  A later run of the same code, workload and seed whose
counters differ is reported as nondeterminism: the result's "correct"
turns false and the differing counters go to stderr.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "gkll_perf")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the driver; exits 1 when that fails."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("run.py: no src/ next to perfbench/; run from a full checkout")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD, "-j", "3"],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: build failed")


def driver_env():
    env = dict(os.environ)
    env["GKLL_THREADS"] = "2"
    for var in ("GKLL_TRACE", "GKLL_TRACE_DIR", "GKLL_JOURNAL"):
        env.pop(var, None)
    return env


def run_driver(args):
    """Run the driver binary; returns its stdout lines (exits on failure)."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, env=driver_env(),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: driver timed out")
    if proc.returncode != 0:
        sys.exit("run.py: driver exited with %d" % proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        sys.exit("run.py: driver printed no result")
    return lines


def tree_hash():
    """Hash of every file under src/ and perfbench/: the code being measured."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def check_ledger(name, counters):
    """Compare counters with the ledger entry `name`; True when they agree."""
    path = os.path.join(BUILD, "ledger", name + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    diff = {k: (known[k], v) for k, v in counters.items()
            if k in known and known[k] != v}
    for k, (was, now) in sorted(diff.items()):
        print("run.py: nondeterministic work counter %s: %d before, %d now"
              % (k, was, now), file=sys.stderr)
    known.update(counters)
    with open(path, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    return not diff


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["attack", "flow", "service"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    a = ap.parse_args()

    build()
    lines = run_driver(["--workload", a.workload, "--seed", str(a.seed),
                        "--seconds", str(a.seconds), "--trace", a.trace])
    result = json.loads(lines[-1])
    counters = {}
    for line in lines[:-1]:
        if line.startswith("#counters "):
            counters = json.loads(line[len("#counters "):])
        else:
            print(line)
    if not check_ledger("%s-%d-%s" % (a.workload, a.seed, tree_hash()),
                        counters):
        result["correct"] = False
    print("work counters: " + json.dumps(counters, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
