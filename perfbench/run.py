#!/usr/bin/env python3
"""Builds and runs the nimage repository benchmark.

    python3 perfbench/run.py --workload awfy_eval --seed 1 --seconds 20 --trace 0

Run it from the root of the repository. It builds the library and the
benchmark binary from source (CMake, into $CARGO_TARGET_DIR or
.bench_build), runs one workload for about --seconds, checks the program
outputs and the determinism of the model numbers, prints every metric by
name with its unit, and prints one JSON result object as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run. The full record (provenance, per-program model rows,
counts, failures) and, for traced runs, the spans are written next to the
build. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("awfy_eval", "service_fleet")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(REPO, root)


def build(out_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    src = BENCH_DIR
    cache = os.path.join(out_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != src:
            shutil.rmtree(out_dir)
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", src, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed: %s" % e)
            return None
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    binary = os.path.join(out_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def source_hash():
    """sha256 over the program and benchmark sources: the 'same code' key
    of the cross-run determinism check."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(REPO, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(REPO))
    try:
        p = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def check_history(path, key, record, traced):
    """Model rows (and, for traced runs, layer counts) must repeat exactly
    for the same code and seed. Returns a list of differences."""
    history = {}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as f:
                history = json.load(f)
        except (OSError, ValueError):
            history = {}
    entry = history.setdefault(key, {})
    problems = []
    fields = [("model_rows", record["model_rows"])]
    if traced:
        fields.append(("counts", record["counts"]))
    for name, value in fields:
        if name in entry and entry[name] != value:
            problems.append("%s differ from an earlier run of the same code "
                            "and seed" % name)
        entry.setdefault(name, value)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(history, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return problems


def main():
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # benchmark binary before re-raising.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = build_root()
    os.makedirs(root, exist_ok=True)
    runs = os.path.join(root, "perfbench-runs")
    os.makedirs(runs, exist_ok=True)
    with open(os.path.join(root, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        binary = build(os.path.join(root, "perfbench"))
        if binary is None:
            return 1

        tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        spans = os.path.join(runs, tag + ".spans.json")
        cmd = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--expected", os.path.join(BENCH_DIR, "expected_outputs.tsv")]
        if args.trace:
            cmd += ["--spans-out", spans]
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("benchmark run timed out")
            return 1
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            log("benchmark binary exited with %d" % p.returncode)
            return 1
        record = json.loads(lines[-1])

        problems = check_history(
            os.path.join(runs, "determinism.json"),
            "%s/%d/%s" % (args.workload, args.seed, source_hash()),
            record, args.trace == 1)
        for msg in problems:
            log("FAIL " + msg)
            record["failures"].append(msg)
            record["attempted"] += 1
            record["failed"] += 1
            record["correct"] = False

        prov = record["provenance"]
        prov["git_commit"] = git_commit()
        prov["source_sha256"] = source_hash()
        prov["run_seconds"] = args.seconds
        with open(os.path.join(runs, tag + ".json"), "w",
                  encoding="utf-8") as f:
            json.dump(record, f, indent=1)

    for name, m in record["metrics"].items():
        print("%-34s %22.6f %s" % (name, m["value"], m["unit"]))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    result = {k: record[k] for k in ("correct", "attempted", "failed",
                                     "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
