#!/usr/bin/env python3
"""The benchmark of record: build perfbench, run one workload, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds the
program (perfbench/CMakeLists.txt compiles the library sources itself) into
.bench_build/; later runs only rebuild what changed.  The workload runs in
one child process, which this script waits for.

With --trace 0 the result carries every end-to-end metric of
BENCHMARK.json; with --trace 1, every per-layer metric (and a chrome trace
lands in .bench_build/results/).  The full record of each run, with the
host facts (cores, CPU, compiler, build switches, source revision) and the
sample counts behind each timing, is written to
.bench_build/results/<workload>-s<seed>-t<trace>.json; compare.py compares
two sets of such records.  The last line of standard output is the summary:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Counts that must repeat exactly are checked against perfbench/pins.json
(charged MPC rounds and words per workload; the update classes the program
reported for a fixed prefix of acknowledged events, per workload and seed);
a difference fails the run.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

WORKLOADS = ("query_skewed", "churn_persist", "net_tier")
BUILD_DIR = ".bench_build"
HERE = os.path.dirname(os.path.abspath(__file__))
# Allowance beyond --seconds for inputs, set-ups, probes and the gates.
OVERHEAD_TIMEOUT_S = 150


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build the program; returns its path."""
    build_dir = os.path.abspath(BUILD_DIR)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            die("configure failed:\n" + proc.stdout + proc.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    proc = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        die("build failed:\n" + proc.stdout[-4000:] + proc.stderr[-4000:])
    return os.path.join(build_dir, "perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    if not os.path.isdir(".git"):
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources (path + contents)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".py", ".txt", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def host_facts(build_info):
    facts = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }
    facts.update(build_info)
    return facts


def load_json(path, default):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return default


def check_pins(workload, seed, pins):
    """Mismatches against the committed pins of this workload and seed."""
    committed = load_json(os.path.join(HERE, "pins.json"), {}).get(workload, {})
    want = dict(committed.get("by_seed", {}).get(str(seed), {}))
    want.update({k: v for k, v in committed.items() if k != "by_seed"})
    return ["%s=%d, but pins.json has %d for %s seed %d"
            % (key, value, want[key], workload, seed)
            for key, value in sorted(pins.items())
            if key in want and want[key] != value]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    binary = build()
    results = os.path.join(BUILD_DIR, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, "%s-s%d-t%d.json"
                       % (args.workload, args.seed, args.trace))
    if os.path.exists(out):
        os.remove(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", results, "--out", out]
    timeout = args.seconds + OVERHEAD_TIMEOUT_S
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        die("workload did not finish within %g s" % timeout)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not os.path.exists(out):
        die("workload exited with code %d" % proc.returncode)

    record = load_json(out, None)
    if record is None:
        die("unreadable result record " + out)
    record["host"] = host_facts(record.pop("build", {}))
    errors = check_pins(args.workload, args.seed, record["pins"])
    errors += record["failures"]

    spec = load_json("BENCHMARK.json", None)
    metrics = record["metrics"]
    if spec is not None:
        names = [m["name"] for m in spec["per_layer" if args.trace
                                         else "end_to_end"]]
        missing = [n for n in names if n not in metrics]
        if missing:
            errors.append("metrics not reported: " + ", ".join(missing))
        metrics = {n: metrics[n] for n in names if n in metrics}
    record["errors"] = errors
    with open(out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    for e in errors:
        print("perfbench: " + e, file=sys.stderr)
    correct = not errors and record["failed"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
