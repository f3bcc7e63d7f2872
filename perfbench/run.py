#!/usr/bin/env python3
"""Truss benchmark: one command, four workloads, checked answers.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the driver (perfbench/CMakeLists.txt, which compiles libtruss from
the repository's sources) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. Then, in two processes, it prepares the workload's
input and oracle from the seed and measures the workload for S seconds.
The last line of standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. A per-layer metric of a layer the
workload does not use reads 0. Any wrong answer, failed operation, or
drift of an exact count for the same seed and build makes "correct" false
and the exit code 1. Workloads, metrics and their meaning: perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("social-text", "deep-parallel", "external-budget", "serve-mixed")
PREPARE_TIMEOUT_S = 300
MEASURE_GRACE_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_checked(cmd, timeout):
    """Runs cmd to completion (killing it on timeout); returns (code, out)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, ""
    return proc.returncode, out


def build(build_dir):
    if not (os.path.isfile(os.path.join(REPO, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(REPO, "src"))):
        log("perfbench: the repository sources are missing next to %s" % HERE)
        return None
    pb_build = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(pb_build, "CMakeCache.txt")):
        code = subprocess.call(
            ["cmake", "-S", HERE, "-B", pb_build,
             "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
        if code != 0:
            shutil.rmtree(pb_build, ignore_errors=True)
            return None
    code = subprocess.call(
        ["cmake", "--build", pb_build, "--target", "trussbench",
         "-j", str(nproc())], stdout=sys.stderr)
    binary = os.path.join(pb_build, "trussbench")
    return binary if code == 0 and os.path.isfile(binary) else None


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def build_id(binary):
    """Identifies a build by the hash of its driver binary, which has
    libtruss linked in: a change to the program changes it."""
    digest = hashlib.sha256()
    with open(binary, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def check_drift(store_dir, key, counts):
    """Compares exact counts with the ones stored under `key` (workload,
    seed and build) by an earlier run; stores them on first sight. A
    different build, e.g. one that changes the I/O pattern, starts its own
    record. Returns the list of drifted names."""
    os.makedirs(store_dir, exist_ok=True)
    path = os.path.join(store_dir, key + ".json")
    if os.path.isfile(path):
        with open(path) as f:
            old = json.load(f)
        drifted = sorted(name for name, value in counts.items()
                         if name in old and old[name] != value)
        merged = dict(old)
        merged.update({k: v for k, v in counts.items() if k not in old})
    else:
        drifted, merged = [], counts
    with open(path, "w") as f:
        json.dump(merged, f, sort_keys=True)
    return drifted


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    # Compiler and library temporaries stay inside the build directory too.
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    binary = build(build_dir)
    if binary is None:
        log("perfbench: build failed")
        return 2

    key = "%s-seed%d" % (args.workload, args.seed)
    work = os.path.join(build_dir, "perfbench-work", "%s-%d" % (key,
                                                                os.getpid()))
    results_dir = os.path.join(build_dir, "perfbench-results")
    os.makedirs(results_dir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", work]
    try:
        code, out = run_checked([binary, "prepare"] + common,
                                PREPARE_TIMEOUT_S)
        prepared = last_json(out) if out else None
        if code != 0 or prepared is None:
            log("perfbench: prepare failed: %s" % (prepared or {}).get(
                "error", "exit %s" % code))
            return 1
        trace_file = os.path.join(results_dir, key + "-spans.json")
        code, out = run_checked(
            [binary, "measure"] + common +
            ["--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--trace-out", trace_file],
            args.seconds + MEASURE_GRACE_S)
        lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        if code != 0 or len(lines) < 2:
            log("perfbench: measure failed (exit %s)" % code)
            return 1
        calibration, report = lines[-2]["calibration"], lines[-1]
        calibration["memory_access_ns"] = prepared["memory_access_ns"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = {name: m["value"] for name, m in report["metrics"].items()}
    setup = statistics.median(prepared["setup_seconds"])
    # The serving workload also sets up inside the measured process: it
    # loads the input, builds and publishes the index, starts the server.
    setup += measured.pop("serve.setup_in_process_s", 0.0)
    measured["setup_s"] = setup

    # Counts the measured run shares with the oracle must agree with it.
    counts = dict(prepared["counts"])
    drifted = sorted(name for name, value in report["counts"].items()
                     if counts.get(name, value) != value)
    counts.update(report["counts"])
    drifted += check_drift(os.path.join(build_dir, "perfbench-counts"),
                           "%s-%s" % (key, build_id(binary)), counts)
    failed = report["failed"] + len(drifted)
    attempted = report["attempted"] + len(drifted)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        if value is None:
            if not args.trace:
                log("perfbench: end-to-end metric %s missing" % m["name"])
                return 1
            value = 0.0  # the workload does not use this layer
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = failed == 0

    summary = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "calibration": calibration, "counts": counts, "drifted": drifted,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "errors": report["errors"], "self_seconds": report["self_seconds"],
        "metrics": metrics,
    }
    with open(os.path.join(results_dir, "%s-trace%d.json" % (key,
                                                             args.trace)),
              "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
    print("seed %d  workload %s  trace %d" % (args.seed, args.workload,
                                               args.trace))
    print("calibration " + json.dumps(calibration))
    print("fail_ratio %.6g (%d of %d)  exact counts %s" % (
        summary["fail_ratio"], failed, attempted,
        "drifted: " + ", ".join(drifted) if drifted else "repeat"))
    for e in report["errors"]:
        print("error " + e)
    if args.trace:
        print("self_seconds " + json.dumps(report["self_seconds"],
                                           sort_keys=True))
        print("spans " + trace_file)
    for name, m in metrics.items():
        print("%-28s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
