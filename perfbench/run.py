#!/usr/bin/env python3
"""Repository benchmark: one command per workload.

    python3 perfbench/run.py --workload social-int8 --seed 1 \
        --seconds 30 --trace 0

Builds perfbench/driver.cc (and the repository libraries it links) with
CMake into .bench_build/ on first use, runs the workload's closed decision
loop on the committed bench_cache models, and prints every metric by
name and unit. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced episodes and reports the per-layer metrics
(and writes the spans as Chrome trace-event JSON under
.bench_build/perfbench/traces/). See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s, or 900 s when it configures and builds.
RUN_LIMIT_S = 175.0
FIRST_RUN_LIMIT_S = 890.0


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir, jobs):
    """Configures once, then builds the driver (a no-op when current).
    Returns the driver path and whether this run configured the tree."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    first = not os.path.exists(os.path.join(bdir, "CMakeCache.txt"))
    if first:
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_driver",
                  "-j", str(jobs)])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=ROOT, timeout=880).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e), 1)
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail("build failed (%s):\n%s" % (" ".join(cmd), tail), 1)
    return os.path.join(bdir, "perfbench_driver"), first


def cpu_descriptor():
    model, mhz = "unknown", "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = val.strip()
                elif key == "cpu MHz" and mhz == "unknown":
                    mhz = val.strip()
    except OSError:
        pass
    return model, mhz


def source_descriptor():
    """Git commit when the checkout is a repository of its own, and
    always a digest of the sources the benchmark builds and loads."""
    commit = "none (not a git checkout)"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for sub in ("CMakeLists.txt", "src", "bench", "bench_cache", "perfbench"):
        path = os.path.join(ROOT, sub)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for p in files:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return commit, h.hexdigest()[:16]


def main():
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload, names))
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")
    for need in ("src/CMakeLists.txt", "bench/bench_util.h",
                 "bench_cache/social.model", "bench_cache/hotel.model"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("repository file %s is missing; run from a full checkout"
                 % need)

    threads = nproc()
    driver, first = build(build_dir(), threads)
    t_built = time.monotonic()
    limit = (FIRST_RUN_LIMIT_S if first else RUN_LIMIT_S) - (t_built - t_start)

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--threads", str(threads), "--root", ROOT]
    if args.trace:
        tdir = os.path.join(build_dir(), "traces")
        os.makedirs(tdir, exist_ok=True)
        trace_path = os.path.join(
            tdir, "%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(limit, 1.0))
    except subprocess.TimeoutExpired:
        fail("driver exceeded the run's time limit", 1)
    if proc.returncode != 0:
        fail("driver exited %d:\n%s" % (proc.returncode, proc.stderr[-4000:]),
             1)
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail("driver printed no result:\n" + proc.stdout[-2000:], 1)

    cpu_model, mhz = cpu_descriptor()
    commit, tree = source_descriptor()
    d = res["descriptor"]
    descriptor = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpu_model": cpu_model, "cpu_mhz": mhz, "nproc": threads,
        "pool_threads": d["pool_threads"],
        "simd": "avx2" if d["simd_active"] else "scalar",
        "fp32_kernel_id": d["fp32_kernel_id"],
        "int8_kernel_id": d["int8_kernel_id"],
        "repetitions": d["episodes"],
        "episode_sim_s": d["episode_sim_s"],
        "git_commit": commit, "source_digest": tree,
        "build_s": round(t_built - t_start, 3),
        "host_ref_loop_ms": d["host_ref_loop_ms"],
        "decision_digest": d["digest"],
        "serial_digest": d["serial_digest"],
    }
    if "fault_spec" in res:
        descriptor["fault_spec"] = res["fault_spec"]
    print("run " + json.dumps(descriptor, sort_keys=True))
    for note in res["notes"]:
        print("note: " + note)
    if args.trace:
        print("note: spans written to " + os.path.relpath(trace_path, ROOT))

    # Every metric the driver measured, by name and unit; the result line
    # carries the set BENCHMARK.json names for this mode.
    for section in ("end_to_end", "per_layer"):
        for name, m in res[section].items():
            if section == "per_layer" and not args.trace:
                continue
            value = "null" if m["value"] is None else "%.6g" % m["value"]
            print("%-34s %14s %s" % (name, value, m["unit"]))
    print("episodes (intervals/s, decide p50 ms): " + " ".join(
        "%.0f/%.4f" % (e["intervals_per_s"] or 0, e["decide_p50_ms"] or 0)
        for e in res["episode_timings"]))

    want = spec["per_layer"] if args.trace else spec["end_to_end"]
    have = res["per_layer"] if args.trace else res["end_to_end"]
    checks = list(res["checks_failed"])
    metrics = {}
    for m in want:
        got = have.get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            checks.append("metric %s missing or mis-unitised" % m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if res["failed"]:
        checks.append("%d of %d decision intervals failed (first: %s)"
                      % (res["failed"], res["attempted"], res["first_error"]))
    for c in checks:
        print("check failed: " + c)
    print("checks: " + ("ok" if not checks else "%d failed" % len(checks)))
    print(json.dumps({"correct": not checks, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
