#!/usr/bin/env python3
"""The ccbt benchmark, as one command.

    python3 perfbench/run.py --workload est-small --seed 1 --seconds 10 --trace 0

Run it from the repository root. It builds the library and the benchmark
driver from source into .bench_build/ (Release, CMake), runs one workload
in its own process, prints every metric by name with its unit, and ends
with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run. The full result (machine block, cells, failed ops, checks,
regime guard) is printed before that line and written to
.bench_build/results/. Workloads and metrics are described in
perfbench/README.md. The exit code is non-zero when the build fails, when a
CCBT_* environment knob is set, or when any count check fails.
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
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build into .bench_build; returns the binary path."""
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def cache_sizes():
    """L2 and L3 sizes of cpu0, as the kernel reports them."""
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = read(os.path.join(base, index, "level"))
        if level in ("2", "3"):
            sizes["l%s" % level] = read(os.path.join(base, index, "size"))
    return sizes


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def machine(result):
    cpuinfo = read("/proc/cpuinfo") or ""
    model, flags = None, set()
    for line in cpuinfo.splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "model name" and model is None:
            model = value.strip()
        if key.strip() == "flags" and not flags:
            flags = set(value.split())
    return {
        "cpu": model,
        "avx2": "avx2" in flags,
        "avx512f": "avx512f" in flags,
        "nproc": len(os.sched_getaffinity(0)),
        "cache": cache_sizes(),
        "compiler": result.get("compiler"),
        "build_type": result.get("build_type"),
        "omp_threads": result.get("omp_threads"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload_seed": result.get("seed"),
    }


def report(result):
    d = result.get("details", {})
    log_lines = [
        "perfbench %s  seed %s  trace %s  threads %s  rounds %s  ops %s  failed %s"
        % (result["workload"], result["seed"], result["trace"],
           result["omp_threads"], d.get("rounds"), result["attempted"],
           result["failed"]),
        "  regime: %s" % result["regime"],
    ]
    for name, m in result["metrics"].items():
        line = "  %-28s %14.6g %s" % (name, m["value"], m["unit"])
        if name == "op_tail_s":
            line += "  (p%.1f, %d samples beyond, %d ops)" % (
                d["op_tail_percentile"], d["op_tail_samples_beyond"], d["ops"])
        log_lines.append(line)
    if "failed_frac" in d:
        log_lines.append("  %-28s %14.6g ratio  dnf: %s" % (
            "failed_frac", d["failed_frac"], ", ".join(d["dnf"]) or "none"))
    if "regime_guard" in d:
        log_lines.append("  regime guard: %s (%d of %d phases sparse)" % (
            d["regime_guard"], d["sparse_phases"], d["phases"]))
        log_lines.append("  span coverage: min %.4f, mean %.4f (target %.2f)" % (
            result["metrics"]["trace.span_coverage"]["value"],
            d["span_coverage_mean"], d["span_coverage_target"]))
        log_lines.append("  trials_per_s traced %.6g, untraced %.6g (overhead %+.2f%%)" % (
            result["metrics"]["trace.trials_per_s"]["value"],
            result["metrics"]["trace.untraced_trials_per_s"]["value"],
            100.0 * d["tracing_overhead"]))
    log_lines.append("  checks passed: %d, mismatches: %d" % (
        result["checks_passed"], len(result["mismatches"])))
    for m in result["mismatches"]:
        log_lines.append("  MISMATCH: " + m)
    for f in result["failures"]:
        log_lines.append("  FAILED OP: " + f)
    for w in result["warnings"]:
        log_lines.append("  WARNING: " + w)
    print("\n".join(log_lines), flush=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError) as e:
        log("perfbench: %s" % e)
        return 1

    name = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(BUILD, "traces", name + ".json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
        return 1
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: driver exited %d without a result" % done.returncode)
        return 1

    result["machine"] = machine(result)
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", name + ".json"), "w") as f:
        json.dump(result, f, indent=1)
    report(result)
    print("result: " + json.dumps(result))
    correct = bool(result["correct"]) and done.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
