#!/usr/bin/env python3
"""FARM benchmark entry point (see farmbench/README.md).

Run from the repository root:

    python3 farmbench/run.py --workload fleet_steady --seed 1 --seconds 10 --trace 0
    python3 farmbench/run.py --self-test

Builds the driver from source into $CARGO_TARGET_DIR/farmbench (default
.bench_build/farmbench), runs one workload, and prints one JSON result line
last on stdout. With --trace 1 the run also writes its spans, per-op records,
Granary counters and Furrow profile to <build>/traces/<workload>-<seed>.json.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("fleet_steady", "task_churn", "fleet_failover")
# The metric whose change between the untraced and the traced run of a
# workload is reported as bench.trace_overhead_pct; True if higher is better.
HEADLINE = {
    "fleet_steady": ("sim_speed", True),
    "task_churn": ("install_ms", False),
    "fleet_failover": ("failover_ms", False),
}
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("farmbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "farmbench")


def build(targets):
    """Configures once and builds the given targets; output goes to stderr."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(root, need)):
            die("no FARM sources beside the benchmark (missing %s)" % need)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", here, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"] + targets,
                   stdout=sys.stderr, check=True)
    return out


def parse_output(stdout):
    """Returns (result, diagnostics) from the driver's stdout."""
    result, diag = None, None
    for line in stdout.splitlines():
        if line.startswith("diagnostics "):
            diag = json.loads(line[len("diagnostics "):])
        elif line.startswith("{"):
            result = json.loads(line)
    return result, diag


def trace_overhead_pct(workload, traced_e2e, baseline_path):
    """Change of the workload's headline metric from an untraced run of the
    same workload to this traced one, in percent (0 without one)."""
    try:
        with open(baseline_path) as f:
            base = json.load(f)
    except (OSError, ValueError):
        return 0.0
    name, higher_better = HEADLINE[workload]
    b, t = base[name]["value"], traced_e2e[name]["value"]
    return (b / t - 1.0) * 100.0 if higher_better else (t / b - 1.0) * 100.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.self_test:
        out = build(["farm_bench_test"])
        sys.exit(subprocess.run([os.path.join(out, "farm_bench_test")]).returncode)
    if not args.workload:
        die("--workload is required")

    out = build(["farm_bench"])
    results = os.path.join(out, "results")
    traces = os.path.join(out, "traces")
    os.makedirs(results, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(out, "farm_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed))]
    env = dict(os.environ, FARM_THREADS="1")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("driver exceeded %d s" % RUN_TIMEOUT_S, 1)
    result, diag = parse_output(proc.stdout)
    if result is None or diag is None:
        sys.stderr.write(proc.stdout)
        die("driver exited %d without a result" % proc.returncode, 1)

    # The untraced baseline of this workload: same seed if there is one.
    same_seed = os.path.join(results, "%s-%d.json" % (args.workload, args.seed))
    latest = os.path.join(results, args.workload + ".json")
    if args.trace:
        baseline = same_seed if os.path.isfile(same_seed) else latest
        result["metrics"]["bench.trace_overhead_pct"] = {
            "value": trace_overhead_pct(args.workload, diag["end_to_end"],
                                        baseline),
            "unit": "%"}
    elif result["correct"]:
        for path in (same_seed, latest):
            with open(path, "w") as f:
                json.dump(diag["end_to_end"], f)
    # Everything the run measured, for the steadiness report.
    print("diagnostics " + json.dumps(diag))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
