#!/usr/bin/env python3
"""Steadiness report for the FARM benchmark (see farmbench/README.md).

Run from the repository root:

    python3 farmbench/steadiness.py --seeds 10            # every workload
    python3 farmbench/steadiness.py --workloads task_churn --seeds 5
    python3 farmbench/steadiness.py --determinism --seed 3

The default mode runs each workload once per seed and tabulates, for every
end-to-end metric, its median and its spread (the distance between the first
and third quartile as a share of the median) scaled by the host reference
and raw, against a third of the metric's bound in BENCHMARK.json. It also
lists the reference kernel's mean rate per workload, which must not depend
on the workload.

--determinism runs each workload twice at one seed with tracing on and checks
that the work counts and the simulated-output digest repeat exactly.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPEATING = ("sim.events", "almanac.handler_calls", "lp.pivots",
             "placement.memo_hits", "bench.sim_digest")


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace, dump=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    diag = json.loads(lines[-2][len("diagnostics "):])
    result = json.loads(lines[-1])
    if dump:
        with open(dump, "a") as f:
            f.write(json.dumps({"workload": workload, "seed": seed,
                                "trace": trace, "diagnostics": diag}) + "\n")
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, proc.returncode))
    return result, diag


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def steadiness(spec, workloads, seeds, seconds, dump):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in workloads:
        scaled = {m: [] for m in bounds}
        raw = {m: [] for m in bounds}
        ref = []
        for s in seeds:
            _, diag = run(w, s, seconds, 0, dump)
            layers = diag["layers"]
            for m in bounds:
                scaled[m].append(diag["end_to_end"][m]["value"])
                if "host.raw." + m in layers:
                    raw[m].append(layers["host.raw." + m]["value"])
            ref.append(layers["host.ref_rate"]["value"])
            print("  %s seed %d done" % (w, s), file=sys.stderr)
        print("\n%s (%d seeds): reference mean rate %.4g lookups/s, spread %.1f%%"
              % (w, len(seeds), statistics.mean(ref), 100 * spread(ref)[0]))
        print("| metric | median | spread scaled | spread raw | bound/3 |")
        print("|---|---|---|---|---|")
        for m, b in bounds.items():
            sp, med = spread(scaled[m])
            rsp = "%.1f%%" % (100 * spread(raw[m])[0]) if raw[m] else "-"
            mark = "" if m == "setup_s" or sp < b / 3 else " (over)"
            if mark:
                ok = False
            print("| %s | %.5g | %.1f%%%s | %s | %.1f%% |"
                  % (m, med, 100 * sp, mark, rsp, 100 * b / 3))
    return ok


def determinism(workloads, seed, seconds):
    ok = True
    for w in workloads:
        a = run(w, seed, seconds, 1)[0]["metrics"]
        b = run(w, seed, seconds, 1)[0]["metrics"]
        for m in REPEATING:
            same = a[m]["value"] == b[m]["value"]
            ok = ok and same
            print("%s %s: %s %s" % (w, m, a[m]["value"],
                                    "repeats" if same else
                                    "DIFFERS: %s" % b[m]["value"]))
    return ok


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--determinism", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--dump", help="append every run's diagnostics to this "
                    "file, one JSON object per line")
    args = ap.parse_args()
    if args.determinism:
        ok = determinism(args.workloads, args.seed, args.seconds)
    else:
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        ok = steadiness(spec, args.workloads, list(seeds), args.seconds,
                        args.dump)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
