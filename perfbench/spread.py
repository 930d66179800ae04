#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and its drift between sets.

Runs every workload (or the ones named with --workload) once per seed and
reports, for each end-to-end metric, the median and the distance between
the first and third quartiles as a share of the median, computed with
statistics.quantiles(values, n=4). A spread at or above a third of the
metric's bound fails the check.

With --write the set is saved to perfbench/spread.json, replacing the sets
kept for that workload; with --append it is added to them. For a workload
with two or more sets the file also records each metric's drift (the
largest distance between two sets' medians, as a share of the first) and
the bound those figures support: three times the larger of the drift and
the widest spread, capped at 0.25. A drift above the metric's bound fails
the check. Later runs quote the file as "between_runs".

    python3 perfbench/spread.py --seeds 10 --write
    python3 perfbench/spread.py --seeds 10 --first-seed 101 --append
    python3 perfbench/spread.py --workload fleet-10ms-8k --seeds 5
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPREAD = os.path.join(ROOT, "perfbench", "spread.json")
MAX_BOUND = 0.25


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    took = time.time() - start
    if out.returncode != 0:
        sys.exit("%s seed %d failed (%d):\n%s" % (workload, seed, out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1]), took


def iqr_frac(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / med if med else float("inf"))


def between_sets(sets, bounds):
    """Drift between the sets' medians and the bound the sets support."""
    out = {}
    for m in bounds:
        meds = [s["metrics"][m]["median"] for s in sets if m in s["metrics"]]
        spreads = [s["metrics"][m]["iqr_frac"] for s in sets if m in s["metrics"]]
        if len(meds) < 2:
            continue
        drift = max(abs(b - a) / a for a in meds for b in meds if a)
        out[m] = {"drift": drift, "max_iqr_frac": max(spreads),
                  "supported_bound": min(MAX_BOUND, 3 * max(drift, max(spreads)))}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    group = ap.add_mutually_exclusive_group()
    group.add_argument("--write", action="store_true")
    group.add_argument("--append", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    saved = {}
    if os.path.exists(SPREAD):
        with open(SPREAD) as f:
            saved = json.load(f)
    ok = True
    for w in names:
        values = {m: [] for m in bounds}
        host = None
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            rep, res, took = run_once(w, seed, spec["run_seconds"])
            host = rep["host"]
            if not res["correct"]:
                ok = False
                print("%s seed %d: INCORRECT %s" % (w, seed, rep["checks"]))
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            print("%s seed %d: %.1fs %s" % (w, seed, took,
                  " ".join("%s=%.6g" % (m, res["metrics"][m]["value"]) for m in bounds)), flush=True)
        this = {"seeds": args.seeds, "first_seed": args.first_seed,
                "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "metrics": {}}
        for m, vs in values.items():
            med, spread = iqr_frac(vs)
            flag = ""
            if spread >= bounds[m] / 3:
                ok, flag = False, "  <-- at or above bound/3"
            this["metrics"][m] = {"median": med, "iqr_frac": spread}
            print("  %-16s median %-14.6g spread %.4f (bound %.2f)%s" % (m, med, spread, bounds[m], flag))
        sets = saved.get(w, {}).get("sets", []) if args.append else []
        sets = sets + [this]
        entry = {"host": host, "sets": sets}
        drift = between_sets(sets, bounds)
        if drift:
            entry["between_sets"] = drift
            for m, d in drift.items():
                flag = ""
                if d["drift"] > bounds[m]:
                    ok, flag = False, "  <-- drift above bound"
                print("  %-16s drift %.4f over %d sets, supports bound %.3f (bound %.2f)%s" % (
                    m, d["drift"], len(sets), d["supported_bound"], bounds[m], flag))
        if args.write or args.append:
            saved[w] = entry
            with open(SPREAD, "w") as f:
                json.dump(saved, f, indent=2, sort_keys=True)
                f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
