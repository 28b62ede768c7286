#!/usr/bin/env python3
"""Records e2ebench/baseline.json: every end-to-end metric (the bounded
ones of BENCHMARK.json and the wall-clock ones every run prints) over two
sets of ten seeds, and every per-layer metric from one traced run, per
workload.

Run from the repository root:

    python3 e2ebench/record_baseline.py

Within a seed, the workloads run one after the other, so a stretch of
outside load on the machine falls on all of them alike. Each end-to-end
metric is summarised per set by its median and quartiles
(`statistics.quantiles(values, n=4)`) and the spread (Q3 - Q1) / median
that the bounds in BENCHMARK.json are checked against, and across the
sets by how far the second median lies from the first, as a share of the
first (`drift`) and of the second (`drift_reversed`).
"""

import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Printed by every run, not bounded by BENCHMARK.json (see WALL_CLOCK in
# src/main.rs).
WALL_CLOCK = ["throughput_per_s", "latency_p50_ms", "latency_p90_ms"]
SEED_SETS = [list(range(1, 11)), list(range(11, 21))]


def run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    meta = next(json.loads(l[len("_meta "):]) for l in lines if l.startswith("_meta "))
    printed = {}
    for line in lines[:-1]:
        name, sep, rest = line.partition(" = ")
        if sep and not line.startswith("#"):
            printed[name] = float(rest.split()[0])
    return meta, printed, json.loads(lines[-1])


def summary(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    median = statistics.median(vals)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            return next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    command, seconds = bench["command"], bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    # values[workload][set][metric] -> one value per seed
    values = {n: [{} for _ in SEED_SETS] for n in names}
    counts = {n: {"attempted": 0, "failed": 0} for n in names}
    for s, seeds in enumerate(SEED_SETS):
        for seed in seeds:
            for name in names:
                meta, printed, result = run(command, name, seed, seconds, 0)
                counts[name]["attempted"] += result["attempted"]
                counts[name]["failed"] += result["failed"]
                row = {m: printed[m] for m in WALL_CLOCK}
                row.update({m: v["value"] for m, v in result["metrics"].items()})
                for metric, v in row.items():
                    values[name][s].setdefault(metric, []).append(v)
                print(name, seed, {k: round(v, 5) for k, v in row.items()}, file=sys.stderr)
    out = {"workloads": {}}
    for name in names:
        sets = [{m: summary(v) for m, v in per_set.items()} for per_set in values[name]]
        drift = {}
        for metric in sets[0]:
            a, b = sets[0][metric]["median"], sets[1][metric]["median"]
            drift[metric] = {"drift": (b - a) / a if a else 0.0,
                             "drift_reversed": (a - b) / b if b else 0.0}
        _, _, traced = run(command, name, SEED_SETS[0][0], seconds, 1)
        out["workloads"][name] = {
            "sets": [{"seeds": seeds, "end_to_end": e2e} for seeds, e2e in zip(SEED_SETS, sets)],
            "drift": drift,
            "attempted": counts[name]["attempted"],
            "failed": counts[name]["failed"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_seed": SEED_SETS[0][0],
        }
    out["_meta"] = {
        "nproc": meta["nproc"],
        "threads": meta["threads"],
        "isa_active": meta["isa_active"],
        "isa_detected": meta["isa_detected"],
        "cpu": cpu_model(),
        "run_seconds": seconds,
    }
    with open(os.path.join(ROOT, "e2ebench", "baseline.json"), "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
