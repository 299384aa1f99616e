#!/usr/bin/env python3
"""The benchmark's own stability check.

    python3 perfbench/stability.py [--workloads a,b] [--seeds 1-10]
                                   [--save set1.json] [--compare set0.json]

Runs BENCHMARK.json's command once per (workload, seed) with --trace 0 and,
for each end-to-end metric, prints the median and the interquartile range as
a share of the median (statistics.quantiles(values, n=4)). It fails when
  * any run fails, reports correct=false, or a spread exceeds the bound;
  * the exact-repeat counts or the outcome digest differ between runs of one
    workload (every run does the same missions, only the order changes);
  * with --compare, a median is worse than the saved set's by more than
    the metric's bound.
Run from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    counts = next(json.loads(l) for l in lines if l.startswith('{"counts"'))
    context = next(json.loads(l) for l in lines if l.startswith('{"context"'))
    return json.loads(lines[-1]), counts, context["context"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    baseline = {}
    if args.compare:
        with open(args.compare) as f:
            baseline = json.load(f)

    ok = True
    saved = {}
    for workload in workloads:
        values = {name: [] for name in bounds}
        repeats = set()
        for seed in seeds:
            result, counts, context = run_once(bench, workload, seed)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
                ok = False
            repeats.add(json.dumps(counts, sort_keys=True))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: " + " ".join(
                f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds) +
                f" steal={context['steal_share']:.3f}"
                f" load={context['loadavg_end']}", flush=True)
        if len(repeats) != 1:
            print(f"{workload}: counts/digest differ between runs: {repeats}")
            ok = False
        saved[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds[name]["bound"]
            flag = ""
            if spread > bound:
                flag = "  SPREAD OVER BOUND"
                ok = False
            elif spread > bound / 3:
                flag = "  (over a third of the bound)"
            if workload in baseline and name in baseline[workload]:
                base = baseline[workload][name]
                worse = ((base - med) if bounds[name]["better"] == "higher"
                         else (med - base)) / base
                flag += f"  vs saved {base:.4g} ({worse:+.1%} worse)"
                if worse > bound:
                    flag += "  MEDIAN MOVED OVER BOUND"
                    ok = False
            saved[workload][name] = med
            print(f"{workload:17s} {name:24s} median {med:.6g}  "
                  f"iqr/median {spread:.3f}  bound {bound}{flag}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    print("stable" if ok else "NOT STABLE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
