#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Run from the repository root:

    python3 bench/perf/spread.py --seeds 1-10 --out set1.json
    python3 bench/perf/spread.py --trace 1 --seeds 1-5 --out traced.json
    python3 bench/perf/spread.py --compare set1.json set2.json

For every workload and metric it prints the median over the seeds and the
spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. An end-to-end metric
whose spread exceeds its bound in BENCHMARK.json is flagged (setup_s is
exempt). --compare flags every metric whose median in the second set is
worse than in the first by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, timeout=180).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def summarize(bench, results, trace):
    metrics = bench["per_layer"] if trace else bench["end_to_end"]
    bad = 0
    for w in bench["workloads"]:
        runs = results[w["name"]]
        failed = sum(r["failed"] for r in runs)
        print(f"{w['name']}: {len(runs)} runs, {sum(r['attempted'] for r in runs)} ops, {failed} failed")
        bad += failed > 0
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med, s = spread(values)
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and s > bound:
                flag, bad = "  OVER BOUND", bad + 1
            elif bound is not None and s > bound / 3:
                flag = "  above a third of the bound"
            print(f"  {m['name']:28s} median {med:14.6g}  spread {s:7.2%}"
                  + (f"  bound {bound:.0%}" if bound is not None else "") + flag)
    return bad


def compare(bench, first, second):
    bad = 0
    for w in bench["workloads"]:
        print(w["name"])
        for m in bench["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]]["value"] for r in first[w["name"]])
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in second[w["name"]])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "  WORSE THAN BOUND" if worse > m["bound"] else ""
            bad += bool(flag)
            print(f"  {m['name']:16s} {a:14.6g} -> {b:14.6g}  worse by {worse:7.2%}"
                  f"  bound {m['bound']:.0%}{flag}")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--out", help="write every run's result here as JSON")
    ap.add_argument("--compare", nargs=2, metavar="SET", help="compare two --out files")
    args = ap.parse_args()
    bench = load_benchmark()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f)["results"])
        sys.exit(1 if compare(bench, *sets) else 0)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bench["workloads"] = [w for w in bench["workloads"] if w["name"] in names]
    results = {}
    for w in bench["workloads"]:
        results[w["name"]] = []
        for seed in seeds_of(args.seeds):
            results[w["name"]].append(run_once(bench, w["name"], seed, seconds, args.trace))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seeds": args.seeds, "seconds": seconds, "trace": args.trace,
                       "results": results}, f, indent=1)
            f.write("\n")
    sys.exit(1 if summarize(bench, results, args.trace) else 0)


if __name__ == "__main__":
    main()
