#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and summarizes each
end-to-end metric: median, quartiles (statistics.quantiles, n=4), the
interquartile spread as a share of the median, and whether that spread is
within a third of the metric's bound in BENCHMARK.json.

    python3 ledger/steady.py --seeds 1-10 --out ledger/steadiness/set1.json
    python3 ledger/steady.py --compare ledger/steadiness/set1.json ledger/steadiness/set2.json

Run from the repository root. Every workload in BENCHMARK.json runs at its
run_seconds, sequentially, one process each.
--compare prints, per workload and metric, both sets' medians and spreads,
how far the second median moved from the first, and whether it repeats
within a tenth.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def compare(path_a, path_b):
    a, b = (json.load(open(p)) for p in (path_a, path_b))
    print("| workload | metric | median 1 | median 2 | moved | spread 1 | spread 2 | bound | within a tenth |")
    print("|---|---|---|---|---|---|---|---|---|")
    for wl, wa in a["workloads"].items():
        for name, ra in wa["summary"].items():
            rb = b["workloads"][wl]["summary"][name]
            moved = (rb["median"] - ra["median"]) / ra["median"] if ra["median"] else 0.0
            print(f"| {wl} | {name} ({ra['unit']}) | {ra['median']:.5g} | {rb['median']:.5g} | {moved:+.3f} "
                  f"| {ra['spread']:.3f} | {rb['spread']:.3f} | {ra.get('bound', '')} | {'yes' if abs(moved) <= 0.1 else 'no'} |")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--compare", nargs=2, metavar="SET")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    record = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for wl in workloads:
        runs = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(args.trace)]
            t0 = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            wall = time.time() - t0
            if out.returncode != 0:
                sys.exit(f"{wl} seed {seed}: exit {out.returncode}\n{out.stderr}")
            lines = out.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            res["wall_s"] = wall
            for line in lines:
                if line.startswith('{"traced_e2e"'):
                    res["traced_e2e"] = json.loads(line)["traced_e2e"]
            runs.append(res)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()))
            print(f"{wl} seed={seed} wall={wall:.1f}s correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} {vals}", flush=True)
        summary = {}
        for name in sorted(runs[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            row = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": runs[0]["metrics"][name]["unit"]}
            if name in bounds:
                row["bound"] = bounds[name]
                row["within_third_of_bound"] = spread <= bounds[name] / 3
            summary[name] = row
            print(f"  {name:18s} median={med:.5g} q1={q1:.5g} q3={q3:.5g} spread={spread:.3f}"
                  + (f" bound={bounds[name]}" if name in bounds else ""), flush=True)
        record["workloads"][wl] = {
            "summary": summary,
            "correct": all(r["correct"] for r in runs),
            "max_wall_s": max(r["wall_s"] for r in runs),
            "runs": runs,
        }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
