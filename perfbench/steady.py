#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs every workload repeatedly, interleaved (each round runs every workload
once, each round with the next seed), and prints each end-to-end metric's
median and interquartile spread over median next to the metric's bound in
BENCHMARK.json. Run from the repository root:

    python3 perfbench/steady.py --runs 10 [--workloads lib-lowdefl,svc-mix]
        [--seed0 1] [--seconds 30] [--save set.json] [--compare old.json]

A metric is steady when its spread is below a third of its bound (setup_s is
exempt from the spread check). --save writes every value collected;
--compare reports how much worse each median is than in a saved set, and
flags a metric whose median is worse by more than its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit status {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--save")
    ap.add_argument("--compare")
    a = ap.parse_args()
    if a.runs < 2:
        sys.exit("--runs must be at least 2")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in spec["workloads"]]
    seconds = a.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    old = None
    if a.compare:
        with open(a.compare) as f:
            old = json.load(f)

    values = {w: {} for w in names}
    failed = 0
    for i in range(a.runs):
        for w in names:
            seed = a.seed0 + i
            res = run_once(spec, w, seed, seconds)
            failed += res["failed"] + (0 if res["correct"] else 1)
            for k, m in res["metrics"].items():
                values[w].setdefault(k, []).append(m["value"])
            print(f"[{i + 1}/{a.runs}] {w} seed {seed}: " +
                  ", ".join(f"{k}={m['value']:.5g}" for k, m in sorted(res["metrics"].items())),
                  file=sys.stderr, flush=True)

    wide = 0
    print(f"{'workload':14} {'metric':16} {'median':>12} {'spread':>8} {'bound':>6}  status")
    for w in names:
        for k, xs in sorted(values[w].items()):
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            m = bounds[k]
            if k == "setup_s":
                status = "(spread not checked)"
            elif spread < m["bound"] / 3:
                status = "steady"
            elif spread <= m["bound"]:
                status = "within bound, above a third"
                wide += 1
            else:
                status = "TOO WIDE"
                wide += 1
            if old is not None and k in old.get(w, {}):
                om = statistics.median(old[w][k])
                worse = (med - om) / om if m["better"] == "lower" else (om - med) / om
                status += f"; {worse:+.3f} vs saved" + (" WORSE THAN BOUND" if worse > m["bound"] else "")
            print(f"{w:14} {k:16} {med:12.5g} {spread:8.4f} {m['bound']:6.3f}  {status}")
    if a.save:
        with open(a.save, "w") as f:
            json.dump(values, f, indent=1)
    print(f"{failed} failed requests or incorrect runs; {wide} metrics not yet steady")


if __name__ == "__main__":
    main()
