#!/usr/bin/env python3
"""Steadiness check: run each workload N times and report the spread.

Usage (from the repository root):

    python3 perfbench/steady.py --runs 10 [--workloads datagen,serve] \
        [--json out.json] [--baseline earlier.json]

Run i uses seed 1000 + i and `run_seconds` from BENCHMARK.json, and
visits the workloads in order on even runs and in reverse on odd runs.
For every end-to-end metric of every workload it prints the median, the
quartiles (`statistics.quantiles(n=4)`), the quartile spread
(q3 - q1) / median and the max relative spread (max - min) / median.
A quartile spread over the metric's bound in BENCHMARK.json is flagged
`OVER`, one above a third of it `>1/3`.

It then splits the runs into two halves (even and odd runs) and prints
how far the second half's median is from the first half's, as a share
of the first; a distance over the bound is flagged `OVER`. With
`--baseline`, it also compares this set's medians with those of an
earlier set saved by `--json`, and flags a median that got worse by
more than the bound, in the metric's own direction.

Each run's progress line and its `--json` entry also carry the run's
host-speed index (see the README).

Exits 1 if any run fails or anything is flagged `OVER`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, None, wall
    index = next((float(l.split()[3].rstrip(":")) for l in lines
                  if l.startswith("host speed index ")), None)
    return json.loads(lines[-1]), index, wall


def samples_of(results):
    """{workload: {metric: [value per run, in run order]}} of the correct runs."""
    samples = {}
    for r in results:
        res = r["result"]
        if res is None or not res["correct"]:
            continue
        for name, m in res["metrics"].items():
            samples.setdefault(r["workload"], {}).setdefault(name, []).append(m["value"])
    return samples


def worse_by(before, after, better):
    """How much worse `after` is than `before`, as a share of `before`."""
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--json", help="also write every run's result here")
    ap.add_argument("--baseline", help="compare medians with a set saved by --json")
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    results = []
    failed = 0
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            seed = 1000 + i
            res, index, wall = run_once(w, seed, bench["run_seconds"])
            ok = res is not None and res["correct"]
            print(f"run {i + 1}/{args.runs} {w:<9} seed {seed}: {wall:6.1f} s wall, "
                  f"host speed index {index}, {'ok' if ok else 'FAILED'}", flush=True)
            results.append({"workload": w, "seed": seed, "wall_s": wall,
                            "host_index": index, "result": res})
            failed += not ok
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)
    samples = samples_of(results)

    over = 0
    print(f"\n{'workload':<9} {'metric':<24} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'iqr/med':>8} {'max/med':>8} {'halves':>8} {'bound':>6}  flag")
    for w in workloads:
        for name, xs in samples.get(w, {}).items():
            bound = metrics[name]["bound"]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
            spread = (q3 - q1) / abs(med)
            maxrel = (max(xs) - min(xs)) / abs(med)
            halves = abs(statistics.median(xs[1::2]) - statistics.median(xs[0::2])) / abs(
                statistics.median(xs[0::2])) if len(xs) > 1 else 0.0
            flag = ""
            if spread > bound or halves > bound:
                flag = "OVER"
                over += 1
            elif spread > bound / 3 or halves > bound / 3:
                flag = ">1/3"
            print(f"{w:<9} {name:<24} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{spread:>8.2%} {maxrel:>8.2%} {halves:>8.2%} {bound:>6}  {flag}")

    if args.baseline:
        with open(args.baseline) as f:
            base = samples_of(json.load(f))
        print(f"\n{'workload':<9} {'metric':<24} {'baseline':>11} {'this set':>11} "
              f"{'worse by':>9} {'bound':>6}  flag")
        for w in workloads:
            for name, xs in samples.get(w, {}).items():
                if name not in base.get(w, {}):
                    continue
                m = metrics[name]
                before, after = statistics.median(base[w][name]), statistics.median(xs)
                worse = worse_by(before, after, m["better"])
                flag = ""
                if worse > m["bound"]:
                    flag = "OVER"
                    over += 1
                elif worse > m["bound"] / 3:
                    flag = ">1/3"
                print(f"{w:<9} {name:<24} {before:>11.5g} {after:>11.5g} "
                      f"{worse:>+9.2%} {m['bound']:>6}  {flag}")

    print(f"\n{failed} failed runs, {over} flagged OVER")
    return 1 if failed or over else 0


if __name__ == "__main__":
    sys.exit(main())
