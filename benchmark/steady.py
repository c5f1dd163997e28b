#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of every workload.

    python3 benchmark/steady.py [--runs N]
    python3 benchmark/steady.py --overhead [--runs N]

Run from the repository root. Every run measures BENCHMARK.json's
run_seconds. Set A uses seeds 1..N, set B seeds 1001..1000+N; runs
alternate A, B per seed and workload. For every end-to-end metric of
BENCHMARK.json the script prints each set's median and quartiles
(Python's statistics.quantiles, n=4) and spread (q3 - q1) / median,
and whether

  * each set's spread is within the metric's bound,
  * each set's spread is below a third of the bound (the target), and
  * neither set's median is worse than the other's by more than the
    bound,

and whether the share of failed operations is the same in both sets.
It exits non-zero when a bound check fails.

--overhead alternates untraced and traced runs on the same seeds and
reports the traced minus the untraced end-to-end medians (the traced
run prints its end-to-end metrics on stderr).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "1" if trace else "0",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    e2e = None
    for line in done.stderr.splitlines():
        if line.startswith("end_to_end: "):
            e2e = json.loads(line[len("end_to_end: "):])
    return result, e2e


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def worse_by(metric, base, other):
    """How much `other` is worse than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    if metric["better"] == "lower":
        return (other - base) / base
    return (base - other) / base


def steadiness(spec, args):
    workloads = [w["name"] for w in spec["workloads"]]
    sets = {"A": 1, "B": 1001}
    data = {w: {s: [] for s in sets} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            for name, first in sets.items():
                result, _ = run_once(spec, w, first + i, False)
                data[w][name].append(result)
                m = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                print(f"{w} set {name} seed {first + i}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} {m}",
                      flush=True)
    ok = True
    for w in workloads:
        print(f"\n== {w} ==")
        for s in sets:
            runs = data[w][s]
            if not all(r["correct"] for r in runs):
                print(f"  set {s}: a run was not correct")
                ok = False
        shares = {s: {r["failed"] / r["attempted"] for r in data[w][s]} for s in sets}
        same_share = len(shares["A"] | shares["B"]) == 1
        print(f"  failed share: A {sorted(shares['A'])} B {sorted(shares['B'])} "
              f"{'same' if same_share else 'DIFFERENT'}")
        ok &= same_share
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {}
            for s in sets:
                values = [r["metrics"][name]["value"] for r in data[w][s]]
                stats[s] = summary(values)
            worse = max(worse_by(metric, stats["A"][0], stats["B"][0]),
                        worse_by(metric, stats["B"][0], stats["A"][0]))
            spread = max(stats["A"][3], stats["B"][3])
            spread_ok = spread <= bound
            target = spread <= bound / 3
            agree = worse <= bound
            ok &= spread_ok and agree
            print(f"  {name:18s} A {stats['A'][0]:.6g} [{stats['A'][1]:.6g}, {stats['A'][2]:.6g}] "
                  f"B {stats['B'][0]:.6g} [{stats['B'][1]:.6g}, {stats['B'][2]:.6g}] "
                  f"spread A {stats['A'][3]:.3f} B {stats['B'][3]:.3f} /{bound} "
                  f"{'ok' if spread_ok else 'TOO WIDE'}{'' if target else ' (above bound/3)'} "
                  f"medians {'agree' if agree else 'DISAGREE'} ({worse:+.3f})")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


def overhead(spec, args):
    for w in (w["name"] for w in spec["workloads"]):
        plain, traced = [], []
        for i in range(args.runs):
            plain.append(run_once(spec, w, 1 + i, False)[1])
            traced.append(run_once(spec, w, 1 + i, True)[1])
        print(f"== {w} ({args.runs} seeds) ==")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = statistics.median(r[name]["value"] for r in plain)
            b = statistics.median(r[name]["value"] for r in traced)
            rel = (b - a) / a if a else 0.0
            print(f"  {name:18s} untraced {a:.6g} traced {b:.6g} "
                  f"traced - untraced {b - a:+.6g} ({rel:+.1%})", flush=True)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--overhead", action="store_true")
    args = p.parse_args()
    spec = load_spec()
    return overhead(spec, args) if args.overhead else steadiness(spec, args)


if __name__ == "__main__":
    sys.exit(main())
