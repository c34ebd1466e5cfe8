#!/usr/bin/env python3
"""Repeat-run steadiness harness: run workloads k times, one process per
run and a different seed each time, and summarise every metric.

    python3 perfbench/steady.py --workload paper1000 --runs 10 [--seconds 10]
        [--trace 0|1] [--first-seed 1] [--out runs.jsonl]

For each metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (q3 - q1) as a
share of the median, and the max/min ratio. With --trace 0 each spread is
compared with the metric's bound in BENCHMARK.json: "ok" below a third of
the bound, "WIDE" above the bound. --compare runs.jsonl reads an earlier
--out file and prints how far each median moved. --check-trace runs every
workload once with --trace 1 and fails unless trace.residue_frac and
trace.overhead_frac are printed. Exits 1 when a run fails or is incorrect.
Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, done.returncode
    return json.loads(lines[-1]), done.returncode


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(workload, results, bounds):
    names = list(results[0]["metrics"])
    print(f"\n{workload}: {len(results)} runs")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'max/min':>8}  verdict")
    summary = {}
    for name in names:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else 0.0
        lo, hi = min(vals), max(vals)
        mm = hi / lo if lo > 0 else float("inf")
        verdict = ""
        if name in bounds and name != "setup_s":
            b = bounds[name]
            verdict = ("ok" if spread < b / 3 else
                       "within bound" if spread <= b else "WIDE")
        print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {mm:8.4f}  {verdict}")
        summary[name] = med
    return summary


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--compare")
    ap.add_argument("--check-trace", action="store_true")
    args = ap.parse_args()
    sp = spec()
    seconds = args.seconds or sp["run_seconds"]
    workloads = args.workload or [w["name"] for w in sp["workloads"]]
    bounds = {m["name"]: m["bound"] for m in sp["end_to_end"]}

    if args.check_trace:
        bad = 0
        for w in workloads:
            res, rc = run_once(w, args.first_seed, seconds, 1)
            ok = (res is not None and res["correct"] and
                  {"trace.residue_frac", "trace.overhead_frac"}
                  <= set(res["metrics"]))
            print(f"{w}: exit {rc}, " + ("trace metrics present" if ok else
                                         "FAILED"))
            if ok:
                m = res["metrics"]
                print(f"  trace.residue_frac={m['trace.residue_frac']['value']:.4g}"
                      f" trace.overhead_frac="
                      f"{m['trace.overhead_frac']['value']:.4g}")
            bad += not ok
        return 1 if bad else 0

    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            for line in f:
                rec = json.loads(line)
                earlier.setdefault(rec["workload"], []).append(rec["result"])
    out = open(args.out, "a") if args.out else None
    failed = 0
    for w in workloads:
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            res, rc = run_once(w, seed, seconds, args.trace)
            if res is None or not res["correct"]:
                print(f"{w} seed {seed}: exit {rc}, "
                      f"{'no result' if res is None else 'incorrect'}")
                failed += 1
                continue
            results.append(res)
            if out:
                out.write(json.dumps({"workload": w, "seed": seed,
                                      "trace": args.trace,
                                      "result": res}) + "\n")
                out.flush()
        if not results:
            continue
        med = summarise(w, results, bounds if args.trace == 0 else {})
        if w in earlier:
            before = summarise(w + " (earlier)", earlier[w], {})
            print(f"\n{w}: median now / earlier")
            for name, v in med.items():
                b = before.get(name)
                if b:
                    print(f"  {name:34} {v / b:8.4f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
