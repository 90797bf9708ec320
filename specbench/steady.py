#!/usr/bin/env python3
"""Steadiness check for the specguard benchmark.

Run a workload once per seed, for run_seconds from BENCHMARK.json with
tracing off, and summarise every end-to-end metric by its
median, quartiles and spread (interquartile range over median) against
the metric's bound in BENCHMARK.json; or compare two saved sets.

  python3 specbench/steady.py run --workload sweep --seeds 1-10 --out a.json
  python3 specbench/steady.py compare a.json b.json

Run it from the repository root. `run` exits 1 when a spread (setup_s
excepted, as the bound on set-up is a drift bound) reaches its bound or a
run fails; `compare` exits 1 when a median of the second set is worse than
the first's by more than the bound, or when the share of failed operations
differs.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_bounds():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return bench, {m["name"]: m for m in bench["end_to_end"]}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_set(bench, workload, seeds):
    runs = []
    for seed in seeds:
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"seed {seed}: exit {proc.returncode}")
        res = json.loads(lines[-1])
        res["seed"] = seed
        runs.append(res)
        vals = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()))
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} {vals}", flush=True)
    return runs


def summarise(runs, bounds):
    out = {}
    for name in sorted(runs[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("inf")
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                     "bound": bounds.get(name, {}).get("bound")}
    return out


def cmd_run(args):
    bench, bounds = load_bounds()
    runs = run_set(bench, args.workload, parse_seeds(args.seeds))
    summary = summarise(runs, bounds)
    ok = all(r["correct"] for r in runs)
    print(f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, s in summary.items():
        b = s["bound"]
        flag = ""
        if b is not None and name != "setup_s" and s["spread"] >= b:
            flag, ok = " OVER", False
        elif b is not None and s["spread"] >= b / 3:
            flag = " (>1/3 bound)"
        bs = f"{b:6.3f}" if b is not None else "     -"
        print(f"{name:<34} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} {s['spread']:8.4f} {bs}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "runs": runs, "summary": summary}, f, indent=1)
    return 0 if ok else 1


def cmd_compare(args):
    _, bounds = load_bounds()
    sets = []
    for path in (args.first, args.second):
        with open(path) as f:
            sets.append(json.load(f))
    a, b = sets
    ok = True
    fa = [(r["failed"], r["attempted"]) for r in a["runs"]]
    fb = [(r["failed"], r["attempted"]) for r in b["runs"]]
    share_a = {f / n for f, n in fa}
    share_b = {f / n for f, n in fb}
    if share_a != share_b or len(share_a) != 1:
        print(f"failed share differs: {sorted(share_a)} against {sorted(share_b)}")
        ok = False
    print(f"{'metric':<34} {'median A':>12} {'median B':>12} {'worse by':>9} {'bound':>6}")
    for name, sa in a["summary"].items():
        sb = b["summary"].get(name)
        m = bounds.get(name)
        if sb is None or m is None:
            continue
        if m["better"] == "lower":
            worse = (sb["median"] - sa["median"]) / sa["median"]
        else:
            worse = (sa["median"] - sb["median"]) / sa["median"]
        flag = ""
        if worse > m["bound"]:
            flag, ok = " WORSE", False
        print(f"{name:<34} {sa['median']:12.5g} {sb['median']:12.5g} {worse:9.4f} {m['bound']:6.3f}{flag}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run one workload over several seeds")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    r.add_argument("--out", help="save the set as JSON for compare")
    r.set_defaults(func=cmd_run)
    c = sub.add_parser("compare", help="compare two saved sets")
    c.add_argument("first")
    c.add_argument("second")
    c.set_defaults(func=cmd_compare)
    args = p.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
