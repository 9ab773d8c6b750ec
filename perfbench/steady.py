#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/steady.py --workloads route-http,replan-fleet --seeds 1-10 \
        --seconds 10 --trace 0 --out perfbench/steady.json

Run it from the repository root. For every workload and metric it prints
the median of the runs and their interquartile range as a share of the
median (statistics.quantiles with n=4), and writes the same table, with
every run's values, to --out when given.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()
    table = {}
    for w in args.workloads.split(","):
        runs = []
        for s in seeds(args.seeds):
            cmd = ["bash", "perfbench/run.sh", "--workload", w, "--seed", str(s),
                   "--seconds", args.seconds, "--trace", args.trace]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.exit(f"{w} seed {s}: exit {p.returncode}\n{p.stdout}\n{p.stderr}")
            res = json.loads(lines[-1])
            runs.append({"seed": s, "correct": res["correct"], "attempted": res["attempted"],
                         "failed": res["failed"],
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print(f"{w} seed {s}: " + " ".join(f"{k}={v:.6g}" for k, v in sorted(runs[-1]["metrics"].items())),
                  flush=True)
        summary = {}
        for name in sorted(runs[0]["metrics"]):
            vals = [r["metrics"][name] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            iqr = (q[2] - q[0]) / med if med else 0.0
            summary[name] = {"median": med, "iqr_share": iqr,
                             "repeats_exactly": len(set(vals)) == 1}
            print(f"  {w:18s} {name:34s} median {med:12.6g}  IQR/median {100 * iqr:6.2f}%"
                  + ("  (repeats exactly)" if len(set(vals)) == 1 else ""))
        table[w] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": float(args.seconds), "trace": int(args.trace), "workloads": table}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
