#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds 20]
                                [--trace 0|1] [--out FILE]

Run from the repository root. For every workload and seed it runs
`perfbench/run.py`, then reports per metric the median, the first and third
quartiles (`statistics.quantiles(values, n=4)`) and the spread, which is the
distance between the quartiles as a share of the median. For `--trace 0`
it also summarises the uncalibrated host times from each run's record
(`wall_s_raw`, `setup_s_raw`), so the calibrated and raw spreads of the same
runs can be compared. With `--out` the summary is also written as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["city-fanout", "handoff-churn", "figure-sweep", "lossy-recovery"]
RAW = {"wall_s_raw": "wall_s_raw_median", "setup_s_raw": "setup_s_raw_median"}


def seeds_from(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()

    summary = {"host_workers": os.cpu_count(), "seconds": int(args.seconds),
               "trace": int(args.trace), "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values, units = {}, {}
        for seed in seeds_from(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
            ok &= out.returncode == 0 and result["correct"]
            print(f"{workload} seed {seed}: exit {out.returncode}, correct {result['correct']}",
                  file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            record = os.path.join(".bench_out", f"{workload}-seed{seed}-trace{args.trace}.json")
            if args.trace == "0" and out.returncode == 0:
                with open(record) as f:
                    detail = json.load(f)
                for name, key in RAW.items():
                    values.setdefault(name, []).append(detail[key])
                    units[name] = "s"
        table = {name: dict(summarise(v), unit=units[name]) for name, v in values.items()}
        summary["workloads"][workload] = table
        for name, s in table.items():
            print(f"{workload:15s} {name:36s} median {s['median']:14.6g} {s['unit']:6s} "
                  f"spread {s['spread']:.4f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
