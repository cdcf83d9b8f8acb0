"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload cpu-chain --seeds 1-10 [--trace 0]
        [--seconds S] [--out perfbench/results/baseline.json]

Run from the root of a checkout. For every end-to-end metric (or per-layer
metric with ``--trace 1``) it prints the median over the runs, the first and
third quartiles as ``statistics.quantiles(values, n=4)`` gives them, and
the spread (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json. ``--out`` merges the result, with CPU count and Python
version, into a JSON file keyed by workload and trace mode.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--out", default=None)
    args = p.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        runs.append({"seed": seed, "result": result, "detail": detail})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else None
        summary[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"],
                         "median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name), "values": values}
        shown = "n/a" if spread is None else f"{spread:.4f}"
        print(f"{name:48s} median {med:12.4f} {summary[name]['unit']:14s} "
              f"spread {shown:>8s} bound {bounds.get(name)}")

    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                doc = json.load(fh)
        first = runs[0]["detail"]
        doc.setdefault("environment", {}).update(
            cpu_count=first["cpu_count"], python=first["python"], workers=first["workers"])
        doc[f"{args.workload}/trace{args.trace}"] = {
            "seeds": [r["seed"] for r in runs], "seconds": seconds,
            "all_correct": all(r["result"]["correct"] for r in runs),
            "seq_sha256": [r["detail"].get("seq_sha256") for r in runs],
            "metrics": summary,
        }
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
