"""Run every workload over several seeds and record the spread of each metric.

    python3 perfbench/baseline.py --seeds 1,2,3,4,5,6,7,8,9,10 --out perfbench/baseline.json

Each run is its own process (`run.py --trace 0`). For every end-to-end
metric of every workload the record holds the values in seed order, the
quartiles from statistics.quantiles(n=4), and the interquartile range as
a share of the median, beside the provenance of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOAD_NAMES, run_child  # noqa: E402


def run(workload, seed, seconds):
    t0 = time.perf_counter()
    code, result, detail, stderr = run_child(workload, seed, seconds)
    wall = time.perf_counter() - t0
    if code != 0 or detail is None:
        sys.stderr.write(stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {code}")
    return result, detail, wall


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--out", default=None)
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    record = {"seeds": seeds, "run_seconds": args.seconds, "workloads": {}}
    for name in args.workloads.split(","):
        values, runs, provenance = {}, [], None
        for seed in seeds:
            result, detail, wall = run(name, seed, args.seconds)
            provenance = provenance or detail["provenance"]
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "run_wall_s": wall,
                         "end_rounding": detail["checks"]["end_rounding"],
                         "detail": {k: v["median"] for k, v in detail["end_to_end"].items()}})
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                  + ", ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        metrics = {}
        for metric, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            metrics[metric] = {"median": med, "q1": q1, "q3": q3,
                               "iqr_share": (q3 - q1) / med, "values": vals}
            print(f"{name} {metric}: median {med:.6g}, iqr/median {(q3 - q1) / med:.4f}")
        record["workloads"][name] = {"provenance": provenance, "metrics": metrics,
                                     "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
