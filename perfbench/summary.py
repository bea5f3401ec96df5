"""Run every workload, each in its own process, and print its end-to-end
metrics with units and sample counts; optionally write them as a baseline.

    python3 perfbench/summary.py                       # seed 1, untraced
    python3 perfbench/summary.py --seeds 1,2,3 --trace-seed 1 --write perfbench/baseline.json

With several seeds it prints, per metric, the median over runs and the
spread: the distance between the first and third quartile as a share of
the median. ``--trace-seed`` adds one traced run per workload and prints
its per-layer metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import metrics
import run

BENCH_DIR = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    path = run.OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--write", default=None, help="baseline JSON to write")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    baseline = {"run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in run.WORKLOAD_NAMES:
        records = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        attempted = sum(r["result"]["attempted"] for r in records)
        failed = sum(r["result"]["failed"] for r in records)
        entry = {"fail_rate": {"value": failed / attempted, "unit": "ratio",
                               "attempted": attempted}}
        print(f"{workload}: fail_rate {failed / attempted:.6g} ratio "
              f"({failed} of {attempted} operations, {len(seeds)} runs)")
        for name, unit in metrics.END_TO_END.items():
            values = [r["result"]["metrics"][name]["value"] for r in records]
            med, spr = spread(values)
            samples = sum(r["samples"][name] for r in records)
            entry[name] = {"median": med, "spread": spr, "unit": unit,
                           "runs": len(values), "samples": samples}
            print(f"  {name} {med:.6g} {unit}  spread {spr:.3f}  "
                  f"({len(values)} runs, {samples} samples)")
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, args.seconds, 1)
            layer = {name: m["value"] for name, m in traced["result"]["metrics"].items()}
            entry["per_layer"] = layer
            for name, value in layer.items():
                print(f"  {name} {value:.6g} {metrics.PER_LAYER[name]}")
        entry["environment"] = records[0]["environment"]
        baseline["workloads"][workload] = entry
    if args.write:
        Path(args.write).write_text(json.dumps(baseline, indent=1) + "\n")
    return 1 if any(e["fail_rate"]["value"] for e in baseline["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
