"""Repeat benchmark runs over several seeds and report each metric's spread.

    python3 perfbench/steady.py --seeds 0-9                  # every workload
    python3 perfbench/steady.py --workloads classify_http --seeds 0-4
    python3 perfbench/steady.py --seeds 0-9 --write perfbench/baseline.json
    python3 perfbench/steady.py --workloads select_large_pool --seeds 3,3,3,3,3

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(Q3 - Q1) / median, next to the metric's bound from ``BENCHMARK.json``. A
spread above a third of the bound is flagged, as is any incorrect run, and
either makes the exit status 1. Different seeds give different inputs, as
in the acceptance runs; one seed repeated (``--seeds 3,3,3,3,3``) gives the
run-to-run spread alone.
``--write`` stores the medians, quartiles and per-run values as a baseline
that a later change can be compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output (exit {proc.returncode})\n{proc.stderr}")
    return json.loads(lines[-1]), elapsed


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,5,9")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--write", type=Path, help="write the baseline JSON here")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {"run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        durations = []
        for seed in seeds:
            line, elapsed = run_once(workload, seed, args.seconds, 0)
            durations.append(elapsed)
            if not line["correct"] or line["failed"]:
                steady = False
                print(f"{workload} seed {seed}: INCORRECT run ({line['failed']} failed)")
            for name in bounds:
                values[name].append(line["metrics"][name]["value"])
        print(f"{workload}: {len(seeds)} runs, {statistics.fmean(durations):.1f} s each on average")
        entry = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            flag = "" if spread <= bounds[name] / 3 else "  <-- above a third of the bound"
            if flag:
                steady = False
            print(f"  {name:14s} median {med:12.6f}  q1 {q1:12.6f}  q3 {q3:12.6f}  spread {spread:.4f}  bound {bounds[name]}{flag}")
            entry[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        baseline["workloads"][workload] = entry
    if args.write:
        args.write.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
