"""Run one ideolab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload select_large_pool --seed 3 --seconds 10 --trace 0

Run from the root of a checkout. The workload runs in a fresh child process
(``worker.py``) with BLAS/OpenMP pinned to one thread, so its peak RSS is
its own. The human-readable summary goes first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``. The full result,
with the environment and the metrics a summary shows beyond those, is
written to ``.perfbench/results/``. Exit status is 0 only for a run whose
outputs passed every correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pool_build", "select_large_pool", "ablate_grid", "classify_http")
# The child may run this long: set-up, warm-up and checks, plus the timed
# phase, which overruns --seconds by at most a few repetitions.
TIMEOUT_ALLOWANCE_S = 120
TIMEOUT_PER_SECOND = 2
MMAP_THRESHOLD = 4 << 20  # bytes
# pool_build keeps glibc's initial value: its peak RSS is the point of it,
# and on the heap the order of its allocations moved that peak by ~20 MB.
MMAP_THRESHOLD_POOL_BUILD = 128 << 10
TRIM_THRESHOLD = 1 << 30  # bytes of free heap top kept before glibc trims
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

EXTRA_UNITS = {
    "wall_median_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "accuracy": "ratio",
    "failed_share": "ratio",
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_child(args, work: Path, result_path: Path) -> int:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # A fixed glibc mmap threshold: by default it rises after a large array
    # is freed, later arrays of that size land on the heap, and the peak RSS
    # of a run then depends on the order of its allocations. At 4 MiB, with
    # the heap never trimmed, the per-query arrays of the ordering (1 to
    # 4 MB each) are reused from the heap; mapped afresh, every page of them
    # faulted on first touch (37k faults per select_large_pool repetition
    # at glibc's initial 128 KiB), and page faults slow down with the load
    # on a shared host. The pool build's large arrays are still mapped and
    # returned exactly.
    threshold = MMAP_THRESHOLD_POOL_BUILD if args.workload == "pool_build" else MMAP_THRESHOLD
    env["MALLOC_MMAP_THRESHOLD_"] = str(threshold)
    env["MALLOC_TRIM_THRESHOLD_"] = str(TRIM_THRESHOLD)
    # the HTTP stub is on loopback; a proxy setting must not route to it
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", str(work), "--result", str(result_path),
    ]
    # A new process group, so a timeout can stop the child and the stub it started.
    timeout = TIMEOUT_ALLOWANCE_S + TIMEOUT_PER_SECOND * args.seconds
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} ran longer than {timeout:g} s", file=sys.stderr)
        return -1
    finally:
        # Also stops a stub left behind by a child that crashed.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()


def print_summary(result: dict, spec_metrics: list[dict]) -> None:
    env = result["env"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print("  sizes: " + " ".join(f"{k}={v}" for k, v in result["sizes"].items()))
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    units = {m["name"]: m["unit"] for m in spec_metrics}
    for name, value in result["metrics"].items():
        print(f"  {name:34s} {value:14.6f} {units.get(name, '')}")
    for name, value in result["extra"].items():
        if name in EXTRA_UNITS:
            print(f"  {name:34s} {value:14.6f} {EXTRA_UNITS[name]}")
    extra = result["extra"]
    if "query_tail_percentile" in extra:
        print(f"  (query_tail_ms is p{extra['query_tail_percentile']:g} of {extra['query_samples']} query latencies)")
    if "stub" in extra:
        print("  stub: " + " ".join(f"{k}={v}" for k, v in extra["stub"].items()))
    print(f"  samples: {json.dumps(result['samples'])}")
    print(f"  digest {result['digest'][:16]} ({result['digest_status']})")
    for problem in result["problems"]:
        print(f"  INCORRECT: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec = load_spec()

    base = ROOT / ".perfbench"
    work = base / f"work-{os.getpid()}"
    results_dir = base / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    try:
        code = run_child(args, work, result_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0 or not result_path.exists():
        print(f"error: workload {args.workload} failed (exit status {code})", file=sys.stderr)
        return 1

    result = json.loads(result_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"error: the run did not measure {missing}", file=sys.stderr)
        return 1
    print_summary(result, wanted)
    line = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
