"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this with the BLAS/OpenMP thread counts pinned and
``PYTHONPATH`` pointing at the checkout's ``src``; the result is written as
JSON to ``--result``. Untraced runs report the end-to-end metrics; traced
runs (``--trace 1``) interleave traced and untraced repetitions and report
the per-layer metrics from the first traced one.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3  # set-ups per run at least; setup_s is their median
SETUP_SHARE = 0.25  # extra set-ups, spread over the run, take about this share of it
MIN_REPS = 3  # timed repetitions per run at least, after one warm-up
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile


def import_program():
    """Import ideolab from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "ideolab" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'ideolab'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import ideolab

    if Path(ideolab.__file__).resolve().parent != (src / "ideolab").resolve():
        raise SystemExit(f"error: imported ideolab from {ideolab.__file__}, not from {src}")
    return ideolab


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
        "malloc_trim_threshold": os.environ.get("MALLOC_TRIM_THRESHOLD_"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
        "cpu": cpu,
    }


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND:
            best = p
    return best


def recorded_digest(workload: str, seed: int):
    path = HERE / "digests.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def set_up(cls, seed: int, work: Path, tracer=None):
    """One set-up in its own directory. Returns (workload, seconds)."""
    wl = cls(seed, work)
    start = time.perf_counter()
    if tracer is None:
        wl.setup()
    else:
        with tracer.installed():
            wl.setup()
    return wl, time.perf_counter() - start


def time_set_up(cls, seed: int, work: Path) -> float:
    """Time one more set-up and throw it away."""
    wl, seconds = set_up(cls, seed, work)
    wl.close()
    shutil.rmtree(work, ignore_errors=True)
    return seconds


def warm_up(wl, seed: int, compare: bool = True):
    """One untimed repetition and its correctness checks, against the
    recorded digest when ``compare``. Returns (output, digest, problems, status)."""
    out = wl.run()
    digest = out.digest()
    problems = wl.verify(out)
    expected = recorded_digest(wl.name, seed) if compare else None
    if expected is None:
        status = "not recorded for this seed" if compare else "not compared"
    elif expected == digest:
        status = "matches the recorded digest"
    else:
        status = "DIFFERS from the recorded digest"
        problems.append(f"output digest {digest[:16]} differs from recorded {expected[:16]}")
    if out.failed:
        problems.append(f"{out.failed} of {out.attempted} operations failed")
    return out, digest, problems, status


def measure(cls, seed: int, seconds: float, work: Path) -> dict:
    """Set up, warm up and check, then time repetitions for ``seconds``.

    Further set-ups are timed between repetitions, spread over the run,
    whenever set-up has taken less than SETUP_SHARE of the time so far, and
    at least SETUPS in all. Spreading them lets ``setup_s`` sample the whole
    run rather than its first seconds, as ``wall_s`` does.

    ``wall_s`` is the upper quartile of the repetition times. On a shared
    host the same code runs at a common loaded speed with spells up to 2x
    faster, lasting seconds. The median and the fastest repetition move
    with how many of those spells a run happens to meet; the upper quartile
    stays in the loaded speed unless most of the run is fast, and a slower
    program moves it as much as the median. The median is kept in the
    result as ``wall_median_s``.
    """
    began = time.perf_counter()
    wl, first = set_up(cls, seed, work / "setup0")
    setup_times = [first]
    try:
        warm, digest, problems, status = warm_up(wl, seed)
        warm.payload = None
        reps = []
        deadline = time.perf_counter() + seconds
        while len(reps) < MIN_REPS or len(setup_times) < SETUPS or time.perf_counter() < deadline:
            late = time.perf_counter() >= deadline and len(reps) >= MIN_REPS
            if late or sum(setup_times) < SETUP_SHARE * (time.perf_counter() - began):
                gc.collect()
                setup_times.append(time_set_up(cls, seed, work / f"setup{len(setup_times)}"))
                if late:
                    continue
            gc.collect()
            out = wl.run()
            if out.digest() != digest:
                problems.append(f"repetition {len(reps) + 1} produced different outputs")
            out.payload = None
            reps.append(out)
    finally:
        wl.close()
    walls = [r.wall_s for r in reps]
    wall = statistics.quantiles(walls, n=4)[2]
    latencies = [x for r in reps for x in r.latencies_ms]
    attempted = sum(r.attempted for r in reps) + warm.attempted
    failed = sum(r.failed for r in reps) + warm.failed
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"failed_share": failed / attempted, "wall_median_s": statistics.median(walls)}
    if reps[0].queries:
        extra["queries_per_s"] = statistics.median(r.queries / r.wall_s for r in reps)
    if latencies:
        p = tail_percentile(len(latencies))
        extra["query_p50_ms"] = float(np.percentile(latencies, 50.0))
        extra["query_tail_ms"] = float(np.percentile(latencies, p))
        extra["query_tail_percentile"] = p
        extra["query_samples"] = len(latencies)
    if reps[0].accuracy is not None:
        extra["accuracy"] = reps[0].accuracy
    if reps[0].stub_stats:
        extra["stub"] = reps[0].stub_stats
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": extra,
        "samples": {"setups": len(setup_times), "reps": len(reps), "walls": walls, "setup_times": setup_times},
        "digest": digest,
        "digest_status": status,
        "problems": problems,
    }


def measure_traced(cls, seed: int, seconds: float, work: Path, spans_path: Path) -> dict:
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    wl, setup_time = set_up(cls, seed, work / "setup0", tracer)
    try:
        warm, digest, problems, status = warm_up(wl, seed)
        traced, plain = [], []
        attempted, failed = warm.attempted, warm.failed
        metrics = None
        deadline = time.perf_counter() + seconds
        while len(traced) < 2 or len(plain) < 2 or time.perf_counter() < deadline:
            phase = f"rep{len(traced) + 1}"
            tracer.phase = phase
            gc.collect()
            with tracer.installed():
                out = wl.run()
            traced.append(out.wall_s)
            attempted, failed = attempted + out.attempted, failed + out.failed
            if metrics is None:
                rep_spans = [s for s in tracer.spans if s.phase == phase]
                pool_spans = [s for s in tracer.spans if s.phase in ("setup", phase)]
                metrics = layer_metrics(rep_spans, pool_spans, out.stub_stats)
                metrics["trace.wall_s"] = out.wall_s
            # Only set-up and the first traced repetition are kept and
            # written; later traced repetitions serve the overhead figure.
            tracer.spans = [s for s in tracer.spans if s.phase in ("setup", "rep1")]
            for span in tracer.spans:
                span.attrs.pop("_call", None)
            if out.digest() != digest:
                problems.append(f"traced repetition {len(traced)} produced different outputs")
            gc.collect()
            out = wl.run()
            plain.append(out.wall_s)
            attempted, failed = attempted + out.attempted, failed + out.failed
    finally:
        wl.close()
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
    tracer.write(spans_path)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": {"spans_file": str(spans_path.relative_to(ROOT))},
        "samples": {"traced_walls": traced, "plain_walls": plain, "setup_times": [setup_time]},
        "digest": digest,
        "digest_status": status,
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True, help="scratch directory for this run")
    parser.add_argument("--result", type=Path, required=True, help="where to write the result JSON")
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    args.work.mkdir(parents=True, exist_ok=True)
    if args.trace:
        spans_dir = ROOT / ".perfbench" / "traces"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_path = spans_dir / f"{args.workload}-seed{args.seed}.jsonl"
        result = measure_traced(cls, args.seed, args.seconds, args.work, spans_path)
    else:
        result = measure(cls, args.seed, args.seconds, args.work)
    result.update(
        workload=args.workload, seed=args.seed, trace=args.trace, sizes=cls.sizes, env=environment()
    )
    args.result.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
