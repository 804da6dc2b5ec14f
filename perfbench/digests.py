"""Record the output digests the correctness gate compares against.

    python3 perfbench/digests.py --seeds 0-99
    python3 perfbench/digests.py --seeds 0-9 --workloads classify_http

For each workload and seed it sets up and runs one checked repetition,
as ``worker.py`` does before it times any, and stores the digest of its outputs in ``perfbench/digests.json``.
A run of ``run.py`` on a recorded seed fails if its outputs differ. Record
again only when a change is meant to alter outputs, and say so with it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# The same single-threaded BLAS as run.py gives its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    from steady import parse_seeds
    from worker import import_program, set_up, warm_up

    import_program()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="0-9")
    args = parser.parse_args(argv)

    path = HERE / "digests.json"
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    failures = 0
    scratch_root = HERE.parent / ".perfbench"
    scratch_root.mkdir(exist_ok=True)
    for name in args.workloads.split(","):
        cls = WORKLOADS[name]
        for seed in parse_seeds(args.seeds):
            with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
                with contextlib.redirect_stdout(io.StringIO()):  # the CLI's progress lines
                    wl, _ = set_up(cls, seed, Path(scratch))
                    try:
                        _, digest, problems, _ = warm_up(wl, seed, compare=False)
                    finally:
                        wl.close()
            if problems:
                failures += 1
                print(f"{name} seed {seed}: NOT recorded: {problems}")
                continue
            table.setdefault(name, {})[str(seed)] = digest
            print(f"{name} seed {seed}: {digest[:16]}", flush=True)
            path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
