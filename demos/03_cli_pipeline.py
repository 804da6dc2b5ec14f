"""End-to-end command-line pipeline on a synthetic corpus: ingest data,
build the candidate pool, classify with a deterministic mock, evaluate,
and run the k-by-fields ablation grid.

    python3 demos/03_cli_pipeline.py

Everything lands under demos/output/ and is byte-reproducible: run it
twice and diff the directory.
"""

import json
import sys
from pathlib import Path

from ideolab.cli import main
from ideolab.corpus import write_dataset
from ideolab.synthetic import synthetic_corpus


def run(argv):
    """Run one subcommand; stop the demo if it fails."""
    code = main(argv)
    if code != 0:
        sys.exit(f"demo stopped: ideolab {argv[0]} exited with {code}")


root = Path(__file__).parent / "output"
root.mkdir(exist_ok=True)

train, test = synthetic_corpus(120, 45, seed=8, with_sources=True)
write_dataset(train, root / "train.jsonl")
write_dataset(test, root / "test.jsonl")

flags = [
    "--label-scheme", "direct",
    "--embed-provider", "hashed",
    "--embed-dim", "32",
    "--seed", "7",
    "--out", str(root / "run"),
]

print("=== ingest ===")
run(["ingest", "--dataset", str(root / "train.jsonl")] + flags)

print("\n=== pool ===")
run(["pool", "--train-dataset", str(root / "train.jsonl"),
     "--pool-size", "60", "--probe-size", "80"] + flags)

print("\n=== classify (balanced, k=4, majority-echo mock) ===")
run(["classify", "--dataset", str(root / "test.jsonl"),
     "--train-dataset", str(root / "train.jsonl"),
     "--k", "4", "--select", "balanced", "--mock", "echo_majority",
     "--dump-prompts"] + flags)

print("\n=== eval ===")
run(["eval"] + flags)

print("\n=== compare against a zero-shot run ===")
zs_flags = [f if f != str(root / "run") else str(root / "run_zeroshot") for f in flags]
run(["classify", "--dataset", str(root / "test.jsonl"),
     "--k", "0", "--mock", "fixed:neutral"] + zs_flags)
run(["compare", "--a", str(root / "run" / "predictions.jsonl"),
     "--b", str(root / "run_zeroshot" / "predictions.jsonl")])

print("\n=== ablation grid (4 k-values x 4 field configs = 16 cells) ===")
grid_flags = [f if f != str(root / "run") else str(root / "grid") for f in flags]
run(["ablate", "--dataset", str(root / "test.jsonl"),
     "--train-dataset", str(root / "train.jsonl"),
     "--pool-file", str(root / "run" / "pool.jsonl"),
     "--mock", "echo_majority"] + grid_flags)

report = json.loads((root / "run" / "report.json").read_text())
print(f"\nfew-shot report: accuracy={report['accuracy']:.3f} n={report['n']} "
      f"ci95={report['ci95']} parse_failures={report['parse_failure_count']}")
print(f"artifacts under {root}/")
