"""The four benchmark workloads.

Each workload builds its inputs from the seed with ``synthetic_corpus`` in
``setup``, runs one timed repetition per ``run`` call and checks a
repetition's outputs in ``verify``, outside the timed region. Library
functions are always looked up through their module (``coverage.order_for_query``),
so the tracer's rebinding reaches the benchmark's own calls too.

All workloads are closed loop: one client waits for each batch, and the
only concurrency is the program's own ``max_in_flight``, set to the number
of usable cores.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
import urllib.request
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from ideolab import cli, corpus, coverage, embedding, evaluation, llm, prompting, selection, synthetic
from stub import DELAY_MS as STUB_DELAY_MS, FAULT_EVERY as STUB_FAULT_EVERY

HERE = Path(__file__).resolve().parent
FIELDS = prompting.FieldConfig()
DIM = 64
BOOTSTRAP = 1000
ORACLE_QUERIES = 3
ORACLE_POOL = 48
GAIN_ATOL = 1e-9  # recorded gains against the oracle's
TIE_TOL = 1e-12  # gains this close count as a tie


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class RepOutput:
    """What one timed repetition produced."""

    wall_s: float
    rows: list  # the outputs the digest covers, in a fixed order
    attempted: int
    failed: int
    queries: int = 0
    latencies_ms: list = field(default_factory=list)
    accuracy: Optional[float] = None
    stub_stats: dict = field(default_factory=dict)
    payload: object = None  # kept for verify only

    def digest(self) -> str:
        text = json.dumps(self.rows, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _failed(records) -> int:
    return sum(1 for r in records if r.parse_status != llm.PARSE_OK)


def _first_demo_label(demos) -> str:
    return demos.members[0].label.wire if demos.members else "neutral"


def _balance_problem(labels: list, ranks: list[int], k: int, fallback: bool) -> Optional[str]:
    """Quota rule of ``balanced_select``: k members, at most floor(k/3) per
    class plus k mod 3 single extras, admitted in rank order."""
    if len(labels) != k:
        return f"{len(labels)} demonstrations, wanted {k}"
    if fallback:  # the fill pass may exceed the quotas
        return None
    if ranks != sorted(set(ranks)):
        return f"demonstration ranks out of order {ranks}"
    base, extras = divmod(k, 3)
    over = [count - base for count in Counter(labels).values() if count > base]
    if any(o > 1 for o in over) or len(over) > extras:
        return f"class counts {dict(Counter(labels))} break the quota for k={k}"
    return None


def _load_reference():
    """``tests/reference.py`` holds the naive oracles."""
    path = HERE.parent / "tests" / "reference.py"
    spec = importlib.util.spec_from_file_location("ideolab_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Workload:
    name = ""
    sizes: dict = {}

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.cores = usable_cores()

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> RepOutput:
        raise NotImplementedError

    def verify(self, out: RepOutput) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def llm_config(self, **overrides) -> llm.LLMConfig:
        return llm.LLMConfig(max_in_flight=self.cores, **overrides)


class PoolBuild(Workload):
    """embed_many + build_candidate_pool: the dense probe x train matrix."""

    name = "pool_build"
    sizes = {"train": 3000, "probe": 500, "pool": 800, "dim": DIM}

    def setup(self) -> None:
        self.train, _ = synthetic.synthetic_corpus(self.sizes["train"], 0, seed=self.seed)

    def run(self) -> RepOutput:
        s = self.sizes
        start = time.perf_counter()
        provider = embedding.HashedProvider(dim=s["dim"])
        embs = embedding.embed_many(self.train, FIELDS, provider)
        pool = coverage.build_candidate_pool(self.train, embs, s["pool"], probe_size=s["probe"], seed=self.seed)
        wall = time.perf_counter() - start
        rows = [[e.item_id, e.label.wire] for e in pool.entries]
        return RepOutput(wall, rows, attempted=1, failed=0, payload=(pool, embs))

    def verify(self, out: RepOutput) -> list[str]:
        pool, embs = out.payload
        s = self.sizes
        problems = []
        labels = {it.id: it.label for it in self.train}
        ids = pool.ids()
        if len(ids) != s["pool"] or len(set(ids)) != len(ids):
            problems.append(f"pool has {len(ids)} entries ({len(set(ids))} distinct), wanted {s['pool']}")
        wrong = [e.item_id for e in pool.entries if labels.get(e.item_id) != e.label]
        if wrong:
            problems.append(f"pool labels differ from the training set, e.g. {wrong[:3]}")
        gains = np.array([e.gain for e in pool.entries])
        if not np.all(np.isfinite(gains)) or np.any(np.diff(gains) > 1e-9 * max(1.0, gains[0])):
            problems.append("pool gains are not finite and nonincreasing")
        # The gains must add up to the probe coverage of the chosen set,
        # recomputed here by a direct max over all member tokens.
        probe = coverage.probe_indices(len(self.train), s["probe"], self.seed)
        members = np.concatenate([embs[i].token_vectors for i in ids], axis=0)
        objective = 0.0
        for idx in probe:
            tokens = embs[self.train[int(idx)].id].token_vectors
            objective += float((tokens @ members.T).max(axis=1).mean()) + 1.0
        total = float(gains.sum())
        if not math.isclose(total, objective, rel_tol=1e-9):
            problems.append(f"pool gains sum to {total!r}, probe coverage is {objective!r}")
        return problems


class _PooledQueries(Workload):
    """Shared set-up: corpus, embeddings and a prebuilt pool."""

    def build_pool(self, n_train: int, n_test: int, with_sources: bool = False) -> None:
        s = self.sizes
        self.train, self.test = synthetic.synthetic_corpus(
            n_train, n_test, seed=self.seed, with_sources=with_sources
        )
        self.provider = embedding.HashedProvider(dim=s["dim"])
        embs = embedding.embed_many(self.train, FIELDS, self.provider)
        self.pool = coverage.build_candidate_pool(self.train, embs, s["pool"], probe_size=s["probe"], seed=self.seed)
        self.pool_embs = {i: embs[i] for i in self.pool.ids()}
        self.labels = self.pool.labels()
        self.items = {it.id: it for it in self.train}

    def select(self, item, k: int):
        query = embedding.embed_item(item, FIELDS, self.provider)
        ordering = coverage.order_for_query(query, self.pool, self.pool_embs, mode="set_bsr_greedy")
        demos = selection.balanced_select(ordering, self.labels, k)
        return demos, prompting.render(item, demos, self.items, FIELDS)

    def check_records(self, records, demos_by_id, k: int) -> list[str]:
        problems = []
        for record in records:
            demos = demos_by_id[record.query_id]
            if record.parse_status != llm.PARSE_OK:
                problems.append(f"{record.query_id}: parse_status {record.parse_status}")
            elif record.pred.wire != _first_demo_label(demos):
                problems.append(f"{record.query_id}: predicted {record.pred.wire}, first demo is {_first_demo_label(demos)}")
            problem = _balance_problem(
                [m.label for m in demos.members], [m.rank for m in demos.members], k, demos.fallback_used
            )
            if problem:
                problems.append(f"{record.query_id}: {problem}")
        return problems[:10]


class SelectLargePool(_PooledQueries):
    """Per query: embed_item -> order_for_query -> balanced_select -> render;
    then classify_batch with the nearest_demo mock, then score."""

    name = "select_large_pool"
    sizes = {"train": 2000, "probe": 500, "pool": 1000, "queries": 50, "k": 8, "dim": DIM}

    def setup(self) -> None:
        self.build_pool(self.sizes["train"], self.sizes["queries"])

    def run(self) -> RepOutput:
        k = self.sizes["k"]
        mock = llm.mock_from_spec("nearest_demo")
        tasks, demos_by_id, latencies = [], {}, []
        start = time.perf_counter()
        for item in self.test:
            began = time.perf_counter()
            demos, prompt = self.select(item, k)
            tasks.append((item.id, item.label, prompt))
            demos_by_id[item.id] = demos
            latencies.append((time.perf_counter() - began) * 1e3)
        records = llm.classify_batch(tasks, self.llm_config(), mock)
        report = evaluation.score(records, bootstrap_resamples=BOOTSTRAP, seed=self.seed)
        wall = time.perf_counter() - start
        rows = [
            [r.query_id, [m.item_id for m in demos_by_id[r.query_id].members], r.pred and r.pred.wire, r.parse_status]
            for r in records
        ]
        return RepOutput(
            wall, rows, attempted=len(records), failed=_failed(records), queries=len(records),
            latencies_ms=latencies, accuracy=report.accuracy, payload=(records, demos_by_id),
        )

    def verify(self, out: RepOutput) -> list[str]:
        records, demos_by_id = out.payload
        problems = self.check_records(records, demos_by_id, self.sizes["k"])
        problems += self.check_oracle()
        return problems

    def check_oracle(self) -> list[str]:
        """Orderings of a few seeded queries against ``naive_query_order``
        over a prefix of the pool (the oracle recomputes every set score in
        Python, so the full pool would take minutes).

        Synthetic titles share exact words, so two candidates can tie on
        gain exactly; the library and the oracle then break the tie by
        rounding noise. An ordering that differs from the oracle's passes
        only if it is still greedy up to such ties, as
        :func:`_greedy_up_to_ties` checks with the oracle's own functions.
        """
        reference = _load_reference()
        sub = coverage.CandidatePool(entries=self.pool.entries[:ORACLE_POOL])
        cand_tokens = [self.pool_embs[i].token_vectors for i in sub.ids()]
        rng = np.random.default_rng(self.seed)
        problems = []
        for idx in rng.choice(len(self.test), size=ORACLE_QUERIES, replace=False):
            item = self.test[int(idx)]
            query = embedding.embed_item(item, FIELDS, self.provider)
            ordering = coverage.order_for_query(query, sub, self.pool_embs, mode="set_bsr_greedy")
            got = [sub.ids().index(e.item_id) for e in ordering.ranked]
            gains = [e.marginal_gain for e in ordering.ranked]
            order, naive_gains, _ = reference.naive_query_order(query.token_vectors, cand_tokens)
            if got == order and np.allclose(gains, naive_gains, rtol=0, atol=GAIN_ATOL):
                continue
            if not _greedy_up_to_ties(reference, query.token_vectors, cand_tokens, got, gains):
                problems.append(f"{item.id}: ordering differs from naive_query_order beyond ties")
        return problems


def _greedy_up_to_ties(reference, query_tokens, cand_tokens, order, gains) -> bool:
    """True if ``order`` picks, at every greedy step, a candidate whose
    naive marginal gain is within TIE_TOL of the best, records that gain,
    and then lists the rest by nonincreasing naive BSR."""
    picked: list[int] = []
    remaining = set(range(len(cand_tokens)))
    current = -1.0
    step = 0
    while remaining:
        naive = {
            j: reference.naive_set_coverage(query_tokens, [cand_tokens[i] for i in picked + [j]]) - current
            for j in remaining
        }
        best = max(naive.values())
        if best <= coverage.GAIN_FLOOR:
            break
        j = order[step]
        if j not in remaining or naive[j] < best - TIE_TOL or abs(gains[step] - naive[j]) > GAIN_ATOL:
            return False
        picked.append(j)
        remaining.discard(j)
        current += naive[j]
        step += 1
    tail = order[step:]
    if sorted(tail) != sorted(remaining):
        return False
    scores = [reference.naive_bsr(query_tokens, cand_tokens[j]) for j in tail]
    return all(a >= b - TIE_TOL for a, b in zip(scores, scores[1:]))


class AblateGrid(Workload):
    """``ideolab ablate`` over 16 cells (k x fields) on JSONL files."""

    name = "ablate_grid"
    sizes = {"train": 300, "probe": 150, "pool": 60, "queries": 12, "cells": 16, "dim": DIM}

    def setup(self) -> None:
        s = self.sizes
        self.work_dir.mkdir(parents=True, exist_ok=True)
        train, test = synthetic.synthetic_corpus(s["train"], s["queries"], seed=self.seed, with_sources=True)
        self.train_path = self.work_dir / "train.jsonl"
        self.test_path = self.work_dir / "test.jsonl"
        corpus.write_dataset(train, self.train_path)
        corpus.write_dataset(test, self.test_path)
        self.config_path = self.work_dir / "config.json"
        config = {
            "label_scheme": "direct",
            "embed_provider": "hashed",
            "embed_dim": s["dim"],
            "seed": self.seed,
            "max_in_flight": self.cores,
            "bootstrap_resamples": BOOTSTRAP,
        }
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        pool_out = self.work_dir / "pool"
        code = self._cli(
            "pool", "--train-dataset", self.train_path, "--pool-size", s["pool"],
            "--probe-size", s["probe"], "--out", pool_out,
        )
        if code != 0:
            raise RuntimeError(f"ideolab pool exited with {code}")
        self.pool_path = pool_out / "pool.jsonl"
        self.reps = 0

    def _cli(self, command: str, *args) -> int:
        return cli.main([command, "--config", str(self.config_path), *map(str, args)])

    def run(self) -> RepOutput:
        # Each repetition writes into a fresh directory, kept until the run
        # ends: deleting its ~500 files between repetitions made the later
        # repetitions slower and noisier in trials.
        self.reps += 1
        rep_dir = self.work_dir / f"rep{self.reps}"
        out_dir = rep_dir / "out"
        start = time.perf_counter()
        code = self._cli(
            "ablate", "--dataset", self.test_path, "--train-dataset", self.train_path,
            "--pool-file", self.pool_path, "--mock", "nearest_demo",
            "--cache-dir", rep_dir / "cache", "--out", out_dir,
        )
        wall = time.perf_counter() - start
        rows, records, traces = [], [], []
        summary = json.loads((out_dir / "ablation_summary.json").read_text(encoding="utf-8")) if code == 0 else {"cells": []}
        accuracies = []
        for cell in sorted(summary["cells"], key=lambda c: (c["k"], c["fields"])):
            cell_dir = out_dir / f"k{cell['k']}_{cell['fields']}"
            preds = _read_jsonl(cell_dir / "predictions.jsonl")
            trace = {t["query_id"]: t for t in _read_jsonl(cell_dir / "selection_trace.jsonl")}
            accuracies.append(cell["accuracy"])
            for p in preds:
                t = trace[p["query_id"]]
                rows.append([cell["k"], cell["fields"], p["query_id"], [m["id"] for m in t["members"]], p["pred"], p["parse_status"]])
                records.append((cell["k"], p, t))
        failed = sum(1 for _, p, _ in records if p["parse_status"] != llm.PARSE_OK)
        return RepOutput(
            wall, rows, attempted=max(len(records), 1), failed=failed if code == 0 else max(len(records), 1),
            queries=len(records), accuracy=float(np.mean(accuracies)) if accuracies else None,
            payload={"code": code, "cells": len(summary["cells"]), "records": records},
        )

    def verify(self, out: RepOutput) -> list[str]:
        s = self.sizes
        info = out.payload
        problems = []
        if info["code"] != 0:
            return [f"ideolab ablate exited with {info['code']}"]
        if info["cells"] != s["cells"] or len(info["records"]) != s["cells"] * s["queries"]:
            problems.append(f"{info['cells']} cells and {len(info['records'])} records, wanted {s['cells']} x {s['queries']}")
        for k, pred, trace in info["records"]:
            members = trace["members"]
            expected = members[0]["label"] if members else "neutral"
            if pred["parse_status"] != llm.PARSE_OK or pred["pred"] != expected:
                problems.append(f"k={k} {pred['query_id']}: pred {pred['pred']} ({pred['parse_status']})")
            problem = _balance_problem(
                [m["label"] for m in members], [m["rank"] for m in members], k, trace["fallback_used"]
            )
            if problem:
                problems.append(f"k={k} {pred['query_id']}: {problem}")
        return problems[:10]


class ClassifyHttp(_PooledQueries):
    """classify_batch with ChatCompletionsClient against the local stub."""

    name = "classify_http"
    sizes = {
        "train": 1000, "probe": 300, "pool": 200, "queries": 200, "k": 4, "dim": DIM,
        "stub_delay_ms": STUB_DELAY_MS, "stub_fault_every": STUB_FAULT_EVERY,
    }

    def setup(self) -> None:
        s = self.sizes
        self.build_pool(s["train"], s["queries"])
        self.tasks, self.demos_by_id = [], {}
        for item in self.test:
            demos, prompt = self.select(item, s["k"])
            self.tasks.append((item.id, item.label, prompt))
            self.demos_by_id[item.id] = demos
        self.stub = subprocess.Popen([sys.executable, str(HERE / "stub.py")], stdout=subprocess.PIPE, text=True)
        line = self.stub.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError(f"stub did not report its port: {line!r}")
        self.base_url = f"http://127.0.0.1:{int(line)}"

    def _stub(self, path: str, post: bool = False) -> dict:
        request = urllib.request.Request(self.base_url + path, data=b"" if post else None)
        with urllib.request.urlopen(request, timeout=10) as resp:
            return json.loads(resp.read())

    def run(self) -> RepOutput:
        self._stub("/reset", post=True)
        client = llm.ChatCompletionsClient(self.llm_config(base_url=self.base_url, timeout=10.0))
        first: dict[str, float] = {}
        last: dict[str, float] = {}

        def timed_client(messages, query_id=None):
            began = time.perf_counter()
            first.setdefault(query_id, began)
            try:
                return client(messages, query_id)
            finally:
                last[query_id] = time.perf_counter()

        start = time.perf_counter()
        records = llm.classify_batch(self.tasks, client.cfg, timed_client)
        report = evaluation.score(records, bootstrap_resamples=BOOTSTRAP, seed=self.seed)
        wall = time.perf_counter() - start
        stats = self._stub("/stats")
        latencies = [(last[q] - first[q]) * 1e3 for q in first]
        rows = [
            [r.query_id, [m.item_id for m in self.demos_by_id[r.query_id].members], r.pred and r.pred.wire, r.parse_status]
            for r in records
        ]
        return RepOutput(
            wall, rows, attempted=len(records), failed=_failed(records), queries=len(records),
            latencies_ms=latencies, accuracy=report.accuracy, stub_stats=stats, payload=records,
        )

    def verify(self, out: RepOutput) -> list[str]:
        records = out.payload
        problems = self.check_records(records, self.demos_by_id, self.sizes["k"])
        attempts = sum(r.attempts for r in records)
        stats = out.stub_stats
        if stats["requests"] != attempts:
            problems.append(f"stub saw {stats['requests']} requests, client made {attempts} attempts")
        if stats["http_429"] != attempts - len(records) or stats["http_5xx"] != 0:
            problems.append(f"retries {attempts - len(records)} vs stub 429s {stats['http_429']}, 5xx {stats['http_5xx']}")
        return problems

    def close(self) -> None:
        stub = getattr(self, "stub", None)
        if stub is not None and stub.poll() is None:
            stub.terminate()
            try:
                stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                stub.kill()
                stub.wait()
        if stub is not None:
            stub.stdout.close()


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return rows[1:]  # first line is the header


WORKLOADS = {cls.name: cls for cls in (PoolBuild, SelectLargePool, AblateGrid, ClassifyHttp)}
