"""Command-line pipeline: ingest, embed, pool, classify, eval, compare,
ablate.

Each run is driven by a single config (file plus flag overrides); the
merged effective config is dumped next to the outputs and its hash stamps
every artifact. With a mock endpoint the whole pipeline is deterministic:
re-running an unchanged config overwrites byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Optional

from .config import RunConfig
from .corpus import LabelMapping, _read_jsonl, _write_json, _write_jsonl, load_dataset, write_dataset
from .coverage import CandidatePool, build_candidate_pool, order_for_query
from .embedding import EmbeddingCache, ProviderUnreachableError, embed_many, load_provider
from .evaluation import EvalReport, mcnemar, score
from .llm import ChatCompletionsClient, LLMConfig, PredictionRecord, classify_batch, mock_from_spec
from .prompting import FIELD_GRID, FieldConfig, render
from .selection import DemonstrationSet, balanced_select, random_select

K_GRID = (0, 4, 8, 12)

ORDER_MODES = {"set-bsr": "set_bsr_greedy", "bsr": "independent_bsr"}


class CliError(Exception):
    """Fatal condition with a user-facing message."""


def derive_seed(master_seed: int, tag: str) -> int:
    """Stable per-item seed derived from the master seed and a tag."""
    digest = hashlib.sha256(f"{master_seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def _read_predictions(path) -> tuple[dict, list[PredictionRecord]]:
    def check_header(header: dict) -> None:
        if header.get("kind") != "predictions":
            raise ValueError("missing predictions header line")

    header, records = _read_jsonl(path, CliError, lambda row, _: PredictionRecord.from_json_dict(row), check_header)
    if header is None:
        raise CliError(f"{path}: empty predictions file")
    hashes = {r.config_hash for r in records} | {header.get("config_hash")}
    if len(hashes) != 1:
        raise CliError(f"{path}: mixed config hashes in predictions: {sorted(map(str, hashes))}")
    return header, records


def _require(cfg: RunConfig, **fields) -> None:
    for name, label in fields.items():
        if not getattr(cfg, name):
            raise CliError(f"missing required config value: {label}")


_LLM_SETTINGS = ("model_name", "temperature", "max_in_flight", "max_retries", "timeout", "char_budget", "chat_turns")


def _llm_config(cfg: RunConfig) -> LLMConfig:
    return LLMConfig(**{name: getattr(cfg, name) for name in _LLM_SETTINGS})


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dump_effective_config(cfg: RunConfig, out: Path) -> None:
    payload = dict(cfg.to_json_dict(), config_hash=cfg.config_hash)
    _write_json(out / "effective_config.json", payload)


def cmd_ingest(cfg: RunConfig) -> int:
    _require(cfg, dataset="--dataset")
    out = _out_dir(cfg)
    scheme = LabelMapping.for_scheme(cfg.label_scheme)
    items = load_dataset(cfg.dataset, scheme)
    write_dataset(items, out / "ingested.jsonl")
    counts = {"liberal": 0, "neutral": 0, "conservative": 0, "unlabeled": 0}
    for item in items:
        counts[item.label.wire if item.label is not None else "unlabeled"] += 1
    summary = {"config_hash": cfg.config_hash, "n_items": len(items), "label_counts": counts}
    _write_json(out / "ingest_summary.json", summary)
    _dump_effective_config(cfg, out)
    print(f"ingested {len(items)} items -> {out / 'ingested.jsonl'} ({counts})")
    return 0


def _close(resource) -> None:
    """Close an HTTP client or provider; mocks and in-process providers have no ``close``."""
    getattr(resource, "close", lambda: None)()


def _embedding_cache(cfg: RunConfig, provider) -> Optional[EmbeddingCache]:
    """The run's on-disk cache: only with ``cache_dir`` set and a provider
    that is not ``in_process``. An in-process provider (``hashed``,
    ``file:``) recomputes an item in less time than a cache entry takes to
    write, to the same bits, so its vectors are never cached."""
    if not cfg.cache_dir or getattr(provider, "in_process", False):
        return None
    return EmbeddingCache(cfg.cache_dir)


def _embed_dataset(cfg: RunConfig, path: str, require_cache: bool = False):
    """(items, embeddings) for the dataset at ``path``. The provider is made
    before the read, so a bad endpoint fails first, and closed at the end.
    ``require_cache`` refuses a provider that is not cached, before the read."""
    provider = load_provider(cfg.embed_provider, cfg.embed_dim)
    try:
        cache = _embedding_cache(cfg, provider)
        if require_cache and cache is None:
            raise CliError(
                f"embed fills the cache of an HTTP provider; {cfg.embed_provider!r} is computed "
                "in-process and never cached, so there is nothing to fill"
            )
        items = load_dataset(path, LabelMapping.for_scheme(cfg.label_scheme))
        return items, embed_many(items, FieldConfig.from_key(cfg.fields), provider, cache)
    finally:
        _close(provider)


def cmd_embed(cfg: RunConfig) -> int:
    _require(cfg, dataset="--dataset", cache_dir="--cache-dir")
    items, _ = _embed_dataset(cfg, cfg.dataset, require_cache=True)
    print(f"embedded {len(items)} items into cache {cfg.cache_dir}")
    return 0


def cmd_pool(cfg: RunConfig) -> int:
    _require(cfg, train_dataset="--train-dataset")
    train, embeddings = _embed_dataset(cfg, cfg.train_dataset)
    n = cfg.pool_size or len(train)
    pool = build_candidate_pool(train, embeddings, n, probe_size=cfg.probe_size, seed=cfg.seed)
    out = _out_dir(cfg)
    pool_path = out / "pool.jsonl"
    pool.save(pool_path, extra_header={"config_hash": cfg.config_hash})
    _dump_effective_config(cfg, out)
    print(f"built pool of {len(pool)} candidates -> {pool_path}")
    return 0


def _resolve_pool_path(cfg: RunConfig, out: Path) -> Path:
    return Path(cfg.pool_file) if cfg.pool_file else out / "pool.jsonl"


def _load(cfg: RunConfig, ks: list[int]):
    """Read the queries and, when some k > 0, the training items by id and
    the pool, checked against each other; returns (queries, train, pool)."""
    _require(cfg, dataset="--dataset")
    scheme = LabelMapping.for_scheme(cfg.label_scheme)
    queries = load_dataset(cfg.dataset, scheme)
    if cfg.order not in ORDER_MODES:
        raise CliError(f"--order must be one of {sorted(ORDER_MODES)}, got {cfg.order!r}")
    if min(ks) < 0:
        raise CliError(f"--k must be nonnegative, got {min(ks)}")
    if max(ks) == 0:
        return queries, {}, None
    if cfg.select not in ("balanced", "random"):
        raise CliError(f"--select must be balanced or random, got {cfg.select!r}")
    _require(cfg, train_dataset="--train-dataset")
    train = {item.id: item for item in load_dataset(cfg.train_dataset, scheme)}
    pool_path = _resolve_pool_path(cfg, Path(cfg.out))
    if not pool_path.exists():
        raise CliError(f"pool file not found: {pool_path} (run the pool subcommand first)")
    pool = CandidatePool.load(pool_path)
    missing = [i for i in pool.ids() if i not in train]
    if missing:
        raise CliError(f"pool references ids missing from the training set, e.g. {missing[:3]}")
    return queries, train, pool


def _select(cfg: RunConfig, queries, train, pool, fields: FieldConfig, ks: list[int], provider, cache):
    """Each query's demonstrations for every k in ``ks``: k -> one
    DemonstrationSet per query, in query order.

    Orderings do not depend on k, so each query is ordered once and every
    k selects from that ordering before the next query is ordered. Queries
    are ordered only when ``provider`` is given and some k > 0.
    """
    ordered = provider is not None and max(ks) > 0
    if ordered:
        pool_embeddings = embed_many([train[i] for i in pool.ids()], fields, provider, cache)
        query_embeddings = embed_many(queries, fields, provider, cache)
        labels = pool.labels()
    demos: dict[int, list[DemonstrationSet]] = {k: [] for k in ks}
    for item in queries:
        if ordered:
            ordering = order_for_query(
                query_embeddings[item.id], pool, pool_embeddings, mode=ORDER_MODES[cfg.order]
            )
        for k in ks:
            if k == 0:
                chosen = DemonstrationSet(query_id=item.id, members=[], k_requested=0)
            elif cfg.select == "random":
                chosen = random_select(pool, k, derive_seed(cfg.seed, item.id), query_id=item.id)
            else:
                chosen = balanced_select(ordering, labels, k)
            demos[k].append(chosen)
    return demos


def run_classify(cfg: RunConfig, queries, train, demos, llm, dump_prompts: bool = False) -> Path:
    """One cell: prompt -> LLM (or mock) -> predictions, given the queries,
    the training items by id, one DemonstrationSet per query and the LLM
    callable; returns the predictions path."""
    out = _out_dir(cfg)
    config_hash = cfg.config_hash
    fields = FieldConfig.from_key(cfg.fields)
    tasks = [
        (item.id, item.label, render(item, chosen, train, fields, cot=cfg.cot))
        for item, chosen in zip(queries, demos)
    ]

    records = classify_batch(tasks, _llm_config(cfg), llm, config_hash=config_hash)

    header = {"kind": "predictions", "config": cfg.hashed_dict(), "config_hash": config_hash}
    predictions_path = out / "predictions.jsonl"
    _write_jsonl(predictions_path, header, (r.to_json_dict() for r in records))

    traces = sorted((chosen.to_trace() for chosen in demos), key=lambda t: t["query_id"])
    trace_header = {"kind": "selection_trace", "config_hash": config_hash}
    _write_jsonl(out / "selection_trace.jsonl", trace_header, traces)

    if dump_prompts:
        prompt_rows = sorted(
            ({"query_id": qid, "prompt": prompt.text} for qid, _, prompt in tasks),
            key=lambda r: r["query_id"],
        )
        _write_jsonl(out / "prompts.jsonl", {"kind": "prompts", "config_hash": config_hash}, prompt_rows)

    _dump_effective_config(cfg, out)
    return predictions_path


def _classify_cells(cfg: RunConfig, cells: list[RunConfig], dump_prompts: bool):
    """Yield (cell, predictions path) for cells that differ from ``cfg``
    only in k, fields and where they write: one load, one selection pass
    per field configuration, then the per-cell step. The LLM callable, and
    the embedding provider and its cache (see :func:`_embedding_cache`)
    when some selection is ordered, are built once and first, so a bad
    endpoint fails before any dataset is read. Both are closed when the
    run ends, also when it fails."""
    llm_cfg = _llm_config(cfg)  # checked also when a mock answers
    llm = mock_from_spec(cfg.mock) if cfg.mock else ChatCompletionsClient(llm_cfg)
    provider = cache = None
    try:
        if cfg.select == "balanced" and max(cell.k for cell in cells) > 0:
            provider = load_provider(cfg.embed_provider, cfg.embed_dim)
            cache = _embedding_cache(cfg, provider)
        queries, train, pool = _load(cfg, [cell.k for cell in cells])
        demos = {}
        for fields in dict.fromkeys(cell.fields for cell in cells):
            ks = [cell.k for cell in cells if cell.fields == fields]
            selected = _select(cfg, queries, train, pool, FieldConfig.from_key(fields), ks, provider, cache)
            for k, chosen in selected.items():
                demos[k, fields] = chosen
        for cell in cells:
            yield cell, run_classify(cell, queries, train, demos.pop((cell.k, cell.fields)), llm, dump_prompts)
    finally:
        _close(llm)
        _close(provider)


def cmd_classify(cfg: RunConfig, dump_prompts: bool = False) -> int:
    for _, path in _classify_cells(cfg, [cfg], dump_prompts):
        print(f"wrote predictions -> {path}")
    return 0


def run_eval(cfg: RunConfig, predictions_path) -> EvalReport:
    """Score a predictions file and write the report to ``<out>/report.json``."""
    header, records = _read_predictions(predictions_path)
    report = score(
        records,
        config=header.get("config", {}),
        bootstrap_resamples=cfg.bootstrap_resamples,
        seed=cfg.seed,
    )
    _write_json(_out_dir(cfg) / "report.json", report.to_json_dict())
    return report


def cmd_eval(cfg: RunConfig, predictions: Optional[str]) -> int:
    predictions_path = Path(predictions) if predictions else Path(cfg.out) / "predictions.jsonl"
    if not predictions_path.exists():
        raise CliError(f"predictions file not found: {predictions_path}")
    report = run_eval(cfg, predictions_path)
    print(f"accuracy {report.accuracy:.4f} (n={report.n}) -> {Path(cfg.out) / 'report.json'}")
    return 0


def cmd_compare(path_a: str, path_b: str, exact: bool, out: Optional[str]) -> int:
    header_a, records_a = _read_predictions(path_a)
    header_b, records_b = _read_predictions(path_b)
    result = mcnemar(records_a, records_b, method="exact" if exact else "chi2")
    payload = {
        "pair": [header_a.get("config_hash"), header_b.get("config_hash")],
        "statistic": result.statistic,
        "p": result.p,
        "b": result.b,
        "c": result.c,
        "stars": result.stars,
    }
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        _write_jsonl(out, None, [payload])  # the one line printed below
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_ablate(cfg: RunConfig, dump_prompts: bool = False) -> int:
    """Sweep the k grid against the four field configurations."""
    base_out = Path(cfg.out)  # made by the first cell, so a run that fails first writes nothing
    pool_file = str(_resolve_pool_path(cfg, base_out))
    grid = [
        dataclasses.replace(
            cfg, k=k, fields=fields, pool_file=pool_file, out=str(base_out / f"k{k}_{fields}")
        )
        for k in K_GRID
        for fields in FIELD_GRID
    ]
    cells = []
    for cell_cfg, predictions_path in _classify_cells(cfg, grid, dump_prompts):
        report = run_eval(cell_cfg, predictions_path)
        cells.append(
            {
                "k": cell_cfg.k,
                "fields": cell_cfg.fields,
                "config_hash": report.config_hash,
                "accuracy": report.accuracy,
                "report": str(Path(cell_cfg.out) / "report.json"),
            }
        )
        print(f"k={cell_cfg.k:<3} fields={cell_cfg.fields:<18} accuracy={report.accuracy:.4f}")
    summary = {"config_hash": cfg.config_hash, "cells": cells}
    _write_json(_out_dir(cfg) / "ablation_summary.json", summary)
    print(f"wrote {len(cells)} reports under {base_out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ideolab",
        description="Coverage-based, label-balanced demonstration selection "
        "and evaluation pipeline for LLM ideology classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--dataset", help="dataset JSONL to classify/ingest")
        p.add_argument("--train-dataset", dest="train_dataset", help="training dataset JSONL")
        p.add_argument("--label-scheme", dest="label_scheme", choices=tuple(LabelMapping.CUTOFFS))
        p.add_argument("--fields", choices=FIELD_GRID)
        p.add_argument("--k", type=int)
        p.add_argument("--select", choices=("balanced", "random"))
        p.add_argument("--order", choices=tuple(ORDER_MODES))
        p.add_argument("--pool-size", dest="pool_size", type=int)
        p.add_argument("--probe-size", dest="probe_size", type=int)
        p.add_argument("--pool-file", dest="pool_file", help="pool file (default <out>/pool.jsonl)")
        p.add_argument("--seed", type=int)
        p.add_argument("--cot", action="store_const", const=True, default=None)
        p.add_argument("--mock", help="echo_majority | nearest_demo | fixed:<label>")
        p.add_argument("--model", dest="model_name")
        p.add_argument("--embed-provider", dest="embed_provider", help="hashed | file:<path> | http(s)://<url>")
        p.add_argument("--embed-dim", dest="embed_dim", type=int)
        p.add_argument("--cache-dir", dest="cache_dir")
        p.add_argument("--out")

    for name in ("ingest", "embed", "pool", "classify", "eval", "ablate"):
        p = sub.add_parser(name)
        add_common(p)
        if name in ("classify", "ablate"):
            p.add_argument("--dump-prompts", action="store_true")
        if name == "eval":
            p.add_argument("--predictions", help="predictions JSONL (default <out>/predictions.jsonl)")

    p = sub.add_parser("compare")
    p.add_argument("--a", required=True, help="first predictions JSONL")
    p.add_argument("--b", required=True, help="second predictions JSONL")
    p.add_argument("--exact", action="store_true", help="exact binomial test instead of chi-square")
    p.add_argument("--out", help="also write the result JSON here")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    config_fields = {f.name for f in dataclasses.fields(RunConfig)}
    return cfg.merged({key: value for key, value in vars(args).items() if key in config_fields})


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compare":
            return cmd_compare(args.a, args.b, args.exact, args.out)
        cfg = _config_from_args(args)
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "embed":
            return cmd_embed(cfg)
        if args.command == "pool":
            return cmd_pool(cfg)
        if args.command == "classify":
            return cmd_classify(cfg, dump_prompts=args.dump_prompts)
        if args.command == "eval":
            return cmd_eval(cfg, args.predictions)
        if args.command == "ablate":
            return cmd_ablate(cfg, dump_prompts=getattr(args, "dump_prompts", False))
        raise CliError(f"unknown command: {args.command}")  # pragma: no cover
    except (CliError, ProviderUnreachableError, ValueError, OSError) as exc:
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
