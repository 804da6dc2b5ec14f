"""Spans around the public functions of each ideolab layer, recorded from
the benchmark's own code; nothing under ``src/`` is edited.

:meth:`Tracer.installed` wraps every public function of the layer modules
and rebinds the wrapper wherever a module of the package binds the
original, so ``ideolab.cli.order_for_query`` and
``ideolab.coverage.order_for_query`` both record. A few methods that carry
work (the embedding cache, pool file I/O, the HTTP client call) are wrapped
on their class. Leaving the context restores every binding, so untraced
repetitions run the program exactly as shipped.

A span records its name, layer, start, end, parent span, query id, thread
and the run phase. A span opened on a worker thread with nothing open on
that thread takes the innermost span open on the main thread as its parent
(the batch call that is waiting for it). Spans stay in memory until
:meth:`Tracer.write` is called at the end of the run. tracemalloc runs
only in traced runs, on one extra untimed ``build_candidate_pool`` call.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import statistics
import threading
import time
import tracemalloc
from collections import Counter, defaultdict
from typing import Callable, Optional

LAYERS = ("corpus", "embedding", "coverage", "selection", "prompting", "llm", "evaluation", "cli")

# Methods wrapped on their class: (module, class, method).
METHODS = (
    ("embedding", "EmbeddingCache", "get"),
    ("embedding", "EmbeddingCache", "put"),
    ("embedding", "HashedProvider", "fetch"),
    ("coverage", "CandidatePool", "load"),
    ("coverage", "CandidatePool", "save"),
    ("llm", "ChatCompletionsClient", "__call__"),
)

# Functions whose result is the LLM callable; the callable is wrapped too.
RETURNS_LLM = ("llm.mock_llm", "llm.mock_from_spec")

REQUEST = "llm.request"

# Spans that keep their call's arguments and result for the counters.
KEEP_CALL = {
    "coverage.build_candidate_pool",
    "coverage.order_for_query",
    "selection.balanced_select",
    "prompting.render",
    "llm.classify_batch",
    "embedding.EmbeddingCache.get",
}


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "query_id", "thread", "phase", "attrs", "stack")
    FIELDS = ("id", "name", "layer", "start", "end", "parent", "query_id", "thread", "phase")

    def to_json_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.FIELDS}


def _query_id_of(args, kwargs) -> Optional[str]:
    qid = kwargs.get("query_id")
    if isinstance(qid, str):
        return qid
    if args:
        first = args[0]
        for attr in ("query_id", "item_id"):
            value = getattr(first, attr, None)
            if isinstance(value, str):
                return value
        if hasattr(first, "title") and isinstance(getattr(first, "id", None), str):
            return first.id
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._ids = iter(range(1, 1 << 62))
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.main_thread().ident
        self._query_ids: dict[int, Optional[str]] = {}

    # -- recording -------------------------------------------------------

    def _open(self, name: str, layer: str, query_id: Optional[str]) -> Span:
        thread = threading.get_ident()
        if thread == self._main_ident:
            stack = self._main_stack
            parent = stack[-1] if stack else None
        else:
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            main = self._main_stack
            parent = stack[-1] if stack else (main[-1] if main else None)
        if query_id is None and parent is not None:
            query_id = self._query_ids.get(parent)
        span = Span()
        span.id = next(self._ids)
        span.name, span.layer, span.parent, span.query_id = name, layer, parent, query_id
        span.thread, span.phase, span.attrs, span.stack = thread, self.phase, {}, stack
        self._query_ids[span.id] = query_id
        stack.append(span.id)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.stack.pop()
        span.stack = None
        self.spans.append(span)

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """A function that records a span around each call of ``fn``."""
        tracer = self
        wraps_llm = name in RETURNS_LLM
        keep_call = name in KEEP_CALL

        def traced(*args, **kwargs):
            span = tracer._open(name, layer, _query_id_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if keep_call:
                span.attrs["_call"] = (args, kwargs, result)
            if wraps_llm and not getattr(result, "_traced", False):
                return tracer.wrap(result, REQUEST, "llm")
            return result

        traced._traced = True
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function and method; restore on exit."""
        package = importlib.import_module("ideolab")
        modules = {layer: importlib.import_module(f"ideolab.{layer}") for layer in LAYERS}
        binders = [package, *modules.values()]
        wrappers: dict[int, Callable] = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ == module.__name__:
                    wrappers[id(value)] = self.wrap(value, f"{layer}.{attr}", layer)
        restore: list[tuple[object, str, object]] = []
        for binder in binders:
            for attr, value in list(vars(binder).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and not attr.startswith("__"):
                    restore.append((binder, attr, value))
                    setattr(binder, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}" if meth != "__call__" else REQUEST
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(raw.__func__, name, layer))
            else:
                patched = self.wrap(raw, name, layer)
            restore.append((cls, meth, raw))
            setattr(cls, meth, patched)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        """Write the recorded spans as JSONL, without call arguments."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                row = span.to_json_dict()
                row["attrs"] = {k: v for k, v in span.attrs.items() if not k.startswith("_")}
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = (span.end - span.start) - covered
    return out


def max_overlap(spans: list[Span]) -> int:
    """Largest number of spans open at the same instant."""
    events = sorted([(s.start, 1) for s in spans] + [(s.end, -1) for s in spans])
    best = cur = 0
    for _, step in events:
        cur += step
        best = max(best, cur)
    return best


def _sum(spans) -> float:
    return float(sum(s.end - s.start for s in spans))


def _p50_ms(spans) -> float:
    return statistics.median([(s.end - s.start) * 1e3 for s in spans]) if spans else 0.0


def layer_metrics(spans: list[Span], pool_spans: list[Span], stub_stats: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of one timed repetition.

    ``pool_spans`` are the spans of the phase that built the pool (set-up on
    every workload but pool_build); ``stub_stats`` holds the HTTP stub's own
    counters for that repetition, or is empty.
    """
    from ideolab.coverage import build_candidate_pool, probe_indices

    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    m: dict[str, float] = {}

    builds = [s for s in pool_spans if s.name == "coverage.build_candidate_pool"]
    m["coverage.pool_build_s"] = _sum(builds)
    peak_alloc = 0
    matrix_bytes = 0
    for s in builds:
        args, kwargs, _ = s.attrs["_call"]
        # tracemalloc slows the build severalfold, so the peak comes from a
        # second, untimed call on the same inputs rather than the span.
        tracemalloc.start()
        try:
            build_candidate_pool(*args, **kwargs)
            peak_alloc = max(peak_alloc, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        train, embeddings = args[0], args[1]
        probe_size = kwargs.get("probe_size", args[3] if len(args) > 3 else 2000)
        seed = kwargs.get("seed", args[4] if len(args) > 4 else 0)
        probe = probe_indices(len(train), probe_size, seed)
        tokens = sum(embeddings[train[int(i)].id].n_tokens for i in probe)
        matrix_bytes = max(matrix_bytes, tokens * len(train) * 8)
    m["coverage.pool_peak_alloc_mb"] = peak_alloc / 2**20
    m["coverage.sim_matrix_bytes"] = float(matrix_bytes)

    orders = by_name["coverage.order_for_query"]
    m["coverage.order_s"] = _sum(orders)
    m["coverage.order_calls"] = float(len(orders))
    m["coverage.order_p50_ms"] = _p50_ms(orders)
    ranked = sum(len(s.attrs["_call"][2].ranked) for s in orders)
    m["coverage.entries_ranked"] = float(ranked)

    selects = by_name["selection.balanced_select"]
    read = 0
    fallbacks = 0
    for s in selects:
        args, kwargs, demos = s.attrs["_call"]
        ordering = args[0] if args else kwargs["ordering"]
        if demos.fallback_used:
            fallbacks += 1
            read += len(ordering.ranked)
        else:
            read += max((d.rank for d in demos.members + demos.skipped), default=0)
    m["coverage.ordering_read_ratio"] = read / ranked if ranked else 0.0
    m["selection.select_s"] = _sum(selects)
    m["selection.fallback_count"] = float(fallbacks)

    m["embedding.embed_many_s"] = _sum(by_name["embedding.embed_many"])
    m["embedding.embed_item_s"] = _sum(by_name["embedding.embed_item"])
    m["embedding.items_embedded"] = float(len(by_name["embedding.embed_item"]))
    gets = by_name["embedding.EmbeddingCache.get"]
    hits = sum(1 for s in gets if s.attrs["_call"][2] is not None)
    m["embedding.cache_hits"] = float(hits)
    m["embedding.cache_misses"] = float(len(gets) - hits)
    m["embedding.cache_hit_ratio"] = hits / len(gets) if gets else 0.0

    loads = by_name["corpus.load_dataset"]
    m["corpus.load_calls"] = float(len(loads))
    m["corpus.load_s"] = _sum(loads)
    m["cli.run_classify_s"] = _sum(by_name["cli.run_classify"])
    m["cli.run_eval_s"] = _sum(by_name["cli.run_eval"])
    m["cli.cells"] = float(len(by_name["cli.run_classify"]))

    renders = by_name["prompting.render"]
    m["prompting.render_s"] = _sum(renders)
    m["prompting.prompt_chars_mean"] = (
        statistics.fmean(len(s.attrs["_call"][2].text) for s in renders) if renders else 0.0
    )

    batches = by_name["llm.classify_batch"]
    records = [r for s in batches for r in s.attrs["_call"][2]]
    requests = by_name[REQUEST]
    attempts = sum(r.attempts for r in records)
    m["llm.classify_batch_s"] = _sum(batches)
    m["llm.requests"] = float(len(requests))
    m["llm.attempts"] = float(attempts)
    m["llm.retries"] = float(attempts - len(records))
    m["llm.http_429"] = float(stub_stats.get("http_429", 0))
    m["llm.http_5xx"] = float(stub_stats.get("http_5xx", 0))
    m["llm.request_p50_ms"] = _p50_ms(requests)
    m["llm.server_busy_s"] = float(stub_stats.get("busy_s", 0.0))
    m["llm.in_flight_max"] = float(max_overlap(requests))
    statuses = Counter(r.parse_status for r in records)
    for status in ("ok", "ambiguous", "empty", "transport_error"):
        m[f"llm.parse_status.{status}"] = float(statuses.get(status, 0))

    scores = by_name["evaluation.score"]
    m["evaluation.score_s"] = _sum(scores)
    m["evaluation.score_calls"] = float(len(scores))

    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(sum(own[s.id] for s in spans if s.layer == layer))
    m["trace.spans"] = float(len(spans))
    return m
