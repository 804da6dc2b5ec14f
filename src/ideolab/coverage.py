"""Token-coverage scoring, offline candidate pool construction, and the
per-query coverage ordering consumed by balanced selection.

The coverage score of a candidate for a query is BertScore-recall: the
mean over query tokens of the maximum cosine similarity to any candidate
token. Its set-level extension takes the max over the union of a set's
tokens, with the empty set defined as -1 (the worst possible value), so
the first addition's gain equals score + 1 and greedy argmax over the
first pick coincides with plain score ranking.

With per-token running maxima initialized to -1, the set score is simply
the mean of the running maxima, which makes the greedy loops incremental:
folding in a member is an elementwise ``maximum``. The set function is
monotone and submodular, so greedy selection carries the usual (1 - 1/e)
guarantee relative to the optimal set of the same size and lazy
(heap-ordered) evaluation selects exactly what naive greedy selects.
"""

from __future__ import annotations

import heapq
import operator
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .corpus import ContentItem, Ideology, _first_seen, _read_jsonl, _typed, _write_jsonl
from .embedding import TokenEmbeddingSet

EMPTY_SET_COVERAGE = -1.0
GAIN_FLOOR = 1e-9
# floats in one chunk's similarity product (8 MB): a cap at any query
# length unless one set alone is wider, small enough to stay in cache
_CHUNK_ELEMENTS = 2**20
# below this many query tokens one reduceat per chunk is faster than one
# reduction per set; reduceat runs one inner loop per (query token, set)
_REDUCEAT_QUERY_TOKENS = 64

ORDERING_MODES = ("set_bsr_greedy", "independent_bsr")


class CoverageError(ValueError):
    """Raised for dimension mismatches, empty pools, missing embeddings."""


def _check_dim(query: TokenEmbeddingSet, cand: TokenEmbeddingSet) -> None:
    if query.dim != cand.dim:
        raise CoverageError(
            f"dimension mismatch: query {query.item_id!r} has dim {query.dim}, "
            f"candidate {cand.item_id!r} has dim {cand.dim}"
        )


def token_max_sims(query: TokenEmbeddingSet, cand: TokenEmbeddingSet) -> np.ndarray:
    """Per-query-token best cosine similarity against a candidate's tokens."""
    _check_dim(query, cand)
    return (query.token_vectors @ cand.token_vectors.T).max(axis=1)


def bsr(query: TokenEmbeddingSet, cand: TokenEmbeddingSet) -> float:
    """BertScore-recall of ``cand`` covering ``query``; value in [-1, 1].

    Computed from this one candidate's product, so it can differ in the
    last bit from the independent score :func:`order_for_query` computes
    over stacked blocks of candidates; BLAS blocks the two products
    differently. :func:`set_coverage` is computed the same way.
    """
    return float(token_max_sims(query, cand).mean())


def set_coverage(query: TokenEmbeddingSet, members: Sequence[TokenEmbeddingSet]) -> float:
    """Coverage of ``query`` by the union of all members' tokens.

    Equals :func:`bsr` for a single member; the empty set scores -1.
    """
    cur = np.full(query.n_tokens, EMPTY_SET_COVERAGE)
    for member in members:
        np.maximum(cur, token_max_sims(query, member), out=cur)
    return float(cur.mean())


def _bounds(counts) -> np.ndarray:
    """Token-row bounds of stacked sets: set j spans rows bounds[j]:bounds[j + 1]."""
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)


def _chunks(bounds: np.ndarray, budget: int) -> list[tuple[int, int, int]]:
    """Split stacked sets into consecutive chunks: (start set, stop set,
    token width) per chunk, each as many sets as fit in ``budget`` tokens
    but at least one set, so the chunks, and with them BLAS rounding,
    depend only on the token counts and the budget.
    """
    n_sets = len(bounds) - 1
    starts = [0]
    while starts[-1] < n_sets:
        start = starts[-1]
        # the last set whose end stays within the budget, but at least one set
        starts.append(max(start + 1, int(np.searchsorted(bounds, bounds[start] + budget, side="right")) - 1))
    return list(zip(starts, starts[1:], np.diff(bounds[starts]).tolist()))


def _max_sim_matrix(query_tokens: np.ndarray, bounds: np.ndarray, block) -> np.ndarray:
    """Matrix M with M[j, i] = max over set j's tokens of (query token i . token).

    ``bounds`` are the sets' token-row bounds (see :func:`_bounds`) and
    ``block(start, stop)`` returns the tokens of sets start..stop-1 stacked
    in order. Row j belongs to set j, so a caller that walks sets reads
    contiguous memory. Each chunk is as many whole sets as fit in
    ``_CHUNK_ELEMENTS`` floats of product, at least one; its product is
    candidate-major (chunk tokens x query tokens) in one reused buffer, so
    a set's tokens are contiguous rows of it, and each set's maxima go
    straight into its row of M.
    """
    n_q = query_tokens.shape[0]
    rows = np.empty((len(bounds) - 1, n_q))
    chunks = _chunks(bounds, _CHUNK_ELEMENTS // n_q)
    buffer = np.empty(n_q * max(width for _, _, width in chunks))
    for start, stop, width in chunks:
        sims = buffer[: n_q * width].reshape(width, n_q)
        np.matmul(block(start, stop), query_tokens.T, out=sims)
        offsets = bounds[start : stop + 1] - bounds[start]
        if n_q < _REDUCEAT_QUERY_TOKENS:
            np.maximum.reduceat(sims, offsets[:-1], axis=0, out=rows[start:stop])
            continue
        offsets = offsets.tolist()
        for j, first, end in zip(range(start, stop), offsets, offsets[1:]):
            np.maximum.reduce(sims[first:end], axis=0, out=rows[j])
    return rows


def _pool_bytes(bounds: np.ndarray, n_q: int) -> int:
    """Bytes :func:`_max_sim_matrix` allocates against ``n_q`` probe tokens:
    the float64 rows of every candidate plus one product buffer as wide as
    the widest chunk."""
    widest = max(width for _, _, width in _chunks(bounds, _CHUNK_ELEMENTS // n_q))
    return 8 * n_q * (len(bounds) - 1 + widest)


def _memory_limit() -> Optional[int]:
    """Bytes of memory this process can have, or None where the host does
    not say: physical memory, lowered by the cgroup v2 ``memory.max`` of the
    process's cgroup or of any cgroup above it that can be read."""
    try:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    try:
        with open("/proc/self/cgroup", encoding="utf-8") as fh:
            parts = next(Path(line[3:].strip()).parts[1:] for line in fh if line.startswith("0::"))
    except (OSError, StopIteration):
        return limit
    for depth in range(len(parts) + 1):
        try:
            text = Path("/sys/fs/cgroup", *parts[:depth], "memory.max").read_text(encoding="utf-8").strip()
        except OSError:
            continue
        if text != "max":
            limit = min(limit, int(text))
    return limit


def _check_memory(bounds: np.ndarray, p_idx: np.ndarray, seed: int) -> None:
    """Refuse a pool build whose similarity matrix and product buffer would
    not fit in the memory this process can have, before either exists.

    ``bounds`` are the candidates' token-row bounds and ``p_idx`` the probe.
    The refusal names the largest ``--probe-size`` that fits, found by
    bisection over the seeded probe samples that smaller sizes draw.
    """
    counts = np.diff(bounds)
    n_q = int(counts[p_idx].sum())
    need, limit = _pool_bytes(bounds, n_q), _memory_limit()
    if limit is None or need <= limit:
        return

    def fits(size: int) -> bool:
        return _pool_bytes(bounds, int(counts[probe_indices(len(counts), size, seed)].sum())) <= limit

    fitting, too_big = 0, len(p_idx)
    while too_big - fitting > 1:
        size = (fitting + too_big) // 2
        if fits(size):
            fitting = size
        else:
            too_big = size
    advice = f"--probe-size {fitting} would fit" if fitting else "no probe size fits"
    raise CoverageError(
        f"pool build needs {need:,} bytes for the similarity matrix of {n_q:,} probe tokens x "
        f"{len(counts):,} candidates and one chunk product, more than the {limit:,} bytes this "
        f"process can have; {advice}"
    )


def probe_indices(n_items: int, probe_size: int, seed: int) -> np.ndarray:
    """Seeded probe sample used by pool construction (sorted indices)."""
    rng = np.random.default_rng(seed)
    size = min(probe_size, n_items)
    return np.sort(rng.choice(n_items, size=size, replace=False))


@dataclass
class PoolEntry:
    item_id: str
    label: Ideology
    gain: float


@dataclass
class CandidatePool:
    """Ordered candidate entries in greedy construction order."""

    entries: list[PoolEntry]
    build_config: dict = field(default_factory=dict)
    # the members' stacked tokens for order_for_query, built on first use
    # and revalidated on every call (see _pool_index)
    _index: Optional[_PoolIndex] = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.entries)

    def ids(self) -> list[str]:
        return [e.item_id for e in self.entries]

    def labels(self) -> dict[str, Ideology]:
        return {e.item_id: e.label for e in self.entries}

    def save(self, path, extra_header: Optional[dict] = None) -> None:
        """Write header line with build_config, then one row per entry."""
        header = dict(extra_header or {}, build_config=self.build_config)
        rows = (
            {"id": entry.item_id, "label": entry.label.wire, "rank": rank, "gain": entry.gain}
            for rank, entry in enumerate(self.entries, start=1)
        )
        _write_jsonl(path, header, rows)

    @classmethod
    def load(cls, path) -> "CandidatePool":
        def check_header(header: dict) -> None:
            if "build_config" not in header:
                raise ValueError("first line must be a build_config header")

        seen: dict[str, int] = {}

        def parse(row: dict, lineno: int) -> tuple[int, PoolEntry]:
            item_id, label = _typed(row["id"], str, "id"), _typed(row["label"], str, "label")
            _first_seen(item_id, lineno, seen)
            entry = PoolEntry(item_id, Ideology.from_string(label), float(_typed(row["gain"], float, "gain")))
            return _typed(row["rank"], int, "rank"), entry

        header, ranked = _read_jsonl(path, CoverageError, parse, check_header)
        if header is None:
            raise CoverageError(f"{path}: empty pool file")
        ranked.sort(key=lambda pair: pair[0])
        return cls(entries=[entry for _, entry in ranked], build_config=header["build_config"])


@dataclass
class _PoolIndex:
    """A pool's member token sets, their tokens stacked once in pool order."""

    members: list[TokenEmbeddingSet]
    tokens: np.ndarray  # C-contiguous, one row per member token
    bounds: np.ndarray  # member j's tokens are rows bounds[j]:bounds[j + 1]


def _pool_index(
    pool: CandidatePool, ids: list[str], embeddings: Mapping[str, TokenEmbeddingSet]
) -> _PoolIndex:
    """The pool's index for ``embeddings``, rebuilt unless each of ``ids``
    still maps to the very set the cached index holds at its position.

    The identity walk catches entries reordered or replaced in place and a
    different or edited mapping; it cannot see arrays edited inside a set.
    All members must share one dim, checked here once per build.
    """
    index = pool._index
    if (
        index is not None
        and len(index.members) == len(ids)
        and all(map(operator.is_, map(embeddings.get, ids), index.members))
    ):
        return index
    members = _resolve(ids, embeddings)
    for member in members:
        if member.dim != members[0].dim:
            raise CoverageError(
                f"inconsistent embedding dims in pool: candidate {members[0].item_id!r} has dim "
                f"{members[0].dim}, candidate {member.item_id!r} has dim {member.dim}"
            )
    index = _PoolIndex(
        members=members,
        tokens=np.concatenate([m.token_vectors for m in members], axis=0),
        bounds=_bounds([m.n_tokens for m in members]),
    )
    pool._index = index
    return index


def _resolve(
    items: Sequence[ContentItem] | Sequence[str],
    embeddings: Mapping[str, TokenEmbeddingSet],
) -> list[TokenEmbeddingSet]:
    ids = [it.id if isinstance(it, ContentItem) else it for it in items]
    missing = [i for i in ids if i not in embeddings]
    if missing:
        raise CoverageError(f"missing embeddings for {len(missing)} item(s), e.g. {missing[:3]}")
    return [embeddings[i] for i in ids]


def build_candidate_pool(
    train: Sequence[ContentItem],
    embeddings: Mapping[str, TokenEmbeddingSet],
    n: int,
    probe_size: int = 2000,
    seed: int = 0,
) -> CandidatePool:
    """Greedy facility-location pool: repeatedly add the candidate with the
    largest total coverage gain over a seeded probe sample of the training
    set itself. Ties break toward the lower input index.

    Uses lazy greedy re-evaluation: stale heap gains are upper bounds by
    submodularity, so the selected sequence matches naive greedy exactly.
    Before the similarity matrix is allocated, a build that would not fit
    in the memory this process can have is refused with a CoverageError.
    """
    if n <= 0:
        raise CoverageError(f"pool size must be positive, got {n}")
    if n > len(train):
        raise CoverageError(f"pool size {n} exceeds training set size {len(train)}")
    if probe_size < 1:
        raise CoverageError(f"probe size must be positive, got {probe_size}")
    unlabeled = [it.id for it in train if it.label is None]
    if unlabeled:
        raise CoverageError(f"pool candidates must be labeled, e.g. {unlabeled[:3]}")
    if len({it.id for it in train}) != len(train):
        raise CoverageError("training items must have unique ids")
    cand_embs = _resolve(train, embeddings)
    dims = {e.dim for e in cand_embs}
    if len(dims) > 1:
        raise CoverageError(f"inconsistent embedding dims: {sorted(dims)}")

    bounds = _bounds([e.n_tokens for e in cand_embs])
    p_idx = probe_indices(len(train), probe_size, seed)
    _check_memory(bounds, p_idx, seed)
    probe_embs = [cand_embs[i] for i in p_idx]
    probe_tokens = np.concatenate([p.token_vectors for p in probe_embs], axis=0)
    # each probe contributes the mean over its tokens, so weight per token
    weights = np.concatenate([np.full(p.n_tokens, 1.0 / p.n_tokens) for p in probe_embs])

    # row j holds candidate j's best similarity to every probe token; the
    # candidates are stacked one chunk at a time, never all at once
    rows = _max_sim_matrix(
        probe_tokens,
        bounds,
        lambda start, stop: np.concatenate([e.token_vectors for e in cand_embs[start:stop]]),
    )
    cur = np.full(probe_tokens.shape[0], EMPTY_SET_COVERAGE)

    def gain(j: int) -> float:
        return float((np.maximum(rows[j], cur) - cur) @ weights)

    # heap entries: (-gain, candidate index, iteration the gain was computed at)
    heap = [(-gain(j), j, 0) for j in range(len(train))]
    heapq.heapify(heap)
    selected = np.zeros(len(train), dtype=bool)

    entries: list[PoolEntry] = []
    for iteration in range(1, n + 1):
        while True:
            neg_gain, j, computed_at = heapq.heappop(heap)
            if selected[j]:
                continue
            if computed_at == iteration:
                best, best_gain = j, -neg_gain
                break
            heapq.heappush(heap, (-gain(j), j, iteration))
        selected[best] = True
        np.maximum(cur, rows[best], out=cur)
        entries.append(PoolEntry(train[best].id, train[best].label, float(best_gain)))

    return CandidatePool(
        entries=entries,
        build_config={"pool_size": n, "probe_size": probe_size, "seed": seed},
    )


@dataclass
class RankedEntry:
    item_id: str
    marginal_gain: float
    cumulative_coverage: float


@dataclass(eq=False)
class QueryOrdering:
    """Every pool entry exactly once, best coverage first: ``item_ids[r]``
    is the pool id at rank r + 1, with marginal gain ``gains[r]`` and
    cumulative set coverage ``coverage[r]``."""

    query_id: str
    item_ids: list[str]
    gains: np.ndarray
    coverage: np.ndarray

    @property
    def ranked(self) -> list[RankedEntry]:
        return [
            RankedEntry(item_id, gain, cov)
            for item_id, gain, cov in zip(self.item_ids, self.gains.tolist(), self.coverage.tolist())
        ]


def order_for_query(
    query: TokenEmbeddingSet,
    pool: CandidatePool,
    embeddings: Mapping[str, TokenEmbeddingSet],
    mode: str = "set_bsr_greedy",
) -> QueryOrdering:
    """Rank the whole pool for one query.

    ``set_bsr_greedy`` ranks by greedy marginal coverage gain; once the
    best remaining gain drops to the floor (1e-9), the rest is appended
    in descending independent score order. ``independent_bsr`` skips the
    greedy phase entirely. Ties break toward the lower pool index in both
    modes, and the recorded gains are the true sequential marginal gains
    along the emitted order, so cumulative coverage is nondecreasing.
    """
    if mode not in ORDERING_MODES:
        raise CoverageError(f"mode must be one of {ORDERING_MODES}, got {mode!r}")
    if not pool.entries:
        raise CoverageError("cannot order an empty pool")
    ids = pool.ids()
    index = _pool_index(pool, ids, embeddings)
    _check_dim(query, index.members[0])
    bounds = index.bounds
    rows = _max_sim_matrix(
        query.token_vectors, bounds, lambda start, stop: index.tokens[bounds[start] : bounds[stop]]
    )
    # a query-token-major C-order copy: the column means below sum in this layout
    sims = np.ascontiguousarray(rows.T)
    n_pool = len(ids)
    scores = sims.mean(axis=0)

    picked: list[int] = []
    cur = np.full(query.n_tokens, EMPTY_SET_COVERAGE)
    remaining = np.ones(n_pool, dtype=bool)
    if mode == "set_bsr_greedy":
        while remaining.any():
            gains = (np.maximum(sims, cur[:, None]) - cur[:, None]).mean(axis=0)
            gains[~remaining] = -np.inf
            best = int(np.argmax(gains))  # first max = lowest index on ties
            if gains[best] <= GAIN_FLOOR:
                break
            remaining[best] = False
            picked.append(best)
            np.maximum(cur, sims[:, best], out=cur)
    # fallback for exhausted gains, and the whole ordering in independent mode:
    # descending independent score, stable sort keeps lower index first on ties
    tail = np.argsort(-scores, kind="stable")
    order = np.concatenate([np.array(picked, dtype=np.intp), tail[remaining[tail]]])
    # row r holds the per-token maxima over the first r members; each row mean
    # is a contiguous 1-D reduction, so it equals a member-by-member fold exactly
    running = np.vstack([np.full((1, query.n_tokens), EMPTY_SET_COVERAGE), sims[:, order].T])
    coverage = np.maximum.accumulate(running, axis=0).mean(axis=1)
    return QueryOrdering(query.item_id, [ids[j] for j in order.tolist()], np.diff(coverage), coverage[1:])
