import heapq
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ideolab import coverage
from ideolab.corpus import ContentItem, Ideology
from ideolab.coverage import (
    GAIN_FLOOR,
    CandidatePool,
    CoverageError,
    RankedEntry,
    _bounds,
    _max_sim_matrix,
    bsr,
    build_candidate_pool,
    order_for_query,
    probe_indices,
    set_coverage,
    token_max_sims,
)
from ideolab.embedding import HashedProvider, embed_many
from ideolab.prompting import FieldConfig
from ideolab.selection import balanced_select
from ideolab.synthetic import synthetic_corpus

from conftest import make_embedding
from reference import (
    naive_bsr,
    naive_query_order,
    naive_set_coverage,
    random_token_set,
)


def labeled_items(n, prefix="it"):
    return [ContentItem(id=f"{prefix}{j}", title=f"{prefix}{j}", label=Ideology(j % 3)) for j in range(n)]


def strided_lazy_greedy(token_sets, n, probe_size, seed):
    """Reference pool build: lazy greedy over a query-token-major view of
    the similarity matrix, with strided ``sims[:, j]`` re-evaluation and
    first gains from one matrix product. Returns (picked indices, gains).

    The product is candidate-major, as the pool build computes it: BLAS can
    round ``probe_tokens @ tokens.T`` differently in the last bit."""
    probe = [token_sets[i] for i in probe_indices(len(token_sets), probe_size, seed)]
    probe_tokens = np.concatenate(probe, axis=0)
    weights = np.concatenate([np.full(len(p), 1.0 / len(p)) for p in probe])
    offsets = np.cumsum([0] + [len(t) for t in token_sets[:-1]])
    sims = np.maximum.reduceat(np.concatenate(token_sets) @ probe_tokens.T, offsets, axis=0).T
    cur = np.full(probe_tokens.shape[0], -1.0)
    first_gains = (sims - cur[:, None]).T @ weights
    heap = [(-first_gains[j], j, 0) for j in range(len(token_sets))]
    heapq.heapify(heap)
    selected = np.zeros(len(token_sets), dtype=bool)
    picked, gains = [], []
    for iteration in range(1, n + 1):
        while True:
            neg_gain, j, computed_at = heapq.heappop(heap)
            if selected[j]:
                continue
            if computed_at == iteration:
                break
            fresh = float((np.maximum(sims[:, j], cur) - cur) @ weights)
            heapq.heappush(heap, (-fresh, j, iteration))
        selected[j] = True
        np.maximum(cur, sims[:, j], out=cur)
        picked.append(j)
        gains.append(-neg_gain)
    return picked, gains


def max_sim_rows(query_tokens, token_sets):
    """The kernel over sets stacked one chunk at a time, as the pool build stacks them."""
    bounds = _bounds([len(t) for t in token_sets])
    return _max_sim_matrix(query_tokens, bounds, lambda a, b: np.concatenate(token_sets[a:b]))


def chunks_by_set_loop(counts, n_q):
    """Reference split: runs of sets within ``_CHUNK_ELEMENTS`` floats of
    product, with no floor on the width."""
    return runs_within(counts, coverage._CHUNK_ELEMENTS // n_q)


def candidate_major_rows(query_tokens, token_sets):
    """Reference matrix: each chunk of the reference split stacked by
    ``concatenate`` and multiplied candidate-major, then one maximum per set."""
    rows = np.empty((len(token_sets), query_tokens.shape[0]))
    for start, stop in chunks_by_set_loop([len(t) for t in token_sets], query_tokens.shape[0]):
        sims = np.concatenate(token_sets[start:stop]) @ query_tokens.T
        bounds = _bounds([len(t) for t in token_sets[start:stop]])
        for j in range(start, stop):
            rows[j] = sims[bounds[j - start] : bounds[j - start + 1]].max(axis=0)
    return rows


def runs_within(counts, budget):
    """(start, stop) runs of sets, grown one set at a time while the run's
    tokens fit ``budget``, at least one set each."""
    chunks = []
    start = 0
    while start < len(counts):
        stop = start
        total = 0
        while stop < len(counts) and (total == 0 or total + counts[stop] <= budget):
            total += counts[stop]
            stop += 1
        chunks.append((start, stop))
        start = stop
    return chunks


def concatenating_order(query_tokens, token_sets, mode):
    """Reference ordering: the similarity matrix of :func:`candidate_major_rows`,
    ranked by the same arithmetic as order_for_query. Returns (order, gains,
    coverage) lists."""
    n_q = query_tokens.shape[0]
    rows = candidate_major_rows(query_tokens, token_sets)
    sims = np.ascontiguousarray(rows.T)
    scores = sims.mean(axis=0)
    picked = []
    cur = np.full(n_q, -1.0)
    remaining = np.ones(len(token_sets), dtype=bool)
    if mode == "set_bsr_greedy":
        while remaining.any():
            gains = (np.maximum(sims, cur[:, None]) - cur[:, None]).mean(axis=0)
            gains[~remaining] = -np.inf
            best = int(np.argmax(gains))
            if gains[best] <= GAIN_FLOOR:
                break
            remaining[best] = False
            picked.append(best)
            np.maximum(cur, sims[:, best], out=cur)
    tail = np.argsort(-scores, kind="stable")
    order = np.concatenate([np.array(picked, dtype=np.intp), tail[remaining[tail]]])
    running = np.vstack([np.full((1, n_q), -1.0), sims[:, order].T])
    cum = np.maximum.accumulate(running, axis=0).mean(axis=1)
    return order.tolist(), np.diff(cum).tolist(), cum[1:].tolist()


def in_index_order(picked, twin):
    """Whether identical copies (equal ``twin`` class) enter in index order."""
    return all(
        [j for j in picked if twin[j] == t] == sorted(j for j in picked if twin[j] == t) for t in set(twin)
    )


def assert_pool_peak_within_one_capped_product(monkeypatch, elements, n_q, wide=None):
    """The kernel's traced peak over 400 sets of 6 tokens (one set ``wide``
    tokens if given) is the rows, one product of at most ``elements``
    floats, unless one set alone is wider, and one stacked block."""
    monkeypatch.setattr(coverage, "_CHUNK_ELEMENTS", elements)
    rng = np.random.default_rng(37)
    dim = 16
    query = random_token_set(rng, dim, min_tokens=n_q, max_tokens=n_q)
    sets = [random_token_set(rng, dim, min_tokens=6, max_tokens=6) for _ in range(400)]
    if wide:
        sets[200] = random_token_set(rng, dim, min_tokens=wide, max_tokens=wide)
    tracemalloc.start()
    try:
        rows = max_sim_rows(query, sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    widest = max(elements // n_q, wide or 0)  # tokens in the widest chunk
    capped_product = 8 * max(elements, n_q * widest)
    stacked_block = 8 * dim * widest
    # a wide set fills its product exactly, leaving no slack for the
    # chunk's offset list and other small objects (about 6.5 kB)
    assert peak <= rows.nbytes + capped_product + stacked_block + 16 * 1024


class TestBsr:
    def test_self_similarity(self, basis):
        e1, e2, _ = basis
        q = make_embedding("q", [e1, e2])
        assert bsr(q, q) == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal(self, basis):
        e1, e2, _ = basis
        assert bsr(make_embedding("q", [e1]), make_embedding("d", [e2])) == pytest.approx(0.0, abs=1e-12)

    def test_half_covered(self, basis):
        e1, e2, _ = basis
        q = make_embedding("q", [e1, e2])
        assert bsr(q, make_embedding("d", [e1])) == pytest.approx(0.5, abs=1e-12)

    def test_dim_mismatch(self):
        q = make_embedding("q", np.eye(4)[:1])
        d = make_embedding("d", np.eye(5)[:1])
        with pytest.raises(CoverageError):
            bsr(q, d)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            dim = int(rng.integers(4, 65))
            q = random_token_set(rng, dim)
            d = random_token_set(rng, dim)
            got = bsr(make_embedding("q", q), make_embedding("d", d))
            assert got == pytest.approx(naive_bsr(q, d), abs=1e-6)

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = random_token_set(rng, 8)
            d = random_token_set(rng, 8)
            value = bsr(make_embedding("q", q), make_embedding("d", d))
            assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9

    def test_scale_stable_after_renormalization(self):
        rng = np.random.default_rng(4)
        q = make_embedding("q", random_token_set(rng, 8))
        raw = rng.standard_normal((5, 8))
        d1 = make_embedding("d", raw)
        d2 = make_embedding("d", raw * 37.5)
        assert bsr(q, d1) == pytest.approx(bsr(q, d2), abs=1e-6)


class TestSetCoverage:
    def test_single_member_equals_bsr(self, basis):
        e1, e2, _ = basis
        q = make_embedding("q", [e1, e2])
        d = make_embedding("d", [e1])
        assert set_coverage(q, [d]) == pytest.approx(bsr(q, d), abs=1e-12)

    def test_empty_set(self, basis):
        e1, _, _ = basis
        assert set_coverage(make_embedding("q", [e1]), []) == -1.0

    def test_union_covers_fully(self, basis):
        e1, e2, _ = basis
        q = make_embedding("q", [e1, e2])
        members = [make_embedding("a", [e1]), make_embedding("b", [e2])]
        assert set_coverage(q, members) == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_adds_nothing(self, basis):
        e1, e2, _ = basis
        q = make_embedding("q", [e1, e2])
        members = [make_embedding("a", [e1]), make_embedding("b", [e1])]
        assert set_coverage(q, members) == pytest.approx(0.5, abs=1e-12)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            dim = int(rng.integers(4, 17))
            q = random_token_set(rng, dim, max_tokens=8)
            members = [random_token_set(rng, dim, max_tokens=6) for _ in range(int(rng.integers(1, 5)))]
            got = set_coverage(make_embedding("q", q), [make_embedding(str(i), m) for i, m in enumerate(members)])
            assert got == pytest.approx(naive_set_coverage(q, members), abs=1e-6)

    def test_monotone_and_submodular_small(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            dim = int(rng.integers(4, 13))
            q = make_embedding("q", random_token_set(rng, dim, max_tokens=6))
            pool = [make_embedding(str(i), random_token_set(rng, dim, max_tokens=5)) for i in range(4)]
            small = pool[:1]
            large = pool[:3]
            extra = pool[3]
            assert set_coverage(q, small + [extra]) >= set_coverage(q, small) - 1e-9
            gain_small = set_coverage(q, small + [extra]) - set_coverage(q, small)
            gain_large = set_coverage(q, large + [extra]) - set_coverage(q, large)
            assert gain_small >= gain_large - 1e-9


class TestMaxSimMatrix:
    @pytest.mark.parametrize("elements", [1, 6000])
    def test_rows_match_per_candidate_sims(self, monkeypatch, elements):
        # a one-float cap makes every candidate a chunk alone; 6000 floats
        # stack several candidates per chunk
        monkeypatch.setattr(coverage, "_CHUNK_ELEMENTS", elements)
        rng = np.random.default_rng(13)
        dim = 16
        query = make_embedding("q", random_token_set(rng, dim, min_tokens=9, max_tokens=20))
        cands = [make_embedding(f"c{j}", random_token_set(rng, dim, max_tokens=8)) for j in range(500)]
        rows = max_sim_rows(query.token_vectors, [c.token_vectors for c in cands])
        assert rows.shape == (len(cands), query.n_tokens)
        for j, cand in enumerate(cands):
            # BLAS rounding depends on the shape of the product
            np.testing.assert_allclose(rows[j], token_max_sims(query, cand), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("elements", [1, 6000, 40_000])
    def test_chunks_split_as_the_per_set_loop_did(self, monkeypatch, elements):
        monkeypatch.setattr(coverage, "_CHUNK_ELEMENTS", elements)
        rng = np.random.default_rng(elements)
        for trial in range(40):
            counts = rng.integers(1, 400, size=int(rng.integers(1, 60))).tolist()
            if trial % 4 == 0:
                counts[int(rng.integers(len(counts)))] = 6000  # one set over any budget
            n_q = int(rng.integers(1, 9))
            seen = []

            def block(start, stop):
                seen.append((start, stop))
                return np.ones((sum(counts[start:stop]), 2))

            rows = _max_sim_matrix(np.ones((n_q, 2)), _bounds(counts), block)
            assert seen == chunks_by_set_loop(counts, n_q)
            assert rows.shape == (len(counts), n_q)

    @pytest.mark.parametrize("elements", [1, 6000, 40_000])
    def test_equals_per_chunk_candidate_major_reference(self, monkeypatch, elements):
        # variable token counts around one set wider than any budget, so the
        # product buffer must fit a chunk wider than the one before it
        monkeypatch.setattr(coverage, "_CHUNK_ELEMENTS", elements)
        rng = np.random.default_rng(elements + 7)
        dim = 8
        for _ in range(6):
            n_q = int(rng.integers(1, 9))
            counts = rng.integers(1, 400, size=int(rng.integers(1, 40))).tolist()
            counts.insert(int(rng.integers(1, len(counts) + 1)), elements // n_q + int(rng.integers(1, 500)))
            query = random_token_set(rng, dim, min_tokens=n_q, max_tokens=n_q)
            sets = [random_token_set(rng, dim, min_tokens=c, max_tokens=c) for c in counts]
            assert np.array_equal(max_sim_rows(query, sets), candidate_major_rows(query, sets))

    def test_oversized_set_after_a_narrower_chunk(self, monkeypatch):
        # budget 1024 tokens: chunks of 900, then the 2000-token set alone,
        # then 600, so the product buffer must fit the widest chunk, not the first
        monkeypatch.setattr(coverage, "_CHUNK_ELEMENTS", 5 * 1024)
        rng = np.random.default_rng(29)
        dim = 8
        query = random_token_set(rng, dim, min_tokens=5, max_tokens=5)
        counts = [300, 300, 300, 2000, 100, 500]
        sets = [random_token_set(rng, dim, min_tokens=c, max_tokens=c) for c in counts]
        assert chunks_by_set_loop(counts, query.shape[0]) == [(0, 3), (3, 4), (4, 6)]
        assert np.array_equal(max_sim_rows(query, sets), candidate_major_rows(query, sets))

    @pytest.mark.parametrize("n_q", [1, coverage._REDUCEAT_QUERY_TOKENS - 1, coverage._REDUCEAT_QUERY_TOKENS, 3000])
    def test_both_reductions_give_the_same_rows(self, monkeypatch, n_q):
        # a 40-token budget at any n_q: chunks of short sets, then a 60-token
        # set alone, so each reduction also fills a chunk wider than the one before
        monkeypatch.setattr(coverage, "_CHUNK_ELEMENTS", 40 * n_q)
        rng = np.random.default_rng(n_q)
        dim = 16
        query = random_token_set(rng, dim, min_tokens=n_q, max_tokens=n_q)
        counts = rng.integers(1, 10, size=30).tolist()
        counts.insert(12, 60)
        sets = [random_token_set(rng, dim, min_tokens=c, max_tokens=c) for c in counts]
        default = max_sim_rows(query, sets)
        monkeypatch.setattr(coverage, "_REDUCEAT_QUERY_TOKENS", n_q + 1)
        by_reduceat = max_sim_rows(query, sets)
        monkeypatch.setattr(coverage, "_REDUCEAT_QUERY_TOKENS", n_q)
        per_set = max_sim_rows(query, sets)
        assert np.array_equal(by_reduceat, per_set)
        assert np.array_equal(default, per_set)
        assert np.array_equal(default, candidate_major_rows(query, sets))

    def test_peak_memory_is_rows_plus_one_chunk_product(self, monkeypatch):
        # 1200 query tokens: a 1000-token budget, so the 400 sets of 6 tokens
        # make three chunks and a product or a maxima temporary made per chunk shows
        assert_pool_peak_within_one_capped_product(monkeypatch, 1_200_000, 1200)

    @pytest.mark.parametrize("wide", [None, 700])
    def test_peak_memory_above_the_old_floor(self, monkeypatch, wide):
        # 2000 query tokens with a 1,000,000-float cap: a 500-token budget,
        # where a 1024-token floor would double the product; a 700-token set
        # is wider than the budget and so a chunk alone
        assert_pool_peak_within_one_capped_product(monkeypatch, 1_000_000, 2000, wide)

    def test_default_cap_holds_for_a_long_query_against_a_pool_index(self):
        # 8000 query tokens against 1200 stacked pool tokens, sliced as
        # order_for_query slices its index: a 131-token budget, where a
        # 1024-token floor made the product 8000 x 1024 floats (65 MB)
        rng = np.random.default_rng(43)
        dim = 16
        query = random_token_set(rng, dim, min_tokens=8000, max_tokens=8000)
        tokens = np.concatenate([random_token_set(rng, dim, min_tokens=6, max_tokens=6) for _ in range(200)])
        bounds = _bounds([6] * 200)
        tracemalloc.start()
        try:
            rows = _max_sim_matrix(query, bounds, lambda start, stop: tokens[bounds[start] : bounds[stop]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        widest = coverage._CHUNK_ELEMENTS // 8000 // 6 * 6
        assert peak <= rows.nbytes + 8 * coverage._CHUNK_ELEMENTS + 8 * dim * widest

    def test_default_cap_equals_one_unsplit_product(self):
        # hashed titles of 6 tokens: 500 probe titles make 3000 probe tokens,
        # which the default cap splits into chunks of 58 candidates
        train, _ = synthetic_corpus(800, 0, seed=3)
        embs = embed_many(train, FieldConfig(), HashedProvider(dim=64))
        sets = [embs[it.id].token_vectors for it in train]
        probe, cands = np.concatenate(sets[:500]), sets[500:]
        assert probe.shape[0] == 3000
        bounds = _bounds([len(c) for c in cands])
        assert len(chunks_by_set_loop(np.diff(bounds).tolist(), probe.shape[0])) > 1
        unsplit = np.maximum.reduceat(np.concatenate(cands) @ probe.T, bounds[:-1], axis=0)
        assert np.array_equal(max_sim_rows(probe, cands), unsplit)


class TestMemoryRefusal:
    def test_memory_limit_is_at_most_physical_memory(self):
        limit = coverage._memory_limit()
        assert limit is None or 0 < limit <= os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")

    @pytest.mark.parametrize("limits,expected", [(("max", "5000", "max"), 5000), (("max", "max", "max"), None)])
    def test_cgroup_memory_max_lowers_the_limit(self, monkeypatch, tmp_path, limits, expected):
        # the process sits in cgroup /a/b; memory.max files at /, /a and /a/b
        (tmp_path / "a" / "b").mkdir(parents=True)
        for directory, text in zip([tmp_path, tmp_path / "a", tmp_path / "a" / "b"], limits):
            (directory / "memory.max").write_text(text + "\n", encoding="utf-8")
        (tmp_path / "cgroup").write_text("4:memory:/elsewhere\n0::/a/b\n", encoding="utf-8")
        real_open, real_path = open, Path
        monkeypatch.setattr(coverage, "open", lambda name, **kw: real_open(tmp_path / "cgroup", **kw), raising=False)
        monkeypatch.setattr(
            coverage, "Path", lambda first, *rest: real_path(tmp_path if first == "/sys/fs/cgroup" else first, *rest)
        )
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        assert coverage._memory_limit() == (expected or physical)

    def test_refused_before_the_matrix_with_the_size_that_fits(self, monkeypatch):
        rng = np.random.default_rng(41)
        items = labeled_items(300)
        emb = {it.id: make_embedding(it.id, random_token_set(rng, 8, max_tokens=10)) for it in items}
        counts = [emb[it.id].n_tokens for it in items]
        probe_tokens = sum(counts[i] for i in probe_indices(len(items), 200, 0))
        need = coverage._pool_bytes(_bounds(counts), probe_tokens)
        monkeypatch.setattr(coverage, "_memory_limit", lambda: need // 3)
        tracemalloc.start()
        try:
            with pytest.raises(CoverageError) as err:
                build_candidate_pool(items, emb, n=10, probe_size=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * probe_tokens * len(items) // 4  # no matrix was allocated
        message = str(err.value)
        assert f"needs {need:,} bytes" in message and f"the {need // 3:,} bytes" in message
        fitting = int(message.rsplit("--probe-size ", 1)[1].split()[0])
        assert 0 < fitting < 200
        assert len(build_candidate_pool(items, emb, n=10, probe_size=fitting)) == 10
        with pytest.raises(CoverageError):
            build_candidate_pool(items, emb, n=10, probe_size=fitting + 1)

    def test_no_probe_size_fits(self, monkeypatch):
        monkeypatch.setattr(coverage, "_memory_limit", lambda: 1)
        items = labeled_items(5)
        emb = {it.id: make_embedding(it.id, np.eye(5)[j : j + 1]) for j, it in enumerate(items)}
        with pytest.raises(CoverageError, match="no probe size fits$"):
            build_candidate_pool(items, emb, n=2, probe_size=3)


class TestBuildPool:
    def test_probe_twins_selected_first(self):
        # every item has a single distinct basis-vector token, so the
        # greedy picks exactly the candidates that appear in the probe
        dim = 6
        items = labeled_items(dim)
        emb = {f"it{j}": make_embedding(f"it{j}", np.eye(dim)[j : j + 1]) for j in range(dim)}
        seed = 5
        twins = {f"it{j}" for j in probe_indices(dim, 3, seed)}
        pool = build_candidate_pool(items, emb, n=3, probe_size=3, seed=seed)
        assert {e.item_id for e in pool.entries} == twins

    def test_bit_identical_to_strided_build(self):
        # the strided build takes its first gains from one matrix-vector
        # product, which can round two identical columns differently (BLAS
        # blocks columns in groups), and so may name the higher-index copy of
        # a tie first. Such trials check the documented tie-break alone
        rng = np.random.default_rng(57)
        exact = 0
        for trial in range(25):
            dim = int(rng.integers(4, 33))
            distinct = [random_token_set(rng, dim, max_tokens=6) for _ in range(int(rng.integers(10, 40)))]
            # duplicated candidates tie exactly, so the tie-break is exercised
            copies = rng.integers(0, len(distinct), size=len(distinct) // 2)
            twin = list(range(len(distinct))) + copies.tolist()
            items = labeled_items(len(twin))
            emb = {it.id: make_embedding(it.id, distinct[t]) for it, t in zip(items, twin)}
            n = int(rng.integers(1, len(items) + 1))
            probe_size = int(rng.integers(1, len(items) + 1))
            pool = build_candidate_pool(items, emb, n=n, probe_size=probe_size, seed=trial)
            got = [int(i[2:]) for i in pool.ids()]
            assert in_index_order(got, twin)
            token_sets = [emb[it.id].token_vectors for it in items]
            picked, gains = strided_lazy_greedy(token_sets, n, probe_size, trial)
            if in_index_order(picked, twin):
                assert got == picked
                assert [e.gain for e in pool.entries] == gains
                exact += 1
        assert exact >= 20

    def test_exhaustive_pool_contains_everything(self):
        rng = np.random.default_rng(0)
        items = labeled_items(5)
        emb = {it.id: make_embedding(it.id, random_token_set(rng, 6, max_tokens=4)) for it in items}
        pool = build_candidate_pool(items, emb, n=5, probe_size=5, seed=1)
        assert sorted(e.item_id for e in pool.entries) == sorted(it.id for it in items)

    def test_invalid_sizes(self):
        items = labeled_items(3)
        emb = {it.id: make_embedding(it.id, np.eye(4)[:1]) for it in items}
        with pytest.raises(CoverageError):
            build_candidate_pool(items, emb, n=0)
        with pytest.raises(CoverageError):
            build_candidate_pool(items, emb, n=4)

    def test_missing_embedding(self):
        items = labeled_items(3)
        emb = {"it0": make_embedding("it0", np.eye(4)[:1])}
        with pytest.raises(CoverageError, match="missing embeddings"):
            build_candidate_pool(items, emb, n=2)

    def test_unlabeled_rejected(self):
        items = labeled_items(3)
        items[1].label = None
        emb = {it.id: make_embedding(it.id, np.eye(4)[:1]) for it in items}
        with pytest.raises(CoverageError, match="labeled"):
            build_candidate_pool(items, emb, n=2)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        items = labeled_items(6)
        emb = {it.id: make_embedding(it.id, random_token_set(rng, 5, max_tokens=3)) for it in items}
        pool = build_candidate_pool(items, emb, n=4, probe_size=6, seed=2)
        path = tmp_path / "pool.jsonl"
        pool.save(path)
        loaded = CandidatePool.load(path)
        assert loaded.build_config == pool.build_config
        assert [e.item_id for e in loaded.entries] == [e.item_id for e in pool.entries]
        assert [e.label for e in loaded.entries] == [e.label for e in pool.entries]
        assert np.allclose([e.gain for e in loaded.entries], [e.gain for e in pool.entries])


class TestOrderForQuery:
    def test_singleton_pool_gain_convention(self, basis):
        e1, _, _ = basis
        items = labeled_items(1)
        emb = {"it0": make_embedding("it0", [e1]), "q": make_embedding("q", [e1])}
        pool = build_candidate_pool(items, {"it0": emb["it0"]}, n=1, probe_size=1, seed=0)
        ordering = order_for_query(emb["q"], pool, emb)
        assert len(ordering.ranked) == 1
        # first pick's gain is measured against the empty set at -1
        assert ordering.ranked[0].marginal_gain == pytest.approx(bsr(emb["q"], emb["it0"]) + 1.0)

    def test_greedy_trace_example(self, basis):
        e1, e2, _ = basis
        emb = {
            "A": make_embedding("A", [e1]),
            "B": make_embedding("B", [e2]),
            "C": make_embedding("C", [e1]),
            "q": make_embedding("q", [e1, e2]),
        }
        items = [ContentItem(id=i, title=i, label=Ideology.NEUTRAL) for i in "ABC"]
        pool = build_candidate_pool(items, emb, n=3, probe_size=3, seed=0)
        # pool order may vary; ranking for the query must be A, B, C
        ordering = order_for_query(emb["q"], pool, emb)
        assert [r.item_id for r in ordering.ranked] == ["A", "B", "C"]

    def test_every_entry_exactly_once_and_cumulative_monotone(self):
        rng = np.random.default_rng(17)
        items = labeled_items(12)
        emb = {it.id: make_embedding(it.id, random_token_set(rng, 6, max_tokens=5)) for it in items}
        emb["q"] = make_embedding("q", random_token_set(rng, 6, max_tokens=5))
        pool = build_candidate_pool(items, emb, n=12, probe_size=12, seed=3)
        for mode in ("set_bsr_greedy", "independent_bsr"):
            ordering = order_for_query(emb["q"], pool, emb, mode=mode)
            ids = [r.item_id for r in ordering.ranked]
            assert sorted(ids) == sorted(it.id for it in items)
            coverages = [r.cumulative_coverage for r in ordering.ranked]
            assert all(b >= a - 1e-12 for a, b in zip(coverages, coverages[1:]))

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(29)
        for trial in range(20):
            dim = int(rng.integers(4, 9))
            n = int(rng.integers(2, 9))
            token_sets = [random_token_set(rng, dim, max_tokens=4) for _ in range(n)]
            q_tokens = random_token_set(rng, dim, max_tokens=4)
            items = labeled_items(n)
            emb = {f"it{j}": make_embedding(f"it{j}", token_sets[j]) for j in range(n)}
            pool = build_candidate_pool(items, emb, n=n, probe_size=n, seed=trial)
            # force pool order back to input order so indices line up
            pool.entries.sort(key=lambda e: int(e.item_id[2:]))
            ordering = order_for_query(make_embedding("q", q_tokens), pool, emb)
            want_order, want_gains, want_cum = naive_query_order(q_tokens, token_sets)
            assert [int(r.item_id[2:]) for r in ordering.ranked] == want_order
            np.testing.assert_allclose(
                [r.marginal_gain for r in ordering.ranked], want_gains, atol=1e-6
            )
            np.testing.assert_allclose(
                [r.cumulative_coverage for r in ordering.ranked], want_cum, atol=1e-6
            )

    @pytest.mark.parametrize("mode", ["set_bsr_greedy", "independent_bsr"])
    def test_recorded_values_are_exact_for_long_queries(self, mode):
        # 9+ query tokens take numpy's pairwise-summation path in mean(). The
        # values must equal a member-by-member fold over the same similarity
        # columns bit for bit; set_coverage agrees only to rounding, because
        # BLAS may round a one-candidate product differently from the stacked one
        rng = np.random.default_rng(41)
        for trial in range(25):
            dim = int(rng.integers(4, 17))
            n = int(rng.integers(5, 26))
            items = labeled_items(n)
            emb = {it.id: make_embedding(it.id, random_token_set(rng, dim, max_tokens=6)) for it in items}
            query = make_embedding("q", random_token_set(rng, dim, min_tokens=9, max_tokens=20))
            pool = build_candidate_pool(items, emb, n=n, probe_size=n, seed=trial)
            rows = max_sim_rows(query.token_vectors, [emb[i].token_vectors for i in pool.ids()])
            column = dict(zip(pool.ids(), rows))
            ranked = order_for_query(query, pool, emb, mode=mode).ranked
            cur = np.full(query.n_tokens, -1.0)
            previous = -1.0
            for rank, entry in enumerate(ranked, start=1):
                np.maximum(cur, column[entry.item_id], out=cur)
                assert entry.cumulative_coverage == float(cur.mean())
                assert entry.marginal_gain == entry.cumulative_coverage - previous
                prefix = [emb[r.item_id] for r in ranked[:rank]]
                assert entry.cumulative_coverage == pytest.approx(set_coverage(query, prefix), abs=1e-12)
                previous = entry.cumulative_coverage

    def test_independent_mode_tie_preserves_input_order(self, basis):
        e1, _, _ = basis
        items = labeled_items(3)
        emb = {it.id: make_embedding(it.id, [e1]) for it in items}
        emb["q"] = make_embedding("q", [e1])
        pool = build_candidate_pool(items, emb, n=3, probe_size=3, seed=0)
        pool.entries.sort(key=lambda e: int(e.item_id[2:]))
        ordering = order_for_query(emb["q"], pool, emb, mode="independent_bsr")
        assert [r.item_id for r in ordering.ranked] == ["it0", "it1", "it2"]

    def test_permutation_changes_nothing_with_distinct_scores(self):
        rng = np.random.default_rng(31)
        items = labeled_items(8)
        emb = {it.id: make_embedding(it.id, random_token_set(rng, 6, max_tokens=4)) for it in items}
        emb["q"] = make_embedding("q", random_token_set(rng, 6, max_tokens=4))
        pool = build_candidate_pool(items, emb, n=8, probe_size=8, seed=0)
        baseline = [r.item_id for r in order_for_query(emb["q"], pool, emb).ranked]
        shuffled = CandidatePool(entries=list(reversed(pool.entries)), build_config=pool.build_config)
        permuted = [r.item_id for r in order_for_query(emb["q"], shuffled, emb).ranked]
        assert permuted == baseline

    def test_empty_pool(self):
        q = make_embedding("q", np.eye(4)[:1])
        with pytest.raises(CoverageError, match="empty pool"):
            order_for_query(q, CandidatePool(entries=[]), {})

    def test_unknown_mode(self):
        q = make_embedding("q", np.eye(4)[:1])
        pool = CandidatePool(entries=[], build_config={})
        with pytest.raises(CoverageError, match="mode"):
            order_for_query(q, pool, {}, mode="alphabetical")


def ordered(query, pool, emb, mode="set_bsr_greedy"):
    return [(r.item_id, r.marginal_gain, r.cumulative_coverage) for r in order_for_query(query, pool, emb, mode).ranked]


def fresh(pool):
    """A copy of ``pool`` with no index built yet."""
    return CandidatePool(entries=list(pool.entries), build_config=pool.build_config)


class TestPoolIndex:
    @pytest.fixture
    def case(self):
        rng = np.random.default_rng(61)
        items = labeled_items(30)
        emb = {it.id: make_embedding(it.id, random_token_set(rng, 8, max_tokens=5)) for it in items}
        query = make_embedding("q", random_token_set(rng, 8, min_tokens=9, max_tokens=12))
        pool = build_candidate_pool(items, emb, n=20, probe_size=30, seed=2)
        return rng, emb, query, pool

    def test_built_once_and_reused(self, case):
        _, emb, query, pool = case
        first = ordered(query, pool, emb)
        index = pool._index
        assert index is not None
        assert index.tokens.flags.c_contiguous
        independent = ordered(query, fresh(pool), emb, mode="independent_bsr")
        assert ordered(query, pool, emb, mode="independent_bsr") == independent
        assert ordered(query, pool, emb) == first
        assert pool._index is index

    def test_rebuilt_after_entries_sorted_in_place(self, case):
        _, emb, query, pool = case
        ordered(query, pool, emb)
        index = pool._index
        pool.entries.sort(key=lambda e: e.item_id)
        assert ordered(query, pool, emb) == ordered(query, fresh(pool), emb)
        assert pool._index is not index
        assert [m.item_id for m in pool._index.members] == pool.ids()

    def test_rebuilt_after_an_entry_is_replaced(self, case):
        _, emb, query, pool = case
        before = ordered(query, pool, emb)
        index = pool._index
        target = pool.ids()[3]
        twin = make_embedding(target, emb[target].token_vectors.copy())
        emb[target] = twin
        assert ordered(query, pool, emb) == before
        assert pool._index is not index
        assert pool._index.members[3] is twin

    def test_replaced_vectors_are_used(self, case):
        _, emb, query, pool = case
        ordered(query, pool, emb)
        target = pool.ids()[5]
        emb[target] = make_embedding(target, query.token_vectors)
        got = ordered(query, pool, emb)
        assert got == ordered(query, fresh(pool), emb)
        assert got[0][0] == target

    def test_second_mapping_per_field_configuration(self, case):
        rng, emb, query, pool = case
        other = {i: make_embedding(i, random_token_set(rng, 8, max_tokens=5)) for i in pool.ids()}
        want_emb = ordered(query, fresh(pool), emb)
        want_other = ordered(query, fresh(pool), other)
        assert want_emb != want_other
        for mapping, want in [(emb, want_emb), (other, want_other), (emb, want_emb)]:
            assert ordered(query, pool, mapping) == want
            assert all(m is mapping[i] for i, m in zip(pool.ids(), pool._index.members))

    def test_missing_embedding_after_build(self, case):
        _, emb, query, pool = case
        ordered(query, pool, emb)
        del emb[pool.ids()[0]]
        with pytest.raises(CoverageError, match="missing embeddings"):
            order_for_query(query, pool, emb)

    def test_query_dim_mismatch_names_query_and_candidate(self, case):
        _, emb, _, pool = case
        ordered(make_embedding("q", np.eye(8)[:2]), pool, emb)
        message = r"dimension mismatch: query 'wide' has dim 9, candidate 'it\d+' has dim 8"
        with pytest.raises(CoverageError, match=message):
            order_for_query(make_embedding("wide", np.eye(9)[:2]), pool, emb)

    def test_mixed_dims_in_pool(self, case):
        _, emb, query, pool = case
        target = pool.ids()[4]
        emb[target] = make_embedding(target, np.eye(9)[:1])
        with pytest.raises(CoverageError, match=f"candidate '{target}' has dim 9"):
            order_for_query(query, pool, emb)


class TestChunkedOrdering:
    @pytest.mark.parametrize("mode", ["set_bsr_greedy", "independent_bsr"])
    def test_equals_concatenating_reference_across_chunks(self, monkeypatch, mode):
        # 20,000 floats: chunks of 1000 to 2222 candidate tokens split this pool
        monkeypatch.setattr(coverage, "_CHUNK_ELEMENTS", 20_000)
        rng = np.random.default_rng(67)
        dim = 12
        items = labeled_items(600)
        emb = {it.id: make_embedding(it.id, random_token_set(rng, dim, max_tokens=8)) for it in items}
        pool = CandidatePool(entries=[coverage.PoolEntry(it.id, it.label, 0.0) for it in items])
        token_sets = [emb[i].token_vectors for i in pool.ids()]
        for trial in range(4):
            query = make_embedding("q", random_token_set(rng, dim, min_tokens=9, max_tokens=20))
            assert len(chunks_by_set_loop([len(t) for t in token_sets], query.n_tokens)) > 1
            order, gains, cum = concatenating_order(query.token_vectors, token_sets, mode)
            got = order_for_query(query, pool, emb, mode=mode).ranked
            assert [r.item_id for r in got] == [pool.ids()[j] for j in order]
            assert [r.marginal_gain for r in got] == gains
            assert [r.cumulative_coverage for r in got] == cum


class TestOrderingArrays:
    @pytest.fixture
    def case(self):
        rng = np.random.default_rng(71)
        items = labeled_items(300)
        emb = {it.id: make_embedding(it.id, random_token_set(rng, 6, max_tokens=4)) for it in items}
        query = make_embedding("q", random_token_set(rng, 6, max_tokens=4))
        pool = build_candidate_pool(items, emb, n=300, probe_size=50, seed=0)
        return query, pool, emb

    def test_ranked_is_built_from_the_arrays(self, case):
        query, pool, emb = case
        ordering = order_for_query(query, pool, emb)
        assert sorted(ordering.item_ids) == sorted(pool.ids())
        assert ordering.ranked == [
            RankedEntry(item_id, gain, cov)
            for item_id, gain, cov in zip(ordering.item_ids, ordering.gains, ordering.coverage)
        ]
        with pytest.raises(AttributeError):
            ordering.ranked = []

    def test_balanced_select_builds_no_ranked_entry(self, case, monkeypatch):
        query, pool, emb = case

        def refuse(*args):
            raise AssertionError("RankedEntry built")

        monkeypatch.setattr(coverage, "RankedEntry", refuse)
        ordering = order_for_query(query, pool, emb)
        result = balanced_select(ordering, {e.item_id: e.label for e in pool.entries}, 8)
        assert len(result.members) == 8
        for demo in result.members + result.skipped:
            assert ordering.item_ids[demo.rank - 1] == demo.item_id
