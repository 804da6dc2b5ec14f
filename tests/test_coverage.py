import heapq

import numpy as np
import pytest

from ideolab import coverage
from ideolab.corpus import ContentItem, Ideology
from ideolab.coverage import (
    CandidatePool,
    CoverageError,
    _max_sim_matrix,
    bsr,
    build_candidate_pool,
    order_for_query,
    probe_indices,
    set_coverage,
    token_max_sims,
)

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
    """Reference pool build: lazy greedy over a query-token-major
    similarity matrix, with strided ``sims[:, j]`` re-evaluation and first
    gains from one matrix product. Returns (picked indices, gains)."""
    probe = [token_sets[i] for i in probe_indices(len(token_sets), probe_size, seed)]
    probe_tokens = np.concatenate(probe, axis=0)
    weights = np.concatenate([np.full(len(p), 1.0 / len(p)) for p in probe])
    offsets = np.cumsum([0] + [len(t) for t in token_sets[:-1]])
    sims = np.maximum.reduceat(probe_tokens @ np.concatenate(token_sets, axis=0).T, offsets, axis=1)
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


def in_index_order(picked, twin):
    """Whether identical copies (equal ``twin`` class) enter in index order."""
    return all(
        [j for j in picked if twin[j] == t] == sorted(j for j in picked if twin[j] == t) for t in set(twin)
    )


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
    def test_rows_match_per_candidate_sims_across_chunks(self, monkeypatch):
        # the smallest budget (1024 candidate tokens per chunk) splits this pool
        monkeypatch.setattr(coverage, "_MAX_CHUNK_ELEMENTS", 1)
        rng = np.random.default_rng(13)
        dim = 16
        query = make_embedding("q", random_token_set(rng, dim, min_tokens=9, max_tokens=20))
        cands = [make_embedding(f"c{j}", random_token_set(rng, dim, max_tokens=8)) for j in range(500)]
        assert sum(c.n_tokens for c in cands) > 2 * 1024
        rows = _max_sim_matrix(query.token_vectors, [c.token_vectors for c in cands])
        assert rows.shape == (len(cands), query.n_tokens)
        for j, cand in enumerate(cands):
            # BLAS rounding depends on the column count of the product
            np.testing.assert_allclose(rows[j], token_max_sims(query, cand), rtol=0, atol=1e-12)


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
            rows = _max_sim_matrix(query.token_vectors, [emb[i].token_vectors for i in pool.ids()])
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
