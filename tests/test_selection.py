import numpy as np
import pytest
from hypothesis import given, strategies as st

from ideolab.corpus import Ideology
from ideolab.coverage import CandidatePool, PoolEntry, QueryOrdering
from ideolab.selection import (
    SelectionError,
    balanced_select,
    random_select,
)

L, N, C = Ideology.LIBERAL, Ideology.NEUTRAL, Ideology.CONSERVATIVE


def make_ordering(labels, scores=None):
    """Ordering whose entries are labeled by position; ids are e0, e1, ..."""
    if scores is None:
        scores = [float(len(labels) - i) for i in range(len(labels))]
    ids = [f"e{i}" for i in range(len(scores))]
    cum = np.maximum.accumulate(np.array([-1.0, *scores]))[1:]
    label_map = {f"e{i}": lab for i, lab in enumerate(labels)}
    return QueryOrdering("q", ids, np.array(scores, dtype=float), cum), label_map


def make_pool(labels):
    return CandidatePool(
        entries=[PoolEntry(f"e{i}", lab, 0.0) for i, lab in enumerate(labels)],
        build_config={},
    )


class TestBalancedSelect:
    def test_k_zero(self):
        ordering, labels = make_ordering([L, N, C])
        result = balanced_select(ordering, labels, 0)
        assert result.members == []
        assert not result.fallback_used

    def test_algorithm_trace_k3(self):
        # ranked [L, L, C, N, L, C, N] with k=3 admits ranks 1, 3, 4;
        # the rank-2 L is skipped because the L quota is already full
        ordering, labels = make_ordering([L, L, C, N, L, C, N])
        result = balanced_select(ordering, labels, 3)
        assert [(m.label, m.rank) for m in result.members] == [(L, 1), (C, 3), (N, 4)]
        assert not result.fallback_used
        assert (L, 2) in [(s.label, s.rank) for s in result.skipped]

    def test_exhaustion_fallback(self):
        ordering, labels = make_ordering([L, L, L, L])
        result = balanced_select(ordering, labels, 3)
        assert [m.rank for m in result.members] == [1, 2, 3]
        assert result.fallback_used
        assert [s.rank for s in result.skipped] == [4]

    def test_k4_extras_resolved_by_admission_order(self):
        # k=4 splits as quotas (2, 1, 1): the single extra slot goes to
        # the first class that needs it, never a second extra elsewhere
        ordering, labels = make_ordering([L, L, L, C, C, N])
        result = balanced_select(ordering, labels, 4)
        assert [(m.label, m.rank) for m in result.members] == [(L, 1), (L, 2), (C, 4), (N, 6)]
        assert not result.fallback_used

    def test_negative_k(self):
        ordering, labels = make_ordering([L])
        with pytest.raises(SelectionError):
            balanced_select(ordering, labels, -1)

    def test_empty_ordering_with_positive_k(self):
        with pytest.raises(SelectionError):
            balanced_select(QueryOrdering("q", [], np.empty(0), np.empty(0)), {}, 2)

    def test_missing_label(self):
        ordering, labels = make_ordering([L, N])
        del labels["e1"]
        with pytest.raises(SelectionError, match="e1"):
            balanced_select(ordering, labels, 2)

    def test_admission_order_respects_ranking_within_class(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            labels = [Ideology(int(x)) for x in rng.integers(0, 3, size=int(rng.integers(1, 30)))]
            k = int(rng.integers(0, 13))
            ordering, label_map = make_ordering(labels)
            result = balanced_select(ordering, label_map, k)
            for lab in Ideology:
                ranks = [m.rank for m in result.members if m.label == lab]
                assert ranks == sorted(ranks)

    def test_invariant_counts_within_one_without_fallback(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            labels = [Ideology(int(x)) for x in rng.integers(0, 3, size=int(rng.integers(1, 40)))]
            k = int(rng.integers(0, 13))
            ordering, label_map = make_ordering(labels)
            result = balanced_select(ordering, label_map, k)
            if result.fallback_used or k == 0:
                continue
            counts = [result.labels().count(lab) for lab in Ideology]
            assert len(result.members) == k
            assert max(counts) - min(counts) <= 1
            if k % 3 == 0:
                available = [labels.count(lab) for lab in Ideology]
                if all(a >= k // 3 for a in available):
                    assert counts == [k // 3] * 3

    @given(
        st.lists(st.sampled_from([L, N, C]), min_size=1, max_size=30),
        st.integers(0, 12),
        st.floats(0.01, 10.0),
    )
    def test_rank_order_invariance_to_monotone_score_transform(self, labels, k, scale):
        ordering, label_map = make_ordering(labels)
        scores = [r.marginal_gain for r in ordering.ranked]
        transformed, _ = make_ordering(labels, scores=[s * scale + 1.0 for s in scores])
        a = balanced_select(ordering, label_map, k)
        b = balanced_select(transformed, label_map, k)
        assert [(m.item_id, m.rank) for m in a.members] == [(m.item_id, m.rank) for m in b.members]
        assert a.fallback_used == b.fallback_used

    def test_trace_round_trip_fields(self):
        ordering, labels = make_ordering([L, L, C, N])
        trace = balanced_select(ordering, labels, 3).to_trace()
        assert trace["query_id"] == "q"
        assert trace["k"] == 3
        assert {m["id"] for m in trace["members"]} == {"e0", "e2", "e3"}
        assert trace["skipped"] == [{"id": "e1", "label": "liberal", "rank": 2}]
        assert trace["fallback_used"] is False


class TestRandomSelect:
    def test_k_zero(self):
        assert random_select(make_pool([L, N, C]), 0, seed=1).members == []

    def test_same_seed_same_set(self):
        pool = make_pool([L, N, C, L, N, C, L, N])
        a = random_select(pool, 4, seed=9)
        b = random_select(pool, 4, seed=9)
        assert [m.item_id for m in a.members] == [m.item_id for m in b.members]

    def test_different_seed_usually_differs(self):
        pool = make_pool([L, N, C] * 10)
        draws = {tuple(m.item_id for m in random_select(pool, 5, seed=s).members) for s in range(10)}
        assert len(draws) > 1

    def test_k_equals_pool_is_permutation(self):
        pool = make_pool([L, N, C, L, N])
        result = random_select(pool, 5, seed=3)
        assert sorted(m.item_id for m in result.members) == sorted(e.item_id for e in pool.entries)

    def test_k_too_large(self):
        with pytest.raises(SelectionError):
            random_select(make_pool([L]), 2, seed=0)

    def test_no_duplicates(self):
        pool = make_pool([L, N, C] * 7)
        for seed in range(20):
            members = random_select(pool, 9, seed=seed).members
            ids = [m.item_id for m in members]
            assert len(ids) == len(set(ids))
