import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from ideolab.corpus import Ideology
from ideolab.evaluation import (
    EvaluationError,
    MLPHyper,
    delta,
    _mcnemar_from_counts,
    init_mlp,
    mcnemar,
    mlp_accuracy,
    mlp_loss_and_grads,
    mlp_predict,
    mlp_probabilities,
    mlp_train,
    score,
    significance_stars,
)
from ideolab.llm import PredictionRecord
from ideolab.synthetic import cluster_sentence_embeddings, synthetic_corpus

L, N, C = Ideology.LIBERAL, Ideology.NEUTRAL, Ideology.CONSERVATIVE
SRC = Path(__file__).resolve().parent.parent / "src"


def make_record(query_id, gold, pred=None, status="ok", config_hash="h"):
    return PredictionRecord(
        query_id=query_id,
        gold=gold,
        pred=pred,
        raw_response=pred.wire if pred is not None else "",
        parse_status=status,
        attempts=1,
        config_hash=config_hash,
    )


def records_from_pattern(golds, preds, statuses=None):
    statuses = statuses or ["ok"] * len(golds)
    return [
        make_record(f"q{i:03d}", g, p if s == "ok" else None, s)
        for i, (g, p, s) in enumerate(zip(golds, preds, statuses))
    ]


class TestScore:
    def test_half_correct(self):
        records = records_from_pattern([L, L, N, C], [L, N, N, L])
        report = score(records, bootstrap_resamples=100)
        assert report.accuracy == pytest.approx(0.5)
        assert report.n == 4

    def test_all_correct_degenerate_ci(self):
        records = records_from_pattern([L, N, C] * 3, [L, N, C] * 3)
        report = score(records, bootstrap_resamples=200)
        assert report.accuracy == 1.0
        assert report.ci95 == (1.0, 1.0)

    def test_accuracy_equals_trace_over_n(self):
        rng = np.random.default_rng(0)
        golds = [Ideology(int(g)) for g in rng.integers(0, 3, 60)]
        preds = [Ideology(int(p)) for p in rng.integers(0, 3, 60)]
        statuses = ["ok" if rng.random() > 0.2 else "empty" for _ in range(60)]
        report = score(records_from_pattern(golds, preds, statuses), bootstrap_resamples=50)
        assert report.accuracy == pytest.approx(np.trace(report.confusion) / report.n)
        assert report.confusion.sum() == report.n

    def test_parse_failures_fold_deterministically(self):
        records = records_from_pattern([L, N, C], [None, None, None], ["empty", "ambiguous", "transport_error"])
        report = score(records, bootstrap_resamples=10)
        assert report.parse_failure_count == 3
        assert report.accuracy == 0.0
        # fold rule: failed parse lands in the (gold + 1) mod 3 column
        assert report.confusion[int(L), int(N)] == 1
        assert report.confusion[int(N), int(C)] == 1
        assert report.confusion[int(C), int(L)] == 1

    def test_ci_contains_point_accuracy(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            n = int(rng.integers(2, 120))
            golds = [Ideology(int(g)) for g in rng.integers(0, 3, n)]
            preds = [Ideology(int(p)) for p in rng.integers(0, 3, n)]
            report = score(records_from_pattern(golds, preds), bootstrap_resamples=300, seed=trial)
            assert report.ci95[0] <= report.accuracy <= report.ci95[1]

    def test_bootstrap_stability_on_large_n(self):
        rng = np.random.default_rng(11)
        golds = [Ideology(int(g)) for g in rng.integers(0, 3, 600)]
        preds = [g if rng.random() < 0.6 else Ideology(int(rng.integers(0, 3))) for g in golds]
        records = records_from_pattern(golds, preds)
        small = score(records, bootstrap_resamples=1000, seed=1)
        large = score(records, bootstrap_resamples=10000, seed=1)
        assert abs(small.ci95[0] - large.ci95[0]) < 0.02
        assert abs(small.ci95[1] - large.ci95[1]) < 0.02

    def test_seeded_ci_reproducible(self):
        records = records_from_pattern([L, N, C, L], [L, N, L, L])
        a = score(records, bootstrap_resamples=100, seed=7)
        b = score(records, bootstrap_resamples=100, seed=7)
        assert a.ci95 == b.ci95
        # the single (resamples, n) draw equals one draw per resample, bit for bit
        rng = np.random.default_rng(3)
        for n in (1, 2, 5, 12, 200):
            golds = [Ideology(int(g)) for g in rng.integers(0, 3, n)]
            preds = [Ideology(int(p)) for p in rng.integers(0, 3, n)]
            correct = np.array([g == p for g, p in zip(golds, preds)])
            loop_rng = np.random.default_rng(7)
            accs = [correct[loop_rng.integers(0, n, size=n)].mean() for _ in range(100)]
            expected = (float(np.percentile(accs, 2.5)), float(np.percentile(accs, 97.5)))
            assert score(records_from_pattern(golds, preds), bootstrap_resamples=100, seed=7).ci95 == expected

    def test_empty_records_rejected(self):
        with pytest.raises(EvaluationError):
            score([])

    def test_mixed_hash_rejected(self):
        records = [make_record("a", L, L), make_record("b", L, L, config_hash="other")]
        with pytest.raises(EvaluationError, match="mix"):
            score(records)

    def test_missing_gold_rejected(self):
        with pytest.raises(EvaluationError):
            score([make_record("a", None, L)])


class TestDelta:
    def test_self_delta_is_zero(self):
        report = score(records_from_pattern([L, N, C, L], [L, N, L, C]), bootstrap_resamples=10)
        assert np.allclose(delta(report, report).matrix, 0.0)

    def test_one_item_moved(self):
        # four gold-L items; one moves from pred-N to pred-L: row L is (+25, -25, 0)
        golds = [L, L, L, L]
        before = score(records_from_pattern(golds, [L, L, L, N]), bootstrap_resamples=10)
        after = score(records_from_pattern(golds, [L, L, L, L]), bootstrap_resamples=10)
        d = delta(before, after)
        assert d.matrix[int(L)].tolist() == pytest.approx([25.0, -25.0, 0.0])

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            n = int(rng.integers(6, 60))
            golds = [Ideology(int(g)) for g in rng.integers(0, 3, n)]
            pa = [Ideology(int(p)) for p in rng.integers(0, 3, n)]
            pb = [Ideology(int(p)) for p in rng.integers(0, 3, n)]
            d = delta(
                score(records_from_pattern(golds, pa), bootstrap_resamples=5),
                score(records_from_pattern(golds, pb), bootstrap_resamples=5),
            )
            assert np.all(np.abs(d.matrix.sum(axis=1)) <= 1e-9)

    def test_id_mismatch_rejected(self):
        a = score([make_record("a", L, L)], bootstrap_resamples=5)
        b = score([make_record("b", L, L)], bootstrap_resamples=5)
        with pytest.raises(EvaluationError, match="query id"):
            delta(a, b)

    def test_json_shape(self):
        report = score(records_from_pattern([L, N], [L, N]), bootstrap_resamples=5)
        payload = delta(report, report).to_json_dict()
        assert payload["labels"] == ["liberal", "neutral", "conservative"]
        assert np.asarray(payload["matrix"]).shape == (3, 3)


class TestMcNemar:
    def paired_records(self, a_correct, b_correct):
        golds = [L] * len(a_correct)
        rec_a = records_from_pattern(golds, [L if ca else N for ca in a_correct])
        rec_b = records_from_pattern(golds, [L if cb else N for cb in b_correct])
        return rec_a, rec_b

    def from_counts(self, b, c, both=10):
        a_correct = [True] * both + [True] * b + [False] * c
        b_correct = [True] * both + [False] * b + [True] * c
        return self.paired_records(a_correct, b_correct)

    def test_b5_c15(self):
        result = mcnemar(*self.from_counts(5, 15))
        assert result.statistic == pytest.approx(81 / 20)
        assert result.p < 0.05
        assert result.stars == "*"

    def test_b7_c7(self):
        result = mcnemar(*self.from_counts(7, 7))
        assert result.statistic == pytest.approx(1 / 14)
        assert result.p > 0.5
        assert result.stars == ""

    def test_identical_records(self):
        rec_a, rec_b = self.from_counts(0, 0)
        result = mcnemar(rec_a, rec_b)
        assert (result.statistic, result.p) == (0.0, 1.0)

    def test_one_flip_continuity_floor(self):
        result = mcnemar(*self.from_counts(0, 1))
        assert result.statistic == 0.0
        assert result.p == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            b, c = int(rng.integers(0, 20)), int(rng.integers(0, 20))
            rec_a, rec_b = self.from_counts(b, c)
            assert mcnemar(rec_a, rec_b).statistic == mcnemar(rec_b, rec_a).statistic

    def test_p_from_chi2_survival(self):
        result = mcnemar(*self.from_counts(3, 12))
        assert result.p == pytest.approx(stats.chi2.sf(result.statistic, df=1))

    def test_exact_mode(self):
        result = mcnemar(*self.from_counts(0, 5), method="exact")
        assert result.statistic == 0.0
        assert result.p == pytest.approx(2 * 0.5**5)

    def test_p_values_match_scipy_below_400_discordant(self):
        b, c = np.array([(b, n - b) for n in range(1, 400) for b in range(n + 1)]).T
        pairs = list(zip(b.tolist(), c.tolist()))
        chi2 = [_mcnemar_from_counts(x, y, "chi2") for x, y in pairs]
        statistic = np.array([r.statistic for r in chi2])
        np.testing.assert_allclose([r.p for r in chi2], stats.chi2.sf(statistic, df=1), rtol=1e-12, atol=0)
        # the exact p depends on min(b, c) alone, so half the grid covers it
        b, c = b[b <= c], c[b <= c]
        exact = [_mcnemar_from_counts(x, y, "exact").p for x, y in zip(b.tolist(), c.tolist())]
        binomial = np.minimum(1.0, 2.0 * stats.binom.cdf(b, b + c, 0.5))
        np.testing.assert_allclose(exact, np.where(b == c, 1.0, binomial), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [1, 2, 5, 24, 25, 100, 399])
    def test_exact_matches_scipy_binomtest(self, n):
        for b in range(n + 1):
            expected = stats.binomtest(min(b, n - b), n, 0.5).pvalue
            assert _mcnemar_from_counts(b, n - b, "exact").p == pytest.approx(expected, rel=1e-12, abs=0)

    def test_exact_at_a_hundred_thousand_discordant(self):
        start = time.perf_counter()
        result = _mcnemar_from_counts(49_500, 50_500, "exact")
        assert time.perf_counter() - start < 1.0
        assert result.p == pytest.approx(stats.binomtest(49_500, 100_000, 0.5).pvalue, rel=1e-8)

    def test_compare_runs_without_scipy_installed(self, tmp_path):
        paths = []
        for name, records in zip("ab", self.from_counts(0, 5)):
            path = tmp_path / f"{name}.jsonl"
            rows = [{"kind": "predictions", "config_hash": "h"}] + [r.to_json_dict() for r in records]
            path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
            paths.append(str(path))
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import ideolab.cli\n"
            "sys.exit(ideolab.cli.main(['compare', '--a', sys.argv[1], '--b', sys.argv[2], '--exact']))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-c", script, *paths], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        payload = json.loads(done.stdout.splitlines()[-1])
        assert (payload["b"], payload["c"]) == (0, 5)
        assert payload["p"] == pytest.approx(2 * 0.5**5)

    def test_parse_failures_count_incorrect(self):
        golds = [L, L]
        rec_a = records_from_pattern(golds, [L, L])
        rec_b = records_from_pattern(golds, [L, None], statuses=["ok", "empty"])
        result = mcnemar(rec_a, rec_b)
        assert (result.b, result.c) == (1, 0)

    def test_id_mismatch(self):
        with pytest.raises(EvaluationError):
            mcnemar([make_record("a", L, L)], [make_record("b", L, L)])

    def test_stars_thresholds(self):
        assert significance_stars(0.049) == "*"
        assert significance_stars(0.009) == "**"
        assert significance_stars(0.05) == ""


class TestMLP:
    def test_zero_epochs_is_init(self):
        train, _ = synthetic_corpus(30, 0, seed=1)
        emb = cluster_sentence_embeddings(train, dim=48, seed=1)
        hyper = MLPHyper(epochs=0, seed=3, hidden=32)
        model = mlp_train(train, emb, hyper)
        reference = init_mlp(48, hidden=32, seed=3)
        assert np.array_equal(model.w1, reference.w1)
        assert np.array_equal(model.w2, reference.w2)

    def test_fits_separable_clusters(self):
        train, _ = synthetic_corpus(90, 0, seed=2)
        emb = cluster_sentence_embeddings(train, dim=64, seed=2, spread=0.1)
        model = mlp_train(train, emb, MLPHyper(epochs=40, seed=0, hidden=64))
        assert mlp_accuracy(model, train, emb) >= 0.95

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        model = init_mlp(16, hidden=8, seed=0)
        probs = mlp_probabilities(model, rng.standard_normal((40, 16)))
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)

    def test_argmax_invariant_to_logit_shift(self):
        rng = np.random.default_rng(7)
        model = init_mlp(12, hidden=8, seed=1)
        x = rng.standard_normal(12)
        before = mlp_predict(model, x)
        model.b2 += 123.456
        assert mlp_predict(model, x) is before

    def test_equal_logits_tie_breaks_liberal(self):
        model = init_mlp(4, hidden=8, seed=0)
        model.w2[:] = 0.0
        model.b2[:] = 0.0
        assert mlp_predict(model, np.ones(4)) is Ideology.LIBERAL

    def test_dim_mismatch(self):
        model = init_mlp(8, hidden=4, seed=0)
        with pytest.raises(EvaluationError):
            mlp_predict(model, np.ones(9))

    def test_non_finite_inputs_rejected(self):
        train, _ = synthetic_corpus(9, 0, seed=3)
        emb = cluster_sentence_embeddings(train, dim=8, seed=3)
        emb[train[0].id] = np.full(8, np.nan)
        with pytest.raises(EvaluationError, match="non-finite"):
            mlp_train(train, emb, MLPHyper(epochs=1, hidden=4))

    def test_unlabeled_rejected(self):
        train, _ = synthetic_corpus(9, 0, seed=3)
        emb = cluster_sentence_embeddings(train, dim=8, seed=3)
        train[0].label = None
        with pytest.raises(EvaluationError, match="labeled"):
            mlp_train(train, emb, MLPHyper(epochs=1, hidden=4))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((12, 10))
        y = rng.integers(0, 3, 12)
        model = init_mlp(10, hidden=6, seed=2)
        _, grads = mlp_loss_and_grads(model, x, y)
        eps = 1e-4
        params = model.parameters()
        for name, arr in params.items():
            flat_index = int(rng.integers(arr.size))
            idx = np.unravel_index(flat_index, arr.shape)
            original = arr[idx]
            arr[idx] = original + eps
            loss_plus, _ = mlp_loss_and_grads(model, x, y)
            arr[idx] = original - eps
            loss_minus, _ = mlp_loss_and_grads(model, x, y)
            arr[idx] = original
            numeric = (loss_plus - loss_minus) / (2 * eps)
            analytic = grads[name][idx]
            assert abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-12) < 1e-4

    def test_training_is_seed_deterministic(self):
        train, _ = synthetic_corpus(30, 0, seed=4)
        emb = cluster_sentence_embeddings(train, dim=16, seed=4)
        hyper = MLPHyper(epochs=3, seed=5, hidden=8)
        a = mlp_train(train, emb, hyper)
        b = mlp_train(train, emb, hyper)
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.b2, b.b2)
