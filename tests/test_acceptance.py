"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import math

import numpy as np
import pytest

from ideolab.cli import derive_seed, main
from ideolab.corpus import ContentItem, Ideology, write_dataset
from ideolab.coverage import (
    QueryOrdering,
    bsr,
    build_candidate_pool,
    order_for_query,
    probe_indices,
    set_coverage,
)
from ideolab.embedding import HashedProvider, embed_many
from ideolab.evaluation import (
    MLPHyper,
    delta,
    init_mlp,
    mcnemar,
    mlp_accuracy,
    mlp_loss_and_grads,
    mlp_probabilities,
    mlp_train,
    score,
)
from ideolab.llm import LLMConfig, PredictionRecord, classify_batch, mock_llm
from ideolab.prompting import FieldConfig, instruction_for, render
from ideolab.selection import Demonstration, DemonstrationSet, balanced_select, random_select
from ideolab.synthetic import cluster_sentence_embeddings, synthetic_corpus

from conftest import make_embedding
from reference import (
    brute_force_best_gain,
    naive_bsr,
    naive_greedy_pool,
    naive_pool_objective,
    naive_set_coverage,
    random_token_set,
)

L, N, C = Ideology.LIBERAL, Ideology.NEUTRAL, Ideology.CONSERVATIVE

FIELDS = FieldConfig()
LLM_CFG = LLMConfig()


def _report(number, text):
    print(f"\nACCEPTANCE PASS [{number:>2}] {text}")


def labeled_items(n):
    return [ContentItem(id=f"it{j}", title=f"it{j}", label=Ideology(j % 3)) for j in range(n)]


# -------------------------------------------------------------------------
# shared mock-experiment machinery


def run_mock_experiment(train, test, k, select, mock_kind, pool_size, probe_size, seed):
    """Full offline loop: embed, pool, order, select, prompt, mock, score."""
    provider = HashedProvider(dim=32)
    emb = embed_many(train + test, FIELDS, provider, max_workers=1)
    pool = build_candidate_pool(train, emb, n=pool_size, probe_size=probe_size, seed=seed)
    demo_items = {it.id: it for it in train}
    labels = pool.labels()
    tasks = []
    for item in test:
        if select == "balanced":
            ordering = order_for_query(emb[item.id], pool, emb)
            demos = balanced_select(ordering, labels, k)
        else:
            demos = random_select(pool, k, derive_seed(seed, item.id), query_id=item.id)
        tasks.append((item.id, item.label, render(item, demos, demo_items, FIELDS)))
    records = classify_batch(tasks, LLM_CFG, mock_llm(mock_kind), config_hash="acceptance")
    return score(records, bootstrap_resamples=50, seed=0).accuracy


def test_criterion_01_bsr_oracle_equivalence():
    rng = np.random.default_rng(101)
    for trial in range(200):
        dim = int(rng.integers(4, 65))
        q_tokens = random_token_set(rng, dim, max_tokens=20)
        cand_tokens = random_token_set(rng, dim, max_tokens=20)
        q = make_embedding("q", q_tokens)
        d = make_embedding("d", cand_tokens)
        assert abs(bsr(q, d) - naive_bsr(q_tokens, cand_tokens)) <= 1e-6
        n_members = int(rng.integers(1, 5))
        member_tokens = [random_token_set(rng, dim, max_tokens=10) for _ in range(n_members)]
        members = [make_embedding(f"m{i}", m) for i, m in enumerate(member_tokens)]
        assert abs(set_coverage(q, members) - naive_set_coverage(q_tokens, member_tokens)) <= 1e-6
    _report(1, "bsr/set_coverage match the naive double-loop oracle on 200 instances (1e-6)")


def test_criterion_02_monotone_submodular():
    rng = np.random.default_rng(202)
    for trial in range(500):
        dim = int(rng.integers(4, 17))
        q = make_embedding("q", random_token_set(rng, dim, max_tokens=6))
        pool = [make_embedding(f"m{i}", random_token_set(rng, dim, max_tokens=5)) for i in range(5)]
        cut = int(rng.integers(0, 4))
        small = pool[:cut]
        large = pool[: cut + 1]
        extra = pool[4]
        cov_small = set_coverage(q, small)
        cov_large = set_coverage(q, large)
        # monotone: adding a member never decreases coverage
        assert cov_large >= cov_small - 1e-9
        assert set_coverage(q, small + [extra]) >= cov_small - 1e-9
        # submodular: marginal gains shrink as the set grows
        gain_small = set_coverage(q, small + [extra]) - cov_small
        gain_large = set_coverage(q, large + [extra]) - cov_large
        assert gain_small >= gain_large - 1e-9
    _report(2, "set_coverage monotone and submodular on 500 instances (1e-9)")


def test_criterion_03_greedy_pool_guarantee_and_incremental_equivalence():
    approx_factor = 1.0 - 1.0 / math.e
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n_train = int(rng.integers(4, 11))
        n_pool = int(rng.integers(1, 4))
        dim = int(rng.integers(3, 7))
        token_sets = [random_token_set(rng, dim, max_tokens=3) for _ in range(n_train)]
        items = labeled_items(n_train)
        emb = {f"it{j}": make_embedding(f"it{j}", token_sets[j]) for j in range(n_train)}

        pool = build_candidate_pool(items, emb, n=n_pool, probe_size=n_train, seed=seed)
        # probe covers the whole training set, replicated for the oracle
        probe_ids = probe_indices(n_train, n_train, seed)
        probe_sets = [token_sets[i] for i in probe_ids]

        picks, gains, objectives = naive_greedy_pool(probe_sets, token_sets, n_pool)
        got_ids = [e.item_id for e in pool.entries]
        assert got_ids == [f"it{j}" for j in picks]
        got_objective = naive_pool_objective(probe_sets, [])
        for entry, want_gain, want_objective in zip(pool.entries, gains, objectives):
            assert abs(entry.gain - want_gain) <= 1e-6
            got_objective += entry.gain
            assert abs(got_objective - want_objective) <= 1e-6

        # (1 - 1/e) guarantee on the gain over the empty set, the quantity
        # the greedy bound provably applies to
        greedy_gain = sum(e.gain for e in pool.entries)
        best_gain = brute_force_best_gain(probe_sets, token_sets, n_pool)
        assert greedy_gain >= approx_factor * best_gain - 1e-9
    _report(3, "greedy pool >= (1-1/e) x brute-force optimum; lazy matches full recompute, 100 seeds")


def test_criterion_04_balanced_select_conformance():
    # pinned hand trace from the algorithm's loop
    ids = [f"e{i}" for i in range(7)]
    labels = dict(zip([f"e{i}" for i in range(7)], [L, L, C, N, L, C, N]))
    result = balanced_select(QueryOrdering("q", ids, np.ones(7), np.ones(7)), labels, 3)
    assert [m.rank for m in result.members] == [1, 3, 4]

    rng = np.random.default_rng(404)
    for trial in range(1000):
        size = int(rng.integers(1, 40))
        seq = [Ideology(int(x)) for x in rng.integers(0, 3, size)]
        k = int(rng.integers(0, 13))
        ids = [f"e{i}" for i in range(size)]
        label_map = {f"e{i}": lab for i, lab in enumerate(seq)}
        result = balanced_select(QueryOrdering("q", ids, np.ones(size), np.ones(size)), label_map, k)

        quota = -(-k // 3)
        members = result.members
        if result.fallback_used:
            # quota-pass members are the leading run with per-class counts
            # inside quota; everything after came from the fill pass
            counts = {lab: 0 for lab in Ideology}
            quota_len = 0
            for m in members:
                if counts[m.label] + 1 > quota:
                    break
                counts[m.label] += 1
                quota_len += 1
            quota_members = members[:quota_len]
        else:
            quota_members = members
        for lab in Ideology:
            assert sum(1 for m in quota_members if m.label == lab) <= quota

        # fallback triggers exactly when the quota pass cannot reach k
        base, extras = divmod(k, 3)
        avail = {lab: seq.count(lab) for lab in Ideology}
        quota_capacity = sum(min(avail[lab], base) for lab in Ideology) + min(
            extras, sum(1 for lab in Ideology if avail[lab] > base)
        )
        assert result.fallback_used == (quota_capacity < k)
        assert len(members) == min(k, size)
    _report(4, "balanced_select quota, pinned k=3 trace, and fallback iff class shortfall (1000 orderings)")


def test_criterion_05_prompt_golden_wording():
    title_only = instruction_for(FieldConfig.from_key("title"))
    assert title_only == (
        "Classify the following news article titles as ideologically liberal, "
        "neutral, or conservative. Titles with no ideological content are "
        "classified as neutral. Only respond with the final answer."
    )
    with_source = instruction_for(FieldConfig.from_key("title-source"))
    assert with_source == (
        "Classify the following news article titles as ideologically liberal, "
        "neutral, or conservative. Titles with no ideological content are "
        "classified as neutral. The news source is also specified for "
        "additional context. Only respond with the final answer."
    )
    with_desc = instruction_for(FieldConfig.from_key("title-desc"))
    assert with_desc == (
        "Classify the following news article titles as ideologically liberal, "
        "neutral, or conservative. Titles with no ideological content are "
        "classified as neutral. The news description is also specified for "
        "additional context. Only respond with the final answer."
    )
    with_both = instruction_for(FieldConfig.from_key("title-source-desc"))
    assert with_both == (
        "Classify the following news article titles as ideologically liberal, "
        "neutral, or conservative. Titles with no ideological content are "
        "classified as neutral. The news source is also specified for "
        "additional context. The news description is also specified for "
        "additional context. Only respond with the final answer."
    )

    train, test = synthetic_corpus(30, 1, seed=9)
    demo_items = {it.id: it for it in train}
    query = test[0]
    for k in (0, 4, 8, 12):
        members = [Demonstration(train[j].id, train[j].label, j + 1) for j in range(k)]
        demos = DemonstrationSet(query_id=query.id, members=members, k_requested=k)
        prompt = render(query, demos, demo_items, FIELDS)
        assert len(prompt.demo_blocks) == k
        assert prompt.text.count("Ideology: ") == k
    _report(5, "instruction wording byte-exact for all four field configs; k demo blocks for k in {0,4,8,12}")


def test_criterion_06_mcnemar_units():
    def from_counts(b, c, both=10):
        golds = [L] * (both + b + c)
        a_preds = [L] * both + [L] * b + [N] * c
        b_preds = [L] * both + [N] * b + [L] * c
        rec = lambda i, p: PredictionRecord(f"q{i:03d}", L, p, p.wire, "ok", 1, "h")
        rec_a = [rec(i, p) for i, p in enumerate(a_preds)]
        rec_b = [rec(i, p) for i, p in enumerate(b_preds)]
        return rec_a, rec_b

    result = mcnemar(*from_counts(5, 15))
    assert result.statistic == pytest.approx(4.05)
    assert result.p < 0.05

    result = mcnemar(*from_counts(7, 7))
    assert result.statistic == pytest.approx(1 / 14)
    assert result.p > 0.5

    result = mcnemar(*from_counts(0, 0))
    assert (result.statistic, result.p) == (0.0, 1.0)

    rng = np.random.default_rng(606)
    for _ in range(100):
        b, c = int(rng.integers(0, 25)), int(rng.integers(0, 25))
        rec_a, rec_b = from_counts(b, c)
        assert mcnemar(rec_a, rec_b).statistic == mcnemar(rec_b, rec_a).statistic
    _report(6, "mcnemar: (5,15)->4.05 p<.05, (7,7)->~0.0714 p>.5, (0,0)->(0,1), symmetric on 100 pairs")


def test_criterion_07_balanced_beats_random():
    balanced, randomized = [], []
    for seed in range(20):
        train, test = synthetic_corpus(300, 150, seed=seed)
        common = dict(k=4, mock_kind="echo_majority", pool_size=120, probe_size=100, seed=seed)
        balanced.append(run_mock_experiment(train, test, select="balanced", **common))
        randomized.append(run_mock_experiment(train, test, select="random", **common))
    mean_balanced = float(np.mean(balanced))
    mean_random = float(np.mean(randomized))
    assert mean_balanced > mean_random
    _report(
        7,
        f"balanced selection beats random with the majority-echo mock over 20 seeds "
        f"({mean_balanced:.3f} vs {mean_random:.3f})",
    )


def test_criterion_08_accuracy_grows_with_k():
    acc_k3, acc_k12 = [], []
    for seed in range(20):
        train, test = synthetic_corpus(300, 150, seed=1000 + seed)
        common = dict(select="balanced", mock_kind="nearest_demo", pool_size=120, probe_size=100, seed=seed)
        acc_k3.append(run_mock_experiment(train, test, k=3, **common))
        acc_k12.append(run_mock_experiment(train, test, k=12, **common))
    mean_k3 = float(np.mean(acc_k3))
    mean_k12 = float(np.mean(acc_k12))
    assert mean_k12 >= mean_k3
    _report(
        8,
        f"nearest-demo accuracy at k=12 >= k=3 in aggregate over 20 seeds "
        f"({mean_k12:.3f} vs {mean_k3:.3f})",
    )


def test_criterion_09_small_pool_suffices():
    train, test = synthetic_corpus(2500, 150, seed=77)
    accs = {}
    for pool_size in (500, 2000):
        accs[pool_size] = run_mock_experiment(
            train, test, k=4, select="balanced", mock_kind="echo_majority",
            pool_size=pool_size, probe_size=200, seed=77,
        )
    diff_points = abs(accs[500] - accs[2000]) * 100
    assert diff_points <= 3.0
    _report(
        9,
        f"pool of 500 vs 2000: mock accuracy differs by {diff_points:.2f} points (<= 3)",
    )


def test_criterion_10_mlp_baseline():
    rng = np.random.default_rng(1010)
    x = rng.standard_normal((12, 384))
    y = rng.integers(0, 3, 12)
    model = init_mlp(384, hidden=512, seed=4)
    _, grads = mlp_loss_and_grads(model, x, y)
    eps = 1e-4
    params = model.parameters()
    for name, arr in params.items():
        for _ in range(5):
            idx = np.unravel_index(int(rng.integers(arr.size)), arr.shape)
            original = arr[idx]
            arr[idx] = original + eps
            loss_plus, _ = mlp_loss_and_grads(model, x, y)
            arr[idx] = original - eps
            loss_minus, _ = mlp_loss_and_grads(model, x, y)
            arr[idx] = original
            numeric = (loss_plus - loss_minus) / (2 * eps)
            analytic = grads[name][idx]
            assert abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-12) < 1e-4

    train, _ = synthetic_corpus(150, 0, seed=10)
    emb = cluster_sentence_embeddings(train, dim=384, seed=10, spread=0.15)
    trained = mlp_train(train, emb, MLPHyper(lr=1e-3, epochs=100, seed=0))
    train_acc = mlp_accuracy(trained, train, emb)
    assert train_acc >= 0.95

    probs = mlp_probabilities(trained, rng.standard_normal((50, 384)))
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)
    _report(
        10,
        f"gradient check < 1e-4; separable train accuracy {train_acc:.3f} >= 0.95 "
        "in 100 epochs; softmax normalized (1e-9)",
    )


def test_criterion_11_pipeline_determinism(tmp_path):
    train, test = synthetic_corpus(60, 30, seed=5)
    write_dataset(train, tmp_path / "train.jsonl")
    write_dataset(test, tmp_path / "test.jsonl")

    def pipeline(out):
        flags = [
            "--label-scheme", "direct", "--embed-provider", "hashed", "--embed-dim", "32",
            "--seed", "3", "--out", str(out),
        ]
        assert main(["ingest", "--dataset", str(tmp_path / "train.jsonl")] + flags) == 0
        assert main(["pool", "--train-dataset", str(tmp_path / "train.jsonl"),
                     "--pool-size", "30", "--probe-size", "40"] + flags) == 0
        assert main(["classify", "--dataset", str(tmp_path / "test.jsonl"),
                     "--train-dataset", str(tmp_path / "train.jsonl"),
                     "--k", "4", "--mock", "echo_majority"] + flags) == 0
        assert main(["eval"] + flags) == 0

    pipeline(tmp_path / "run1")
    pipeline(tmp_path / "run2")
    for name in ("pool.jsonl", "predictions.jsonl", "selection_trace.jsonl", "report.json"):
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    _report(11, "two full pipeline runs produce byte-identical prediction and report artifacts")


def test_criterion_12_delta_matrix():
    def rec(i, gold, pred):
        return PredictionRecord(f"q{i:03d}", gold, pred, pred.wire, "ok", 1, "h")

    golds = [L, L, L, L]
    before = score([rec(i, g, p) for i, (g, p) in enumerate(zip(golds, [L, L, L, N]))], bootstrap_resamples=10)
    after = score([rec(i, g, p) for i, (g, p) in enumerate(zip(golds, [L, L, L, L]))], bootstrap_resamples=10)
    moved = delta(before, after)
    assert moved.matrix[int(L)].tolist() == pytest.approx([25.0, -25.0, 0.0])

    rng = np.random.default_rng(1212)
    for _ in range(50):
        n = int(rng.integers(6, 80))
        golds = [Ideology(int(g)) for g in rng.integers(0, 3, n)]
        pa = [Ideology(int(p)) for p in rng.integers(0, 3, n)]
        pb = [Ideology(int(p)) for p in rng.integers(0, 3, n)]
        d = delta(
            score([rec(i, g, p) for i, (g, p) in enumerate(zip(golds, pa))], bootstrap_resamples=5),
            score([rec(i, g, p) for i, (g, p) in enumerate(zip(golds, pb))], bootstrap_resamples=5),
        )
        assert np.all(np.abs(d.matrix.sum(axis=1)) <= 1e-9)
    _report(12, "delta rows sum to 0 (1e-9) on 50 paired reports; one-item move gives (+25, -25, 0)")
