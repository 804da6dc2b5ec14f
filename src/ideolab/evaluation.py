"""Accuracy with bootstrap confidence intervals, confusion-matrix deltas,
McNemar paired tests, and the feedforward softmax baseline.

A record counts as correct only when its parse succeeded and the
predicted label equals the gold label. Failed parses count as incorrect
and fold into a deterministic wrong-prediction cell, (gold + 1) mod 3,
so the confusion matrix always sums to n; the fold count is reported
separately for auditability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .corpus import IDEOLOGIES, Ideology
from .llm import PARSE_OK, PredictionRecord

LABEL_ORDER = tuple(lab.wire for lab in IDEOLOGIES)


class EvaluationError(ValueError):
    """Raised for empty, mismatched, or mixed-configuration inputs."""


def record_correct(record: PredictionRecord) -> bool:
    return record.parse_status == PARSE_OK and record.pred == record.gold


@dataclass
class EvalReport:
    config: dict
    config_hash: str
    n: int
    accuracy: float
    ci95: tuple[float, float]
    confusion: np.ndarray  # 3x3 ints, rows = gold, cols = predicted
    parse_failure_count: int
    query_ids: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "config_hash": self.config_hash,
            "n": self.n,
            "accuracy": self.accuracy,
            "ci95": list(self.ci95),
            "confusion": self.confusion.tolist(),
            "labels": list(LABEL_ORDER),
            "parse_failure_count": self.parse_failure_count,
            "query_ids": list(self.query_ids),
        }


def score(
    records: Sequence[PredictionRecord],
    config: Optional[dict] = None,
    bootstrap_resamples: int = 1000,
    seed: int = 0,
) -> EvalReport:
    """Accuracy, seeded percentile-bootstrap 95% CI, and confusion matrix."""
    if not records:
        raise EvaluationError("cannot score an empty record list")
    if bootstrap_resamples < 1:
        raise EvaluationError(f"bootstrap_resamples must be at least 1, got {bootstrap_resamples}")
    hashes = {r.config_hash for r in records}
    if len(hashes) > 1:
        raise EvaluationError(f"records mix config hashes: {sorted(hashes)}")
    missing_gold = [r.query_id for r in records if r.gold is None]
    if missing_gold:
        raise EvaluationError(f"records without gold labels, e.g. {missing_gold[:3]}")

    n = len(records)
    confusion = np.zeros((3, 3), dtype=np.int64)
    correct = np.zeros(n, dtype=bool)
    parse_failures = 0
    for i, record in enumerate(records):
        gold = int(record.gold)
        if record.parse_status == PARSE_OK:
            confusion[gold, int(record.pred)] += 1
            correct[i] = record.pred == record.gold
        else:
            parse_failures += 1
            confusion[gold, (gold + 1) % 3] += 1

    accuracy = float(correct.mean())
    # one (resamples, n) draw consumes the stream exactly as one draw per resample would
    resamples = np.random.default_rng(seed).integers(0, n, size=(bootstrap_resamples, n))
    accs = correct[resamples].mean(axis=1)
    ci95 = (float(np.percentile(accs, 2.5)), float(np.percentile(accs, 97.5)))

    return EvalReport(
        config=dict(config or {}),
        config_hash=next(iter(hashes)),
        n=n,
        accuracy=accuracy,
        ci95=ci95,
        confusion=confusion,
        parse_failure_count=parse_failures,
        query_ids=tuple(sorted(r.query_id for r in records)),
    )


def _row_percentages(confusion: np.ndarray) -> np.ndarray:
    out = np.zeros((3, 3), dtype=np.float64)
    sums = confusion.sum(axis=1)
    for i in range(3):
        if sums[i] > 0:
            out[i] = confusion[i] / sums[i] * 100.0
    return out


@dataclass
class DeltaMatrix:
    """Percentage-point change in per-gold-class prediction rates, B - A.

    Rows sum to zero because both configurations share gold marginals;
    a positive diagonal cell is an accuracy gain for that class.
    """

    matrix: np.ndarray

    def to_json_dict(self) -> dict:
        return {"labels": list(LABEL_ORDER), "matrix": self.matrix.tolist()}


def delta(report_a: EvalReport, report_b: EvalReport) -> DeltaMatrix:
    """Row-normalized confusion (percent) of B minus that of A."""
    if report_a.query_ids != report_b.query_ids:
        raise EvaluationError("reports cover different query id sets")
    if not np.array_equal(report_a.confusion.sum(axis=1), report_b.confusion.sum(axis=1)):
        raise EvaluationError("reports disagree on gold label counts")
    return DeltaMatrix(_row_percentages(report_b.confusion) - _row_percentages(report_a.confusion))


def significance_stars(p: float) -> str:
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


@dataclass(frozen=True)
class McNemarResult:
    statistic: float
    p: float
    b: int  # correct under A only
    c: int  # correct under B only

    @property
    def stars(self) -> str:
        return significance_stars(self.p)


def mcnemar(
    records_a: Sequence[PredictionRecord],
    records_b: Sequence[PredictionRecord],
    method: str = "chi2",
) -> McNemarResult:
    """Paired McNemar test on the discordant predictions of two runs.

    Default is the continuity-corrected chi-square statistic
    (|b - c| - 1)^2 / (b + c) on one degree of freedom; b + c = 0 yields
    (0, 1). ``method="exact"`` uses the two-sided binomial test instead,
    recommended when b + c < 25.
    """
    by_id_a = {r.query_id: r for r in records_a}
    by_id_b = {r.query_id: r for r in records_b}
    if len(by_id_a) != len(records_a) or len(by_id_b) != len(records_b):
        raise EvaluationError("duplicate query ids in records")
    if set(by_id_a) != set(by_id_b):
        raise EvaluationError("record sets cover different query ids")
    b = c = 0
    for query_id, rec_a in by_id_a.items():
        ca, cb = record_correct(rec_a), record_correct(by_id_b[query_id])
        if ca and not cb:
            b += 1
        elif cb and not ca:
            c += 1
    return _mcnemar_from_counts(b, c, method)


def _mcnemar_from_counts(b: int, c: int, method: str) -> McNemarResult:
    if method == "chi2":
        if b + c == 0:
            return McNemarResult(0.0, 1.0, b, c)
        statistic = (abs(b - c) - 1.0) ** 2 / (b + c)
        # chi-square survival on one degree of freedom
        return McNemarResult(float(statistic), math.erfc(math.sqrt(statistic / 2.0)), b, c)
    if method == "exact":
        return McNemarResult(float(min(b, c)), _binomial_two_sided_half(b, c), b, c)
    raise EvaluationError(f"method must be 'chi2' or 'exact', got {method!r}")


def _binomial_two_sided_half(b: int, c: int) -> float:
    """Two-sided exact binomial p value of min(b, c) successes in b + c
    trials at p = 0.5: 2 * P(X <= min(b, c)), capped at 1, and 1 when b = c.

    The pmf terms are summed in log space, so n = 10^5 neither overflows
    nor needs big-integer binomial coefficients.
    """
    if b == c:
        return 1.0
    n = b + c
    log_norm = math.lgamma(n + 1) - n * math.log(2.0)
    logs = [log_norm - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in range(min(b, c) + 1)]
    peak = logs[-1]  # below the mode the pmf rises, so the last term is the largest
    return min(1.0, 2.0 * math.exp(peak) * math.fsum(math.exp(x - peak) for x in logs))


# ---------------------------------------------------------------------------
# Feedforward softmax baseline: dense tanh hidden layer over sentence
# embeddings, three-way softmax output.
# ---------------------------------------------------------------------------


class MLPDivergenceError(RuntimeError):
    """Training hit a non-finite loss; carries the epoch for diagnosis."""


@dataclass
class MLPHyper:
    lr: float = 1e-3
    epochs: int = 100
    seed: int = 0
    batch_size: int = 32
    hidden: int = 512


@dataclass
class MLPModel:
    w1: np.ndarray  # (hidden, dim)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (3, hidden)
    b2: np.ndarray  # (3,)

    @property
    def dim(self) -> int:
        return self.w1.shape[1]

    def parameters(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


def init_mlp(dim: int, hidden: int = 512, seed: int = 0) -> MLPModel:
    """Uniform +-1/sqrt(fan_in) weight init, zero biases, seeded."""
    rng = np.random.default_rng(seed)
    return MLPModel(
        w1=rng.uniform(-1.0, 1.0, size=(hidden, dim)) / np.sqrt(dim),
        b1=np.zeros(hidden),
        w2=rng.uniform(-1.0, 1.0, size=(3, hidden)) / np.sqrt(hidden),
        b2=np.zeros(3),
    )


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def mlp_probabilities(model: MLPModel, x: np.ndarray) -> np.ndarray:
    """Class probabilities; rows sum to one."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.dim:
        raise EvaluationError(f"input dim {x.shape[1]} does not match model dim {model.dim}")
    h = np.tanh(x @ model.w1.T + model.b1)
    return _softmax(h @ model.w2.T + model.b2)


def mlp_loss_and_grads(
    model: MLPModel, x: np.ndarray, y: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy and its analytic gradients."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    n = x.shape[0]
    h = np.tanh(x @ model.w1.T + model.b1)
    probs = _softmax(h @ model.w2.T + model.b2)
    loss = float(-np.log(np.clip(probs[np.arange(n), y], 1e-300, None)).mean())
    dlogits = probs.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    dh = dlogits @ model.w2
    dpre = dh * (1.0 - h**2)
    grads = {
        "w1": dpre.T @ x,
        "b1": dpre.sum(axis=0),
        "w2": dlogits.T @ h,
        "b2": dlogits.sum(axis=0),
    }
    return loss, grads


def mlp_train(
    train_items: Sequence,
    sentence_embeddings: Mapping[str, np.ndarray],
    hyper: Optional[MLPHyper] = None,
) -> MLPModel:
    """Train with minibatch Adam on cross-entropy; fully seed-determined.

    ``sentence_embeddings`` maps item id to its sentence vector (the
    reference configuration uses 384 dimensions). Zero epochs returns the
    initialization untouched.
    """
    hyper = hyper or MLPHyper()
    unlabeled = [it.id for it in train_items if it.label is None]
    if unlabeled:
        raise EvaluationError(f"training items must be labeled, e.g. {unlabeled[:3]}")
    try:
        x = np.stack([np.asarray(sentence_embeddings[it.id], dtype=np.float64) for it in train_items])
    except KeyError as exc:
        raise EvaluationError(f"missing sentence embedding for item {exc}") from None
    y = np.array([int(it.label) for it in train_items], dtype=np.int64)
    if x.ndim != 2:
        raise EvaluationError("sentence embeddings must be vectors of a common dimension")
    if not np.all(np.isfinite(x)):
        raise EvaluationError("sentence embeddings contain non-finite values")

    rng = np.random.default_rng(hyper.seed)
    model = init_mlp(x.shape[1], hidden=hyper.hidden, seed=hyper.seed)
    params = model.parameters()
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(v) for k, v in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    n = x.shape[0]
    batch = max(1, min(hyper.batch_size, n))

    for epoch in range(hyper.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch):
            idx = perm[start : start + batch]
            loss, grads = mlp_loss_and_grads(model, x[idx], y[idx])
            if not np.isfinite(loss):
                raise MLPDivergenceError(
                    f"non-finite loss {loss!r} at epoch {epoch}, step {step}"
                )
            step += 1
            for key, grad in grads.items():
                m[key] = beta1 * m[key] + (1 - beta1) * grad
                v[key] = beta2 * v[key] + (1 - beta2) * grad**2
                m_hat = m[key] / (1 - beta1**step)
                v_hat = v[key] / (1 - beta2**step)
                params[key] -= hyper.lr * m_hat / (np.sqrt(v_hat) + eps)
    return model


def mlp_predict(model: MLPModel, sentence_embedding: np.ndarray) -> Ideology:
    """Argmax class; exact ties resolve in label order (Liberal first)."""
    probs = mlp_probabilities(model, sentence_embedding)[0]
    return Ideology(int(np.argmax(probs)))


def mlp_accuracy(model: MLPModel, items: Sequence, sentence_embeddings: Mapping[str, np.ndarray]) -> float:
    x = np.stack([np.asarray(sentence_embeddings[it.id], dtype=np.float64) for it in items])
    y = np.array([int(it.label) for it in items], dtype=np.int64)
    preds = np.argmax(mlp_probabilities(model, x), axis=1)
    return float((preds == y).mean())
