"""Token and sentence embeddings behind a pluggable provider interface.

The coverage math never talks to a model runtime: it consumes
:class:`TokenEmbeddingSet` values produced here. Providers must be
deterministic (same text, same vectors). Three kinds ship:

- ``precomputed_file``: a JSONL file of records keyed by (id, fields_hash)
- ``http_service``: POST {"text": ...} to an embedding endpoint
- ``hashed``: in-process, hash-seeded random token vectors; no model, no
  network, fully deterministic across processes. Useful for offline runs,
  demos, and tests.

A filesystem cache stores one file per (id, fields_hash, provider): a JSON
header line, then the vectors as raw little-endian float64.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import queue
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .corpus import ContentItem, _json_object, _replace_file, _typed
from .llm import _ConnectionPool, _retry
from .prompting import FieldConfig, render_fields_text

logger = logging.getLogger(__name__)

NORM_TOLERANCE = 1e-4
_HTTP_TIMEOUT_S = 30.0  # per request to an embedding service
_HTTP_RETRIES = 3


class EmbeddingError(ValueError):
    """Raised for malformed embeddings or violated embedding invariants."""


class DimensionMismatchError(EmbeddingError):
    """Provider returned vectors of a different dimension than declared."""


class ProviderUnreachableError(RuntimeError):
    """The embedding service failed a request, after any retries."""


def l2_normalize(vectors: np.ndarray) -> np.ndarray:
    """Normalize rows (or a single vector) to unit L2 norm."""
    arr = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(arr, axis=-1, keepdims=True)
    if np.any(norms < 1e-12):
        raise EmbeddingError("cannot normalize a zero vector")
    return arr / norms


@dataclass
class TokenEmbeddingSet:
    """Per-item token vectors plus one sentence vector, every one L2-normalized."""

    item_id: str
    dim: int
    token_vectors: np.ndarray
    sentence_vector: np.ndarray

    def __post_init__(self) -> None:
        self.token_vectors = np.asarray(self.token_vectors, dtype=np.float64)
        self.sentence_vector = np.asarray(self.sentence_vector, dtype=np.float64)
        if self.token_vectors.ndim != 2 or self.token_vectors.shape[0] < 1:
            raise EmbeddingError(f"{self.item_id}: need at least one token vector")
        if self.token_vectors.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"{self.item_id}: token vectors have dim {self.token_vectors.shape[1]}, "
                f"expected {self.dim}"
            )
        if self.sentence_vector.shape != (self.dim,):
            raise DimensionMismatchError(
                f"{self.item_id}: sentence vector has shape {self.sentence_vector.shape}, "
                f"expected ({self.dim},)"
            )
        norms = np.linalg.norm(self.token_vectors, axis=1)
        if not np.all(np.abs(norms - 1.0) <= NORM_TOLERANCE):  # NaN fails too
            raise EmbeddingError(f"{self.item_id}: token vectors are not L2-normalized")
        if not abs(np.linalg.norm(self.sentence_vector) - 1.0) <= NORM_TOLERANCE:
            raise EmbeddingError(f"{self.item_id}: sentence vector is not L2-normalized")

    @classmethod
    def from_raw(cls, item_id: str, dim: int, tokens, sentence) -> "TokenEmbeddingSet":
        """Build from possibly unnormalized vectors, normalizing locally; the
        constructor checks them against the expected ``dim``."""
        try:
            tokens = l2_normalize(np.atleast_2d(np.asarray(tokens, dtype=np.float64)))
            sentence = l2_normalize(np.asarray(sentence, dtype=np.float64))
        except EmbeddingError as exc:
            raise EmbeddingError(f"{item_id}: {exc}") from None
        return cls(item_id=item_id, dim=dim, token_vectors=tokens, sentence_vector=sentence)

    @property
    def n_tokens(self) -> int:
        return self.token_vectors.shape[0]

    def to_record(self, fields_hash: str) -> dict:
        return {
            "id": self.item_id,
            "fields_hash": fields_hash,
            "dim": self.dim,
            "tokens": self.token_vectors.tolist(),
            "sentence": self.sentence_vector.tolist(),
        }


def fields_hash(config: FieldConfig) -> str:
    """Stable digest of the field configuration used to render the text.

    Part of every cache key, so changing the field configuration can
    never surface embeddings computed for a different one.
    """
    return hashlib.sha256(f"fields:{config.key()}".encode("utf-8")).hexdigest()[:12]


def _provider_key(provider) -> str:
    """Stable digest of what decides a provider's vectors: kind, spec and dim.

    Part of every cache file name, so a cache directory never hands one
    provider's vectors to another.
    """
    kind = getattr(provider, "kind", type(provider).__qualname__)
    spec = getattr(provider, "spec", "")
    return hashlib.sha256(f"provider:{kind}\n{spec}\n{provider.dim}".encode("utf-8")).hexdigest()[:12]


_TOKEN_RE = re.compile(r"[a-z0-9]+")


class HashedProvider:
    """Deterministic in-process provider: one fixed random unit vector per
    distinct lowercase token, seeded from a hash of the token itself.

    Not a semantic embedder. Items sharing words share token vectors,
    which is exactly what coverage selection needs to be exercised
    offline and reproducibly.
    """

    kind = "hashed"
    spec = "hashed"
    in_process = True  # embed_many fetches on its calling thread

    def __init__(self, dim: int = 64):
        if dim < 2:
            raise ValueError("dim must be at least 2")
        self.dim = dim
        self._token_cache: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()

    def _token_vector(self, token: str) -> np.ndarray:
        with self._lock:
            vec = self._token_cache.get(token)
        if vec is not None:
            return vec
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "little"))
        vec = rng.standard_normal(self.dim)
        vec /= np.linalg.norm(vec)
        with self._lock:
            self._token_cache[token] = vec
        return vec

    def fetch(self, item_id: str, fields_hash: str, text: str):
        tokens = _TOKEN_RE.findall(text.lower())
        if not tokens:
            raise EmbeddingError(f"{item_id}: text tokenized to nothing")
        token_vecs = np.stack([self._token_vector(t) for t in tokens])
        mean = token_vecs.mean(axis=0)
        if np.linalg.norm(mean) < 1e-12:
            mean = token_vecs[0]
        return token_vecs, mean


_REPLY_KEYS = ("dim", "tokens", "sentence")
_FILE_RECORD_KEYS = ("id", "fields_hash") + _REPLY_KEYS


def _embedding_record(data: bytes, where: str, keys: tuple[str, ...], dim: int) -> dict:
    """One embedding record: a JSON object holding every one of ``keys``,
    whose ids are strings and whose ``dim`` is a JSON integer equal to
    ``dim``, with ``tokens`` and ``sentence`` converted to float64 arrays.
    A malformed record raises :class:`EmbeddingError` prefixed with ``where``.
    """
    record = _json_object(data, where, EmbeddingError)
    missing = [key for key in keys if key not in record]
    if missing:
        raise EmbeddingError(f"{where}: missing {', '.join(missing)}")
    try:
        for key in keys[:-2]:  # id, fields_hash and dim; the arrays are checked below
            _typed(record[key], int if key == "dim" else str, key)
    except ValueError as exc:
        raise EmbeddingError(f"{where}: {exc}") from None
    if record["dim"] != dim:
        raise DimensionMismatchError(f"{where}: declares dim {record['dim']}, provider expects {dim}")
    for key in ("tokens", "sentence"):
        try:
            array = np.asarray(record[key])
        except ValueError:  # ragged nesting
            array = None
        if array is None or array.dtype.kind not in "iuf":
            raise EmbeddingError(f"{where}: {key} is not an array of numbers")
        record[key] = array.astype(np.float64, copy=False)
    return record


class PrecomputedFileProvider:
    """Embeddings read from a JSONL file of (id, fields_hash) records.

    Every record is checked and converted to arrays when the file is loaded,
    so a bad line fails at once, naming the file and the line. ``spec``
    names the resolved path and a digest of the file's bytes, so a file
    regenerated at the same path never serves the old file's cached vectors.
    """

    kind = "precomputed_file"
    in_process = True  # embed_many fetches on its calling thread

    def __init__(self, path, dim: int):
        self.dim = dim
        self.path = Path(path)
        self._vectors: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
        digest = hashlib.sha256()
        with open(self.path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                digest.update(line)
                if not line.strip():
                    continue
                record = _embedding_record(line, f"{self.path}: line {lineno}", _FILE_RECORD_KEYS, dim)
                self._vectors[record["id"], record["fields_hash"]] = (record["tokens"], record["sentence"])
        self.spec = f"file:{self.path.resolve()}:{digest.hexdigest()[:16]}"

    def fetch(self, item_id: str, fields_hash: str, text: str):
        try:
            return self._vectors[item_id, fields_hash]
        except KeyError:
            raise EmbeddingError(
                f"no precomputed embedding for id={item_id!r} fields_hash={fields_hash!r}"
            ) from None


class HttpProvider:
    """Embeddings fetched from an HTTP service: POST {"text": ...}.

    The response body mirrors a precomputed-file record minus the ids:
    {"dim": int, "tokens": [[...], ...], "sentence": [...]}. Connections
    are kept alive in one pool that the workers of :func:`embed_many` share.
    The URL, proxy route and CA bundle are fixed and checked when the
    provider is made, so a bad one raises ``ValueError`` here. Each request
    times out after ``_HTTP_TIMEOUT_S`` and is retried up to ``_HTTP_RETRIES``
    times.
    """

    kind = "http_service"

    def __init__(self, url: str, dim: int):
        self.url = url
        self.spec = url
        self.dim = dim
        self._pool = _ConnectionPool(url, _HTTP_TIMEOUT_S)

    def fetch(self, item_id: str, fields_hash: str, text: str):
        raw, _, error = _retry(lambda: self._pool.post({"text": text}), _HTTP_RETRIES, time.sleep)
        if error is not None:
            raise ProviderUnreachableError(f"{self.url}: {error}") from error
        # a malformed reply is not retried: the same request fails again
        body = _embedding_record(raw, f"{self.url}: reply for {item_id!r}", _REPLY_KEYS, self.dim)
        return body["tokens"], body["sentence"]

    def close(self) -> None:
        """Close the provider's idle connections; a later fetch opens new ones."""
        self._pool.close()


class EmbeddingCache:
    """Filesystem cache, one file per (id, fields_hash, provider).

    An entry is one JSON header line (id, fields_hash, dim, n_tokens), then
    the token rows and the sentence row as raw little-endian float64. An
    entry whose header does not parse, whose id, fields_hash or dim differ
    from the lookup's, or whose body is not exactly (n_tokens + 1) * dim * 8
    bytes is treated as a miss, evicted, and logged; a hit still passes the
    :class:`TokenEmbeddingSet` checks. Access is internally synchronized; writes are atomic
    (write-then-rename). :func:`embed_many` calls ``get`` and ``put`` on its
    calling thread only; only the fetches of a provider that is not
    ``in_process`` run on its workers.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def _path(self, item_id: str, fields_hash: str, provider) -> Path:
        safe_id = hashlib.sha256(item_id.encode("utf-8")).hexdigest()[:20]
        return self.directory / f"{safe_id}-{fields_hash}-{_provider_key(provider)}.f64"

    def get(self, item_id: str, fields_hash: str, provider) -> Optional[TokenEmbeddingSet]:
        path = self._path(item_id, fields_hash, provider)
        with self._lock:
            try:
                with open(path, "rb") as fh:
                    header = json.loads(fh.readline())
                    dim = _typed(header["dim"], int, "dim")
                    if (header["id"], header["fields_hash"], dim) != (item_id, fields_hash, provider.dim):
                        raise EmbeddingError("cache entry key mismatch")
                    shape = (_typed(header["n_tokens"], int, "n_tokens") + 1, provider.dim)
                    size = os.fstat(fh.fileno()).st_size - fh.tell()
                    if size != shape[0] * shape[1] * 8:
                        raise EmbeddingError(f"body is {size} bytes, header needs {shape} float64")
                    vectors = np.empty(shape, dtype="<f8")
                    if fh.readinto(vectors) != size:
                        raise EmbeddingError("cache entry shrank while read")
                return TokenEmbeddingSet(item_id, provider.dim, vectors[:-1], vectors[-1])
            except FileNotFoundError:
                return None
            except (ValueError, LookupError, TypeError) as exc:
                logger.warning("evicting corrupt cache entry %s: %s", path.name, exc)
                path.unlink(missing_ok=True)
                return None

    def put(self, embedding: TokenEmbeddingSet, fields_hash: str, provider) -> None:
        path = self._path(embedding.item_id, fields_hash, provider)
        header = {
            "id": embedding.item_id,
            "fields_hash": fields_hash,
            "dim": embedding.dim,
            "n_tokens": embedding.n_tokens,
        }
        chunks = (
            json.dumps(header, sort_keys=True).encode("utf-8") + b"\n",
            np.ascontiguousarray(embedding.token_vectors, dtype="<f8"),
            np.ascontiguousarray(embedding.sentence_vector, dtype="<f8"),
        )
        with self._lock:
            _replace_file(path, chunks)


def embed_item(item: ContentItem, fields: FieldConfig, provider) -> TokenEmbeddingSet:
    """Fetch one item's rendered field text from the provider; no cache is
    consulted (:func:`embed_many` is the one path through the cache).

    Vectors are normalized locally regardless of what the provider
    returns. Special/padding tokens are the provider's responsibility to
    exclude; none of the shipped providers emit them.
    """
    tokens, sentence = provider.fetch(item.id, fields_hash(fields), render_fields_text(item, fields))
    return TokenEmbeddingSet.from_raw(item.id, provider.dim, tokens, sentence)


def embed_many(
    items: Iterable[ContentItem],
    fields: FieldConfig,
    provider,
    cache: Optional[EmbeddingCache] = None,
    max_workers: int = 8,
) -> dict[str, TokenEmbeddingSet]:
    """Embed items with bounded fetch fan-out; returns id -> embedding in input order.

    The calling thread looks every item up in the cache, in input order.
    Each miss is fetched through :func:`embed_item` and written to the cache
    by the calling thread as soon as it is made, so a later failure never
    loses a fetch already made. A provider whose ``in_process`` attribute is
    true (the hashed and precomputed-file providers) computes under the GIL,
    so its misses are fetched on the calling thread, in input order: threads
    would add nothing but their start-up and a malloc arena each. For any
    other provider, up to ``max_workers`` threads pull the misses from one
    shared iterator. The first failure, of a fetch or of a cache write, stops
    every fetch not yet started and is re-raised.
    """
    if max_workers < 1:
        raise ValueError(f"max_workers must be at least 1, got {max_workers}")
    items = list(items)
    fh = fields_hash(fields)
    embeddings: list[Optional[TokenEmbeddingSet]] = [
        cache.get(item.id, fh, provider) if cache is not None else None for item in items
    ]
    misses = [(index, item) for index, item in enumerate(items) if embeddings[index] is None]

    def store(index: int, embedding: TokenEmbeddingSet) -> None:
        embeddings[index] = embedding
        if cache is not None:
            cache.put(embedding, fh, provider)

    if getattr(provider, "in_process", False):
        for index, item in misses:
            store(index, embed_item(item, fields, provider))
    else:
        _fan_out(misses, lambda item: embed_item(item, fields, provider), max_workers, store)
    return {item.id: embedding for item, embedding in zip(items, embeddings)}


def _fan_out(misses: list, fetch, max_workers: int, store) -> None:
    """``store(index, fetch(item))`` for each (index, item) of ``misses``, with
    the fetches on up to ``max_workers`` threads and every ``store`` on the
    calling thread, as each result arrives through a queue. The first failure,
    of a fetch or of a store, stops every worker before its next fetch and is
    re-raised once they exit."""
    pending = iter(misses)
    lock = threading.Lock()
    stop = threading.Event()
    results: queue.SimpleQueue = queue.SimpleQueue()

    def work() -> None:
        while not stop.is_set():
            with lock:
                index, item = next(pending, (None, None))
            if item is None:
                break
            try:
                outcome = fetch(item)
            except BaseException as exc:
                stop.set()
                outcome = exc
            results.put((index, outcome))
        results.put(None)  # this worker is done

    workers = [threading.Thread(target=work) for _ in range(min(max_workers, len(misses)))]
    for worker in workers:
        worker.start()
    failure: Optional[BaseException] = None
    try:
        live = len(workers)
        while live:
            result = results.get()
            if result is None:
                live -= 1
                continue
            index, outcome = result
            if isinstance(outcome, BaseException):
                if failure is None:
                    failure = outcome
                continue
            try:
                store(index, outcome)
            except BaseException as exc:
                stop.set()
                if failure is None:
                    failure = exc
    finally:
        stop.set()
        for worker in workers:
            worker.join()
    if failure is not None:
        raise failure


def load_provider(spec: str, dim: int):
    """Build a provider from a CLI-style spec string.

    "hashed", "file:<path>", or "http:<url>" (also accepts full
    http(s):// URLs directly).
    """
    if spec == "hashed":
        return HashedProvider(dim=dim)
    if spec.startswith("file:"):
        return PrecomputedFileProvider(spec[len("file:") :], dim=dim)
    if spec.startswith("http://") or spec.startswith("https://"):
        return HttpProvider(spec, dim=dim)
    if spec.startswith("http:"):
        return HttpProvider(spec[len("http:") :], dim=dim)
    raise ValueError(f"unknown embedding provider spec: {spec!r}")
