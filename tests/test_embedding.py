import json
import re
import sys
import threading
import time

import numpy as np
import pytest

from ideolab.corpus import ContentItem, Ideology
from ideolab.coverage import bsr
from ideolab.embedding import (
    DimensionMismatchError,
    EmbeddingCache,
    EmbeddingError,
    HashedProvider,
    HttpProvider,
    PrecomputedFileProvider,
    ProviderUnreachableError,
    TokenEmbeddingSet,
    embed_item,
    embed_many,
    fields_hash,
    load_provider,
)
from ideolab.prompting import FieldConfig

from conftest import FakeEndpoint

TITLE = FieldConfig()
TITLE_SOURCE = FieldConfig(include_source=True)


def item(item_id="a", title="budget vote delayed again", source="Metro Daily"):
    return ContentItem(id=item_id, title=title, source=source, label=Ideology.NEUTRAL)


class StubProvider:
    """Returns fixed raw vectors; lets tests control normalization and dim."""

    def __init__(self, tokens, sentence, dim):
        self.tokens = np.asarray(tokens, dtype=np.float64)
        self.sentence = np.asarray(sentence, dtype=np.float64)
        self.dim = dim

    def fetch(self, item_id, fields_hash, text):
        return self.tokens, self.sentence


class TestTokenEmbeddingSet:
    def test_rejects_unnormalized_rows(self):
        with pytest.raises(EmbeddingError):
            TokenEmbeddingSet("x", 2, np.array([[2.0, 0.0]]), np.array([1.0, 0.0]))

    def test_rejects_nan_rows(self):
        with pytest.raises(EmbeddingError, match="not L2-normalized"):
            TokenEmbeddingSet.from_raw("x", 2, [[np.nan, 1.0]], [1.0, 0.0])

    def test_rejects_unnormalized_sentence(self):
        with pytest.raises(EmbeddingError, match="x: sentence vector is not L2-normalized"):
            TokenEmbeddingSet("x", 2, [[1.0, 0.0]], [3.0, 4.0])

    def test_rejects_nan_sentence_naming_the_item(self):
        with pytest.raises(EmbeddingError, match="item-7: sentence vector is not L2-normalized"):
            TokenEmbeddingSet.from_raw("item-7", 2, [[1.0, 0.0]], [np.nan, 1.0])

    def test_rejects_empty_tokens(self):
        with pytest.raises(EmbeddingError):
            TokenEmbeddingSet("x", 2, np.zeros((0, 2)), np.array([1.0, 0.0]))

    def test_from_raw_normalizes(self):
        ts = TokenEmbeddingSet.from_raw("x", 2, [[2.0, 0.0], [0.0, -3.0]], [1.0, 1.0])
        assert np.allclose(np.linalg.norm(ts.token_vectors, axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(ts.sentence_vector), 1.0, atol=1e-12)


class TestHashedProvider:
    def test_deterministic_across_instances(self):
        a = embed_item(item(), TITLE, HashedProvider(dim=16))
        b = embed_item(item(), TITLE, HashedProvider(dim=16))
        assert np.array_equal(a.token_vectors, b.token_vectors)
        assert np.array_equal(a.sentence_vector, b.sentence_vector)

    def test_shared_words_share_vectors(self):
        provider = HashedProvider(dim=16)
        a = embed_item(item("a", "alpha beta"), TITLE, provider)
        b = embed_item(item("b", "beta gamma"), TITLE, provider)
        assert np.allclose(a.token_vectors[1], b.token_vectors[0])

    def test_empty_tokenization(self):
        with pytest.raises(EmbeddingError, match="tokenized to nothing"):
            embed_item(item(title="!!!"), TITLE, HashedProvider(dim=16))


class TestEmbedItem:
    def test_unnormalized_provider_output_normalized(self):
        provider = StubProvider([[2.0, 0.0, 0.0]], [0.0, 4.0, 0.0], dim=3)
        ts = embed_item(item(), TITLE, provider)
        assert abs(np.linalg.norm(ts.token_vectors[0]) - 1.0) <= 1e-4
        assert abs(np.linalg.norm(ts.sentence_vector) - 1.0) <= 1e-4

    def test_dim_mismatch(self):
        provider = StubProvider([[1.0, 0.0]], [1.0, 0.0], dim=3)
        with pytest.raises(DimensionMismatchError):
            embed_item(item(), TITLE, provider)

    @pytest.mark.parametrize(
        "tokens, sentence", [([], [1.0, 0.0]), (np.zeros((0, 2)), [1.0, 0.0]), ([[1.0, 0.0]], [0.0, 0.0])]
    )
    def test_unusable_provider_output_names_the_item(self, tokens, sentence):
        with pytest.raises(EmbeddingError, match="^a: "):
            embed_item(item(), TITLE, StubProvider(tokens, sentence, dim=2))

    def test_embed_many_covers_all_items(self):
        items = [item(f"i{n}", f"title {n} words") for n in range(9)]
        out = embed_many(items, TITLE, HashedProvider(dim=8), max_workers=4)
        assert set(out) == {it.id for it in items}

    def test_embed_many_drops_queued_items_after_a_failure(self):
        max_workers = 8
        calls = []
        lock = threading.Lock()
        all_started = threading.Event()

        class Down:
            dim = 8

            def fetch(self, item_id, fields_hash, text):
                with lock:
                    calls.append(item_id)
                    if len(calls) == max_workers:
                        all_started.set()
                # fail only once every worker holds an item, so none is idle
                all_started.wait(timeout=5)
                raise ProviderUnreachableError(f"service down at {item_id}")

        items = [item(f"i{n}") for n in range(45)]
        with pytest.raises(ProviderUnreachableError, match="service down"):
            embed_many(items, TITLE, Down(), max_workers=max_workers)
        # each worker fetches once; no fetch starts after the first failure
        assert len(calls) == max_workers

    def test_embed_many_keeps_input_order(self):
        provider = HashedProvider(dim=8)

        class LaterFirst:
            dim = 8

            def fetch(self, item_id, fields_hash, text):
                # early items finish last
                time.sleep(0.002 * (12 - int(item_id[1:])))
                return provider.fetch(item_id, fields_hash, text)

        items = [item(f"i{n}", f"title {n} words") for n in range(12)]
        out = embed_many(items, TITLE, LaterFirst(), max_workers=4)
        assert list(out) == [it.id for it in items]
        for it in items:
            assert np.array_equal(out[it.id].token_vectors, embed_item(it, TITLE, provider).token_vectors)

    @pytest.mark.parametrize("items", [[], [item()]])
    def test_embed_many_rejects_no_workers(self, items):
        with pytest.raises(ValueError, match="max_workers"):
            embed_many(items, TITLE, HashedProvider(dim=8), max_workers=0)


class CountingProvider:
    """HashedProvider that records each fetched id and can fail on one."""

    def __init__(self, dim=8, fail_on=None):
        self.inner = HashedProvider(dim=dim)
        self.dim = dim
        self.fail_on = fail_on
        self.fetched = []

    def fetch(self, item_id, fields_hash, text):
        self.fetched.append(item_id)
        if item_id == self.fail_on:
            raise ProviderUnreachableError(f"service down at {item_id}")
        return self.inner.fetch(item_id, fields_hash, text)


class TestEmbedManyCache:
    ITEMS = [item(f"i{n}", f"title {n} words") for n in range(12)]

    def test_cache_io_runs_on_the_calling_thread(self, tmp_path):
        threads = []
        fetch_threads = []

        class Recording(EmbeddingCache):
            def get(self, *args):
                threads.append(threading.get_ident())
                return super().get(*args)

            def put(self, *args):
                threads.append(threading.get_ident())
                return super().put(*args)

        class Hashed(HashedProvider):
            def fetch(self, *args):
                fetch_threads.append(threading.get_ident())
                return super().fetch(*args)

        cache = Recording(tmp_path)
        embed_many(self.ITEMS[::2], TITLE, Hashed(dim=8), cache, max_workers=4)
        embed_many(self.ITEMS, TITLE, Hashed(dim=8), cache, max_workers=4)
        # 6 cold gets and puts, then 12 gets of which 6 miss and are put
        assert len(threads) == 6 + 6 + 12 + 6
        assert set(threads) == {threading.get_ident()}
        # an in-process provider starts no thread: its 12 misses are fetched here
        assert fetch_threads == [threading.get_ident()] * 12

    def test_precomputed_file_fetches_on_the_calling_thread(self, tmp_path):
        hashed = HashedProvider(dim=8)
        path = tmp_path / "emb.jsonl"
        records = [embed_item(it, TITLE, hashed).to_record(fields_hash(TITLE)) for it in self.ITEMS]
        path.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
        fetched = []

        class Recording(PrecomputedFileProvider):
            def fetch(self, item_id, *args):
                fetched.append((item_id, threading.get_ident()))
                return super().fetch(item_id, *args)

        cache = EmbeddingCache(tmp_path / "cache")
        out = embed_many(self.ITEMS, TITLE, Recording(path, dim=8), cache, max_workers=4)
        assert list(out) == [it.id for it in self.ITEMS]
        assert fetched == [(it.id, threading.get_ident()) for it in self.ITEMS]

    def test_fetches_before_a_failure_are_cached(self, tmp_path):
        # one worker thread, then the calling thread of an in-process provider
        for in_process in (False, True):
            cache = EmbeddingCache(tmp_path / f"in_process_{in_process}")
            provider = CountingProvider(fail_on="i5")
            provider.in_process = in_process
            with pytest.raises(ProviderUnreachableError, match="i5"):
                embed_many(self.ITEMS, TITLE, provider, cache, max_workers=1)
            assert provider.fetched == [f"i{n}" for n in range(6)]
            cached = [cache.get(it.id, fields_hash(TITLE), provider) is not None for it in self.ITEMS]
            assert cached == [True] * 5 + [False] * 7

    def test_hits_are_not_fetched_and_misses_once(self, tmp_path):
        items = [item(f"i{n}", f"title {n} words") for n in range(90)]
        cache = EmbeddingCache(tmp_path)
        provider = CountingProvider()
        embed_many(items[::3], TITLE, provider, cache, max_workers=4)
        provider.fetched.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # more workers than cores, switching threads as often as possible
            out = embed_many(items, TITLE, provider, cache, max_workers=8)
        finally:
            sys.setswitchinterval(interval)
        misses = [it.id for n, it in enumerate(items) if n % 3]
        assert sorted(provider.fetched) == sorted(misses)
        assert list(out) == [it.id for it in items]
        assert all(cache.get(it.id, fields_hash(TITLE), provider) is not None for it in items)

    def test_cached_results_equal_uncached(self, tmp_path):
        provider = HashedProvider(dim=8)
        cache = EmbeddingCache(tmp_path)
        fresh = embed_many(self.ITEMS, TITLE, provider, max_workers=4)
        embed_many(self.ITEMS[1::2], TITLE, provider, cache, max_workers=4)
        mixed = embed_many(self.ITEMS, TITLE, provider, cache, max_workers=4)
        assert list(mixed) == list(fresh) == [it.id for it in self.ITEMS]
        for key, expected in fresh.items():
            assert np.array_equal(mixed[key].token_vectors, expected.token_vectors)
            assert np.array_equal(mixed[key].sentence_vector, expected.sentence_vector)

    def test_failing_put_stops_fetches_and_is_reraised(self, tmp_path):
        put_failed = threading.Event()

        class Full(EmbeddingCache):
            def put(self, *args):
                put_failed.set()
                raise OSError("disk full")

        class Slow(CountingProvider):
            def fetch(self, item_id, fields_hash, text):
                if item_id != "i0":
                    # the fetch in flight when the first put fails
                    put_failed.wait(timeout=5)
                    time.sleep(0.05)
                return super().fetch(item_id, fields_hash, text)

        provider = Slow()
        with pytest.raises(OSError, match="disk full"):
            embed_many(self.ITEMS, TITLE, provider, Full(tmp_path), max_workers=1)
        assert provider.fetched == ["i0", "i1"]


class TestFieldsHash:
    def test_differs_by_config(self):
        assert fields_hash(TITLE) != fields_hash(TITLE_SOURCE)

    def test_stable(self):
        assert fields_hash(TITLE) == fields_hash(FieldConfig())


class TestCache:
    def test_round_trip_within_1e6(self, tmp_path):
        cache = EmbeddingCache(tmp_path)
        provider = HashedProvider(dim=32)
        original = embed_many([item()], TITLE, provider, cache)["a"]
        cached = cache.get("a", fields_hash(TITLE), provider)
        assert cached is not None
        assert np.max(np.abs(cached.token_vectors - original.token_vectors)) <= 1e-6
        assert np.max(np.abs(cached.sentence_vector - original.sentence_vector)) <= 1e-6

    def test_round_trip_bit_exact(self, tmp_path):
        cache = EmbeddingCache(tmp_path)
        provider = HashedProvider(dim=32)
        original = embed_many([item()], TITLE, provider, cache)["a"]
        cached = cache.get("a", fields_hash(TITLE), provider)
        assert np.array_equal(cached.token_vectors, original.token_vectors)
        assert np.array_equal(cached.sentence_vector, original.sentence_vector)

    def test_cold_cache_misses(self, tmp_path):
        assert EmbeddingCache(tmp_path).get("nope", "abc", HashedProvider(dim=8)) is None

    def test_corrupt_entry_evicted(self, tmp_path, caplog):
        cache = EmbeddingCache(tmp_path)
        provider = HashedProvider(dim=8)
        embed_many([item()], TITLE, provider, cache)
        (path,) = list(tmp_path.iterdir())
        path.write_bytes(path.read_bytes()[:40])
        with caplog.at_level("WARNING"):
            assert cache.get("a", fields_hash(TITLE), provider) is None
        assert "corrupt" in caplog.text
        assert not path.exists()

    @pytest.mark.parametrize(
        "corrupt, reason",
        [
            (lambda raw, other: raw[: -8 * 8], "body is"),
            (lambda raw, other: raw + bytes(8 * 8), "body is"),
            (lambda raw, other: other, "key mismatch"),
            (lambda raw, other: b"\xff\x00 not a header\n" + raw.split(b"\n", 1)[1], ""),
            (lambda raw, other: re.sub(rb'"n_tokens": (\d+)', rb'"n_tokens": "\1"', raw, count=1), "n_tokens must"),
            (lambda raw, other: re.sub(rb'"n_tokens": (\d+)', rb'"n_tokens": \1.0', raw, count=1), "n_tokens must"),
            (lambda raw, other: re.sub(rb'"dim": (\d+)', rb'"dim": "\1"', raw, count=1), "dim must"),
            (lambda raw, other: re.sub(rb'"dim": (\d+)', rb'"dim": \1.0', raw, count=1), "dim must"),
        ],
        ids=[
            "one_row_short", "one_row_long", "another_items_entry", "unreadable_header", "n_tokens_string",
            "n_tokens_float", "dim_string", "dim_float",
        ],
    )
    def test_bad_entry_evicted(self, tmp_path, caplog, corrupt, reason):
        cache = EmbeddingCache(tmp_path)
        provider = HashedProvider(dim=8)
        embed_many([item()], TITLE, provider, cache)
        (path,) = list(tmp_path.iterdir())
        other_dir = tmp_path / "other"
        embed_many([item("b", "budget vote passes")], TITLE, provider, EmbeddingCache(other_dir))
        (other,) = list(other_dir.iterdir())
        path.write_bytes(corrupt(path.read_bytes(), other.read_bytes()))
        with caplog.at_level("WARNING"):
            assert cache.get("a", fields_hash(TITLE), provider) is None
        assert "corrupt" in caplog.text
        assert reason in caplog.text
        assert not path.exists()

    def test_no_cross_config_contamination(self, tmp_path):
        cache = EmbeddingCache(tmp_path)
        provider = HashedProvider(dim=8)
        embed_many([item()], TITLE, provider, cache)
        assert cache.get("a", fields_hash(TITLE_SOURCE), provider) is None

    def test_bsr_from_cache_matches_fresh(self, tmp_path):
        cache = EmbeddingCache(tmp_path)
        provider = HashedProvider(dim=16)
        q_fresh = embed_item(item("q", "alpha beta gamma"), TITLE, provider)
        d_fresh = embed_many([item("d", "beta gamma delta")], TITLE, provider, cache)["d"]
        d_cached = cache.get("d", fields_hash(TITLE), provider)
        assert abs(bsr(q_fresh, d_cached) - bsr(q_fresh, d_fresh)) <= 1e-5

    def test_concurrent_same_key_access(self, tmp_path):
        cache = EmbeddingCache(tmp_path)
        provider = HashedProvider(dim=8)
        reference = embed_item(item(), TITLE, provider)
        errors = []

        def worker():
            try:
                for _ in range(25):
                    cache.put(reference, fields_hash(TITLE), provider)
                    got = cache.get("a", fields_hash(TITLE), provider)
                    if got is not None and not np.array_equal(got.token_vectors, reference.token_vectors):
                        errors.append("mismatch")
            except Exception as exc:  # pragma: no cover
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []


class TestCacheKnowsProvider:
    def fetch_counting(self, monkeypatch, cls):
        fetched = []
        fetch = cls.fetch

        def counted(self, item_id, *args):
            fetched.append(item_id)
            return fetch(self, item_id, *args)

        monkeypatch.setattr(cls, "fetch", counted)
        return fetched

    def test_other_dim_refetches(self, tmp_path, monkeypatch):
        items = [item(f"i{j}", f"budget vote {j}") for j in range(4)]
        cache = EmbeddingCache(tmp_path)
        embed_many(items, TITLE, HashedProvider(dim=64), cache)
        fetched = self.fetch_counting(monkeypatch, HashedProvider)
        out = embed_many(items, TITLE, HashedProvider(dim=32), cache)
        assert sorted(fetched) == ["i0", "i1", "i2", "i3"]
        assert {e.dim for e in out.values()} == {32}
        fetched.clear()
        again = embed_many(items, TITLE, HashedProvider(dim=32), cache)
        assert fetched == []
        assert all(np.array_equal(again[i].token_vectors, out[i].token_vectors) for i in out)

    def test_other_provider_of_same_dim_refetches(self, tmp_path, monkeypatch):
        ts = TokenEmbeddingSet.from_raw("a", 4, np.eye(4)[:2], np.eye(4)[0])
        path = tmp_path / "emb.jsonl"
        path.write_text(json.dumps(ts.to_record(fields_hash(TITLE))) + "\n", encoding="utf-8")
        cache = EmbeddingCache(tmp_path / "cache")
        hashed = embed_many([item()], TITLE, HashedProvider(dim=4), cache)["a"]
        fetched = self.fetch_counting(monkeypatch, PrecomputedFileProvider)
        got = embed_many([item()], TITLE, PrecomputedFileProvider(path, dim=4), cache)["a"]
        assert fetched == ["a"]
        assert np.array_equal(got.token_vectors, ts.token_vectors)
        assert not np.array_equal(got.token_vectors, hashed.token_vectors)

    def test_regenerated_file_refetches(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        cache = EmbeddingCache(tmp_path / "cache")

        def write(vector):
            ts = TokenEmbeddingSet.from_raw("a", 4, [vector], vector)
            path.write_text(json.dumps(ts.to_record(fields_hash(TITLE))) + "\n", encoding="utf-8")

        write([1.0, 0.0, 0.0, 0.0])
        embed_many([item()], TITLE, PrecomputedFileProvider(path, dim=4), cache)
        write([0.0, 1.0, 0.0, 0.0])
        got = embed_many([item()], TITLE, PrecomputedFileProvider(path, dim=4), cache)["a"]
        assert np.array_equal(got.token_vectors, [[0.0, 1.0, 0.0, 0.0]])

    def test_entry_without_provider_in_its_name_is_a_miss(self, tmp_path, monkeypatch):
        cache = EmbeddingCache(tmp_path)
        provider = HashedProvider(dim=8)
        embed_many([item()], TITLE, provider, cache)
        (path,) = list(tmp_path.iterdir())
        # the file name an entry had before the provider joined the key
        path.rename(path.with_name(path.name.rsplit("-", 1)[0] + ".json"))
        fetched = self.fetch_counting(monkeypatch, HashedProvider)
        embed_many([item()], TITLE, provider, cache)
        assert fetched == ["a"]

    def test_old_json_entry_is_an_untouched_miss(self, tmp_path, monkeypatch):
        cache = EmbeddingCache(tmp_path)
        provider = HashedProvider(dim=8)
        original = embed_many([item()], TITLE, provider, cache)["a"]
        (path,) = list(tmp_path.iterdir())
        path.unlink()
        # a valid entry of the JSON-text format, under its old file name
        old = path.with_suffix(".json")
        old.write_text(json.dumps(original.to_record(fields_hash(TITLE)), sort_keys=True) + "\n", encoding="utf-8")
        before = old.read_bytes()
        assert cache.get("a", fields_hash(TITLE), provider) is None
        fetched = self.fetch_counting(monkeypatch, HashedProvider)
        embed_many([item()], TITLE, provider, cache)
        assert fetched == ["a"]
        assert old.read_bytes() == before

class TestPrecomputedFile:
    def write_file(self, tmp_path, dim=4, declared=None):
        ts = TokenEmbeddingSet.from_raw("a", dim, np.eye(dim)[:2], np.eye(dim)[0])
        record = ts.to_record(fields_hash(TITLE))
        record["dim"] = declared or dim
        path = tmp_path / "emb.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        return path

    def test_fetch(self, tmp_path):
        path = self.write_file(tmp_path)
        provider = PrecomputedFileProvider(path, dim=4)
        ts = embed_item(item(), TITLE, provider)
        assert ts.dim == 4

    def test_declared_dim_mismatch(self, tmp_path):
        path = self.write_file(tmp_path, dim=4, declared=512)
        with pytest.raises(DimensionMismatchError):
            PrecomputedFileProvider(path, dim=4)

    def test_missing_id(self, tmp_path):
        path = self.write_file(tmp_path)
        provider = PrecomputedFileProvider(path, dim=4)
        with pytest.raises(EmbeddingError, match="no precomputed"):
            embed_item(item("other"), TITLE, provider)


REPLY = {"dim": 4, "tokens": [[1, 0, 0, 0]], "sentence": [1, 0, 0, 0]}
BAD_REPLIES = [
    (b"[1, 2]", "expected a JSON object"),
    (b'{"dim": 4, "tokens": "caf\xe9"}', "not UTF-8 at byte 25 (invalid continuation byte)"),
] + [
    (json.dumps({k: v for k, v in REPLY.items() if k != key}).encode(), f"missing {key}") for key in REPLY
] + [
    (json.dumps(dict(REPLY, **{key: value})).encode(), reason)
    for key, value, reason in [
        ("dim", None, "dim must be a JSON integer, got null"),
        ("dim", 4.7, "dim must be a JSON integer, got 4.7"),
        ("dim", True, "dim must be a JSON integer, got true"),
        ("dim", "4", 'dim must be a JSON integer, got "4"'),
        ("tokens", [[1, 0, 0, 0], [1, 0]], "tokens is not an array of numbers"),
        ("sentence", [1, "x", 0, 0], "sentence is not an array of numbers"),
    ]
]


@pytest.fixture
def make_provider():
    """HttpProvider factory whose providers' connections close at teardown."""
    providers = []

    def make(url, dim=4):
        providers.append(HttpProvider(url, dim))
        return providers[-1]

    yield make
    for provider in providers:
        provider.close()


class TestHttpProvider:
    def test_wire_format(self, embed_endpoint, make_provider):
        ts = embed_item(item(), TITLE, make_provider(embed_endpoint))
        assert ts.dim == 4
        assert FakeEndpoint.requests_seen[0]["body"] == {"text": "budget vote delayed again"}

    def test_dim_mismatch_from_service(self, embed_endpoint, make_provider):
        provider = make_provider(embed_endpoint, dim=8)
        with pytest.raises(DimensionMismatchError):
            embed_item(item(), TITLE, provider)

    def test_broken_body_is_retried(self, embed_endpoint, make_provider, monkeypatch):
        FakeEndpoint.behavior = ["truncated", "ok"]
        monkeypatch.setattr("ideolab.embedding.time.sleep", lambda _: None)
        tokens, _ = make_provider(embed_endpoint).fetch("a", "fh", "text")
        assert tokens.shape == (2, 4)
        assert len(FakeEndpoint.requests_seen) == 2

    def test_undecodable_body_is_not_retried(self, embed_endpoint, make_provider, monkeypatch):
        FakeEndpoint.behavior = ["notjson", "ok"]
        sleeps = []
        monkeypatch.setattr("ideolab.embedding.time.sleep", sleeps.append)
        with pytest.raises(ValueError):
            make_provider(embed_endpoint).fetch("a", "fh", "text")
        assert len(FakeEndpoint.requests_seen) == 1
        assert sleeps == []

    @pytest.mark.parametrize("reply,reason", BAD_REPLIES, ids=[reason for _, reason in BAD_REPLIES])
    def test_malformed_reply_is_not_retried_and_names_the_url(
        self, embed_endpoint, make_provider, monkeypatch, reply, reason
    ):
        FakeEndpoint.behavior = [reply, "ok"]
        sleeps = []
        monkeypatch.setattr("ideolab.embedding.time.sleep", sleeps.append)
        with pytest.raises(EmbeddingError, match=re.escape(f"{embed_endpoint}: reply for 'a': {reason}")):
            make_provider(embed_endpoint).fetch("a", "fh", "text")
        assert len(FakeEndpoint.requests_seen) == 1
        assert sleeps == []

    def test_rate_limit_honours_retry_after(self, embed_endpoint, make_provider, monkeypatch):
        FakeEndpoint.behavior = ["429:0", "ok"]
        sleeps = []
        monkeypatch.setattr("ideolab.embedding.time.sleep", sleeps.append)
        tokens, _ = make_provider(embed_endpoint).fetch("a", "fh", "text")
        assert tokens.shape == (2, 4)
        assert len(FakeEndpoint.requests_seen) == 2
        assert sleeps == [0.0]

    @pytest.mark.parametrize("fault", ["500", "drop"])
    def test_server_error_or_dropped_connection_is_retried(self, embed_endpoint, make_provider, monkeypatch, fault):
        FakeEndpoint.behavior = [fault, "ok"]
        sleeps = []
        monkeypatch.setattr("ideolab.embedding.time.sleep", sleeps.append)
        tokens, _ = make_provider(embed_endpoint).fetch("a", "fh", "text")
        assert tokens.shape == (2, 4)
        assert len(FakeEndpoint.requests_seen) == 2
        assert len(sleeps) == 1

    def test_connection_is_kept_alive_across_fetches(self, embed_endpoint, make_provider):
        provider = make_provider(embed_endpoint)
        for text in ("a", "b", "c"):
            provider.fetch(text, "fh", text)
        assert len(FakeEndpoint.requests_seen) == 3
        assert len({seen["port"] for seen in FakeEndpoint.requests_seen}) == 1

    def test_connection_closed_by_the_server_is_replaced_before_use(self, embed_endpoint, make_provider, monkeypatch):
        FakeEndpoint.behavior = ["close"]
        sleeps = []
        monkeypatch.setattr("ideolab.embedding.time.sleep", sleeps.append)
        provider = make_provider(embed_endpoint)
        for text in ("a", "b", "c"):
            tokens, _ = provider.fetch(text, "fh", text)
            assert tokens.shape == (2, 4)
            assert FakeEndpoint.closed.acquire(timeout=10)
        assert len(FakeEndpoint.requests_seen) == 3
        assert len({seen["port"] for seen in FakeEndpoint.requests_seen}) == 3
        assert sleeps == []

    def test_client_error_is_not_retried(self, embed_endpoint, make_provider, monkeypatch):
        FakeEndpoint.behavior = ["404", "ok"]
        sleeps = []
        monkeypatch.setattr("ideolab.embedding.time.sleep", sleeps.append)
        with pytest.raises(ProviderUnreachableError, match="HTTP 404"):
            make_provider(embed_endpoint).fetch("a", "fh", "text")
        assert len(FakeEndpoint.requests_seen) == 1
        assert sleeps == []

    # {addr} is the live embedding endpoint, so a request that got out would be seen
    @pytest.mark.parametrize(
        "url", ["{addr}/embed", "http://", "ftp://{addr}/embed", "http://127.0.0.1:port", "http://{addr}/a b"]
    )
    def test_malformed_url_is_refused_when_the_provider_is_made(self, embed_endpoint, url):
        url = url.format(addr=embed_endpoint.removeprefix("http://").removesuffix("/embed"))
        with pytest.raises(ValueError, match=re.escape(f"invalid URL {url!r}")):
            HttpProvider(url, dim=4)
        with pytest.raises(ValueError, match=re.escape(f"invalid URL {url!r}")):
            load_provider("http:" + url, 4)
        assert FakeEndpoint.requests_seen == []

    def test_unreachable_raises_after_retries(self, make_provider, monkeypatch):
        sleeps = []
        monkeypatch.setattr("ideolab.embedding.time.sleep", sleeps.append)
        with pytest.raises(ProviderUnreachableError):
            make_provider("http://127.0.0.1:9").fetch("a", "fh", "text")
        assert len(sleeps) == 3


def test_load_provider_specs(tmp_path):
    assert isinstance(load_provider("hashed", 8), HashedProvider)
    with pytest.raises(ValueError):
        load_provider("magic", 8)
