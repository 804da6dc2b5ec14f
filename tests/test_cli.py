import argparse
import dataclasses
import functools
import gc
import json
import re
import time
import weakref
from pathlib import Path

import pytest

from ideolab import cli, coverage, embedding
from ideolab.cli import _build_parser, derive_seed, main
from ideolab.config import RunConfig
from ideolab.corpus import ContentItem, Ideology, write_dataset
from ideolab.coverage import PoolEntry
from ideolab.embedding import HashedProvider
from ideolab.prompting import FIELD_GRID, FieldConfig, instruction_for
from ideolab.synthetic import synthetic_corpus

from conftest import FakeEndpoint


@pytest.fixture
def corpus_files(tmp_path):
    train, test = synthetic_corpus(45, 12, seed=5)
    train_path = tmp_path / "train.jsonl"
    test_path = tmp_path / "test.jsonl"
    write_dataset(train, train_path)
    write_dataset(test, test_path)
    return train_path, test_path


def base_flags(out):
    return [
        "--label-scheme",
        "direct",
        "--embed-provider",
        "hashed",
        "--embed-dim",
        "16",
        "--seed",
        "3",
        "--out",
        str(out),
    ]


def provider_flags(out, spec, dim="4"):
    """``base_flags`` with ``spec`` as the embedding provider, at ``dim``."""
    flags = base_flags(out)
    flags[flags.index("hashed")] = spec
    flags[flags.index("16")] = dim
    return flags


def run_pipeline(train_path, test_path, out, k="4", select="balanced", mock="echo_majority"):
    flags = base_flags(out)
    assert main(["pool", "--train-dataset", str(train_path), "--pool-size", "24", "--probe-size", "30"] + flags) == 0
    assert (
        main(
            [
                "classify",
                "--dataset",
                str(test_path),
                "--train-dataset",
                str(train_path),
                "--k",
                k,
                "--select",
                select,
                "--mock",
                mock,
            ]
            + flags
        )
        == 0
    )
    assert main(["eval"] + flags) == 0


class TestPipeline:
    def test_artifacts_exist_and_are_stamped(self, corpus_files, tmp_path):
        train_path, test_path = corpus_files
        out = tmp_path / "run"
        run_pipeline(train_path, test_path, out)
        predictions = (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
        header = json.loads(predictions[0])
        assert header["kind"] == "predictions"
        config_hash = header["config_hash"]
        assert all(json.loads(line)["config_hash"] == config_hash for line in predictions[1:])
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["config_hash"] == config_hash
        assert report["n"] == 12
        trace_lines = (out / "selection_trace.jsonl").read_text(encoding="utf-8").splitlines()
        assert json.loads(trace_lines[0])["config_hash"] == config_hash
        assert len(trace_lines) == 1 + 12
        trace = json.loads(trace_lines[1])
        assert set(trace) == {"query_id", "k", "members", "skipped", "fallback_used"}
        effective = json.loads((out / "effective_config.json").read_text(encoding="utf-8"))
        assert effective["k"] == 4

    def test_run_eval_returns_the_report_it_wrote(self, corpus_files, tmp_path):
        train_path, test_path = corpus_files
        out = tmp_path / "run"
        run_pipeline(train_path, test_path, out)
        report = cli.run_eval(RunConfig(seed=3, out=str(out)), out / "predictions.jsonl")
        assert report.to_json_dict() == json.loads((out / "report.json").read_text(encoding="utf-8"))

    def test_ingest_validates_and_labels(self, tmp_path):
        data = tmp_path / "raw.jsonl"
        data.write_text(
            '{"id":"a","title":"t","score":-0.5}\n{"id":"b","title":"u","score":0.9}\n',
            encoding="utf-8",
        )
        out = tmp_path / "ing"
        code = main(
            ["ingest", "--dataset", str(data), "--label-scheme", "youtube_slant", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "ingest_summary.json").read_text(encoding="utf-8"))
        assert summary["label_counts"]["liberal"] == 1
        assert summary["label_counts"]["conservative"] == 1
        ingested = (out / "ingested.jsonl").read_text(encoding="utf-8").splitlines()
        assert json.loads(ingested[0])["label"] == "liberal"

    def test_embed_fills_the_cache_of_an_http_provider(self, corpus_files, tmp_path, embed_endpoint):
        train_path, _ = corpus_files
        cache_dir = tmp_path / "cache"
        flags = provider_flags(tmp_path / "out", embed_endpoint)
        assert main(["embed", "--dataset", str(train_path), "--cache-dir", str(cache_dir)] + flags) == 0
        assert len(list(cache_dir.glob("*.f64"))) == 45
        assert len(FakeEndpoint.requests_seen) == 45

    @pytest.mark.parametrize("spec", ["hashed", "file"])
    def test_embed_refuses_an_in_process_provider(self, corpus_files, tmp_path, capsys, spec):
        train_path, _ = corpus_files
        cache_dir = tmp_path / "cache"
        if spec == "file":
            path = tmp_path / "emb.jsonl"
            path.write_text(json.dumps(EMBEDDING_RECORD) + "\n", encoding="utf-8")
            spec = f"file:{path}"
        flags = provider_flags(tmp_path / "out", spec)
        code = main(["embed", "--dataset", str(train_path), "--cache-dir", str(cache_dir)] + flags)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CliError: ")
        assert len(err.strip().splitlines()) == 1
        assert repr(spec) in err
        assert not cache_dir.exists()

    def test_zero_shot_needs_no_pool(self, corpus_files, tmp_path, monkeypatch):
        _, test_path = corpus_files
        out = tmp_path / "zs"
        flags = base_flags(out)
        built = []
        monkeypatch.setattr(cli, "load_provider", lambda *args: built.append(args))
        code = main(
            ["classify", "--dataset", str(test_path), "--k", "0", "--mock", "fixed:neutral"] + flags
        )
        assert code == 0
        assert built == []
        lines = (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 12
        assert all(json.loads(line)["pred"] == "neutral" for line in lines[1:])

    def test_random_selection_mode(self, corpus_files, tmp_path, monkeypatch):
        train_path, test_path = corpus_files
        out = tmp_path / "rand"
        built = []
        load_provider = cli.load_provider
        monkeypatch.setattr(cli, "load_provider", lambda *args: built.append(args) or load_provider(*args))
        run_pipeline(train_path, test_path, out, select="random")
        assert len(built) == 1  # the pool command's; random selection embeds nothing
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert 0.0 <= report["accuracy"] <= 1.0

    def test_dump_prompts(self, corpus_files, tmp_path):
        train_path, test_path = corpus_files
        out = tmp_path / "dp"
        flags = base_flags(out)
        assert main(["pool", "--train-dataset", str(train_path), "--pool-size", "24"] + flags) == 0
        code = main(
            [
                "classify",
                "--dataset",
                str(test_path),
                "--train-dataset",
                str(train_path),
                "--k",
                "3",
                "--mock",
                "echo_majority",
                "--dump-prompts",
            ]
            + flags
        )
        assert code == 0
        lines = (out / "prompts.jsonl").read_text(encoding="utf-8").splitlines()
        rows = [json.loads(line) for line in lines[1:]]
        assert len(rows) == 12
        assert all("Classify the following news article titles" in row["prompt"] for row in rows)
        assert all(row["prompt"].count("Ideology: ") == 3 for row in rows)

    def test_chat_turns_under_a_tight_budget_over_http(self, tmp_path, monkeypatch, fake_endpoint):
        train = [
            ContentItem("t1", "Senate passes climate bill", description="Lawmakers voted late Friday.",
                        label=Ideology.LIBERAL),
            ContentItem("t2", "Tax cuts lift small firms", description="Owners credit the new policy.",
                        label=Ideology.CONSERVATIVE),
            ContentItem("t3", "Council approves bus routes", description="Service starts next month.",
                        label=Ideology.NEUTRAL),
        ]
        query = ContentItem("q1", "Governor signs budget", description="The plan passed both chambers.",
                            label=Ideology.NEUTRAL)
        write_dataset(train, tmp_path / "train.jsonl")
        write_dataset([query], tmp_path / "test.jsonl")
        # the whole flat prompt is 618 chars, so the last demonstration's description loses 10
        config = {
            "dataset": str(tmp_path / "test.jsonl"), "train_dataset": str(tmp_path / "train.jsonl"),
            "label_scheme": "direct", "fields": "title-desc", "k": 3, "embed_provider": "hashed",
            "embed_dim": 16, "chat_turns": True, "char_budget": 608, "out": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        monkeypatch.setenv("LLM_BASE_URL", fake_endpoint)
        assert main(["pool", "--config", str(cfg_path)]) == 0
        assert main(["classify", "--config", str(cfg_path)]) == 0
        assert [seen["body"]["messages"] for seen in FakeEndpoint.requests_seen] == [[
            {"role": "system", "content": instruction_for(FieldConfig.from_key("title-desc"))},
            {"role": "user", "content": "Title: Council approves bus routes\nDescription: Service starts next month."},
            {"role": "assistant", "content": "Ideology: Neutral"},
            {"role": "user", "content": "Title: Tax cuts lift small firms\nDescription: Owners credit the new policy."},
            {"role": "assistant", "content": "Ideology: Conservative"},
            {"role": "user", "content": "Title: Senate passes climate bill\nDescription: Lawmakers voted la"},
            {"role": "assistant", "content": "Ideology: Liberal"},
            {"role": "user", "content": "Title: Governor signs budget\nDescription: The plan passed both chambers."},
        ]]
        predictions = (tmp_path / "out" / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["parse_status"] for line in predictions[1:]] == ["ok"]


class TestCompare:
    def test_self_comparison(self, corpus_files, tmp_path, capsys):
        train_path, test_path = corpus_files
        out = tmp_path / "run"
        run_pipeline(train_path, test_path, out)
        predictions = str(out / "predictions.jsonl")
        assert main(["compare", "--a", predictions, "--b", predictions]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["statistic"] == 0.0
        assert payload["p"] == 1.0
        assert payload["stars"] == ""
        assert payload["pair"][0] == payload["pair"][1]


class TestAblate:
    def test_sixteen_reports(self, corpus_files, tmp_path):
        train_path, test_path = corpus_files
        out = tmp_path / "grid"
        flags = base_flags(out)
        assert main(["pool", "--train-dataset", str(train_path), "--pool-size", "24"] + flags) == 0
        code = main(
            [
                "ablate",
                "--dataset",
                str(test_path),
                "--train-dataset",
                str(train_path),
                "--mock",
                "echo_majority",
            ]
            + flags
        )
        assert code == 0
        summary = json.loads((out / "ablation_summary.json").read_text(encoding="utf-8"))
        assert len(summary["cells"]) == 16
        assert {(c["k"], c["fields"]) for c in summary["cells"]} == {
            (k, f)
            for k in (0, 4, 8, 12)
            for f in ("title", "title-source", "title-desc", "title-source-desc")
        }
        for cell in summary["cells"]:
            assert Path(cell["report"]).exists()
        # per-cell hashes must differ (different k/fields)
        assert len({c["config_hash"] for c in summary["cells"]}) == 16


class TestEmbeddingCache:
    @staticmethod
    def ablate_runs(corpus_files, tmp_path, flags, runs, fetched):
        """Build one pool, then ``ablate`` against it once per (name, extra
        flags) of ``runs``; returns name -> (each cell's predictions and
        selection trace by path, the fetches the run appended to ``fetched``)."""
        train_path, test_path = corpus_files
        pool_dir = tmp_path / "pool"
        assert main(["pool", "--train-dataset", str(train_path), "--pool-size", "24"] + flags(pool_dir)) == 0
        results = {}
        for run, extra in runs:
            out = tmp_path / run
            fetched.clear()
            argv = [
                "ablate", "--dataset", str(test_path), "--train-dataset", str(train_path),
                "--pool-file", str(pool_dir / "pool.jsonl"), "--mock", "nearest_demo",
            ]
            assert main(argv + flags(out) + extra) == 0
            artifacts = {
                path.relative_to(out).as_posix(): path.read_bytes()
                for name in ("predictions.jsonl", "selection_trace.jsonl")
                for path in out.glob(f"*/{name}")
            }
            assert len(artifacts) == 2 * 16
            results[run] = artifacts, len(fetched)
        return results

    def test_in_process_provider_never_touches_the_cache(self, corpus_files, tmp_path, monkeypatch):
        fetched = []
        fetch = HashedProvider.fetch

        def counted_fetch(self, *args):
            fetched.append(args[0])
            return fetch(self, *args)

        monkeypatch.setattr(HashedProvider, "fetch", counted_fetch)
        cache = ["--cache-dir", str(tmp_path / "cache")]
        runs = [("cold", cache), ("warm", cache), ("uncached", [])]
        results = self.ablate_runs(corpus_files, tmp_path, base_flags, runs, fetched)
        cold = results["cold"][0]
        assert results == {run: (cold, len(FIELD_GRID) * (24 + 12)) for run, _ in runs}
        assert not (tmp_path / "cache").exists()

    def test_warm_http_run_sends_no_embedding_request(self, corpus_files, tmp_path, embed_endpoint):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        runs = [("cold", cache), ("warm", cache)]
        flags = functools.partial(provider_flags, spec=embed_endpoint)
        results = self.ablate_runs(corpus_files, tmp_path, flags, runs, FakeEndpoint.requests_seen)
        expected = len(FIELD_GRID) * (24 + 12)
        assert results == {"cold": (results["cold"][0], expected), "warm": (results["cold"][0], 0)}
        assert len(list((tmp_path / "cache").glob("*.f64"))) == expected


def ablate_flags(train_path, test_path, out):
    flags = ["--dataset", str(test_path), "--train-dataset", str(train_path), "--mock", "echo_majority"]
    return ["ablate"] + flags + base_flags(out)


class TestOneLoadPerRun:
    def test_ablate_loads_once_and_orders_once_per_field_configuration(self, corpus_files, tmp_path, monkeypatch):
        train_path, test_path = corpus_files
        out = tmp_path / "grid"
        assert main(["pool", "--train-dataset", str(train_path), "--pool-size", "24"] + base_flags(out)) == 0
        calls = {"load": 0, "order": 0, "provider": 0, "fetch": []}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        fetch = HashedProvider.fetch

        def counted_fetch(self, *args):
            calls["fetch"].append(args[0])  # list.append is atomic; embed_many fetches on threads
            return fetch(self, *args)

        monkeypatch.setattr(cli, "load_dataset", counted("load", cli.load_dataset))
        monkeypatch.setattr(cli, "order_for_query", counted("order", cli.order_for_query))
        monkeypatch.setattr(cli, "load_provider", counted("provider", cli.load_provider))
        monkeypatch.setattr(HashedProvider, "fetch", counted_fetch)
        assert main(ablate_flags(train_path, test_path, out)) == 0
        assert calls["load"] == 2
        assert calls["order"] == len(FIELD_GRID) * 12
        assert calls["provider"] == 1
        assert len(calls["fetch"]) == len(FIELD_GRID) * (24 + 12)

    @pytest.mark.parametrize("command", ["classify", "ablate"])
    def test_one_ordering_alive_at_a_time(self, corpus_files, tmp_path, monkeypatch, command):
        train_path, test_path = corpus_files
        out = tmp_path / command
        assert main(["pool", "--train-dataset", str(train_path), "--pool-size", "24"] + base_flags(out)) == 0
        refs, alive = [], []
        order_for_query = cli.order_for_query

        def guarded(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))
            ordering = order_for_query(*args, **kwargs)
            refs.append(weakref.ref(ordering))
            return ordering

        monkeypatch.setattr(cli, "order_for_query", guarded)
        if command == "classify":
            argv = ["classify", "--dataset", str(test_path), "--train-dataset", str(train_path), "--k", "4",
                    "--mock", "echo_majority"] + base_flags(out)
        else:
            argv = ablate_flags(train_path, test_path, out)
        assert main(argv) == 0
        assert len(refs) == (12 if command == "classify" else len(FIELD_GRID) * 12)
        assert max(alive) <= 1


class TestOneClientPerRun:
    @pytest.fixture
    def counted_clients(self, monkeypatch):
        """Count the LLM clients the command line builds and closes; the
        subclass keeps no reference to its instances."""
        counts = {"built": 0, "closed": 0}

        class CountedClient(cli.ChatCompletionsClient):
            def __init__(self, cfg):
                super().__init__(cfg)
                counts["built"] += 1

            def close(self):
                counts["closed"] += 1
                super().close()

        monkeypatch.setattr(cli, "ChatCompletionsClient", CountedClient)
        return counts

    def test_ablate_over_http_builds_one_client_and_closes_it(
        self, corpus_files, tmp_path, monkeypatch, fake_endpoint, counted_clients
    ):
        train_path, test_path = corpus_files
        out = tmp_path / "grid"
        assert main(["pool", "--train-dataset", str(train_path), "--pool-size", "24"] + base_flags(out)) == 0
        monkeypatch.setenv("LLM_BASE_URL", fake_endpoint)
        argv = ["ablate", "--dataset", str(test_path), "--train-dataset", str(train_path)] + base_flags(out)
        assert main(argv) == 0
        assert counted_clients == {"built": 1, "closed": 1}
        statuses = [
            json.loads(line)["parse_status"]
            for path in out.glob("*/predictions.jsonl")
            for line in path.read_text(encoding="utf-8").splitlines()[1:]
        ]
        assert statuses == ["ok"] * 16 * 12
        # connections outlive a cell: no more are opened than requests are in flight
        assert len({seen["port"] for seen in FakeEndpoint.requests_seen}) <= 4

    def test_mock_run_builds_no_client(self, corpus_files, tmp_path, counted_clients):
        train_path, test_path = corpus_files
        out = tmp_path / "grid"
        assert main(["pool", "--train-dataset", str(train_path), "--pool-size", "24"] + base_flags(out)) == 0
        assert main(ablate_flags(train_path, test_path, out)) == 0
        assert counted_clients == {"built": 0, "closed": 0}


class TestOneProviderPerRun:
    @pytest.fixture
    def counted_providers(self, monkeypatch):
        """Count the HTTP embedding providers the command line builds and
        closes; the subclass keeps no reference to its instances."""
        counts = {"built": 0, "closed": 0}

        class CountedProvider(embedding.HttpProvider):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                counts["built"] += 1

            def close(self):
                counts["closed"] += 1
                super().close()

        monkeypatch.setattr(embedding, "HttpProvider", CountedProvider)
        return counts

    @pytest.mark.parametrize("command", ["embed", "pool", "classify"])
    def test_http_provider_is_closed_when_the_run_ends(
        self, corpus_files, tmp_path, embed_endpoint, counted_providers, command
    ):
        train_path, test_path = corpus_files
        flags = base_flags(tmp_path / "out")
        flags[flags.index("hashed")] = embed_endpoint
        flags[flags.index("16")] = "4"
        pool = ["pool", "--train-dataset", str(train_path), "--pool-size", "24"]
        # the runs, and the texts they embed: 45 training items, then 24 pool members and 12 queries
        runs, texts = {
            "embed": ([["embed", "--dataset", str(train_path), "--cache-dir", str(tmp_path / "cache")]], 45),
            "pool": ([pool], 45),
            "classify": ([pool, ["classify", "--dataset", str(test_path), "--train-dataset", str(train_path),
                                 "--k", "4", "--mock", "nearest_demo"]], 45 + 24 + 12),
        }[command]
        for argv in runs:
            assert main(argv + flags) == 0
        assert counted_providers == {"built": len(runs), "closed": len(runs)}
        assert len(FakeEndpoint.requests_seen) == texts

    def test_http_provider_is_closed_when_the_run_fails(
        self, corpus_files, tmp_path, embed_endpoint, counted_providers
    ):
        train_path, _ = corpus_files
        FakeEndpoint.behavior = ["404", "ok"]
        flags = base_flags(tmp_path / "out")
        flags[flags.index("hashed")] = embed_endpoint
        flags[flags.index("16")] = "4"
        assert main(["pool", "--train-dataset", str(train_path)] + flags) == 1
        assert counted_providers == {"built": 1, "closed": 1}
        assert not (tmp_path / "out").exists()


EMBEDDING_RECORD = {"id": "a", "fields_hash": "fh", "dim": 4, "tokens": [[1, 0, 0, 0]], "sentence": [1, 0, 0, 0]}
BAD_EMBEDDING_LINES = [
    ('{"id": "a", "dim', "malformed JSON"),
    ("[1, 2]", "expected a JSON object"),
    ('{"id": "caf\udce9"}', "not UTF-8 at byte 11 (invalid continuation byte)"),
] + [
    (json.dumps({k: v for k, v in EMBEDDING_RECORD.items() if k != key}), f"missing {key}")
    for key in EMBEDDING_RECORD
] + [
    (json.dumps(dict(EMBEDDING_RECORD, **{key: value})), reason)
    for key, value, reason in [
        ("id", ["a"], "id must be a string"),
        ("fields_hash", 7, "fields_hash must be a string"),
        ("dim", None, "dim must be a JSON integer, got null"),
        ("dim", 4.7, "dim must be a JSON integer, got 4.7"),
        ("dim", True, "dim must be a JSON integer, got true"),
        ("dim", "4", 'dim must be a JSON integer, got "4"'),
        ("tokens", [[1, 0, 0, 0], [1, 0]], "tokens is not an array of numbers"),
        ("sentence", [1, "x", 0, 0], "sentence is not an array of numbers"),
    ]
]


class TestErrors:
    def test_fatal_error_single_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id":"a","title":"t","score":0.1}\n{broken\n', encoding="utf-8")
        code = main(
            ["ingest", "--dataset", str(bad), "--label-scheme", "youtube_slant", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        assert "line 2" in err

    def test_missing_pool_file(self, corpus_files, tmp_path, capsys):
        train_path, test_path = corpus_files
        out = tmp_path / "nopool"
        code = main(
            [
                "classify",
                "--dataset",
                str(test_path),
                "--train-dataset",
                str(train_path),
                "--k",
                "4",
                "--mock",
                "echo_majority",
            ]
            + base_flags(out)
        )
        assert code == 1
        assert "pool" in capsys.readouterr().err

    def test_eval_refuses_mixed_hashes(self, tmp_path, capsys):
        path = tmp_path / "mixed.jsonl"
        rows = [
            {"kind": "predictions", "config": {}, "config_hash": "aaa"},
            {
                "query_id": "q1",
                "gold": "liberal",
                "pred": "liberal",
                "raw_response": "liberal",
                "parse_status": "ok",
                "attempts": 1,
                "config_hash": "aaa",
            },
            {
                "query_id": "q2",
                "gold": "liberal",
                "pred": "liberal",
                "raw_response": "liberal",
                "parse_status": "ok",
                "attempts": 1,
                "config_hash": "bbb",
            },
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        code = main(["eval", "--predictions", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "mixed" in capsys.readouterr().err

    def test_pool_row_without_gain_is_a_clean_exit(self, corpus_files, tmp_path, capsys):
        train_path, test_path = corpus_files
        out = tmp_path / "badpool"
        assert main(["pool", "--train-dataset", str(train_path), "--pool-size", "24"] + base_flags(out)) == 0
        pool_path = out / "pool.jsonl"
        lines = pool_path.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[2])
        del row["gain"]
        lines[2] = json.dumps(row)
        pool_path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
        capsys.readouterr()
        code = main(
            ["classify", "--dataset", str(test_path), "--train-dataset", str(train_path), "--k", "4",
             "--mock", "echo_majority"] + base_flags(out)
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CoverageError: ")
        assert len(err.strip().splitlines()) == 1
        assert str(pool_path) in err and "line 3" in err and "'gain'" in err

    def test_negative_k_is_a_clean_exit(self, corpus_files, tmp_path, capsys):
        _, test_path = corpus_files
        code = main(["classify", "--dataset", str(test_path), "--k", "-1", "--mock", "fixed:neutral"]
                    + base_flags(tmp_path / "neg"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: CliError: --k must be nonnegative")

    def test_prediction_row_without_query_id_is_a_clean_exit(self, tmp_path, capsys):
        path = tmp_path / "preds.jsonl"
        rows = [
            {"kind": "predictions", "config": {}, "config_hash": "aaa"},
            {"gold": "liberal", "pred": "liberal", "parse_status": "ok", "attempts": 1, "config_hash": "aaa"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        code = main(["eval", "--predictions", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CliError: ")
        assert len(err.strip().splitlines()) == 1
        assert str(path) in err and "line 2" in err and "'query_id'" in err

    # a row that is valid JSON but not an object, a truncated row, the same
    # two faults on the header line, a row that is not UTF-8, a header of
    # another kind, and a field of the wrong type or value: each names the
    # file and its line
    BAD_ROWS = [
        (1, "[1, 2]"), (1, '{"kind": "predi'), (3, '"x"'), (3, "[1, 2]"), (3, '{"id": "a", "lab'),
        (3, '{"id": "caf\udce9"}'),
    ]

    BAD_POOL_FIELDS = [
        (3, '{"id": "train-00000", "label": "purple", "rank": 2, "gain": 0.5}'),
        (3, '{"id": "train-00000", "label": "neutral", "rank": 2, "gain": [0.5]}'),
        (3, '{"id": "train-00000", "label": "neutral", "rank": "second", "gain": 0.5}'),
        (3, '{"id": "train-00000", "label": 5, "rank": 2, "gain": 0.5}'),
        (3, '{"id": [1], "label": "neutral", "rank": 2, "gain": 0.5}'),
        (3, '{"id": "train-00000", "label": "neutral", "rank": "2", "gain": 0.5}'),
        (3, '{"id": "train-00000", "label": "neutral", "rank": 1.7, "gain": 0.5}'),
        (3, '{"id": "train-00000", "label": "neutral", "rank": 2, "gain": true}'),
        (3, '{"id": "train-00000", "label": "neutral", "rank": 2, "gain": "0.5"}'),
        (3, '{"id": "train-0", "label": "neutral", "rank": 2, "gain": 0.5}'),
        (1, '{"config_hash": "aaa"}'),
    ]
    BAD_PREDICTION_FIELDS = [
        (3, '{"query_id": "q9", "gold": "purple", "parse_status": "ok", "config_hash": "aaa"}'),
        (3, '{"query_id": "q9", "parse_status": "ok", "attempts": [1], "config_hash": "aaa"}'),
        (3, '{"query_id": "q9", "gold": 5, "parse_status": "ok", "config_hash": "aaa"}'),
        (3, '{"query_id": "q9", "pred": 5, "parse_status": "ok", "config_hash": "aaa"}'),
        (3, '{"query_id": 5, "parse_status": "ok", "config_hash": "aaa"}'),
        (3, '{"query_id": "q9", "gold": 0, "pred": "liberal", "parse_status": "ok", "config_hash": "aaa"}'),
        (3, '{"query_id": "q9", "gold": "liberal", "pred": null, "parse_status": "ok", "config_hash": "aaa"}'),
        (3, '{"query_id": "q9", "gold": "liberal", "pred": "liberal", "parse_status": 7, "config_hash": "aaa"}'),
        (3, '{"query_id": "q9", "gold": "liberal", "pred": "liberal", "parse_status": "ok", "attempts": 2.9}'),
        (3, '{"query_id": "q9", "gold": "liberal", "pred": "liberal", "parse_status": "ok", "attempts": "2"}'),
        (3, '{"query_id": "q9", "gold": "liberal", "pred": "liberal", "parse_status": "ok", "raw_response": 5}'),
        (1, '{"kind": "report", "config_hash": "aaa"}'),
    ]

    @pytest.mark.parametrize("lineno,bad", BAD_ROWS + BAD_POOL_FIELDS)
    def test_malformed_pool_row_is_a_located_clean_exit(self, corpus_files, tmp_path, capsys, lineno, bad):
        train_path, test_path = corpus_files
        out = tmp_path / "badpool"
        out.mkdir()
        header = {"build_config": {"pool_size": 3, "probe_size": 3, "seed": 0}}
        lines = [json.dumps(header)] + [
            json.dumps({"id": f"train-{j}", "label": "neutral", "rank": j + 1, "gain": 0.5}) for j in range(3)
        ]
        lines[lineno - 1] = bad
        pool_path = out / "pool.jsonl"
        pool_path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
        code = main(
            ["classify", "--dataset", str(test_path), "--train-dataset", str(train_path), "--k", "4",
             "--mock", "echo_majority"] + base_flags(out)
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CoverageError: ")
        assert len(err.strip().splitlines()) == 1
        assert f"{pool_path}: line {lineno}:" in err

    def test_ok_prediction_without_pred_is_a_located_clean_exit(self, tmp_path, capsys):
        path = tmp_path / "preds.jsonl"
        rows = [
            {"kind": "predictions", "config": {}, "config_hash": "aaa"},
            {"query_id": "q1", "gold": "liberal", "pred": None, "parse_status": "ok", "config_hash": "aaa"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        assert main(["eval", "--predictions", str(path), "--out", str(tmp_path / "o")]) == 1
        message = "pred must be a label exactly when parse_status is ok, got null"
        assert capsys.readouterr().err == f"error: CliError: {path}: line 2: {message}\n"

    @pytest.mark.parametrize("lineno,bad", BAD_ROWS + BAD_PREDICTION_FIELDS)
    def test_malformed_prediction_row_is_a_located_clean_exit(self, tmp_path, capsys, lineno, bad):
        path = tmp_path / "preds.jsonl"
        row = {"gold": "liberal", "pred": "liberal", "parse_status": "ok", "config_hash": "aaa"}
        lines = [json.dumps({"kind": "predictions", "config": {}, "config_hash": "aaa"})] + [
            json.dumps(dict(row, query_id=f"q{j}")) for j in range(3)
        ]
        lines[lineno - 1] = bad
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
        code = main(["eval", "--predictions", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CliError: ")
        assert len(err.strip().splitlines()) == 1
        assert f"{path}: line {lineno}:" in err

    def test_train_dataset_error_names_its_file(self, corpus_files, tmp_path, capsys):
        _, test_path = corpus_files
        train_path = tmp_path / "bad_train.jsonl"
        rows = ['{"id": "a", "title": "t", "label": "liberal"}', '{"id": "b", "label": "liberal"}']
        train_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(
            ["classify", "--dataset", str(test_path), "--train-dataset", str(train_path), "--k", "4",
             "--mock", "echo_majority"] + base_flags(tmp_path / "o")
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: DatasetError: {train_path}: line 2: missing title for id 'b'\n"

    def test_failed_pool_rewrite_keeps_the_old_pool(self, corpus_files, tmp_path, capsys, monkeypatch):
        train_path, _ = corpus_files
        out = tmp_path / "pool"
        args = ["pool", "--train-dataset", str(train_path), "--pool-size", "24"] + base_flags(out)
        assert main(args) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        class DiskFull:
            @property
            def wire(self):
                raise OSError("No space left on device")

        build = cli.build_candidate_pool

        def build_then_fail_on_row_2(*args, **kwargs):
            pool = build(*args, **kwargs)
            pool.entries.insert(1, PoolEntry("x", DiskFull(), 0.5))
            return pool

        monkeypatch.setattr(cli, "build_candidate_pool", build_then_fail_on_row_2)
        capsys.readouterr()
        assert main(args) == 1
        assert capsys.readouterr().err == "error: OSError: No space left on device\n"
        # the old pool and config, byte for byte, and no temporary file beside them
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_embedding_service_down_is_a_clean_exit(self, corpus_files, tmp_path, capsys, monkeypatch):
        train_path, _ = corpus_files
        monkeypatch.setattr(time, "sleep", lambda _: None)
        flags = base_flags(tmp_path / "down")
        flags[flags.index("hashed")] = "http://127.0.0.1:9"
        code = main(["pool", "--train-dataset", str(train_path)] + flags)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ProviderUnreachableError: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("bad,reason", BAD_EMBEDDING_LINES, ids=[reason for _, reason in BAD_EMBEDDING_LINES])
    def test_malformed_embedding_file_is_a_located_clean_exit(self, corpus_files, tmp_path, capsys, bad, reason):
        train_path, _ = corpus_files
        path = tmp_path / "emb.jsonl"
        path.write_text(json.dumps(EMBEDDING_RECORD) + "\n" + bad + "\n", encoding="utf-8", errors="surrogateescape")
        flags = base_flags(tmp_path / "out")
        flags[flags.index("hashed")] = f"file:{path}"
        flags[flags.index("16")] = "4"
        code = main(["pool", "--train-dataset", str(train_path)] + flags)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: EmbeddingError: ")
        assert len(err.strip().splitlines()) == 1
        assert f"{path}: line 2: {reason}" in err

    # config values of the wrong type, a resample count the bootstrap cannot
    # use, a file holding no object, a file that is not JSON and one that is not UTF-8
    BAD_CONFIGS = [
        (json.dumps({key: value}), key)
        for key, value in [
            ("k", "4"), ("embed_dim", None), ("cot", "false"), ("fields", 3), ("max_in_flight", "2"),
            ("char_budget", None), ("char_budget", 0), ("char_budget", -1), ("bootstrap_resamples", "10"),
            ("bootstrap_resamples", 0), ("bootstrap_resamples", -1), ("label_scheme", ["x"]),
        ]
    ] + [('["k"]', None), ("{k: 4", None), ('{"k": "caf\udce9"}', None)]

    @pytest.mark.parametrize("text,key", BAD_CONFIGS)
    def test_bad_config_value_is_a_clean_exit(self, corpus_files, tmp_path, capsys, text, key):
        train_path, test_path = corpus_files
        out = tmp_path / "grid"
        assert main(["pool", "--train-dataset", str(train_path), "--pool-size", "24"] + base_flags(out)) == 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text, encoding="utf-8", errors="surrogateescape")
        capsys.readouterr()
        assert main(ablate_flags(train_path, test_path, out) + ["--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        assert (key if key is not None else str(cfg_path)) in err
        assert not list(out.glob("k*_*"))  # refused before any cell is written

    @pytest.mark.parametrize("probe_size", ["0", "-3"])
    def test_nonpositive_probe_size_is_a_clean_exit(self, corpus_files, tmp_path, capsys, probe_size):
        train_path, _ = corpus_files
        argv = ["pool", "--train-dataset", str(train_path), "--probe-size", probe_size]
        assert main(argv + base_flags(tmp_path / "out")) == 1
        assert capsys.readouterr().err == f"error: CoverageError: probe size must be positive, got {probe_size}\n"

    def test_pool_over_the_memory_limit_writes_nothing(self, corpus_files, tmp_path, capsys, monkeypatch):
        train_path, _ = corpus_files
        monkeypatch.setattr(coverage, "_memory_limit", lambda: 100_000)
        out = tmp_path / "out"
        assert main(["pool", "--train-dataset", str(train_path)] + base_flags(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CoverageError: pool build needs ")
        assert len(err.strip().splitlines()) == 1
        assert "more than the 100,000 bytes this process can have; --probe-size " in err
        assert not out.exists()

    # a malformed LLM_BASE_URL, a zero timeout against a live endpoint and an
    # https endpoint whose CA bundle is missing, each refused before any work
    @pytest.mark.parametrize("case", ["url", "timeout", "ca_bundle"])
    @pytest.mark.parametrize("command", ["classify", "ablate"])
    def test_bad_endpoint_stops_the_run_before_any_work(
        self, corpus_files, tmp_path, capsys, monkeypatch, fake_endpoint, command, case
    ):
        train_path, test_path = corpus_files
        missing = str(tmp_path / "missing.pem")
        base_url, config, named = {
            "url": ("http//typo.example", {}, "invalid URL 'http//typo.example/v1/chat/completions'"),
            "timeout": (fake_endpoint, {"timeout": 0}, "timeout must be a positive number of seconds, got 0"),
            "ca_bundle": (fake_endpoint.replace("http:", "https:"), {}, f"CA bundle {missing!r} does not load"),
        }[case]
        monkeypatch.setenv("LLM_BASE_URL", base_url)
        if case == "ca_bundle":
            monkeypatch.setenv("REQUESTS_CA_BUNDLE", missing)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        work = []
        monkeypatch.setattr(cli, "load_dataset", lambda *args: work.append("load_dataset"))
        monkeypatch.setattr(cli, "load_provider", lambda *args: work.append("load_provider"))
        out = tmp_path / "out"
        argv = [command, "--dataset", str(test_path), "--train-dataset", str(train_path), "--config", str(cfg_path)]
        argv += ["--k", "4"] if command == "classify" else []
        assert main(argv + base_flags(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: ") and named in err
        assert len(err.strip().splitlines()) == 1
        assert work == [] and not out.exists()
        assert FakeEndpoint.requests_seen == []

    # the LLM settings are checked also when a mock answers
    @pytest.mark.parametrize(
        "config, named",
        [
            ({"timeout": 0}, "timeout must be a positive number of seconds, got 0"),
            ({"timeout": -1}, "timeout must be a positive number of seconds, got -1"),
            ({"max_in_flight": 0}, "max_in_flight must be at least 1"),
            ({"temperature": -1}, "temperature must be nonnegative"),
        ],
    )
    @pytest.mark.parametrize("command", ["classify", "ablate"])
    def test_bad_llm_setting_stops_a_mock_run_before_any_work(
        self, corpus_files, tmp_path, capsys, monkeypatch, command, config, named
    ):
        train_path, test_path = corpus_files
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        work = []
        monkeypatch.setattr(cli, "load_dataset", lambda *args: work.append("load_dataset"))
        out = tmp_path / "out"
        argv = [command, "--dataset", str(test_path), "--train-dataset", str(train_path), "--config", str(cfg_path)]
        argv += ["--mock", "echo_majority"] + (["--k", "4"] if command == "classify" else [])
        assert main(argv + base_flags(out)) == 1
        assert capsys.readouterr().err == f"error: ValueError: {named}\n"
        assert work == [] and not out.exists()

    def test_bad_embedding_url_stops_classify_before_any_work(self, corpus_files, tmp_path, capsys, monkeypatch):
        train_path, test_path = corpus_files
        reads = []
        monkeypatch.setattr(cli, "load_dataset", lambda *args: reads.append(args))
        flags = base_flags(tmp_path / "out")
        flags[flags.index("hashed")] = "http:typo.example"
        argv = ["classify", "--dataset", str(test_path), "--train-dataset", str(train_path), "--k", "4",
                "--mock", "nearest_demo"]
        assert main(argv + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: invalid URL 'typo.example'")
        assert len(err.strip().splitlines()) == 1
        assert reads == [] and not (tmp_path / "out").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dataset": "x.jsonl", "shots": 4}), encoding="utf-8")
        code = main(["ingest", "--config", str(cfg_path)])
        assert code == 1
        assert "shots" in capsys.readouterr().err


class TestConfig:
    def test_hash_ignores_out_dir(self):
        a = RunConfig(dataset="d.jsonl", k=4, out="runs/a")
        b = RunConfig(dataset="d.jsonl", k=4, out="runs/b")
        assert a.config_hash == b.config_hash

    @pytest.mark.parametrize("field, a, b", [("cache_dir", "", "cache"), ("max_in_flight", 4, 1), ("timeout", 30.0, 5.0)])
    def test_hash_ignores_run_only_settings(self, field, a, b):
        base = RunConfig(dataset="d.jsonl", k=4)
        assert base.merged({field: a}).config_hash == base.merged({field: b}).config_hash

    def test_hash_keeps_max_retries(self):
        base = RunConfig(dataset="d.jsonl", k=4)
        assert base.merged({"max_retries": 0}).config_hash != base.merged({"max_retries": 3}).config_hash

    def test_hash_sensitive_to_settings(self):
        a = RunConfig(dataset="d.jsonl", k=4)
        b = RunConfig(dataset="d.jsonl", k=8)
        assert a.config_hash != b.config_hash

    def test_file_plus_flag_overrides(self, tmp_path, corpus_files):
        train_path, test_path = corpus_files
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "dataset": str(test_path),
                    "train_dataset": str(train_path),
                    "label_scheme": "direct",
                    "k": 4,
                    "mock": "echo_majority",
                    "embed_provider": "hashed",
                    "embed_dim": 16,
                    "pool_size": 24,
                    "out": str(tmp_path / "cfgrun"),
                }
            ),
            encoding="utf-8",
        )
        assert main(["pool", "--config", str(cfg_path)]) == 0
        assert main(["classify", "--config", str(cfg_path), "--k", "2"]) == 0
        effective = json.loads((tmp_path / "cfgrun" / "effective_config.json").read_text(encoding="utf-8"))
        assert effective["k"] == 2  # flag overrides file

    def test_every_common_flag_names_a_config_field(self):
        # flags reach RunConfig only through a matching field name
        subparsers = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        ingest = subparsers.choices["ingest"]  # carries the common flags and nothing else
        dests = {a.dest for a in ingest._actions if a.option_strings} - {"help", "config"}
        assert dests
        assert dests <= {f.name for f in dataclasses.fields(RunConfig)}

    # one spelling per field set: another order would hash the same run
    # differently, and a misspelt name would wait for a subcommand to fail
    @pytest.mark.parametrize(
        "fields, message",
        [
            ("desc-title", "config key 'fields' must be written 'title-desc', got 'desc-title'"),
            ("titel", "unknown field name(s) in fields 'titel': ['titel']"),
        ],
    )
    def test_non_canonical_fields_refused(self, tmp_path, capsys, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(fields=fields)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"fields": fields}), encoding="utf-8")
        assert main(["ingest", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"

    def test_derive_seed_stable(self):
        assert derive_seed(3, "q1") == derive_seed(3, "q1")
        assert derive_seed(3, "q1") != derive_seed(3, "q2")
