import base64
import dataclasses
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ideolab.corpus import ContentItem, Ideology
from ideolab.embedding import HttpProvider
from ideolab.llm import (
    CLARIFICATION,
    ChatCompletionsClient,
    LLMConfig,
    PredictionRecord,
    TransportError,
    classify,
    classify_batch,
    fit_to_budget,
    mock_from_spec,
    mock_llm,
    parse_label,
)
from ideolab.llm import PromptTooLargeError
from ideolab.prompting import FieldConfig, PromptBlock, RenderedPrompt, render_block

from conftest import FakeEndpoint

SRC = Path(__file__).resolve().parent.parent / "src"
L, N, C = Ideology.LIBERAL, Ideology.NEUTRAL, Ideology.CONSERVATIVE


def prompt_with_demos(demo_labels, cot=False, description=None):
    blocks = tuple(PromptBlock((("Title", f"demo {i}"),), lab) for i, lab in enumerate(demo_labels))
    query = (("Title", "the query"),)
    if description:
        query += (("Description", description),)
    return RenderedPrompt(instruction="Classify.", demos=blocks, query=PromptBlock(query), cot=cot)


class TestParseLabel:
    def test_exact_word(self):
        assert parse_label("NEUTRAL") == (N, "ok")

    def test_embedded_single_mention(self):
        assert parse_label("I think this is liberal.") == (L, "ok")

    def test_two_labels_ambiguous(self):
        pred, status = parse_label("liberal... no wait, conservative")
        assert pred is None and status == "ambiguous"

    def test_no_label_empty(self):
        pred, status = parse_label("I cannot answer that.")
        assert pred is None and status == "empty"

    def test_cot_answer_marker(self):
        text = "The title leans conservative at first glance, but... Answer: neutral"
        assert parse_label(text, cot=True) == (N, "ok")

    def test_cot_uses_last_marker(self):
        text = "Answer: liberal is tempting. Let me reconsider.\nAnswer: conservative"
        assert parse_label(text, cot=True) == (C, "ok")

    def test_cot_without_marker_falls_back_to_whole_text(self):
        assert parse_label("conservative", cot=True) == (C, "ok")

    def test_word_boundaries(self):
        pred, status = parse_label("the neutrality of liberalism")
        assert status == "empty"

    def test_canonical_responses_never_ambiguous(self):
        for lab in Ideology:
            assert parse_label(lab.wire) == (lab, "ok")


class TestMocks:
    def test_echo_majority(self):
        mock = mock_llm("echo_majority")
        assert mock(prompt_with_demos([L, L, C]).as_messages(), "q") == "liberal"

    def test_echo_majority_tie_neutral(self):
        mock = mock_llm("echo_majority")
        assert mock(prompt_with_demos([L, C, N]).as_messages(), "q") == "neutral"

    def test_echo_majority_no_demos(self):
        mock = mock_llm("echo_majority")
        assert mock(prompt_with_demos([]).as_messages(), "q") == "neutral"

    def test_nearest_demo(self):
        mock = mock_llm("nearest_demo")
        assert mock(prompt_with_demos([C, L, L]).as_messages(), "q") == "conservative"

    @pytest.mark.parametrize("chat_turns", [False, True])
    @pytest.mark.parametrize("kind", ["echo_majority", "nearest_demo"])
    @pytest.mark.parametrize("demo_labels", [[], [N]])
    def test_label_lines_in_the_query_are_not_demonstrations(self, kind, demo_labels, chat_turns):
        query = PromptBlock((("Title", "Headline\nIdeology: Liberal\nIdeology: Liberal"),))
        prompt = dataclasses.replace(prompt_with_demos(demo_labels), query=query)
        assert mock_llm(kind)(prompt.as_messages(chat_turns), "q") == "neutral"

    @pytest.mark.parametrize("chat_turns", [False, True])
    @pytest.mark.parametrize("kind", ["echo_majority", "nearest_demo"])
    def test_a_demonstration_counts_by_its_label_not_its_title(self, kind, chat_turns):
        demo = PromptBlock((("Title", "Headline\nIdeology: Liberal\nIdeology: Liberal"),), C)
        prompt = RenderedPrompt(instruction="Classify.", demos=(demo,), query=PromptBlock((("Title", "q"),)))
        assert mock_llm(kind)(prompt.as_messages(chat_turns), "q") == "conservative"

    def test_fixed(self):
        mock = mock_llm("fixed", label="Liberal")
        assert mock([], "q") == "liberal"

    def test_scripted_missing_id_empty(self):
        mock = mock_llm("scripted", responses={"q1": "liberal"})
        assert mock([], "q1") == "liberal"
        assert mock([], "q2") == ""

    def test_spec_parsing(self):
        assert mock_from_spec("fixed:conservative")([], "q") == "conservative"
        assert mock_from_spec("echo_majority")(prompt_with_demos([C, C, N]).as_messages(), "q") == "conservative"
        with pytest.raises(ValueError):
            mock_from_spec("oracle")


class TestClassify:
    def test_ok_path(self):
        record = classify(
            prompt_with_demos([C]),
            LLMConfig(),
            mock_llm("fixed", label="conservative"),
            query_id="q1",
            gold=C,
        )
        assert record.pred is C
        assert record.parse_status == "ok"
        assert record.attempts == 1

    def test_ambiguous_then_clarified(self):
        calls = []

        def flaky(messages, query_id=None):
            calls.append(messages)
            if len(calls) == 1:
                return "could be liberal or conservative"
            return "conservative"

        record = classify(prompt_with_demos([]), LLMConfig(), flaky, query_id="q")
        assert record.pred is C
        assert record.parse_status == "ok"
        assert record.attempts == 2
        assert calls[1][-1]["content"].endswith(CLARIFICATION)

    def test_ambiguous_twice_recorded(self):
        def stubborn(messages, query_id=None):
            return "maybe liberal, maybe conservative"

        record = classify(prompt_with_demos([]), LLMConfig(), stubborn, query_id="q")
        assert record.pred is None
        assert record.parse_status == "ambiguous"
        assert record.attempts == 2

    def test_empty_no_reprompt(self):
        def silent(messages, query_id=None):
            return "no comment"

        record = classify(prompt_with_demos([]), LLMConfig(), silent, query_id="q")
        assert record.parse_status == "empty"
        assert record.attempts == 1

    def test_transport_retry_then_success(self):
        state = {"calls": 0}
        sleeps = []

        def flaky(messages, query_id=None):
            state["calls"] += 1
            if state["calls"] < 3:
                raise TransportError("boom")
            return "neutral"

        record = classify(
            prompt_with_demos([]),
            LLMConfig(max_retries=3),
            flaky,
            query_id="q",
            sleep=sleeps.append,
        )
        assert record.pred is N
        assert record.attempts == 3
        assert len(sleeps) == 2
        assert sleeps[1] > sleeps[0]  # exponential growth despite jitter

    def test_transport_exhausted(self):
        def broken(messages, query_id=None):
            raise TransportError("down")

        record = classify(
            prompt_with_demos([]), LLMConfig(max_retries=2), broken, query_id="q", sleep=lambda _: None
        )
        assert record.parse_status == "transport_error"
        assert record.pred is None
        assert record.attempts == 3

    def test_non_retryable_stops_immediately(self):
        calls = []

        def rejected(messages, query_id=None):
            calls.append(1)
            raise TransportError("bad key", retryable=False)

        record = classify(prompt_with_demos([]), LLMConfig(max_retries=5), rejected, query_id="q")
        assert record.parse_status == "transport_error"
        assert len(calls) == 1

    def test_rate_limit_honors_server_wait(self):
        state = {"calls": 0}
        sleeps = []

        def limited(messages, query_id=None):
            state["calls"] += 1
            if state["calls"] == 1:
                raise TransportError("429", retry_after=7.5)
            return "liberal"

        record = classify(prompt_with_demos([]), LLMConfig(), limited, query_id="q", sleep=sleeps.append)
        assert record.pred is L
        assert sleeps == [7.5]

    def test_pred_present_iff_ok(self):
        for mock, expected in (
            (mock_llm("fixed", label="neutral"), "ok"),
            (lambda m, q=None: "", "empty"),
            (lambda m, q=None: "liberal or neutral", "ambiguous"),
        ):
            record = classify(prompt_with_demos([]), LLMConfig(), mock, query_id="q")
            assert (record.pred is not None) == (record.parse_status == "ok")

    def test_raising_clarification_keeps_the_ambiguous_answer(self):
        def flaky(messages, query_id=None):
            if CLARIFICATION in messages[-1]["content"]:
                raise ValueError("no more")
            return "liberal or neutral"

        record = classify(prompt_with_demos([]), LLMConfig(), flaky, query_id="q")
        assert record.parse_status == "ambiguous"
        assert record.raw_response == "liberal or neutral"
        assert record.attempts == 2


class TestBudget:
    def test_under_budget_untouched(self):
        prompt = prompt_with_demos([L], description="short")
        assert fit_to_budget(prompt, 10_000) is prompt

    def test_description_truncated_first(self):
        prompt = prompt_with_demos([L], description="x" * 500)
        budget = len(prompt.text) - 100
        fitted = fit_to_budget(prompt, budget)
        assert len(fitted.text) <= budget
        assert fitted.demo_blocks == prompt.demo_blocks  # demos have no description
        assert "Description: " in fitted.query_block
        assert "Title: the query" in fitted.query_block

    def test_description_dropped_entirely_when_needed(self):
        prompt = prompt_with_demos([], description="y" * 50)
        fitted = fit_to_budget(prompt, len("Classify.\n\nTitle: the query"))
        assert "Description" not in fitted.text

    def test_multiline_description_is_trimmed_as_one_field(self):
        description = "first line of the description\nsecond line\nthird line"
        fields = FieldConfig(include_description=True)
        demo = render_block(ContentItem("d", "demo title", description=description, label=L), fields, True)
        query_item = ContentItem("q", "the query", description=description)
        prompt = RenderedPrompt(instruction="Classify.", demos=(demo,), query=render_block(query_item, fields, False))
        query = prompt.query_block
        # a few chars over: the demonstration's description loses its tail, its label line stays
        fitted = fit_to_budget(prompt, len(prompt.text) - 5)
        assert fitted.demo_blocks == (f"Title: demo title\nDescription: {description[:-5]}\nIdeology: Liberal",)
        assert fitted.query_block == query
        # a budget that only fits the prompt without descriptions removes every line of each
        bare = "Classify.\n\nTitle: demo title\nIdeology: Liberal\n\nTitle: the query"
        assert fit_to_budget(prompt, len(bare)).text == bare

    @pytest.mark.parametrize(
        "over, fields",
        [
            (10, (("Title", "A title"), ("Source", "Desk\nDescription: wire copy"), ("Description", "real descri"))),
            (30, (("Title", "A title"), ("Source", "Desk\nDescription: wire copy"))),
        ],
    )
    def test_a_source_that_reads_like_a_description_is_kept_whole(self, over, fields):
        item = ContentItem("q", "A title", source="Desk\nDescription: wire copy", description="real description text")
        query = render_block(item, FieldConfig.from_key("title-source-desc"), False)
        prompt = RenderedPrompt(instruction="Classify.", demos=(), query=query)
        fitted = fit_to_budget(prompt, len(prompt.text) - over)
        assert fitted.query.fields == fields

    def test_an_only_field_keeps_one_char(self):
        fields = FieldConfig.from_key("desc")
        demo = render_block(ContentItem("d", "t", description="demo description", label=L), fields, True)
        query = render_block(ContentItem("q", "t", description="query description"), fields, False)
        prompt = RenderedPrompt(instruction="Classify.", demos=(demo,), query=query)
        fitted = fit_to_budget(prompt, len("Classify.\n\nDescription: d\nIdeology: Liberal\n\nDescription: q"))
        assert fitted.text == "Classify.\n\nDescription: d\nIdeology: Liberal\n\nDescription: q"
        assert fitted.as_messages(chat_turns=True) == [
            {"role": "system", "content": "Classify."},
            {"role": "user", "content": "Description: d"},
            {"role": "assistant", "content": "Ideology: Liberal"},
            {"role": "user", "content": "Description: q"},
        ]
        with pytest.raises(PromptTooLargeError):
            fit_to_budget(prompt, len(fitted.text) - 1)
        record = classify(prompt, LLMConfig(char_budget=len(fitted.text) - 1), mock_llm("fixed", label="neutral"),
                          query_id="q")
        assert (record.parse_status, record.attempts) == ("transport_error", 0)

    def test_oversize_without_descriptions_raises(self):
        prompt = prompt_with_demos([L, C, N])
        with pytest.raises(PromptTooLargeError):
            fit_to_budget(prompt, 30)

    def test_classify_records_budget_failure(self):
        prompt = prompt_with_demos([L, C, N])
        record = classify(
            prompt, LLMConfig(char_budget=10), mock_llm("fixed", label="neutral"), query_id="q"
        )
        assert record.parse_status == "transport_error"
        assert record.attempts == 0


class TestBatch:
    def test_sorted_by_query_id_and_reproducible(self):
        tasks = [(f"q{i:02d}", N, prompt_with_demos([N])) for i in (5, 1, 9, 2)]
        for workers in (1, 4):
            cfg = LLMConfig(max_in_flight=workers)
            records = classify_batch(tasks, cfg, mock_llm("echo_majority"))
            assert [r.query_id for r in records] == ["q01", "q02", "q05", "q09"]
            assert all(r.pred is N for r in records)

    def test_empty(self):
        assert classify_batch([], LLMConfig(), mock_llm("fixed", label="neutral")) == []

    def test_one_raising_callable_costs_one_record(self):
        calls = []

        def flaky(messages, query_id=None):
            calls.append(query_id)
            if query_id == "q3":
                raise OSError("disk gone")
            return "neutral"

        tasks = [(f"q{i}", N, prompt_with_demos([N])) for i in range(1, 6)]
        records = classify_batch(tasks, LLMConfig(max_in_flight=2), flaky, sleep=lambda _: None)
        assert [r.query_id for r in records] == ["q1", "q2", "q3", "q4", "q5"]
        assert [r.parse_status for r in records] == ["ok", "ok", "transport_error", "ok", "ok"]
        failed = records[2]
        assert failed.raw_response == "[error] OSError: disk gone"
        assert failed.pred is None
        assert failed.attempts == 1
        assert calls.count("q3") == 1


@pytest.fixture
def make_client(fake_endpoint):
    """ChatCompletionsClient factory whose clients' connections close at teardown."""
    clients = []

    def make(cfg):
        clients.append(ChatCompletionsClient(cfg))
        return clients[-1]

    yield make
    for client in clients:
        client.close()


class TestHttpClient:
    def test_wire_format(self, fake_endpoint, make_client, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "sk-test")
        cfg = LLMConfig(model_name="test-model", base_url=fake_endpoint, temperature=0.0)
        client = make_client(cfg)
        record = classify(prompt_with_demos([L]), cfg, client, query_id="q", gold=L)
        assert record.pred is L and record.parse_status == "ok"
        seen = FakeEndpoint.requests_seen[0]
        assert seen["path"] == "/v1/chat/completions"
        assert seen["auth"] == "Bearer sk-test"
        assert seen["body"]["model"] == "test-model"
        assert seen["body"]["temperature"] == 0.0
        assert seen["body"]["messages"][0]["role"] == "user"
        assert len(FakeEndpoint.requests_seen) == 1

    def test_rate_limit_then_success(self, fake_endpoint, make_client):
        FakeEndpoint.behavior = ["429", "ok"]
        cfg = LLMConfig(base_url=fake_endpoint)
        client = make_client(cfg)
        record = classify(prompt_with_demos([]), cfg, client, query_id="q", sleep=lambda _: None)
        assert record.parse_status == "ok"
        assert record.attempts == 2

    def test_server_error_then_success(self, fake_endpoint, make_client):
        FakeEndpoint.behavior = ["500", "ok"]
        cfg = LLMConfig(base_url=fake_endpoint)
        client = make_client(cfg)
        record = classify(prompt_with_demos([]), cfg, client, query_id="q", sleep=lambda _: None)
        assert record.parse_status == "ok"

    @pytest.mark.parametrize("retry_after", ["-1", "nan", "1e999"])
    def test_unusable_retry_after_falls_back_to_backoff(self, fake_endpoint, make_client, retry_after):
        FakeEndpoint.behavior = [f"429:{retry_after}", "ok"]
        cfg = LLMConfig(base_url=fake_endpoint, max_in_flight=2)
        tasks = [(f"q{i}", L, prompt_with_demos([])) for i in range(3)]
        sleeps = []
        records = classify_batch(tasks, cfg, make_client(cfg), sleep=sleeps.append)
        assert [r.parse_status for r in records] == ["ok"] * 3
        assert sum(r.attempts for r in records) == 4
        assert len(sleeps) == 1
        assert 1.0 <= sleeps[0] <= 1.25  # first backoff step, base 1s plus up to 25% jitter

    # {addr} is the live fake endpoint, so a request that got out would be seen
    @pytest.mark.parametrize(
        "base_url", ["{addr}", "http://", "ftp://{addr}", "http://127.0.0.1:port", "http://{addr}/a b"]
    )
    def test_malformed_url_is_refused_when_the_client_is_made(self, fake_endpoint, base_url):
        base_url = base_url.format(addr=fake_endpoint.removeprefix("http://"))
        url = base_url.rstrip("/") + "/v1/chat/completions"
        with pytest.raises(ValueError, match=re.escape(f"invalid URL {url!r}")):
            ChatCompletionsClient(LLMConfig(base_url=base_url))
        assert FakeEndpoint.requests_seen == []

    def test_broken_body_is_a_transport_error_not_a_lost_batch(self, fake_endpoint, make_client):
        FakeEndpoint.choose = lambda body: "truncated" if "Title: q2" in body["messages"][-1]["content"] else "ok"
        cfg = LLMConfig(base_url=fake_endpoint, max_in_flight=2, max_retries=2)
        client = make_client(cfg)
        tasks = [
            (f"q{i}", N, RenderedPrompt(instruction="Classify.", demos=(), query=PromptBlock((("Title", f"q{i}"),))))
            for i in range(4)
        ]
        records = classify_batch(tasks, cfg, client, sleep=lambda _: None)
        assert [r.query_id for r in records] == ["q0", "q1", "q2", "q3"]
        by_id = {r.query_id: r for r in records}
        assert by_id["q2"].parse_status == "transport_error"
        assert by_id["q2"].attempts == 3
        assert by_id["q2"].pred is None
        assert by_id["q2"].raw_response.startswith("[error] request failed")
        assert all(by_id[q].parse_status == "ok" for q in ("q0", "q1", "q3"))

    # null is what the API answers on a refusal or a content filter
    @pytest.mark.parametrize("cot", [False, True])
    @pytest.mark.parametrize("content", [None, [{"type": "text", "text": "liberal"}], 3])
    def test_reply_content_not_a_string_is_a_transport_error(self, fake_endpoint, make_client, content, cot):
        reply = json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]}).encode()
        FakeEndpoint.choose = lambda body: reply if "Title: q2" in body["messages"][-1]["content"] else "ok"
        cfg = LLMConfig(base_url=fake_endpoint, max_in_flight=2, max_retries=1)
        tasks = [
            (f"q{i}", N, RenderedPrompt("Classify.", (), PromptBlock((("Title", f"q{i}"),)), cot=cot))
            for i in range(4)
        ]
        records = classify_batch(tasks, cfg, make_client(cfg), sleep=lambda _: None)
        by_id = {r.query_id: r for r in records}
        assert by_id["q2"].parse_status == "transport_error" and by_id["q2"].attempts == 2
        assert by_id["q2"].raw_response == (
            f"[error] malformed response body: message content must be a string, got {json.dumps(content)}"
        )
        for q in ("q0", "q1", "q3"):
            assert (by_id[q].pred, by_id[q].parse_status, by_id[q].raw_response) == (L, "ok", "The answer is liberal")

    def test_seeded_fault_mix_ends_every_record(self, fake_endpoint, make_client):
        rng = random.Random(1234)
        faults = ["429", "429:0", "500", "truncated", "notjson", "drop", "slow:0.4"]
        FakeEndpoint.behavior = [rng.choice(faults) if rng.random() < 0.5 else "ok" for _ in range(200)] + ["ok"]
        cfg = LLMConfig(base_url=fake_endpoint, max_in_flight=4, timeout=0.15)
        tasks = [(f"q{i:02d}", L, prompt_with_demos([L])) for i in range(30)]
        records = classify_batch(tasks, cfg, make_client(cfg), sleep=lambda _: None)
        assert [r.query_id for r in records] == [f"q{i:02d}" for i in range(30)]
        assert {r.parse_status for r in records} <= {"ok", "transport_error"}
        assert all((r.pred is L) == (r.parse_status == "ok") for r in records)
        assert sum(r.attempts for r in records) == len(FakeEndpoint.requests_seen)


# both HTTP clients, made from a URL
HTTP_CLIENTS = {
    "chat": lambda url: ChatCompletionsClient(LLMConfig(base_url=url)),
    "embedding": lambda url: HttpProvider(url, dim=4),
}


class TestConnectionPool:
    def test_connections_bounded_by_concurrency_and_reused_across_batches(self, fake_endpoint, make_client):
        cfg = LLMConfig(base_url=fake_endpoint, max_in_flight=2)
        client = make_client(cfg)
        tasks = [(f"q{i:02d}", L, prompt_with_demos([])) for i in range(20)]
        assert all(r.parse_status == "ok" for r in classify_batch(tasks, cfg, client))
        first = {seen["port"] for seen in FakeEndpoint.requests_seen}
        assert len(FakeEndpoint.requests_seen) == 20
        assert 1 <= len(first) <= 2
        assert all(r.parse_status == "ok" for r in classify_batch(tasks, cfg, client))
        assert {seen["port"] for seen in FakeEndpoint.requests_seen[20:]} <= first

    def test_contended_pool_loses_and_duplicates_no_connection(self, fake_endpoint, make_client):
        cfg = LLMConfig(base_url=fake_endpoint, max_in_flight=8)
        client = make_client(cfg)
        tasks = [(f"q{i:03d}", L, prompt_with_demos([])) for i in range(120)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            records = classify_batch(tasks, cfg, client)
        finally:
            sys.setswitchinterval(interval)
        assert all(r.parse_status == "ok" for r in records)
        ports = {seen["port"] for seen in FakeEndpoint.requests_seen}
        idle = [id(conn) for conn in client._pool._idle]
        assert len(set(idle)) == len(idle) == len(ports) <= 8

    def test_connection_closed_by_the_server_is_replaced_before_use(self, fake_endpoint, make_client):
        FakeEndpoint.behavior = ["close"]
        cfg = LLMConfig(base_url=fake_endpoint)
        client = make_client(cfg)
        for i in range(5):
            sleeps = []
            record = classify(prompt_with_demos([]), cfg, client, query_id=f"q{i}", sleep=sleeps.append)
            assert (record.parse_status, record.attempts, sleeps) == ("ok", 1, [])
            assert FakeEndpoint.closed.acquire(timeout=10)
        assert len({seen["port"] for seen in FakeEndpoint.requests_seen}) == 5

    def test_http_proxy_gets_the_absolute_url(self, fake_endpoint, make_client, monkeypatch):
        for name in ("http_proxy", "no_proxy", "NO_PROXY", "REQUEST_METHOD"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTP_PROXY", fake_endpoint.replace("http://", "http://user:p%40ss@"))
        # nothing listens on the upstream port, so only the proxy can answer
        cfg = LLMConfig(base_url="http://127.0.0.1:9", max_retries=0, timeout=5.0)
        record = classify(prompt_with_demos([]), cfg, make_client(cfg), query_id="q")
        assert record.parse_status == "ok"
        (seen,) = FakeEndpoint.requests_seen
        assert seen["path"] == "http://127.0.0.1:9/v1/chat/completions"
        assert seen["host"] == "127.0.0.1:9"
        assert seen["proxy_auth"] == "Basic " + base64.b64encode(b"user:p@ss").decode()

    def test_no_proxy_bypasses_the_proxy(self, fake_endpoint, make_client, monkeypatch):
        monkeypatch.delenv("http_proxy", raising=False)
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        cfg = LLMConfig(base_url=fake_endpoint, max_retries=0)
        record = classify(prompt_with_demos([]), cfg, make_client(cfg), query_id="q")
        assert record.parse_status == "ok"
        assert FakeEndpoint.requests_seen[0]["path"] == "/v1/chat/completions"

    def test_client_made_before_a_proxy_is_set_goes_direct(self, fake_endpoint, make_client, monkeypatch):
        for name in ("http_proxy", "HTTP_PROXY", "no_proxy", "NO_PROXY", "REQUEST_METHOD"):
            monkeypatch.delenv(name, raising=False)
        cfg = LLMConfig(base_url=fake_endpoint, max_retries=0)
        client = make_client(cfg)
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")  # nothing listens there
        record = classify(prompt_with_demos([]), cfg, client, query_id="q")
        assert record.parse_status == "ok"
        assert FakeEndpoint.requests_seen[0]["path"] == "/v1/chat/completions"

    def test_client_keeps_the_url_it_was_made_with(self, fake_endpoint, make_client, monkeypatch):
        monkeypatch.setenv("LLM_BASE_URL", fake_endpoint)
        cfg = LLMConfig(max_retries=0)
        client = make_client(cfg)
        monkeypatch.setenv("LLM_BASE_URL", "http://127.0.0.1:9")  # nothing listens there
        record = classify(prompt_with_demos([]), cfg, client, query_id="q")
        assert record.parse_status == "ok"
        assert len(FakeEndpoint.requests_seen) == 1

    @pytest.mark.parametrize("variable", ["REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"])
    @pytest.mark.parametrize("make", HTTP_CLIENTS.values(), ids=HTTP_CLIENTS.keys())
    def test_missing_ca_bundle_is_refused_when_made(self, fake_endpoint, tmp_path, monkeypatch, make, variable):
        missing = str(tmp_path / "missing.pem")
        monkeypatch.delenv("REQUESTS_CA_BUNDLE", raising=False)
        monkeypatch.setenv(variable, missing)
        with pytest.raises(ValueError, match=re.escape(f"CA bundle {missing!r} does not load")):
            make(fake_endpoint.replace("http://", "https://"))
        assert FakeEndpoint.requests_seen == []

    @pytest.mark.parametrize("timeout", [0, -1, math.inf, math.nan])
    def test_timeout_outside_zero_to_infinity_is_refused(self, fake_endpoint, timeout):
        message = f"timeout must be a positive number of seconds, got {timeout}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ChatCompletionsClient(LLMConfig(base_url=fake_endpoint, timeout=timeout))

    def test_runs_without_requests_installed(self, fake_endpoint):
        script = (
            "import sys\n"
            "sys.modules['requests'] = None\n"
            "import ideolab.cli\n"
            "from ideolab.llm import ChatCompletionsClient, LLMConfig, classify\n"
            "from ideolab.prompting import PromptBlock, RenderedPrompt\n"
            "cfg = LLMConfig(base_url=sys.argv[1])\n"
            "prompt = RenderedPrompt(instruction='Classify.', demos=(), query=PromptBlock((('Title', 'q'),)))\n"
            "record = classify(prompt, cfg, ChatCompletionsClient(cfg), query_id='q')\n"
            "print(record.parse_status, record.pred.wire)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC), "NO_PROXY": "127.0.0.1", "no_proxy": "127.0.0.1"}
        done = subprocess.run(
            [sys.executable, "-c", script, fake_endpoint], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["ok", "liberal"]


class TestPredictionRecordSerialization:
    def test_round_trip(self):
        record = PredictionRecord("q", L, None, "raw", "ambiguous", 2, "hash1")
        assert PredictionRecord.from_json_dict(record.to_json_dict()) == record

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LLMConfig(temperature=-0.5)
        with pytest.raises(ValueError):
            LLMConfig(max_in_flight=0)
        with pytest.raises(ValueError):
            LLMConfig(max_retries=-1)
