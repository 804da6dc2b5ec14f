import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from ideolab.corpus import Ideology
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
from ideolab.prompting import RenderedPrompt

L, N, C = Ideology.LIBERAL, Ideology.NEUTRAL, Ideology.CONSERVATIVE


def prompt_with_demos(demo_labels, cot=False, description=None):
    blocks = tuple(
        f"Title: demo {i}\nIdeology: {lab.display}" for i, lab in enumerate(demo_labels)
    )
    query = "Title: the query"
    if description:
        query += f"\nDescription: {description}"
    return RenderedPrompt(instruction="Classify.", demo_blocks=blocks, query_block=query, cot=cot)


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


class _FakeEndpoint(BaseHTTPRequestHandler):
    requests_seen = []
    behavior = ["ok"]

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests_seen.append({"path": self.path, "body": body, "auth": self.headers.get("Authorization")})
        action = type(self).behavior.pop(0) if len(type(self).behavior) > 1 else type(self).behavior[0]
        if action.startswith("429"):  # "429" or "429:<Retry-After value>"
            self.send_response(429)
            self.send_header("Retry-After", action.partition(":")[2] or "0")
            self.end_headers()
            return
        if action == "500":
            self.send_response(500)
            self.end_headers()
            return
        payload = {"choices": [{"message": {"content": "The answer is liberal"}}]}
        raw = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture
def fake_endpoint():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FakeEndpoint)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _FakeEndpoint.requests_seen = []
    _FakeEndpoint.behavior = ["ok"]
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()


class TestHttpClient:
    def test_wire_format(self, fake_endpoint, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "sk-test")
        cfg = LLMConfig(model_name="test-model", base_url=fake_endpoint, temperature=0.0)
        client = ChatCompletionsClient(cfg)
        record = classify(prompt_with_demos([L]), cfg, client, query_id="q", gold=L)
        assert record.pred is L and record.parse_status == "ok"
        seen = _FakeEndpoint.requests_seen[0]
        assert seen["path"] == "/v1/chat/completions"
        assert seen["auth"] == "Bearer sk-test"
        assert seen["body"]["model"] == "test-model"
        assert seen["body"]["temperature"] == 0.0
        assert seen["body"]["messages"][0]["role"] == "user"
        assert len(_FakeEndpoint.requests_seen) == 1

    def test_rate_limit_then_success(self, fake_endpoint):
        _FakeEndpoint.behavior = ["429", "ok"]
        cfg = LLMConfig(base_url=fake_endpoint)
        client = ChatCompletionsClient(cfg)
        record = classify(prompt_with_demos([]), cfg, client, query_id="q", sleep=lambda _: None)
        assert record.parse_status == "ok"
        assert record.attempts == 2

    def test_server_error_then_success(self, fake_endpoint):
        _FakeEndpoint.behavior = ["500", "ok"]
        cfg = LLMConfig(base_url=fake_endpoint)
        client = ChatCompletionsClient(cfg)
        record = classify(prompt_with_demos([]), cfg, client, query_id="q", sleep=lambda _: None)
        assert record.parse_status == "ok"

    @pytest.mark.parametrize("retry_after", ["-1", "nan", "1e999"])
    def test_unusable_retry_after_falls_back_to_backoff(self, fake_endpoint, retry_after):
        _FakeEndpoint.behavior = [f"429:{retry_after}", "ok"]
        cfg = LLMConfig(base_url=fake_endpoint, max_in_flight=2)
        tasks = [(f"q{i}", L, prompt_with_demos([])) for i in range(3)]
        sleeps = []
        records = classify_batch(tasks, cfg, ChatCompletionsClient(cfg), sleep=sleeps.append)
        assert [r.parse_status for r in records] == ["ok"] * 3
        assert sum(r.attempts for r in records) == 4
        assert len(sleeps) == 1
        assert 1.0 <= sleeps[0] <= 1.25  # first backoff step, base 1s plus up to 25% jitter

    @pytest.mark.parametrize("base_url", ["127.0.0.1:9", "http://", "ftp://127.0.0.1:9"])
    def test_malformed_url_fails_at_once(self, base_url):
        cfg = LLMConfig(base_url=base_url)
        sleeps = []
        record = classify(prompt_with_demos([]), cfg, ChatCompletionsClient(cfg), query_id="q", sleep=sleeps.append)
        assert record.parse_status == "transport_error"
        assert record.attempts == 1
        assert sleeps == []

    def test_broken_body_is_a_transport_error_not_a_lost_batch(self):
        import requests

        class _Response:
            status_code = 200
            headers = {}

            def json(self):
                return {"choices": [{"message": {"content": "neutral"}}]}

        class _Session:
            def post(self, url, json, headers, timeout):
                if "Title: q2" in json["messages"][-1]["content"]:
                    raise requests.exceptions.ChunkedEncodingError("connection broken mid-body")
                return _Response()

        cfg = LLMConfig(base_url="http://127.0.0.1:9", max_in_flight=2, max_retries=2)
        client = ChatCompletionsClient(cfg)
        client._session = _Session()
        tasks = [
            (f"q{i}", N, RenderedPrompt(instruction="Classify.", demo_blocks=(), query_block=f"Title: q{i}"))
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
