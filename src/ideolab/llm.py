"""Chat-completion gateway: HTTP client, deterministic mocks, label parsing.

Every failure mode of a single classification is encoded in the
prediction record's ``parse_status`` rather than raised, so a batch never
dies on one bad response. Record order is fixed by query id, independent
of request completion order.
"""

from __future__ import annotations

import base64
import functools
import http.client
import json
import logging
import math
import os
import random
import re
import select
import ssl
import threading
import time
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .corpus import IDEOLOGIES, Ideology, _typed
from .prompting import ANSWER_MARKER, RenderedPrompt

logger = logging.getLogger(__name__)

CLARIFICATION = "Respond with exactly one word: liberal, neutral, or conservative."

PARSE_OK = "ok"
PARSE_AMBIGUOUS = "ambiguous"
PARSE_EMPTY = "empty"
PARSE_TRANSPORT_ERROR = "transport_error"

# llm callables take (messages, query_id) and return the response text
LLMCallable = Callable[[list[dict], Optional[str]], str]

_BACKOFF_BASE_S = 1.0


class TransportError(RuntimeError):
    """A request-level failure; ``retryable`` says whether retrying can help."""

    def __init__(self, message: str, retryable: bool = True, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retryable = retryable
        self.retry_after = retry_after


class PromptTooLargeError(ValueError):
    """Prompt exceeds the character budget even with every description trimmed."""


@dataclass
class LLMConfig:
    model_name: str = "gpt-4o"
    base_url: str = ""
    api_key: Optional[str] = None
    temperature: float = 0.0
    max_in_flight: int = 4
    max_retries: int = 3
    timeout: float = 30.0
    char_budget: int = 120_000
    chat_turns: bool = False

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be nonnegative")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be nonnegative")
        if self.char_budget < 1:
            raise ValueError(f"char_budget must be at least 1, got {self.char_budget}")
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be a positive number of seconds, got {self.timeout!r}")


@dataclass
class PredictionRecord:
    query_id: str
    gold: Optional[Ideology]
    pred: Optional[Ideology]
    raw_response: str
    parse_status: str
    attempts: int
    config_hash: str

    def to_json_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "gold": self.gold.wire if self.gold is not None else None,
            "pred": self.pred.wire if self.pred is not None else None,
            "raw_response": self.raw_response,
            "parse_status": self.parse_status,
            "attempts": self.attempts,
            "config_hash": self.config_hash,
        }

    @classmethod
    def from_json_dict(cls, record: dict) -> "PredictionRecord":
        gold, pred = (_typed(record.get(key), str, key, optional=True) for key in ("gold", "pred"))
        status = _typed(record["parse_status"], str, "parse_status")
        if status not in (PARSE_OK, PARSE_AMBIGUOUS, PARSE_EMPTY, PARSE_TRANSPORT_ERROR):
            raise ValueError(f"unknown parse_status: {status!r}")
        parsed = cls(
            query_id=_typed(record["query_id"], str, "query_id"),
            gold=None if gold is None else Ideology.from_string(gold),
            pred=None if pred is None else Ideology.from_string(pred),
            raw_response=_typed(record.get("raw_response", ""), str, "raw_response"),
            parse_status=status,
            attempts=_typed(record.get("attempts", 0), int, "attempts"),
            config_hash=_typed(record.get("config_hash", ""), str, "config_hash"),
        )
        if (pred is None) == (status == PARSE_OK):
            raise ValueError(f"pred must be a label exactly when parse_status is ok, got {json.dumps(pred)}")
        return parsed


_LABEL_RE = re.compile(r"\b(liberal|neutral|conservative)\b", re.IGNORECASE)


def parse_label(text: str, cot: bool = False) -> tuple[Optional[Ideology], str]:
    """Find the answered label by case-insensitive word-boundary search.

    Exactly one distinct label mentioned -> that label; none -> empty;
    two or more distinct -> ambiguous. For CoT responses only the text
    after the last "Answer:" marker is searched (whole text if the model
    never emitted the marker).
    """
    scope = text
    if cot:
        pos = text.rfind(ANSWER_MARKER)
        if pos >= 0:
            scope = text[pos + len(ANSWER_MARKER) :]
    found = {match.group(1).lower() for match in _LABEL_RE.finditer(scope)}
    if len(found) == 1:
        return Ideology.from_string(found.pop()), PARSE_OK
    if not found:
        return None, PARSE_EMPTY
    return None, PARSE_AMBIGUOUS


_IDEOLOGY_LINE_RE = re.compile(r"Ideology: (Liberal|Neutral|Conservative)")


def _demo_labels(messages: Sequence[dict]) -> list[Ideology]:
    """The demonstrations' gold labels, read from the prompt's structure, so
    a label line inside a field value never counts: with chat turns (a
    system message leads), the assistant messages; in the flat form, the
    last line of each blank-line-separated block between the instruction
    and the query block."""
    if any(m.get("role") == "system" for m in messages):
        answers = [m.get("content", "") for m in messages if m.get("role") == "assistant"]
    else:
        blocks = "\n\n".join(m.get("content", "") for m in messages).split("\n\n")
        answers = [block.rpartition("\n")[2] for block in blocks[1:-1]]
    matches = map(_IDEOLOGY_LINE_RE.fullmatch, answers)
    return [Ideology.from_string(match.group(1)) for match in matches if match]


def mock_llm(
    kind: str,
    label: Optional[str] = None,
    responses: Optional[Mapping[str, str]] = None,
) -> LLMCallable:
    """Deterministic stand-ins for a real endpoint.

    - ``echo_majority``: majority gold label among the prompt's demo
      blocks, ties (including zero demos) resolve to neutral
    - ``nearest_demo``: label of the first demo block (neutral if none)
    - ``fixed``: a constant label, e.g. mock_llm("fixed", label="liberal")
    - ``scripted``: per-query responses; unknown ids get an empty response
    """
    if kind == "echo_majority":

        def majority(messages, query_id=None):
            demo_labels = _demo_labels(messages)
            counts = {lab: demo_labels.count(lab) for lab in IDEOLOGIES}
            top = max(counts.values()) if demo_labels else 0
            winners = [lab for lab in IDEOLOGIES if counts[lab] == top and top > 0]
            if len(winners) != 1:
                return Ideology.NEUTRAL.wire
            return winners[0].wire

        return majority
    if kind == "nearest_demo":

        def nearest(messages, query_id=None):
            demo_labels = _demo_labels(messages)
            return demo_labels[0].wire if demo_labels else Ideology.NEUTRAL.wire

        return nearest
    if kind == "fixed":
        if label is None:
            raise ValueError("fixed mock needs a label")
        constant = Ideology.from_string(label).wire

        def fixed(messages, query_id=None):
            return constant

        return fixed
    if kind == "scripted":
        table = dict(responses or {})

        def scripted(messages, query_id=None):
            return table.get(query_id, "")

        return scripted
    raise ValueError(f"unknown mock kind: {kind!r}")


def mock_from_spec(spec: str) -> LLMCallable:
    """Parse a CLI mock spec: echo_majority | nearest_demo | fixed:<label>."""
    if spec.startswith("fixed:"):
        return mock_llm("fixed", label=spec.split(":", 1)[1])
    return mock_llm(spec)


_DEFAULT_PORTS = {"http": 80, "https": 443}
_UNSENDABLE = re.compile(r"[\x00-\x20\x7f]")  # what http.client refuses in a host or path


def _split_url(url: str) -> tuple[str, str, int, str]:
    """Split an http(s) URL into scheme, host, port and request path.

    A malformed URL (no scheme, a scheme other than http/https, no host, a
    bad port, a space or control character in the host or path) raises
    ``ValueError`` naming the URL.
    """
    try:
        parts = urllib.parse.urlsplit(url)
        port = parts.port
    except ValueError as exc:
        raise ValueError(f"invalid URL {url!r}: {exc}") from None
    path = parts.path or "/"
    if parts.query:
        path += "?" + parts.query
    if parts.scheme not in _DEFAULT_PORTS or not parts.hostname or _UNSENDABLE.search(parts.hostname + path):
        raise ValueError(f"invalid URL {url!r}: need http:// or https://, a host and no spaces")
    return parts.scheme, parts.hostname, port or _DEFAULT_PORTS[parts.scheme], path


def _dropped(sock) -> bool:
    """True when an idle socket is readable: the server closed it or sent stray bytes."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _proxy_auth(proxy: urllib.parse.SplitResult) -> dict:
    if proxy.username is None:
        return {}
    user = urllib.parse.unquote(proxy.username)
    password = urllib.parse.unquote(proxy.password or "")
    token = base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")
    return {"Proxy-Authorization": f"Basic {token}"}


def _ssl_context(cafile: Optional[str]) -> ssl.SSLContext:
    try:
        if cafile and os.path.isdir(cafile):
            return ssl.create_default_context(capath=cafile)
        return ssl.create_default_context(cafile=cafile)
    except (OSError, ssl.SSLError) as exc:
        raise ValueError(f"CA bundle {cafile!r} does not load: {exc}") from None


_JSON_HEADERS = {"Content-Type": "application/json", "User-Agent": "ideolab"}


class _ConnectionPool:
    """Keep-alive ``http.client`` connections to one URL, shared by the threads of one client.

    The route is fixed when the pool is made: the URL's host, port and path,
    the proxy (``HTTP(S)_PROXY``, ``NO_PROXY``) and, for https, the SSL
    context from ``REQUESTS_CA_BUNDLE``, else ``CURL_CA_BUNDLE``. A malformed
    URL or a CA bundle that does not load raises ``ValueError`` there. A
    request takes an idle connection or opens one, so no more are open than
    requests were ever in flight at once. A connection goes back to the idle
    list only after its whole body was read; on any error it is closed. An
    idle connection the server has closed is replaced before use, so a
    connection that timed out while idle costs no retry.
    """

    def __init__(self, url: str, timeout: float):
        scheme, host, port, self._path = _split_url(url)
        proxy = urllib.request.getproxies().get(scheme)
        if proxy and not urllib.request.proxy_bypass(host):
            proxy = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
            address = (proxy.hostname, proxy.port or _DEFAULT_PORTS.get(proxy.scheme, 80))
        else:
            proxy, address = None, (host, port)
        self._route_headers = {}
        if scheme == "http":
            if proxy is not None:  # a plain-http proxy takes the absolute URL
                self._path, self._route_headers = url.partition("#")[0], _proxy_auth(proxy)
            self._connect = functools.partial(http.client.HTTPConnection, *address, timeout=timeout)
        else:
            context = _ssl_context(os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE"))

            def connect() -> http.client.HTTPConnection:
                conn = http.client.HTTPSConnection(*address, timeout=timeout, context=context)
                if proxy is not None:
                    conn.set_tunnel(host, port, headers=_proxy_auth(proxy))
                return conn

            self._connect = connect
        self._lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []

    def post(self, payload, headers: Optional[dict] = None) -> bytes:
        """POST ``payload`` as JSON once; return the reply body or raise a :class:`TransportError`.

        A transport failure (a socket error, a timeout, a truncated or missing
        reply) or a 5xx is retryable, a 429 is retryable after its
        ``Retry-After``; any other 4xx is not, because the same request fails
        again.
        """
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        try:
            status, reply_headers, data = self._exchange(body, {**_JSON_HEADERS, **(headers or {})})
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(f"request failed: {type(exc).__name__}: {exc}") from exc
        if status == 429:
            try:
                retry_after = float(reply_headers.get("Retry-After"))
            except (TypeError, ValueError):
                retry_after = None
            raise TransportError("rate limited (HTTP 429)", retry_after=retry_after)
        if status >= 500:
            raise TransportError(f"server error (HTTP {status})")
        if status >= 400:
            raise TransportError(f"request rejected (HTTP {status})", retryable=False)
        return data

    def close(self) -> None:
        """Close every idle connection."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _exchange(self, body: bytes, headers: dict) -> tuple[int, http.client.HTTPMessage, bytes]:
        """Send once; return the status, headers and whole body of the reply."""
        conn = self._take() or self._connect()
        try:
            conn.request("POST", self._path, body, {**headers, **self._route_headers})
            resp = conn.getresponse()
            data = resp.read()
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        return resp.status, resp.headers, data

    def _take(self) -> Optional[http.client.HTTPConnection]:
        while True:
            with self._lock:
                if not self._idle:
                    return None
                conn = self._idle.pop()
            if conn.sock is not None and not _dropped(conn.sock):
                return conn
            conn.close()


def _retry(call: Callable, max_retries: int, sleep: Callable[[float], None], attempts: int = 0):
    """Run ``call`` until it returns, retrying retryable transport errors.

    Waits the server's ``Retry-After`` when it is finite and nonnegative,
    else an exponential backoff (base 1s, doubled, jittered). Returns
    ``(result, attempts, error)``; ``error`` is the last
    :class:`TransportError` when no attempt succeeded, else None.
    """
    for attempt in range(max_retries + 1):
        attempts += 1
        try:
            return call(), attempts, None
        except TransportError as exc:
            if not exc.retryable or attempt >= max_retries:
                return None, attempts, exc
            delay = exc.retry_after
            if delay is None or not 0.0 <= delay < math.inf:
                delay = _BACKOFF_BASE_S * (2.0**attempt) * (1.0 + 0.25 * random.random())
            logger.debug("transport error (%s), retrying in %.1fs", exc, delay)
            sleep(delay)


class ChatCompletionsClient:
    """OpenAI-compatible chat-completions client (single attempt per call;
    the retry policy lives in :func:`classify`). The endpoint URL, its proxy
    route and the CA bundle are fixed and checked when the client is made,
    so a bad one raises ``ValueError`` here (the timeout is checked by
    :class:`LLMConfig`); the API key is read on every call. A reply whose
    message content is not a string is a malformed body.
    """

    def __init__(self, cfg: LLMConfig):
        self.cfg = cfg
        base_url = cfg.base_url or os.environ.get("LLM_BASE_URL", "https://api.openai.com")
        self._pool = _ConnectionPool(base_url.rstrip("/") + "/v1/chat/completions", cfg.timeout)

    def __call__(self, messages: list[dict], query_id: Optional[str] = None) -> str:
        key = self.cfg.api_key or os.environ.get("LLM_API_KEY")
        payload = {"model": self.cfg.model_name, "messages": messages, "temperature": self.cfg.temperature}
        body = self._pool.post(payload, {"Authorization": f"Bearer {key}"} if key else None)
        try:
            return _typed(json.loads(body)["choices"][0]["message"]["content"], str, "message content")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed response body: {exc}") from exc

    def close(self) -> None:
        """Close the client's idle connections; a later call opens new ones."""
        self._pool.close()


def fit_to_budget(prompt: RenderedPrompt, char_budget: int) -> RenderedPrompt:
    """Shrink an oversize prompt by trimming description values only.

    A block's description is its last field. Trim order: last
    demonstration first, then earlier ones, the query's description last.
    Each is cut from its end by what the prompt is still over; one cut to
    nothing is dropped with its label, unless it is its block's only field,
    which keeps its first char. If the prompt still exceeds the budget,
    raise: no other field may be silently cut, and no block left empty.
    """
    if len(prompt.text) <= char_budget:
        return prompt
    blocks = [*prompt.demos, prompt.query]
    excess = len(prompt.text) - char_budget
    for i in [*range(len(blocks) - 2, -1, -1), len(blocks) - 1]:
        if excess <= 0:
            break
        block = blocks[i]
        name, value = block.fields[-1]
        if name != "Description":
            continue
        keep = max(len(value) - excess, 1 if len(block.fields) == 1 else 0)
        kept = ((name, value[:keep]),) if keep else ()
        blocks[i] = replace(block, fields=block.fields[:-1] + kept)
        excess -= len(block.text) - len(blocks[i].text)
    fitted = replace(prompt, demos=tuple(blocks[:-1]), query=blocks[-1])
    if len(fitted.text) > char_budget:
        raise PromptTooLargeError(
            f"prompt is {len(fitted.text)} chars with every description trimmed, budget is {char_budget}"
        )
    return fitted


def classify(
    prompt: RenderedPrompt,
    cfg: LLMConfig,
    llm: LLMCallable,
    *,
    query_id: str,
    gold: Optional[Ideology] = None,
    config_hash: str = "",
    sleep: Callable[[float], None] = time.sleep,
) -> PredictionRecord:
    """Send one prompt and parse the label out of the response.

    Retryable transport errors are retried up to ``cfg.max_retries``
    times, waiting as :func:`_retry` describes. Any other exception from
    ``llm`` is a transport error that is not retried, recorded as
    ``[error] <Type>: <message>``. An ambiguous parse triggers exactly one
    clarification reprompt. Nothing raises; the terminal state lands in
    ``parse_status``.
    """

    def record(pred, raw, status, attempts):
        return PredictionRecord(
            query_id=query_id,
            gold=gold,
            pred=pred,
            raw_response=raw,
            parse_status=status,
            attempts=attempts,
            config_hash=config_hash,
        )

    try:
        fitted = fit_to_budget(prompt, cfg.char_budget)
    except PromptTooLargeError as exc:
        return record(None, f"[error] {exc}", PARSE_TRANSPORT_ERROR, 0)
    messages = fitted.as_messages(cfg.chat_turns)

    def send(msgs):
        try:
            return llm(msgs, query_id)
        except TransportError:
            raise
        except Exception as exc:
            # one broken call must not cost the rest of the batch
            logger.warning("query %s: the LLM callable raised", query_id, exc_info=True)
            raise TransportError(f"{type(exc).__name__}: {exc}", retryable=False) from exc

    text, attempts, error = _retry(lambda: send(messages), cfg.max_retries, sleep)
    if error is not None:
        return record(None, f"[error] {error}", PARSE_TRANSPORT_ERROR, attempts)

    pred, status = parse_label(text, cot=prompt.cot)
    if status == PARSE_AMBIGUOUS:
        clarified = [dict(m) for m in messages]
        clarified[-1]["content"] += "\n\n" + CLARIFICATION
        text2, attempts, error = _retry(lambda: send(clarified), cfg.max_retries, sleep, attempts)
        if error is None:
            pred2, status2 = parse_label(text2, cot=prompt.cot)
            if status2 == PARSE_OK:
                return record(pred2, text2, PARSE_OK, attempts)
        return record(None, text, PARSE_AMBIGUOUS, attempts)
    return record(pred, text, status, attempts)


def classify_batch(
    tasks: Iterable[tuple[str, Optional[Ideology], RenderedPrompt]],
    cfg: LLMConfig,
    llm: LLMCallable,
    config_hash: str = "",
    sleep: Callable[[float], None] = time.sleep,
) -> list[PredictionRecord]:
    """Classify (query_id, gold, prompt) tasks with bounded concurrency.

    Output is sorted by query id, so results do not depend on completion
    order.
    """
    with ThreadPoolExecutor(max_workers=cfg.max_in_flight) as pool:
        futures = [
            pool.submit(
                classify, prompt, cfg, llm, query_id=query_id, gold=gold, config_hash=config_hash, sleep=sleep
            )
            for query_id, gold, prompt in tasks
        ]
        records = [f.result() for f in futures]
    records.sort(key=lambda r: r.query_id)
    return records
