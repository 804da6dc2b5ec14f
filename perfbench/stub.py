"""Local OpenAI-compatible chat-completions stub for the classify_http workload.

Run as its own process; it prints the port it listens on as the first line
of standard output and serves until it is terminated:

    python3 perfbench/stub.py

``POST /v1/chat/completions`` answers with the label of the first
demonstration in the prompt (``neutral`` when there is none), after a fixed
service delay of ``DELAY_MS``. The fault schedule is a pure function of the
request body: the first time a body is seen, it gets a 429 if its SHA-256
digest falls in a 1-in-``FAULT_EVERY`` bucket. The 429 always carries
``Retry-After``, so the client honours the server's wait and its own
unseeded backoff jitter never runs. ``GET /stats`` returns the stub's own
counters and its settings; ``POST /reset`` clears the counters together
with the seen-body memory, so every repetition of the workload meets the
same schedule.

Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DELAY_MS = 5.0  # fixed service delay per answered request
FAULT_EVERY = 20  # 1 in FAULT_EVERY first-seen bodies get a 429
RETRY_AFTER = "0.02"  # seconds, sent with every 429

_FIRST_DEMO_LABEL = re.compile(r"^Ideology: (Liberal|Neutral|Conservative)$", re.MULTILINE)


class StubState:
    """Counters and the seen-body memory, shared by the handler threads."""

    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.seen: set[str] = set()
            self.requests = 0
            self.http_429 = 0
            self.http_5xx = 0
            self.busy_s = 0.0

    def stats(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "http_429": self.http_429,
                "http_5xx": self.http_5xx,
                "busy_s": self.busy_s,
                "delay_ms": DELAY_MS,
                "fault_every": FAULT_EVERY,
                "retry_after": RETRY_AFTER,
            }

    def admit(self, body: bytes) -> bool:
        """Count one request; False means it is answered with a 429."""
        digest = hashlib.sha256(body).hexdigest()
        with self.lock:
            self.requests += 1
            first = digest not in self.seen
            self.seen.add(digest)
            if first and int(digest[:8], 16) % FAULT_EVERY == 0:
                self.http_429 += 1
                return False
        return True


def answer_for(messages: list) -> str:
    """The stub's deterministic reply: the first demonstration's label."""
    text = "\n".join(str(m.get("content", "")) for m in messages)
    match = _FIRST_DEMO_LABEL.search(text)
    return match.group(1).lower() if match else "neutral"


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Without TCP_NODELAY each small reply waits on Nagle plus the client's
    # delayed ACK, about 40 ms per request, which would swamp the delay.
    disable_nagle_algorithm = True
    state: StubState

    def log_message(self, format, *args):  # noqa: A002 - signature fixed by the base class
        pass

    def _send(self, status: int, payload: dict, headers: dict | None = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path == "/stats":
            self._send(200, self.state.stats())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = self.rfile.read(length)
        if self.path == "/reset":
            self.state.reset()
            self._send(200, {"ok": True})
            return
        if self.path != "/v1/chat/completions":
            self._send(404, {"error": "not found"})
            return
        start = time.perf_counter()
        state = self.state
        try:
            if not state.admit(body):
                self._send(429, {"error": "rate limited"}, {"Retry-After": RETRY_AFTER})
                return
            messages = json.loads(body)["messages"]
            time.sleep(DELAY_MS / 1000.0)
            content = answer_for(messages)
            self._send(200, {"choices": [{"message": {"role": "assistant", "content": content}}]})
        except (ValueError, KeyError, TypeError) as exc:
            with state.lock:
                state.http_5xx += 1
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            elapsed = time.perf_counter() - start
            with state.lock:
                state.busy_s += elapsed


def main() -> int:
    Handler.state = StubState()
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
