import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ideolab.embedding import TokenEmbeddingSet

DATA_DIR = Path(__file__).parent / "data"


def make_embedding(item_id: str, rows) -> TokenEmbeddingSet:
    """TokenEmbeddingSet from raw rows, rows normalized if needed."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    sentence = rows.mean(axis=0)
    norm = np.linalg.norm(sentence)
    sentence = rows[0] if norm < 1e-12 else sentence / norm
    return TokenEmbeddingSet(
        item_id=item_id, dim=rows.shape[1], token_vectors=rows, sentence_vector=sentence
    )


@pytest.fixture
def basis():
    """First three standard basis vectors in R^4."""
    eye = np.eye(4)
    return eye[0], eye[1], eye[2]


class FakeEndpoint(BaseHTTPRequestHandler):
    """A keep-alive chat-completions endpoint that injects faults on request.

    Each request takes the next action of ``behavior`` (the last one
    repeats), or ``choose(body)`` when that is set:

    - ``ok``: a 200 whose answer is "liberal"
    - ``429`` / ``429:<Retry-After>``: rate limited, without / with the header
    - ``500``: a server error
    - ``truncated``: a ``Content-Length`` larger than the bytes sent, then
      the socket closes
    - ``notjson``: a 200 whose body is not JSON
    - ``drop``: the connection closes with no response
    - ``slow:<s>``: an ok reply after ``<s>`` seconds
    - ``close``: an ok reply, then the server closes the connection without
      announcing it; ``closed`` is released once it has
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # else each reply waits on the client's delayed ACK
    requests_seen = []
    behavior = ["ok"]
    choose = None
    closed = threading.Semaphore(0)

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        cls = type(self)
        cls.requests_seen.append(
            {
                "path": self.path,
                "body": body,
                "auth": self.headers.get("Authorization"),
                "host": self.headers.get("Host"),
                "proxy_auth": self.headers.get("Proxy-Authorization"),
                "port": self.client_address[1],
            }
        )
        if cls.choose is not None:
            action = cls.choose(body)
        else:
            action = cls.behavior.pop(0) if len(cls.behavior) > 1 else cls.behavior[0]
        if action.startswith("429"):  # "429" or "429:<Retry-After value>"
            self.send_response(429)
            if action.startswith("429:"):
                self.send_header("Retry-After", action.partition(":")[2])
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if action == "500":
            self.send_response(500)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if action == "drop":
            self.close_connection = True
            return
        if action.startswith("slow:"):
            time.sleep(float(action.partition(":")[2]))
        raw = json.dumps({"choices": [{"message": {"content": "The answer is liberal"}}]}).encode()
        if action == "notjson":
            raw = b"<html>upstream error</html>"
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw) + (10 if action == "truncated" else 0)))
        self.end_headers()
        try:
            self.wfile.write(raw)
        except OSError:  # a slow reply whose client gave up
            self.close_connection = True
            return
        if action in ("truncated", "close"):
            self.close_connection = True
        if action == "close":
            self.connection.shutdown(socket.SHUT_WR)
            cls.closed.release()

    def log_message(self, *args):
        pass


@pytest.fixture
def fake_endpoint():
    server = ThreadingHTTPServer(("127.0.0.1", 0), FakeEndpoint)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    FakeEndpoint.requests_seen = []
    FakeEndpoint.behavior = ["ok"]
    FakeEndpoint.choose = None
    FakeEndpoint.closed = threading.Semaphore(0)
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.fixture
def embed_endpoint():
    import json as json_module
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    requests_seen = []
    # answered, in order, before the first 200: (status, headers), or
    # "truncated" for a 200 whose body stops short of its Content-Length,
    # or "notjson" for a 200 whose body is not JSON, or bytes for a 200
    # with that body
    failures = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json_module.loads(self.rfile.read(int(self.headers["Content-Length"])))
            requests_seen.append(body)
            failure = failures.pop(0) if failures else None
            if isinstance(failure, tuple):
                status, headers = failure
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            ts = TokenEmbeddingSet.from_raw("x", 4, np.eye(4)[:2], np.eye(4)[0])
            payload = json_module.dumps(
                {"dim": 4, "tokens": ts.token_vectors.tolist(), "sentence": ts.sentence_vector.tolist()}
            ).encode()
            if failure == "notjson":
                payload = b"<html>upstream error</html>"
            elif isinstance(failure, bytes):
                payload = failure
            self.send_response(200)
            self.send_header("Content-Length", str(len(payload) + (10 if failure == "truncated" else 0)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"http://127.0.0.1:{server.server_address[1]}/embed", requests_seen, failures
    server.shutdown()
    server.server_close()
