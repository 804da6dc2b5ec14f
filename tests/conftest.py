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


CHAT_REPLY = json.dumps({"choices": [{"message": {"content": "The answer is liberal"}}]}).encode()
EMBED_REPLY = json.dumps({"dim": 4, "tokens": [[1, 0, 0, 0], [0, 1, 0, 0]], "sentence": [1, 0, 0, 0]}).encode()


class FakeEndpoint(BaseHTTPRequestHandler):
    """A keep-alive chat-completions and embedding service that injects faults on request.

    A POST to a path ending in ``/embed`` is answered with ``EMBED_REPLY``
    (``{"dim": 4, "tokens", "sentence"}``, two tokens), any other with
    ``CHAT_REPLY`` (a chat completion whose answer is "liberal"). Each
    request takes the next action of ``behavior`` (the last one repeats),
    or ``choose(body)`` when that is set:

    - ``ok``: a 200 with the path's reply
    - ``<code>`` / ``<code>:<Retry-After>``: that status and an empty body,
      without / with the header (``429``, ``500``, ``404``, ...)
    - ``truncated``: a ``Content-Length`` larger than the bytes sent, then
      the socket closes
    - ``notjson``: a 200 whose body is not JSON
    - raw ``bytes``: a 200 with that body
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
        raw = EMBED_REPLY if self.path.endswith("/embed") else CHAT_REPLY
        if isinstance(action, bytes):
            action, raw = "ok", action
        if action == "drop":
            self.close_connection = True
            return
        head, sep, arg = action.partition(":")
        if head.isdigit():
            self.send_response(int(head))
            if sep:
                self.send_header("Retry-After", arg)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if head == "slow":
            time.sleep(float(arg))
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
    """Base URL of a fresh FakeEndpoint server, shut down at teardown.

    The short poll interval lets ``shutdown`` return at once instead of
    waiting out the default 0.5 s poll.
    """
    FakeEndpoint.requests_seen = []
    FakeEndpoint.behavior = ["ok"]
    FakeEndpoint.choose = None
    FakeEndpoint.closed = threading.Semaphore(0)
    server = ThreadingHTTPServer(("127.0.0.1", 0), FakeEndpoint)
    threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


@pytest.fixture
def embed_endpoint(fake_endpoint):
    """URL of the FakeEndpoint's embedding service."""
    return fake_endpoint + "/embed"
