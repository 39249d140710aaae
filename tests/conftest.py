import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import HealthCheck, settings

from cemsim import replay

# Single-core CI boxes make per-example deadlines flaky; determinism of the
# code under test is asserted explicitly where it matters.
settings.register_profile(
    "cemsim",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("cemsim")


class _EstimatorHandler(BaseHTTPRequestHandler):
    """In-process stand-in for a remote effort estimator.

    ``/ok`` scores every text 2.5; the other paths return one malformed
    response each (``/huge`` an integer effort too large for a float,
    ``/to-ftp`` a redirect to an ftp URL).
    The server keeps the last request body and the text of every POST it
    answered, in order.
    """

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.server.last_body = self.rfile.read(length)
        self.server.texts.append(json.loads(self.server.last_body).get("text"))
        if self.path == "/boom":
            self.send_response(500)
            self.end_headers()
            return
        if self.path == "/to-ftp":
            self.send_response(302)
            self.send_header("Location", "ftp://127.0.0.1/answer.json")
            self.end_headers()
            return
        bodies = {
            "/ok": b'{"effort": 2.5}',
            "/not-json": b"effort: lots",
            "/missing-key": b'{"score": 2.5}',
            "/negative": b'{"effort": -1.0}',
            "/stringy": b'{"effort": "big"}',
            "/huge": b'{"effort": ' + b"9" * 400 + b"}",
        }
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(bodies[self.path])

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def estimator_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EstimatorHandler)
    server.last_body = b""
    server.texts = []
    server.url = f"http://127.0.0.1:{server.server_port}"
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join()
    server.server_close()


@pytest.fixture
def row_loop_chunks(monkeypatch):
    """The first line number of each chunk ``ingest_timeseries`` hands its
    row loop, in order: the chunks the column pass declined."""
    entered = []
    row_loop = replay._ingest_rows

    def spy(path, lines, first_line_number, *rest):
        entered.append(first_line_number)
        return row_loop(path, lines, first_line_number, *rest)

    monkeypatch.setattr(replay, "_ingest_rows", spy)
    return entered
