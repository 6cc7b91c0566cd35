"""Tiny in-process HTTP service implementing the plausibility wire protocol,
for protocol round-trip tests without a real language model."""
from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


@contextmanager
def stub_lm_server(score_fn, fail_first: int = 0, bodies: tuple[bytes, ...] = (),
                   delay: float = 0.0, protocol: str = "HTTP/1.0"):
    """Serve POST /score on an ephemeral port; yields the base URL.

    score_fn(text, target) -> float provides the canned scores; the first
    `fail_first` requests return HTTP 500 to exercise client retries, and
    the next ones get the raw `bodies` with a 200, one each. Every reply
    waits `delay` seconds. `protocol` "HTTP/1.1" keeps connections open
    between requests, as a keep-alive server does. The state dict counts
    the TCP connections accepted and records each request's path, payload
    and headers.
    """
    state = {"failures_left": fail_first, "bodies": list(bodies), "requests": [],
             "headers": [], "connections": 0}
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = protocol

        def setup(self):
            super().setup()
            with lock:
                state["connections"] += 1

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length))
            with lock:
                state["requests"].append((self.path, payload))
                state["headers"].append(dict(self.headers))
                status, canned = 200, None
                if self.path != "/score":
                    status = 404
                elif state["failures_left"] > 0:
                    state["failures_left"] -= 1
                    status = 500
                elif state["bodies"]:
                    canned = state["bodies"].pop(0)
            time.sleep(delay)
            if status != 200:
                self.send_error(status)
                return
            if canned is None:
                canned = json.dumps(
                    {"score": score_fn(payload["text"], payload["target"])}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(canned)))
            self.end_headers()
            self.wfile.write(canned)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", state
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
