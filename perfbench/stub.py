"""Benchmark-owned plausibility scoring service.

    python3 perfbench/stub.py

Speaks the wire protocol of the README: ``POST /score`` with
``{"text": ..., "target": ...}`` answers ``{"score": <float>}`` after the
fixed service time ``layers.SERVICE_MS``. The score is a hash of the query,
so repeated runs of one seed get identical reports. ``GET /stats`` returns
what the service counted: score requests, failed requests (non-200
answers) and the TCP connections that carried score requests. It prints its
port on the first line of stdout and serves until SIGTERM.
"""
from __future__ import annotations

import hashlib
import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from layers import SERVICE_MS


class Counts:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.failures = 0
        self.connections = 0

    def add(self, **deltas) -> None:
        with self.lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def snapshot(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "failures": self.failures,
                    "connections": self.connections}


def make_handler(counts: Counts, service_s: float):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive, so a client that reuses connections can
        scored_here = False  # one handler instance serves one connection

        def _reply(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path != "/score":
                self._reply(404, {"error": "not found"})
                return
            new_connection = not self.scored_here
            self.scored_here = True
            try:
                query = json.loads(body)
                text, target = str(query["text"]), str(query["target"])
            except (ValueError, KeyError, TypeError):
                counts.add(requests=1, failures=1, connections=int(new_connection))
                self._reply(400, {"error": "bad query"})
                return
            time.sleep(service_s)
            digest = hashlib.sha256(f"{text}\0{target}".encode()).digest()
            score = -int.from_bytes(digest[:4], "big") / 2**28
            counts.add(requests=1, connections=int(new_connection))
            self._reply(200, {"score": score})

        def do_GET(self):
            if self.path != "/stats":
                self._reply(404, {"error": "not found"})
                return
            self._reply(200, counts.snapshot())

        def log_message(self, *args):
            pass

    return Handler


def main() -> int:
    counts = Counts()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(counts, SERVICE_MS / 1000))
    server.daemon_threads = True
    signal.signal(signal.SIGTERM,
                  lambda *_: threading.Thread(target=server.shutdown, daemon=True).start())
    print(server.server_port, flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
