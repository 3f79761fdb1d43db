"""Stdlib-only HTTP front-end of the analysis service.

A :class:`AnalysisServer` is a :class:`http.server.ThreadingHTTPServer` whose
handler forwards every request to an :class:`~repro.service.app.AnalysisService`
(dict in, dict out) and speaks JSON on the wire:

* ``POST /analyze`` — one tree, one query (``repro.study/1`` + ``service``);
* ``POST /sweep``   — one tree, a sample grid (``repro.sweep/3`` + ``service``);
* ``POST /batch``   — many trees, one query (``repro.batch/1`` + ``service``);
* ``GET /healthz``  — liveness + store shape;
* ``GET /metrics``  — per-endpoint counts/latency percentiles, worker-pool
  fallbacks, warm hits answered from memory + store stats.

The threading server gives every connection its own handler thread; the
service object is thread-safe (compiled-model reuse is serialised, the optional
worker pool parallelises analyses across processes).  Connections keep alive
(HTTP/1.1) and set ``TCP_NODELAY``: a response goes out as a header write and
a body write, and with Nagle's algorithm the body would wait for the
client's delayed ACK of the headers (~40 ms on Linux).  ``port=0`` binds an
ephemeral port — read it back from :attr:`AnalysisServer.server_address`.
"""

from __future__ import annotations

import json
import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..core.study import StudyOptions
from .app import AnalysisService
from .store import SkeletonStore

LOGGER = logging.getLogger("repro.service.server")

#: Request bodies beyond this are refused with 413 (a tree description or a
#: batch of them is text; anything larger signals a runaway client).
MAX_BODY_BYTES = 64 * 1024 * 1024


class _ServiceHandler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    # StreamRequestHandler sets TCP_NODELAY on each accepted connection.
    disable_nagle_algorithm = True

    def _respond(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        service: AnalysisService = self.server.service  # type: ignore[attr-defined]
        status, payload = service.handle("GET", self.path, None)
        self._respond(status, payload)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        service: AnalysisService = self.server.service  # type: ignore[attr-defined]
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0:
            # rfile.read(-1) would read to EOF: no answer until the client
            # hangs up.  Where the next request would start is unknown too.
            self.close_connection = True
            self._respond(400, {"error": "invalid Content-Length header"})
            return
        if length > MAX_BODY_BYTES:
            self._respond(413, {"error": f"request body exceeds {MAX_BODY_BYTES} bytes"})
            return
        body = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(body.decode("utf-8")) if body else None
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self._respond(400, {"error": f"request body is not valid JSON: {error}"})
            return
        status, response = service.handle("POST", self.path, payload)
        self._respond(status, response)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        LOGGER.debug("%s - %s", self.address_string(), format % args)


class AnalysisServer(ThreadingHTTPServer):
    """The serving socket; owns an :class:`AnalysisService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: AnalysisService):
        super().__init__(address, _ServiceHandler)
        self.service = service

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def server_close(self) -> None:
        try:
            self.service.close()
        finally:
            super().server_close()


def serve(
    cache_dir: str,
    host: str = "127.0.0.1",
    port: int = 0,
    processes: int = 0,
    options: Optional[StudyOptions] = None,
    max_cache_bytes: Optional[int] = None,
) -> AnalysisServer:
    """Build a ready-to-run server around a skeleton store at ``cache_dir``.

    Returns the bound (but not yet serving) server; call ``serve_forever()``
    to block, or drive it from a thread in tests.  ``port=0`` picks a free
    ephemeral port.
    """
    store = SkeletonStore(cache_dir, max_bytes=max_cache_bytes)
    service = AnalysisService(store, options=options, processes=processes)
    return AnalysisServer((host, port), service)
