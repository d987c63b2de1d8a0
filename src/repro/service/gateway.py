"""Dependency-free asyncio HTTP/1.1 gateway for the auction service.

The container policy is stdlib-only, so the daemon speaks a deliberately
minimal HTTP/1.1 dialect over ``asyncio.start_server``: one request per
connection (``Connection: close``), JSON bodies, explicit
``Content-Length``.  That covers every client the repo ships (urllib in
tests and CI, curl for operators, Prometheus scrapes for ``/metrics``).

Endpoints (``docs/SERVICE.md``)
-------------------------------
* ``POST /jobs`` — submit a job document; ``202`` with the job record,
  ``400`` with field-level errors for malformed submissions (the queue
  is untouched), ``503`` when the queue is full.
* ``GET /jobs`` — all job records, submission order.
* ``GET /jobs/<id>`` — one job's lifecycle record.
* ``GET /jobs/<id>/report`` — the finished job's versioned run report
  (``repro.obs.export`` document; ``409`` until the job completes).
* ``GET /metrics`` — Prometheus text: persistent service series plus
  the latest finished job's canonical ``dmw_*`` series.
* ``GET /healthz`` — liveness.

A request line or header line longer than the stream limit (64 KiB) gets
a ``400``; a client that has not sent its whole request within
:data:`REQUEST_TIMEOUT_S` is disconnected unanswered.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from .engine import AuctionService
from .jobs import JobValidationError

#: Submission documents are small; anything larger is a client error.
MAX_BODY_BYTES = 1 << 20
#: Seconds a client has to send its whole request; a connection still
#: sending when they run out is closed unanswered.
REQUEST_TIMEOUT_S = 10.0

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            409: "Conflict", 413: "Payload Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}


def _response(status: int, body: bytes, content_type: str) -> bytes:
    head = ("HTTP/1.1 %d %s\r\n"
            "Content-Type: %s\r\n"
            "Content-Length: %d\r\n"
            "Connection: close\r\n\r\n"
            % (status, _REASONS.get(status, "Unknown"), content_type,
               len(body)))
    return head.encode("ascii") + body


def _json_response(status: int, document: Any) -> bytes:
    body = (json.dumps(document, indent=2) + "\n").encode("utf-8")
    return _response(status, body, "application/json")


def _error(status: int, code: str, detail: Any = None) -> bytes:
    document: Dict[str, Any] = {"error": code}
    if detail is not None:
        document["detail"] = detail
    return _json_response(status, document)


async def _read_request(reader: asyncio.StreamReader
                        ) -> Optional[Tuple[str, str, bytes]]:
    """Parse one request; returns (method, path, body) or None.

    ``readline`` raises ``ValueError`` for a request or header line over
    the stream limit; the caller answers it.
    """
    request_line = await reader.readline()
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        return None
    method, path = parts[0].upper(), parts[1]
    content_length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                return None
    if content_length < 0 or content_length > MAX_BODY_BYTES:
        return method, path, b"\x00overflow"
    body = b""
    if content_length:
        try:
            body = await reader.readexactly(content_length)
        except asyncio.IncompleteReadError:
            return None
    return method, path, body


async def _discard(reader: asyncio.StreamReader) -> None:
    """Read and drop whatever the client still sends, until it closes."""
    while await reader.read(1 << 16):
        pass


class ServiceGateway:
    """The asyncio HTTP server wrapping one :class:`AuctionService`."""

    def __init__(self, service: AuctionService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- request handling -----------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        # The read deadline closes the connection, which ends a pending
        # read at end-of-file (``_read_request`` then returns None).  A
        # timer, not ``asyncio.wait_for``: that would run the read in a
        # task of its own, two more event-loop passes per request, each
        # one handing the interpreter lock to a running job's thread.
        deadline = asyncio.get_running_loop().call_later(
            REQUEST_TIMEOUT_S, writer.close)
        try:
            try:
                request = await _read_request(reader)
            except ValueError:
                writer.write(_error(400, "line_too_long",
                                    "request and header lines are limited "
                                    "to 64 KiB"))
                await writer.drain()
                # Closing with the rest of the request unread would reset
                # the connection and could destroy the reply before the
                # client reads it: read the rest (until the client closes
                # or the deadline does) and discard it first.
                writer.write_eof()
                await _discard(reader)
                return
            deadline.cancel()
            if request is None:
                return
            method, path, body = request
            if body == b"\x00overflow":
                payload = _error(413, "payload_too_large")
            else:
                payload = await self._route(method, path, body)
            writer.write(payload)
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            deadline.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, method: str, path: str, body: bytes) -> bytes:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            if method != "GET":
                return _error(405, "method_not_allowed")
            return _json_response(200, {"status": "ok"})
        if path == "/metrics":
            if method != "GET":
                return _error(405, "method_not_allowed")
            # Rendering walks the registries; cheap enough to do inline.
            text = self.service.metrics_text()
            return _response(200, text.encode("utf-8"),
                             "text/plain; version=0.0.4")
        if path == "/jobs":
            if method == "POST":
                return self._submit(body)
            if method == "GET":
                return _json_response(200, {
                    "jobs": [record.as_document()
                             for record in self.service.jobs()]})
            return _error(405, "method_not_allowed")
        if path.startswith("/jobs/"):
            return self._job_detail(method, path)
        return _error(404, "not_found")

    def _submit(self, body: bytes) -> bytes:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return _error(400, "invalid_json",
                          "request body must be a JSON object")
        try:
            record = self.service.submit(payload)
        except JobValidationError as exc:
            return _json_response(400, exc.as_document())
        except RuntimeError as exc:
            return _error(503, "unavailable", str(exc))
        return _json_response(202, record.as_document())

    def _job_detail(self, method: str, path: str) -> bytes:
        if method != "GET":
            return _error(405, "method_not_allowed")
        segments = path.split("/")[2:]
        record = self.service.job(segments[0])
        if record is None:
            return _error(404, "unknown_job")
        if len(segments) == 1:
            return _json_response(200, record.as_document())
        if len(segments) == 2 and segments[1] == "report":
            if record.state in ("queued", "running"):
                return _error(409, "job_not_finished",
                              {"state": record.state})
            if record.report is None:
                return _error(409, "no_report", {"state": record.state,
                                                 "error": record.error})
            return _json_response(200, record.report)
        return _error(404, "not_found")


def serve(host: str = "127.0.0.1", port: int = 8080,
          warm_capacity: int = 8, pool_workers: int = 2,
          max_queued: int = 256) -> int:
    """Blocking daemon entry point for ``dmw serve``."""
    service = AuctionService(warm_capacity=warm_capacity,
                             pool_workers=pool_workers,
                             max_queued=max_queued)
    gateway = ServiceGateway(service, host=host, port=port)
    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(gateway.start())
        print("dmw service listening on http://%s:%d (warm capacity %d, "
              "pool workers %d)" % (gateway.host, gateway.port,
                                    warm_capacity, pool_workers))
        loop.run_forever()
    except KeyboardInterrupt:
        pass
    finally:
        loop.run_until_complete(gateway.stop())
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()
        service.close()
    return 0
