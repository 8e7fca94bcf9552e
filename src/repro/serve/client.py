"""Blocking clients for the scheduling daemon.

:class:`ScheduleClient` speaks the newline-delimited JSON protocol over
the unix socket; :func:`http_schedule` / :func:`http_get` cover the TCP
transport with nothing but :mod:`http.client`.  Both exist so tests, the
scenario driver and ad-hoc scripts need no third-party HTTP stack.

Connecting races daemon startup in practice (a script that forks the
daemon and dials immediately), so :class:`ScheduleClient` retries
``ECONNREFUSED``/``ENOENT`` connects under a capped, jittered
:class:`~repro.robust.backoff.RetryPolicy` instead of making every caller
hand-roll a poll loop.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import time

from ..ir.basicblock import Trace
from ..machine.model import MachineModel
from ..robust.backoff import RetryPolicy
from .protocol import ScheduleRequest, server_timings

#: Default connect-retry shape: ~6 tries over roughly two seconds.
DEFAULT_CONNECT_POLICY = RetryPolicy(base_s=0.05, cap_s=1.0, jitter=0.5)

DEFAULT_CONNECT_ATTEMPTS = 6


class ScheduleClient:
    """One blocking unix-socket connection; requests are answered in order,
    so a single client may pipeline freely from one thread.

    The initial connect retries on ``ConnectionRefusedError`` (socket file
    exists, nobody listening yet) and ``FileNotFoundError`` (socket file
    not created yet) up to ``connect_attempts`` times, sleeping per
    ``connect_policy``; pass ``connect_attempts=1`` for the old
    fail-fast behaviour.
    """

    def __init__(
        self,
        socket_path: str | os.PathLike,
        timeout_s: float | None = 30.0,
        connect_attempts: int = DEFAULT_CONNECT_ATTEMPTS,
        connect_policy: RetryPolicy = DEFAULT_CONNECT_POLICY,
        _sleep=time.sleep,
    ) -> None:
        if connect_attempts < 1:
            raise ValueError(
                f"connect_attempts must be >= 1, got {connect_attempts}"
            )
        self.socket_path = os.fspath(socket_path)
        self.connect_attempts = 0  # attempts actually made, for callers/tests
        rng = connect_policy.rng(seed=None)
        for attempt in range(1, connect_attempts + 1):
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout_s)
            try:
                self._sock.connect(self.socket_path)
                self.connect_attempts = attempt
                break
            except (ConnectionRefusedError, FileNotFoundError):
                self._sock.close()
                self.connect_attempts = attempt
                if attempt == connect_attempts:
                    raise
                _sleep(connect_policy.delay_s(attempt, rng))
        self._file = self._sock.makefile("rwb")

    # -- raw protocol --------------------------------------------------------

    def call(self, doc: dict) -> dict:
        """Send one JSON document, read one JSON response line."""
        self._file.write(json.dumps(doc).encode() + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    # -- conveniences --------------------------------------------------------

    def schedule(
        self,
        trace: Trace,
        machine: MachineModel,
        scheduler: str = "anticipatory",
        request_id: object = None,
        trace_id: str | None = None,
    ) -> dict:
        """Schedule one trace.  A caller-supplied ``trace_id`` is stamped on
        the request and propagates through the daemon's span tree; without
        one, the daemon mints an id and echoes it in ``response["trace"]``.
        """
        request = ScheduleRequest(
            trace=trace,
            machine=machine,
            scheduler=scheduler,
            id=request_id,
            trace_id=trace_id,
        )
        return self.call(request.to_dict())

    def ping(self) -> dict:
        return self.call({"op": "ping"})

    def stats(self) -> dict:
        return self.call({"op": "stats"})["stats"]

    def metrics_text(self) -> str:
        return self.call({"op": "metrics"})["text"]

    def traces(
        self,
        ring: str = "recent",
        n: int | None = None,
        trace_id: str | None = None,
    ) -> dict:
        """Tail-sampled request traces from the daemon's trace buffer.
        ``ring`` is ``recent``/``slow``/``errors``/``degraded``
        (matching the ``/debug/traces``, ``/debug/slow``,
        ``/debug/errors`` and ``/debug/degraded`` HTTP endpoints)."""
        if ring not in ("recent", "slow", "errors", "degraded"):
            raise ValueError(f"unknown trace ring: {ring!r}")
        doc: dict = {"op": "traces" if ring == "recent" else ring}
        if n is not None:
            doc["n"] = n
        if trace_id is not None:
            doc["trace_id"] = trace_id
        return self.call(doc)

    def top(self) -> dict:
        """One self-contained stats+metrics document (``repro top`` feed)."""
        return self.call({"op": "top"})

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ScheduleClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def explain_timings(response: dict) -> str:
    """One human-readable line from a response's ``server`` block — phase
    timings as the daemon measured them (empty string when absent)."""
    server = server_timings(response)
    if not server:
        return ""
    phases = server.get("phases") or {}
    parts = [
        f"{name[:-2]}={value * 1e3:.3f}ms"
        for name, value in phases.items()
        if name.endswith("_s") and isinstance(value, (int, float))
    ]
    worker = server.get("worker") or {}
    for name, value in (worker.get("phases") or {}).items():
        if name.endswith("_s") and isinstance(value, (int, float)):
            parts.append(f"worker.{name[:-2]}={value * 1e3:.3f}ms")
    total = server.get("duration_s")
    head = f"server pid {server.get('pid')}"
    if isinstance(total, (int, float)):
        head += f" total={total * 1e3:.3f}ms"
    return head + (": " + " ".join(parts) if parts else "")


def http_schedule(
    host: str, port: int, doc: dict, timeout_s: float = 30.0
) -> tuple[int, dict]:
    """POST one request (or ``{"requests": [...]}``) to ``/v1/schedule``."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        body = json.dumps(doc)
        conn.request(
            "POST",
            "/v1/schedule",
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def http_get(
    host: str, port: int, path: str, timeout_s: float = 30.0
) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()
