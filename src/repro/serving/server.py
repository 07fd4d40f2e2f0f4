"""Serving front ends: JSON-lines over stdio or a threading TCP socket.

``repro serve`` (see :mod:`repro.cli`) builds a
:class:`~repro.serving.service.SkylineService` (or its cluster
coordinator subclass) and hands it to one of the two loops here:

* :func:`serve_stdio` — one session over stdin/stdout, the default.  A
  client drives it through a pipe (see
  :class:`repro.serving.client.ServingClient.spawn`); the CI smoke job and
  the tests use exactly this path.
* :func:`make_tcp_server` — a ``ThreadingTCPServer``; every connection is
  its own session thread, so concurrent clients exercise the service's
  admission control and coalescing for real.

Both loops dispatch through :func:`repro.serving.protocol.handle_request`
and exit cleanly on a successful ``shutdown`` op.
"""

from __future__ import annotations

import json
import socketserver
import sys
import threading
import time
from typing import IO, Any, Dict, Iterable

from repro.observability.events import get_events
from repro.serving.protocol import handle_request

__all__ = ["serve_lines", "serve_stdio", "make_tcp_server"]

#: Bound on waiting for live session threads at shutdown (seconds).  A
#: session stuck in a long compute past this is abandoned (it is a
#: daemon thread), but its count is reported in the ``server.stop``
#: event instead of silently relying on process exit to reap it.
DEFAULT_STOP_JOIN_S = 5.0


def _respond(out: IO[str], response: Dict[str, Any]) -> None:
    out.write(json.dumps(response, default=str) + "\n")
    out.flush()


def serve_lines(service: Any, lines: Iterable[str], out: IO[str]) -> bool:
    """Run one request/response session; True if it ended via ``shutdown``."""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            _respond(
                out,
                {"ok": False, "status": "error", "error": f"bad JSON: {exc}"},
            )
            continue
        response = handle_request(service, request)
        _respond(out, response)
        if (
            isinstance(request, dict)
            and request.get("op") == "shutdown"
            and response.get("ok")
        ):
            return True
    return False


def serve_stdio(
    service: Any,
    stdin: IO[str] | None = None,
    stdout: IO[str] | None = None,
) -> None:
    """Serve one session over stdin/stdout (the ``repro serve`` default)."""
    serve_lines(
        service,
        stdin if stdin is not None else sys.stdin,
        stdout if stdout is not None else sys.stdout,
    )


class _SessionHandler(socketserver.StreamRequestHandler):
    """One TCP connection = one JSON-lines session."""

    def handle(self) -> None:
        server: "ServingTCPServer" = self.server  # type: ignore[assignment]
        reader = (raw.decode("utf-8", "replace") for raw in self.rfile)
        out = _TextOut(self.wfile)
        if serve_lines(server.service, reader, out):
            # A successful shutdown op stops the whole server, not just
            # this session; shutdown() must come from another thread
            # (stop() joins the other sessions and skips this one).
            threading.Thread(target=server.stop, daemon=True).start()


class _TextOut:
    """Minimal text adapter over the handler's binary write file."""

    def __init__(self, wfile: Any) -> None:
        self._wfile = wfile

    def write(self, text: str) -> None:
        self._wfile.write(text.encode("utf-8"))

    def flush(self) -> None:
        self._wfile.flush()


class ServingTCPServer(socketserver.ThreadingTCPServer):
    """Threading TCP server bound to one service.

    Session threads are tracked (not merely daemonised): a clean stop
    joins them with a bound, so in-flight responses get to finish and
    WAL appends are not cut off mid-frame by process teardown — the
    durable-serving requirement that plain ``daemon_threads`` alone
    cannot meet.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple, service: Any):
        super().__init__(address, _SessionHandler)
        self.service = service
        self._sessions_lock = threading.Lock()
        self._sessions: Dict[int, threading.Thread] = {}
        self._stopped = threading.Event()

    # ``ThreadingMixIn.process_request`` spawns the session thread; wrap
    # the handler bookkeeping instead so tracking needs no copy of the
    # stdlib's spawn logic.
    def process_request_thread(self, request: Any, client_address: Any) -> None:
        thread = threading.current_thread()
        with self._sessions_lock:
            self._sessions[thread.ident or id(thread)] = thread
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._sessions_lock:
                self._sessions.pop(thread.ident or id(thread), None)

    def live_sessions(self) -> int:
        with self._sessions_lock:
            return len(self._sessions)

    def stop(self, *, join_timeout_s: float = DEFAULT_STOP_JOIN_S) -> int:
        """Stop accepting, join live sessions (bounded), emit ``server.stop``.

        Idempotent — the shutdown op's handler thread and a signal-driven
        ``finally`` may both call it.  Returns the number of sessions
        still alive after the bounded join (0 on a fully clean stop).
        """
        if self._stopped.is_set():
            return 0
        self._stopped.set()
        self.shutdown()
        deadline = time.monotonic() + max(join_timeout_s, 0.0)
        with self._sessions_lock:
            threads = [t for t in self._sessions.values() if t.is_alive()]
        me = threading.current_thread()
        for thread in threads:
            if thread is me:
                continue  # the shutdown op's own session cannot join itself
            remaining = deadline - time.monotonic()
            if remaining > 0:
                thread.join(remaining)
        abandoned = sum(
            1 for t in threads if t is not me and t.is_alive()
        )
        get_events().emit(
            "server.stop",
            address=f"{self.server_address[0]}:{self.server_address[1]}",
            joined=len(threads) - abandoned - (1 if me in threads else 0),
            abandoned=abandoned,
        )
        return abandoned


def make_tcp_server(
    service: Any, host: str = "127.0.0.1", port: int = 0
) -> ServingTCPServer:
    """Bind a TCP server (``port=0`` picks a free port; see
    ``server.server_address``); the caller runs ``serve_forever()``."""
    return ServingTCPServer((host, port), service)
