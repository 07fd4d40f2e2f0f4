"""Open-loop load over one pipelined JSON-lines connection.

The generator is one process with one TCP connection and two threads:
the calling thread sends each request at its *intended* time (``start +
offset``) whether or not earlier replies have arrived, and one receiver
thread reads replies in order.  A single session is served in order by
the server, so reply ``i`` belongs to request ``i``.  Latency is timed
from the intended send time, so a stall of the generator or of the
server is charged to every request it delays (no coordinated omission),
and the generator reports how late it ran.

Replies are kept as raw bytes while the load runs and decoded after,
so JSON parsing never competes with the sender for the interpreter.

The generator sets ``TCP_NODELAY`` on its own socket only; the server's
socket options are the server's business and are measured as shipped.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence


@dataclass
class StepResult:
    """Per-request timings of one open-loop step (seconds, perf_counter)."""

    intended: List[float]
    sent: List[float]
    received: List[float | None]
    responses: List[Dict[str, Any] | None]
    threads_peak: int
    transport_error: str | None = None

    def latency_s(self, i: int) -> float | None:
        got = self.received[i]
        return None if got is None else got - self.intended[i]

    def late_s(self) -> List[float]:
        return [max(0.0, s - t) for s, t in zip(self.sent, self.intended)]


class OpenLoopClient:
    """One connection to a JSON-lines server, driven on a schedule."""

    def __init__(self, host: str, port: int, *, timeout_s: float = 60.0):
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("rb")
        self.timeout_s = timeout_s

    def close(self) -> None:
        self._rfile.close()
        self._sock.close()

    def __enter__(self) -> "OpenLoopClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One synchronous request (set-up and admin verbs, not timed load)."""
        self._sock.sendall((json.dumps(request) + "\n").encode())
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def run(self, requests: Sequence[Dict[str, Any]],
            offsets_s: Sequence[float], *, lead_s: float = 0.02) -> StepResult:
        """Send ``requests[i]`` at ``start + offsets_s[i]``; collect replies."""
        n = len(requests)
        payloads = [(json.dumps(r) + "\n").encode() for r in requests]
        start = time.perf_counter() + lead_s
        intended = [start + o for o in offsets_s]
        sent = [0.0] * n
        received: List[float | None] = [None] * n
        raw: List[bytes | None] = [None] * n
        errors: List[str] = []
        baseline = threading.active_count()
        peak = [baseline]

        def receive() -> None:
            peak[0] = max(peak[0], threading.active_count())
            try:
                for i in range(n):
                    line = self._rfile.readline()
                    if not line:
                        errors.append("server closed the connection")
                        return
                    received[i] = time.perf_counter()
                    raw[i] = line
            except OSError as exc:
                errors.append(f"receive failed: {exc}")

        receiver = threading.Thread(target=receive, name="loadgen-recv")
        receiver.start()
        try:
            for i, payload in enumerate(payloads):
                delay = intended[i] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent[i] = time.perf_counter()
                self._sock.sendall(payload)
                if i % 64 == 0:
                    peak[0] = max(peak[0], threading.active_count())
        except OSError as exc:
            errors.append(f"send failed: {exc}")
            # Unblock the receiver: nothing more will be answered.
            self._sock.shutdown(socket.SHUT_RDWR)
        receiver.join(self.timeout_s + 5.0)
        if receiver.is_alive():
            self._sock.shutdown(socket.SHUT_RDWR)
            receiver.join()
            errors.append("receiver timed out")
        responses: List[Dict[str, Any] | None] = []
        for line in raw:
            try:
                responses.append(None if line is None else json.loads(line))
            except json.JSONDecodeError:
                responses.append(None)  # counted as unanswered by the oracle
        return StepResult(
            intended=intended, sent=sent, received=received,
            responses=responses,
            # The calling thread plus every thread started while in flight.
            threads_peak=peak[0] - baseline + 1,
            transport_error=errors[0] if errors else None,
        )
