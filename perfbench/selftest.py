"""Self-test of the open-loop generator against a D/D/1 stub server.

    python3 perfbench/selftest.py

The stub answers one JSON-lines connection in order with a fixed
service time ``S``.  Under deterministic arrivals every ``T`` seconds
this is a D/D/1 queue, so latency timed from the intended send time
must be ``S`` (no waiting) when ``S < T``, and grow linearly by
``S - T`` per request when ``S > T``.  A generator that timed from the
actual send, or that let a slow reply hold back the next send, fails
the second check.  The test also asserts the generator stays within
``nproc`` threads and connections.  Exit status 0 means every check
passed.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time
from pathlib import Path

import numpy as np

sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != Path(__file__).parent]
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import launcher  # noqa: E402
from perfbench.loadgen import OpenLoopClient  # noqa: E402

SERVICE_S = 0.010
REQUESTS = 120


class StubServer:
    """Single-connection JSON-lines server with a fixed service time."""

    def __init__(self, service_s: float):
        self.service_s = service_s
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self.connections = 0
        self._thread = threading.Thread(target=self._serve, name="stub")
        self._thread.start()

    def _serve(self) -> None:
        conn, _ = self._listener.accept()
        self.connections += 1
        # The stub models a server without send coalescing.
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with conn, conn.makefile("rb") as rfile:
            free_at = 0.0
            for line in rfile:
                request = json.loads(line)
                # Service starts when the request is read and the server
                # is free; busy-wait keeps the service time exact.
                start = max(time.perf_counter(), free_at)
                free_at = start + self.service_s
                while time.perf_counter() < free_at:
                    time.sleep(min(0.0005, max(free_at - time.perf_counter(), 0)))
                conn.sendall((json.dumps({"ok": True, "i": request["i"]}) + "\n").encode())

    def close(self) -> None:
        self._listener.close()
        self._thread.join(timeout=30)


def run_step(rate: float) -> tuple[np.ndarray, int, int]:
    stub = StubServer(SERVICE_S)
    try:
        with OpenLoopClient("127.0.0.1", stub.port, timeout_s=30) as client:
            requests = [{"i": i} for i in range(REQUESTS)]
            out = client.run(requests, [i / rate for i in range(REQUESTS)])
        if out.transport_error or any(r is None for r in out.responses):
            raise AssertionError(f"generator lost replies: {out.transport_error}")
        if [r["i"] for r in out.responses] != list(range(REQUESTS)):
            raise AssertionError("replies out of order")
        lat = np.array([out.latency_s(i) for i in range(REQUESTS)])
        return lat, out.threads_peak, stub.connections
    finally:
        stub.close()


def check_launcher() -> list[str]:
    """The launcher parses both banners and times out on a silent child."""
    failures = []
    for banner in ("serving on 127.0.0.1:4711", "serving 2-shard cluster on 127.0.0.1:4711"):
        child = [sys.executable, "-c",
                 f"import sys, time; print({banner!r}, file=sys.stderr, flush=True); "
                 "time.sleep(60)"]
        server = launcher.spawn(child, Path.cwd(), dict(os.environ), startup_timeout_s=30)
        if (server.host, server.port) != ("127.0.0.1", 4711):
            failures.append(f"banner {banner!r} parsed as {server.host}:{server.port}")
        server.kill()
    silent = [sys.executable, "-c", "import time; time.sleep(60)"]
    started = time.monotonic()
    try:
        launcher.spawn(silent, Path.cwd(), dict(os.environ), startup_timeout_s=1.0)
        failures.append("a silent child was taken for a server")
    except RuntimeError:
        if time.monotonic() - started > 10:
            failures.append("the start-up deadline was not enforced on a silent child")
    return failures


def main() -> int:
    nproc = len(os.sched_getaffinity(0))
    failures = check_launcher()

    below, threads, conns = run_step(rate=1 / (2 * SERVICE_S))
    # No queueing: every request waits only its own service time.
    if np.median(below) > SERVICE_S + 0.003 or np.percentile(below, 95) > SERVICE_S + 0.006:
        failures.append(f"below capacity: p50 {np.median(below) * 1e3:.2f} ms, "
                        f"p95 {np.percentile(below, 95) * 1e3:.2f} ms, want ~{SERVICE_S * 1e3:.1f}")
    interval = SERVICE_S / 2
    above, threads2, conns2 = run_step(rate=1 / interval)
    # Linear growth: request i waits i * (S - T) before its own service.
    slope = np.polyfit(np.arange(REQUESTS), above, 1)[0]
    want = SERVICE_S - interval
    if abs(slope - want) > 0.15 * want:
        failures.append(f"above capacity: slope {slope * 1e3:.3f} ms/request, "
                        f"want {want * 1e3:.3f}")
    if max(threads, threads2) > nproc or max(conns, conns2) > nproc:
        failures.append(f"generator used {max(threads, threads2)} threads and "
                        f"{max(conns, conns2)} connections on {nproc} cores")
    print(f"below capacity: p50 {np.median(below) * 1e3:.2f} ms; above: slope "
          f"{slope * 1e3:.3f} ms/request (D/D/1 predicts {want * 1e3:.3f}); "
          f"threads {max(threads, threads2)}, connections {max(conns, conns2)}, nproc {nproc}")
    for failure in failures:
        print("FAIL:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
