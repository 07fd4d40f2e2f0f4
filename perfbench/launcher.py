"""Start and stop ``repro serve --tcp`` servers for the benchmark.

The launcher recognises both start-up banners the CLI prints on stderr
(``serving on HOST:PORT`` and ``serving N-shard cluster on HOST:PORT``)
and enforces its start-up deadline even when the child prints nothing:
stderr is read by a thread that feeds a queue, and the caller waits on
the queue with a timeout instead of blocking on the pipe.
"""

from __future__ import annotations

import os
import queue
import re
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Deque, Sequence

BANNER_RE = re.compile(r"serving (?:\d+-shard cluster )?on ([\d.]+):(\d+)")

#: Environment variables that silently change the engine or the server's
#: dominance backend; the benchmark measures the program's defaults.
PINNED_UNSET = ("REPRO_KERNEL", "REPRO_EXECUTOR")


def pinned_env(root: Path) -> dict:
    """Child environment: ``src`` on the path, kernel/executor overrides removed."""
    env = {k: v for k, v in os.environ.items() if k not in PINNED_UNSET}
    env["PYTHONPATH"] = str(root / "src")
    return env


class ServerProcess:
    """One live server child: address, peak RSS, stop/kill."""

    def __init__(self, proc: subprocess.Popen, reader: threading.Thread,
                 host: str, port: int):
        self.proc = proc
        self._reader = reader
        self.host = host
        self.port = port

    def peak_rss_mb(self) -> float:
        """The child's high-water resident set (``VmHWM``), in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def kill(self) -> None:
        """SIGKILL (no shutdown handshake) and reap the child."""
        if self.proc.poll() is None:
            self.proc.kill()
        self._reap()

    def terminate(self, timeout_s: float = 10.0) -> None:
        """SIGTERM (the CLI's orderly signal exit), SIGKILL past the timeout."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        self.proc.wait(timeout=30)
        self._reader.join(timeout=30)


def _pump(stream, lines: "queue.Queue[str | None]", tail: Deque[str]) -> None:
    for line in stream:
        tail.append(line)
        lines.put(line)
    lines.put(None)


def launch(root: Path, serve_args: Sequence[str] = (), *,
           startup_timeout_s: float = 60.0) -> ServerProcess:
    """Spawn ``python -m repro.cli serve --tcp 127.0.0.1:0 <serve_args>``."""
    cmd = [sys.executable, "-m", "repro.cli", "serve",
           "--tcp", "127.0.0.1:0", *serve_args]
    return spawn(cmd, root, pinned_env(root), startup_timeout_s=startup_timeout_s)


def spawn(cmd: Sequence[str], cwd: Path, env: dict, *,
          startup_timeout_s: float) -> ServerProcess:
    """Start ``cmd`` and return once its stderr banner names the bound address.

    Raises ``RuntimeError`` (after killing the child) when the child exits
    or the deadline passes first, whether or not it printed anything.
    """
    proc = subprocess.Popen(
        list(cmd), cwd=str(cwd), env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    lines: "queue.Queue[str | None]" = queue.Queue()
    tail: Deque[str] = deque(maxlen=40)
    reader = threading.Thread(target=_pump, args=(proc.stderr, lines, tail),
                              name="serve-stderr", daemon=True)
    reader.start()
    deadline = time.monotonic() + startup_timeout_s
    while True:
        remaining = deadline - time.monotonic()
        try:
            line = lines.get(timeout=remaining) if remaining > 0 else ""
        except queue.Empty:
            line = ""
        if not line:
            why = "timed out" if line == "" else "exited"
            proc.kill()
            proc.wait(timeout=30)
            reader.join(timeout=30)
            raise RuntimeError(
                f"server {why} before its banner ({' '.join(cmd)}):\n"
                + "".join(tail)
            )
        match = BANNER_RE.search(line)
        if match:
            return ServerProcess(proc, reader, match.group(1), int(match.group(2)))
