"""Shared fixtures-without-pytest for the serving suites and CI smoke.

Every serving test that spawns a server subprocess, boots a loopback TCP
server, or drives the canonical scripted session used to do it inline;
this module is the one copy:

* :data:`SRC_DIR` / :func:`subprocess_env` — make ``repro`` importable in
  spawned interpreters regardless of how the suite itself was launched;
* :func:`spawn_server` — ``repro serve`` (or ``repro serve --cluster N``)
  as a subprocess driven over stdio pipes;
* :func:`tcp_server` — a context-managed loopback
  :func:`~repro.serving.server.make_tcp_server` over a service or a
  cluster coordinator;
* :func:`wait_for_port` — poll until an address accepts connections;
* :func:`scripted_session` — the canonical register / query / warm-hit /
  insert / invalidated-re-query storyline;
* :func:`run_ci_smoke` — the CI serving-smoke job body (telemetry-plane
  assertions + the event-log artifact), callable as
  ``python -c "from tests.serving.harness import run_ci_smoke; run_ci_smoke()"``.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Tuple

import repro
from repro.serving.client import ServingClient

__all__ = [
    "SRC_DIR",
    "run_ci_smoke",
    "run_durability_smoke",
    "scripted_session",
    "spawn_server",
    "subprocess_env",
    "tcp_server",
    "wait_for_port",
]

#: Directory that makes ``import repro`` work in a child interpreter.
SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


def subprocess_env(**extra: str) -> Dict[str, str]:
    """A copy of the environment with :data:`SRC_DIR` on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


def spawn_server(*serve_args: str, **popen_kwargs: Any) -> ServingClient:
    """``repro serve [args...]`` as a stdio-piped subprocess client."""
    popen_kwargs.setdefault("env", subprocess_env())
    return ServingClient.spawn(*serve_args, **popen_kwargs)


@contextmanager
def tcp_server(service: Any) -> Iterator[Tuple[str, int]]:
    """A serving TCP server on a free loopback port, torn down on exit."""
    from repro.serving.server import make_tcp_server

    server = make_tcp_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        yield str(host), int(port)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def wait_for_port(host: str, port: int, *, timeout_s: float = 10.0) -> None:
    """Block until ``host:port`` accepts a TCP connection."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            socket.create_connection((host, port), timeout=1.0).close()
            return
        except OSError:
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"{host}:{port} not accepting after {timeout_s}s"
                ) from None
            time.sleep(0.05)


def scripted_session(
    client: ServingClient,
    *,
    dataset: str = "qws",
    n: int = 500,
    d: int = 4,
    seed: int = 0,
) -> Dict[str, Dict[str, Any]]:
    """The canonical serving storyline against an open client.

    register → cold query → warm cache hit → insert (generation bump) →
    invalidated re-query containing the new point.  Returns the decoded
    responses keyed ``first`` / ``warm`` / ``inserted`` / ``after`` so
    callers can pile on their own assertions.
    """
    assert client.ping()["pong"] is True

    loaded = client.register(dataset, generate={"n": n, "d": d, "seed": seed})
    assert loaded["ok"] and loaded["size"] == n, loaded
    assert loaded["generation"] == 1, loaded

    first = client.query(dataset)
    assert first["ok"] and not first["cache_hit"], first
    assert first["generation"] == 1, first

    warm = client.query(dataset)
    assert warm["cache_hit"], warm
    assert warm["ids"] == first["ids"], warm

    inserted = client.insert(dataset, [0.001] * d)
    assert inserted["generation"] == 2, "mutation must bump generation"

    after = client.query(dataset)
    assert after["generation"] == 2, after
    assert not after["cache_hit"], "mutation must invalidate the cache"
    assert inserted["id"] in after["ids"], after

    return {"first": first, "warm": warm, "inserted": inserted, "after": after}


def run_ci_smoke(events_path: str = "serve-events.jsonl") -> None:
    """The CI serving-smoke job: scripted session + telemetry plane."""
    import json

    with spawn_server("--max-inflight", "4", "--events", events_path) as client:
        responses = scripted_session(client)

        stats = client.stats()
        assert stats["counters"]["serve.cache.hits"] >= 1, stats
        assert stats["counters"]["serve.cache.misses"] >= 2, stats
        # Non-zero serve.* series: the telemetry plane saw traffic.
        assert stats["counters"]["serve.requests"] >= 3, stats
        assert stats["counters"]["serve.computes"] >= 2, stats
        assert stats["latency"]["count"] >= 3, stats
        assert stats["datasets"]["qws"]["generation"] == 2, stats

        health = client.health()
        assert health["status"] == "healthy", health

        slo = client.slo()
        assert slo["state"] == "ok", slo
        names = [o["name"] for o in slo["objectives"]]
        assert names == ["availability", "latency"], slo
        five_m = slo["objectives"][0]["windows"]["5m"]
        assert five_m["total"] >= 3, slo

        events = client.events(50, kinds=["store.*"])
        assert events["count"] >= 2, events  # register + insert

        exposition = client.metrics(format="prometheus")["body"]
        assert "repro_serve_requests_total" in exposition

        assert client.shutdown()["bye"] is True
        assert responses["after"]["ids"], responses["after"]
    assert client.returncode == 0, client.returncode

    lines = Path(events_path).read_text().splitlines()
    kinds = {json.loads(line)["kind"] for line in lines}
    assert "store.generation" in kinds, kinds
    print("serving smoke OK: telemetry plane + event artifact verified")


def run_durability_smoke(
    data_dir: str = "durability-data",
    report_path: str = "durability-loadtest.json",
) -> None:
    """The CI durability-smoke job: SIGKILL mid-mutation + parity gate.

    Two legs, both persisting under ``data_dir`` so CI can upload the
    WAL/snapshot files as artifacts:

    1. **mid-mutation kill** — a background thread streams acknowledged
       inserts (``--fsync always``) and the server is SIGKILLed while
       that stream is in flight.  A restarted server must hold every
       acknowledged mutation: dataset size and generation must match
       the ack ledger exactly (± the single possibly-in-flight op), and
       all four query kinds must answer at the recovered generation.
    2. **loadtest scenario** — :func:`repro.bench.loadtest.run_scenario`
       (load → open-loop traffic → SIGKILL → recover) with its id-for-id
       parity verdict gated, and the stats written to ``report_path``.
    """
    from repro.bench.loadtest import (
        LoadTestConfig,
        _await_first_answer,
        dump_json,
        run_scenario,
        spawn_tcp_server,
    )
    from repro.serving.client import ServingConnectionError

    dataset, n_bulk, dims = "smoke", 200, 3
    kill_dir = os.path.join(data_dir, "kill")
    durability_args = ("--data-dir", kill_dir, "--fsync", "always")

    # Leg 1: SIGKILL while a mutation stream is mid-flight.
    proc, host, port = spawn_tcp_server(*durability_args)
    acked: list = []
    stop = threading.Event()

    def mutate() -> None:
        try:
            with ServingClient.connect(host, port, timeout=10.0) as client:
                i = 0
                while not stop.is_set():
                    response = client.insert(
                        dataset, [0.001 + i * 1e-6] * dims
                    )
                    if not response.get("ok"):
                        return
                    acked.append((response["id"], response["generation"]))
                    i += 1
        except (OSError, ServingConnectionError):
            return  # the kill severed the connection mid-op — expected

    thread = threading.Thread(target=mutate, daemon=True)
    try:
        with ServingClient.connect(host, port, timeout=10.0) as client:
            loaded = client.register(
                dataset, generate={"n": n_bulk, "d": dims, "seed": 0}
            )
            assert loaded.get("ok"), loaded
        thread.start()
        deadline = time.monotonic() + 10.0
        while len(acked) < 20 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert thread.is_alive(), "mutation stream died before the kill"
        assert len(acked) >= 20, f"only {len(acked)} acknowledged mutations"
    finally:
        proc.kill()  # SIGKILL: no handshake, no flush beyond fsync=always
        proc.wait(timeout=30)
    stop.set()
    thread.join(timeout=10)

    proc2, host2, port2 = spawn_tcp_server(*durability_args)
    try:
        recovery_time_s, _ = _await_first_answer(host2, port2, dataset)
        with ServingClient.connect(host2, port2, timeout=10.0) as client:
            info = client.stats()["datasets"][dataset]
            # Every ack is durable; at most ONE op (sent, never acked)
            # may additionally have reached the log before the kill.
            assert info["size"] - n_bulk in (len(acked), len(acked) + 1), (
                f"{len(acked)} acks but {info['size'] - n_bulk} survivors"
            )
            assert info["generation"] == 1 + (info["size"] - n_bulk), info
            assert info["generation"] >= acked[-1][1], (info, acked[-1])
            for spec in (
                {"kind": "skyline"},
                {"kind": "skyband", "k": 2},
                {
                    "kind": "constrained",
                    "lower": [0.0] * dims,
                    "upper": [0.8] * dims,
                },
                {"kind": "subspace", "dims": [0, 1]},
            ):
                answer = client.query(dataset, **spec)
                assert answer.get("ok"), answer
                assert answer["generation"] == info["generation"], answer
            assert client.shutdown()["bye"] is True
        assert proc2.wait(timeout=30) == 0
    finally:
        if proc2.poll() is None:  # pragma: no cover - cleanup
            proc2.kill()
            proc2.wait(timeout=30)
    print(
        f"mid-mutation kill OK: {len(acked)} acknowledged mutations "
        f"survived SIGKILL; first answer {recovery_time_s:.3f}s after restart"
    )

    # Leg 2: the full loadtest scenario, parity verdict gated.
    stats = run_scenario(
        LoadTestConfig(
            qps=150,
            duration_s=1.0,
            workers=4,
            n_points=300,
            mutation_fraction=0.15,
            seed=0,
        ),
        os.path.join(data_dir, "scenario"),
        fsync="always",
        snapshot_every=64,
    )
    dump_json(stats, report_path)
    assert stats["recovery"]["parity"] is True, stats["recovery"]
    assert stats["requests"]["errors"] == 0, stats["requests"]
    assert stats["durability"]["records_replayed"] > 0, stats["durability"]
    print(
        "durability smoke OK: id-for-id parity after SIGKILL "
        f"(report at {report_path})"
    )
