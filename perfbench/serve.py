"""``serve-*`` workloads: a live ``repro serve --tcp`` under open-loop load.

Each workload starts its server as a child process (the server gets one
core, the generator the other), registers the seed's dataset, then
steps through a fixed ladder of offered rates on one pipelined
connection.  The first step is the nominal rate the latency metrics are
read at; a step *meets the SLO* when every request in it was answered
correctly, query p99 is at most 250 ms (the service's own
``--slo-latency-s`` default) and the backlog did not grow across the
step.  After the load, the oracle replays the ordered stream in-process
and checks every answer.

``serve-write`` also ends with a SIGKILL and a restart from the same
data directory; ``recovery_s`` runs from the kill to the first answer
that matches the oracle id-for-id.

The traced run adds an in-process replay of the nominal step through
the same public entry points the server uses (``handle_request``,
``SkylineStore`` mutations, ``evaluate``, ``DatasetLog`` appends,
``recover_dataset``, ``ClusterCoordinator`` queries), each call timed.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from perfbench import launcher, mixes
from perfbench.loadgen import OpenLoopClient, StepResult
from perfbench.result import Result

#: Query p99 limit of the ladder (the ``--slo-latency-s`` default).
SLO_P99_S = 0.25
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Step:
    rate: float  # offered requests per second
    share: float  # share of the run's seconds spent at this rate


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    mix: mixes.Mix
    serve_args: Tuple[str, ...]
    #: Ascending offered rates; the first is the nominal rate.
    ladder: Tuple[Step, ...]
    #: Operation the end-to-end latency percentiles are read from.
    primary: str  # "query" or "mutation"
    durable: bool = False
    cluster: bool = False


WORKLOADS = {
    "serve-mix": ServeWorkload(
        "serve-mix", mixes.SERVE_MIX, (),
        (Step(100 / 3, 0.65), Step(50, 0.25), Step(240, 0.05)), "query"),
    "serve-write": ServeWorkload(
        "serve-write", mixes.SERVE_WRITE, ("--fsync", "always"),
        (Step(50, 0.6), Step(100, 0.25), Step(800, 0.03)), "mutation",
        durable=True),
    "serve-cluster": ServeWorkload(
        "serve-cluster", mixes.SERVE_MIX, ("--cluster", "2"),
        (Step(100 / 3, 0.9), Step(240, 0.05)), "query",
        cluster=True),
}


def _pct_ms(values_s: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values_s), q) * 1e3) if values_s else 0.0


class _Step:
    """One ladder step's requests, replies and derived figures."""

    def __init__(self, rate: float, requests: List[Dict[str, Any]], out: StepResult):
        self.rate = rate
        self.requests = requests
        self.out = out

    def latencies(self, op: str) -> List[float]:
        """Latencies of the answered queries (``op="query"``) or mutations."""
        out = []
        for i, req in enumerate(self.requests):
            lat = self.out.latency_s(i)
            if lat is not None and (req["op"] == "query") == (op == "query"):
                out.append(lat)
        return out

    def achieved_rate(self) -> float:
        done = [r for r in self.out.received if r is not None]
        if not done:
            return 0.0
        return len(done) / (max(done) - self.out.intended[0])

    def backlog_growing(self) -> bool:
        """The queue grew across the step: the median latency of its last
        third exceeds that of its first third by more than 100 ms."""
        lat = [self.out.latency_s(i) for i in range(len(self.requests))]
        lat = [x for x in lat if x is not None]
        third = max(1, len(lat) // 3)
        return statistics.median(lat[-third:]) - statistics.median(lat[:third]) > 0.1


def run(root: Path, name: str, seed: int, seconds: float, trace: bool) -> Result:
    wl = WORKLOADS[name]
    work = root / ".perfbench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(root, wl, work, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _serve_args(wl: ServeWorkload, data_dir: Path | None) -> List[str]:
    args = list(wl.serve_args)
    if data_dir is not None:
        args += ["--data-dir", str(data_dir)]
    return args


def _start(root: Path, wl: ServeWorkload, data_dir: Path | None,
           points: np.ndarray) -> Tuple[launcher.ServerProcess, OpenLoopClient, int]:
    server = launcher.launch(root, _serve_args(wl, data_dir))
    try:
        client = OpenLoopClient(server.host, server.port)
        reply = client.call({"op": "register", "dataset": mixes.DATASET,
                             "points": points.tolist()})
        if not reply.get("ok"):
            raise RuntimeError(f"register failed: {reply}")
    except BaseException:
        server.kill()
        raise
    return server, client, mixes.served_generation(reply)


def _run(root: Path, wl: ServeWorkload, work: Path, seed: int, seconds: float,
         trace: bool) -> Result:
    res = Result()
    points = wl.mix.points(seed)
    plan = [(s.rate, max(1, int(round(s.rate * s.share * seconds)))) for s in wl.ladder]
    stream = mixes.build_stream(wl.mix, seed, sum(n for _, n in plan))

    server = client = None
    data_dir = None
    for i in range(SETUP_REPEATS):
        if server is not None:
            client.close()
            server.kill()
        data_dir = work / f"data-{i}" if wl.durable else None
        t0 = time.perf_counter()
        server, client, generation = _start(root, wl, data_dir, points)
        res.setup_s.append(time.perf_counter() - t0)

    steps: List[_Step] = []
    phase = time.perf_counter()
    try:
        pos = 0
        for rate, count in plan:
            requests = stream[pos:pos + count]
            pos += count
            out = client.run(requests, [j / rate for j in range(count)])
            steps.append(_Step(rate, requests, out))
            if out.transport_error:
                res.fail(f"{rate}/s step: {out.transport_error}")
                break
        server_metrics = client.call({"op": "metrics"})["metrics"]
        rss = server.peak_rss_mb()

        res.detail["load_s"] = round(time.perf_counter() - phase, 3)
        phase = time.perf_counter()
        oracle = mixes.Oracle(points, generation)
        step_ok = []
        with mixes.oracle_kernel():
            for step in steps:
                wrong = 0
                for req, resp in zip(step.requests, step.out.responses):
                    res.attempted += 1
                    why = oracle.check(req, resp)
                    if why is not None:
                        wrong += 1
                        res.fail(f"request {oracle.checked - 1}: {why}")
                step_ok.append(wrong == 0)

        res.detail["oracle_s"] = round(time.perf_counter() - phase, 3)
        if wl.durable:
            _crash_and_recover(res, root, wl, server, client, data_dir, oracle)
            server = client = None
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.terminate()

    nominal = steps[0]
    primary = nominal.latencies(wl.primary)
    if not primary:
        res.fail(f"no {wl.primary} was answered at the nominal rate")
    res.e2e["p50_ms"] = _pct_ms(primary, 50)
    res.e2e["mean_ms"] = statistics.mean(primary) * 1e3 if primary else 0.0
    res.e2e["peak_rss_mb"] = rss
    capacity = 0.0
    for step, ok in zip(steps, step_ok):
        q99 = _pct_ms(step.latencies("query"), 99)
        meets = ok and q99 <= SLO_P99_S * 1e3 and not step.backlog_growing()
        res.detail[f"step.{step.rate:g}"] = {
            "requests": len(step.requests), "achieved": round(step.achieved_rate(), 3),
            "query_p99_ms": round(q99, 3), "meets_slo": meets,
        }
        if meets:
            capacity = step.achieved_rate()
    res.e2e["capacity_per_s"] = capacity

    queries = nominal.latencies("query")
    mutations = nominal.latencies("mutation")
    named = {
        "query_p50_ms": (_pct_ms(queries, 50), "ms"),
        "query_p99_ms": (_pct_ms(queries, 99), "ms"),
        "mutation_p50_ms": (_pct_ms(mutations, 50), "ms"),
        "mutation_p99_ms": (_pct_ms(mutations, 99), "ms"),
        "max_qps_at_slo": (capacity, "1/s"),
        "error_rate": (res.failed / max(res.attempted, 1), "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    res.named.update(named)
    res.detail["nominal_samples"] = {"queries": len(queries), "mutations": len(mutations)}
    if trace:
        _client_layers(res, steps, server_metrics)
        _inprocess_layers(res, wl, work, points, nominal.requests)
    return res


def _crash_and_recover(res: Result, root: Path, wl: ServeWorkload,
                       server: launcher.ServerProcess, client: OpenLoopClient,
                       data_dir: Path, oracle: mixes.Oracle) -> None:
    """SIGKILL the server, restart it on the same directory, and time the
    first id-for-id correct answer."""
    probe = {"op": "query", "dataset": mixes.DATASET, "kind": "skyline"}
    expected = oracle.expected(probe)
    client.close()
    killed = time.perf_counter()
    server.kill()
    stored = sum(f.stat().st_size for f in data_dir.rglob("*")
                 if f.name in ("wal.log", "snapshot.bin"))
    restarted = launcher.launch(root, _serve_args(wl, data_dir))
    try:
        with OpenLoopClient(restarted.host, restarted.port) as probe_client:
            res.attempted += 1
            while True:
                reply = probe_client.call(probe)
                correct = reply.get("ok") and reply["ids"] == expected
                if correct or time.perf_counter() - killed > 60:
                    break
                time.sleep(0.005)
            recovered = time.perf_counter() - killed
            if not correct:
                res.fail(f"recovered server never answered correctly: {reply}")
    finally:
        restarted.terminate()
    live_bytes = len(oracle.rows) * wl.mix.dims * 8
    res.named["recovery_s"] = (recovered, "s")
    res.named["storage_amp"] = (stored / live_bytes, "ratio")


def _client_layers(res: Result, steps: List[_Step],
                   server_metrics: Dict[str, Any]) -> None:
    """Per-layer figures read from the live run: replies and server verbs."""
    layer = res.layer
    nominal = steps[0]
    waits, by_kind = [], {}
    service_ms: Dict[Tuple[str, bool], List[float]] = {}
    hits = queries = 0
    for i, (req, resp) in enumerate(zip(nominal.requests, nominal.out.responses)):
        lat = nominal.out.latency_s(i)
        if req["op"] != "query" or resp is None or lat is None:
            continue
        waits.append(lat - resp["latency_s"])
        by_kind.setdefault(req["kind"], []).append(lat)
        service_ms.setdefault((req["kind"], bool(resp["cache_hit"])), []).append(
            resp["latency_s"] * 1e3)
    for step in steps:
        for req, resp in zip(step.requests, step.out.responses):
            if req["op"] == "query" and resp is not None:
                queries += 1
                hits += bool(resp.get("cache_hit"))
    layer["server.wait_ms.p50"] = _pct_ms(waits, 50)
    layer["server.wait_ms.p99"] = _pct_ms(waits, 99)
    layer["cache.hit_ratio"] = hits / queries if queries else 0.0
    for kind, lats in by_kind.items():
        layer[f"query_ms.{kind}.p99"] = _pct_ms(lats, 99)
    total = sum(sum(v) for v in service_ms.values())
    for (kind, hit), values in service_ms.items():
        tag = "hit" if hit else "miss"
        layer[f"service.latency_ms.{kind}.{tag}"] = statistics.mean(values)
        res.detail[f"service.share.{kind}.{tag}"] = round(sum(values) / total, 4)
    layer["generator.late_ms.max"] = max(
        max(step.out.late_s()) for step in steps) * 1e3
    layer["generator.threads"] = max(step.out.threads_peak for step in steps)
    counters = server_metrics.get("counters", {})
    layer["wal.fsyncs"] = counters.get("wal.syncs", 0)
    held = counters.get("serve.cluster.points_held", 0)
    if held:
        layer["cluster.candidates_ratio"] = (
            counters.get("serve.cluster.candidates_received", 0) / held)


def _inprocess_layers(res: Result, wl: ServeWorkload, work: Path,
                      points: np.ndarray, requests: List[Dict[str, Any]]) -> None:
    """Replay the nominal step in-process, timing each public entry point.

    Two replicas see the same requests: a ``SkylineService`` timed
    through ``handle_request`` (the protocol layer, queries only), and a
    bare ``SkylineStore`` timed call by call (mutations, the incremental
    skyline, ``evaluate`` for each query the result cache would miss),
    so no timed call finds its answer cached by the other's work.
    """
    from repro.serving.protocol import handle_request, parse_query_spec
    from repro.serving.queries import evaluate
    from repro.serving.service import ServeConfig, SkylineService
    from repro.serving.store import SkylineStore

    if wl.cluster:
        _cluster_layers(res, points, requests)
        return
    layer = res.layer
    service = SkylineService(ServeConfig())
    service.register(mixes.DATASET, points)
    durability = None
    if wl.durable:
        from repro.serving.durability import DurabilityConfig, DurabilityManager

        durability = DurabilityManager(
            DurabilityConfig(str(work / "inproc"), fsync="always"))
        log = durability.dataset_log(mixes.DATASET)
        store = SkylineStore(mixes.DATASET)
        # The order SkylineService.register logs in: register, then data.
        store.attach_durability(log)
        log.log_register(store.store_config())
        store.bulk_load(points)
    else:
        store = SkylineStore(mixes.DATASET, points)

    handle: List[float] = []
    evaluate_ms: Dict[str, List[float]] = {}
    snapshot_ms: List[float] = []
    mutate_ms: Dict[str, List[float]] = {"insert": [], "remove": []}
    seen = set()

    def timed(fn: Any, *args: Any) -> float:
        t0 = time.perf_counter()
        fn(*args)
        return (time.perf_counter() - t0) * 1e3

    for req in requests:
        if req["op"] == "insert":
            service.insert(mixes.DATASET, req["point"])
            mutate_ms["insert"].append(timed(store.insert, req["point"]))
            continue
        if req["op"] == "remove":
            service.remove(mixes.DATASET, req["id"])
            mutate_ms["remove"].append(timed(store.remove, req["id"]))
            continue
        handle.append(timed(handle_request, service, req))
        spec = parse_query_spec(req)
        key = spec.cache_key(store.generation)
        if key in seen:
            continue
        seen.add(key)
        snap = store.snapshot()
        evaluate_ms.setdefault(req["kind"], []).append(
            timed(evaluate, spec, snap.ids, snap.rows))
        if req["kind"] == "skyline":
            snapshot_ms.append(timed(store.skyline_snapshot))
    layer["protocol.handle_ms"] = statistics.median(handle)
    for kind, values in evaluate_ms.items():
        layer[f"queries.evaluate_ms.{kind}"] = statistics.median(values)
    layer["store.skyline_snapshot_ms"] = statistics.median(snapshot_ms)
    for op, values in mutate_ms.items():
        if values:
            layer[f"store.{op}_ms"] = statistics.median(values)
    if durability is not None:
        _durability_layers(res, work, store, durability, requests)


def _durability_layers(res: Result, work: Path, store: Any, durability: Any,
                       requests: List[Dict[str, Any]]) -> None:
    from repro.serving.durability import DurabilityConfig, DurabilityManager
    from repro.serving.durability.recovery import recover_dataset

    layer = res.layer
    checkpoints = []
    for _ in range(3):
        t0 = time.perf_counter()
        store.checkpoint()
        checkpoints.append((time.perf_counter() - t0) * 1e3)
    layer["snapshot.write_ms"] = statistics.median(checkpoints)
    durability.close()

    # WAL appends alone: the same mutation records into a fresh log.
    log = DurabilityManager(
        DurabilityConfig(str(work / "wal-only"), fsync="always")).dataset_log(mixes.DATASET)
    appends = []
    for req in requests:
        if req["op"] not in ("insert", "remove"):
            continue
        t0 = time.perf_counter()
        if req["op"] == "insert":
            log.log_insert(req["point"])
        else:
            log.log_remove(req["id"])
        appends.append((time.perf_counter() - t0) * 1e3)
    log.close()
    layer["wal.append_ms.p50"] = float(np.percentile(appends, 50))
    layer["wal.append_ms.p99"] = float(np.percentile(appends, 99))
    layer["wal.bytes_per_mutation"] = os.path.getsize(log.wal_path) / len(appends)

    # Replay of the in-process store's snapshot + WAL tail.
    manager = DurabilityManager(DurabilityConfig(str(work / "inproc"), fsync="always"))
    t0 = time.perf_counter()
    recovered, _report = recover_dataset(manager, mixes.DATASET)
    layer["recovery.replay_s"] = time.perf_counter() - t0
    manager.close()
    if recovered is None:
        res.fail("in-process recovery found no dataset")


def _cluster_layers(res: Result, points: np.ndarray,
                    requests: List[Dict[str, Any]]) -> None:
    from repro.serving.cluster import (
        ClusterCoordinator,
        LocalCluster,
        handle_cluster_request,
    )

    layer = res.layer
    cluster = LocalCluster(2)
    coordinator = ClusterCoordinator(cluster.addresses())
    try:
        coordinator.register(mixes.DATASET, points)
        handle: List[float] = []
        fanout: Dict[str, List[float]] = {}
        for req in requests:
            t0 = time.perf_counter()
            reply = handle_cluster_request(coordinator, req)
            elapsed = (time.perf_counter() - t0) * 1e3
            if req["op"] != "query":
                continue
            handle.append(elapsed)
            if not reply.get("cache_hit"):
                fanout.setdefault(req["kind"], []).append(elapsed)
        layer["protocol.handle_ms"] = statistics.median(handle)
        for kind, values in fanout.items():
            layer[f"cluster.fanout_ms.{kind}"] = statistics.median(values)
    finally:
        coordinator.close()
        cluster.close()
