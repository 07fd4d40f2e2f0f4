"""The perf-trajectory suite behind ``repro bench``.

One fixed, fast set of measurements re-run every PR, so the repository
accumulates a comparable performance record (``BENCH_<pr>.json``) instead
of an empty trajectory:

* **engine** — one :func:`repro.bench.harness.run_point` cell per
  partitioning scheme (MR-Dim / MR-Grid / MR-Angle) at a fixed
  ``(n, d)``: driver wall time, simulated cluster seconds, dominance-test
  counts, skyline sizes, optimality;
* **serving** — the online layer's latencies on a fixed store: cold
  compute, warm cache hit, insert + re-query (the invalidation round
  trip), and a k-skyband compute, measured with
  :func:`time.perf_counter` medians over a few repetitions.

The JSON record is schema-versioned and self-describing; ``repro bench
--json BENCH_5.json`` is how a PR refreshes its point on the trajectory.
"""

from __future__ import annotations

import statistics
import subprocess
import time
from dataclasses import asdict
from typing import Any, Callable, Dict, List

import numpy as np

from repro.bench.harness import default_cache, run_point
from repro.bench.reporting import Table
from repro.core.kernels import get_kernel
from repro.core.mr_skyline import run_mr_skyline

__all__ = ["perf_trajectory", "render_trajectory"]

#: Record schema version; bump on breaking shape changes.
#: v4 adds the ``loadtest`` section (open-loop latency percentiles +
#: crash-recovery measurements from :mod:`repro.bench.loadtest`).
SCHEMA_VERSION = 4

_METHODS = ("dim", "grid", "angle")


def _median_latency_s(fn: Callable[[], Any], repeats: int) -> float:
    samples = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(statistics.median(samples))


def _engine_points(
    n: int, d: int, executor: str | None, kernel: str | None
) -> List[Dict[str, Any]]:
    points = []
    for method in _METHODS:
        record = run_point(method, n, d, executor=executor, kernel=kernel)
        row = asdict(record)
        row.pop("trace_summary", None)
        points.append(row)
    return points


def _kernel_showdown(n: int, d: int, *, method: str = "angle") -> Dict[str, Any]:
    """Scalar-vs-block head-to-head at one ``(n, d)`` cell.

    Both runs go through the identical MR pipeline; the scalar side runs
    the reference backend with pruning off (the historical configuration),
    the block side gets the full columnar + filter-pruning treatment.  The
    skylines must match index for index — the speedup is only meaningful
    on identical answers.
    """
    matrix = default_cache().matrix(n, d)
    runs: Dict[str, Any] = {}
    indices: Dict[str, np.ndarray] = {}
    for kernel, filter_k in (("scalar", 0), ("block", None)):
        result = run_mr_skyline(
            matrix, method=method, kernel=kernel, prune_filter_k=filter_k
        )
        indices[kernel] = result.global_indices
        runs[kernel] = {
            "driver_wall_s": round(result.processing_time_s, 6),
            "dominance_tests": result.dominance_tests,
            "points_pruned": result.points_pruned,
            "filter_points": result.filter_points,
            "global_skyline": int(result.global_indices.size),
        }
    return {
        "n": n,
        "d": d,
        "method": method,
        "identical_skyline": bool(
            np.array_equal(indices["scalar"], indices["block"])
        ),
        "speedup": round(
            runs["scalar"]["driver_wall_s"]
            / max(runs["block"]["driver_wall_s"], 1e-9),
            3,
        ),
        "scalar": runs["scalar"],
        "block": runs["block"],
    }


def _serving_latencies(
    n: int, d: int, repeats: int, kernel: str | None = None
) -> Dict[str, Any]:
    from repro.serving.queries import QuerySpec
    from repro.serving.service import ServeConfig, SkylineService

    matrix = default_cache().matrix(n, d)
    service = SkylineService(ServeConfig(cache_entries=64, kernel=kernel))
    service.register("bench", matrix)
    spec = QuerySpec(dataset="bench")
    skyband = QuerySpec(dataset="bench", kind="skyband", k=3)

    cold_s = _median_latency_s(lambda: service.query(spec), 1)
    warm_s = _median_latency_s(lambda: service.query(spec), repeats)

    def _mutate_and_requery() -> None:
        point_id, _ = service.insert("bench", matrix[0] * 1.01)
        service.query(spec)
        service.remove("bench", point_id)

    invalidate_s = _median_latency_s(_mutate_and_requery, repeats)
    skyband_s = _median_latency_s(lambda: service.query(skyband), 1)
    skyline_size = len(service.query(spec).ids)
    return {
        "n": n,
        "d": d,
        "repeats": repeats,
        "skyline_size": skyline_size,
        "cold_skyline_s": round(cold_s, 6),
        "warm_cache_hit_s": round(warm_s, 6),
        "insert_requery_s": round(invalidate_s, 6),
        "cold_skyband_s": round(skyband_s, 6),
        "cache": service.cache_stats(),
    }


def _cluster_traffic(
    n: int, d: int, kernel: str | None = None
) -> Dict[str, Any]:
    """Candidate traffic across the cluster wire on a correlated dataset.

    The communication-efficiency claim of the cluster layer (acceptance
    criterion of the differential suite): with broadcast filter points, the
    shards transmit strictly fewer candidates than they hold.  Correlated
    data is the friendly case — tiny skylines, so the filters dominate
    nearly everything before it crosses the wire.  Runs over a real
    3-shard loopback topology (:class:`LocalCluster`); the skyline query
    seeds the filters, the constrained re-query at the same generation
    vector then pays only the pruned wire cost.
    """
    from repro.data.generators import correlated
    from repro.serving.cluster import ClusterCoordinator, LocalCluster
    from repro.serving.queries import QuerySpec
    from repro.serving.service import ServeConfig

    matrix = correlated(n, d, seed=7)
    with LocalCluster(3) as cluster:
        coordinator = ClusterCoordinator(
            cluster.addresses(), serve_config=ServeConfig(kernel=kernel)
        )
        try:
            coordinator.register("bench", matrix, shard_fn="angle")
            spec = QuerySpec(dataset="bench", kind="skyline")
            cold_s = _median_latency_s(
                lambda: coordinator.query(spec), 1
            )
            constrained = QuerySpec(
                dataset="bench",
                kind="constrained",
                lower=(0.0,) * d,
                upper=(0.6,) * d,
            )
            constrained_s = _median_latency_s(
                lambda: coordinator.query(constrained), 1
            )
            stats = coordinator.stats()
            counters = stats.get("counters", {})
            held = int(counters.get("serve.cluster.points_held", 0))
            sent = int(counters.get("serve.cluster.candidates_received", 0))
            skyline_size = len(coordinator.query(spec).ids)
        finally:
            coordinator.close()
    return {
        "n": n,
        "d": d,
        "shards": 3,
        "shard_fn": "angle",
        "workload": "correlated",
        "skyline_size": skyline_size,
        "points_held": held,
        "candidates_sent": sent,
        "wire_reduction": round(1.0 - sent / held, 4) if held else 0.0,
        "filter_pruned": int(counters.get("serve.cluster.filter_pruned", 0)),
        "cold_skyline_s": round(cold_s, 6),
        "cold_constrained_s": round(constrained_s, 6),
        "communication_efficient": bool(held and sent < held),
    }


def _loadtest_section(quick: bool, kernel: str | None = None) -> Dict[str, Any]:
    """Open-loop traffic + SIGKILL/recovery over the real CLI and wire.

    Runs :func:`repro.bench.loadtest.run_scenario` against a spawned
    ``repro serve --tcp --data-dir`` subprocess: the latency percentiles
    are measured client-side under the configured offered load, the
    server is killed with ``SIGKILL`` mid-state, and recovery time +
    id-for-id parity are measured on the restart.  Failures (e.g. a
    sandbox that forbids subprocesses) degrade to an ``error`` field
    rather than sinking the whole bench run.
    """
    import tempfile

    from repro.bench.loadtest import LoadTestConfig, run_scenario

    config = LoadTestConfig(
        qps=100.0 if quick else 300.0,
        duration_s=1.0 if quick else 3.0,
        workers=4 if quick else 8,
        n_points=200 if quick else 800,
        dims=3,
        mutation_fraction=0.1,
        seed=0,
    )
    serve_args = ["--kernel", kernel] if kernel else []
    try:
        with tempfile.TemporaryDirectory() as tmp:
            return run_scenario(
                config,
                tmp,
                serve_args=serve_args,
                fsync="interval",
                snapshot_every=64,
            )
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        return {
            "error": f"{type(exc).__name__}: {exc}",
            "target_qps": config.qps,
        }


def perf_trajectory(
    *, quick: bool = False, executor: str | None = None, kernel: str | None = None
) -> Dict[str, Any]:
    """Run the fixed suite; returns the JSON-ready trajectory record.

    ``kernel`` selects the dominance backend of the engine and serving
    sections (``None`` resolves the process default).  The ``kernels``
    section always runs both backends head to head — at the paper's full
    scale (100 k × 10) in the full suite, at a small cell in quick mode.
    """
    n, d = (1_500, 4) if quick else (10_000, 6)
    serving_n = 1_000 if quick else 4_000
    repeats = 3 if quick else 5
    showdown_n, showdown_d = (4_000, 6) if quick else (100_000, 10)
    started = time.perf_counter()
    record: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "suite": "repro-bench",
        "quick": quick,
        "executor": executor or "serial",
        "kernel": get_kernel(kernel).name,
        "engine": _engine_points(n, d, executor, kernel),
        "serving": _serving_latencies(serving_n, d, repeats, kernel),
        "kernels": _kernel_showdown(showdown_n, showdown_d),
        "cluster": _cluster_traffic(
            8_000 if quick else 100_000, 4, kernel
        ),
        "loadtest": _loadtest_section(quick, kernel),
    }
    record["suite_wall_s"] = round(time.perf_counter() - started, 3)
    # Embed the process-wide metrics the suite itself generated — the
    # trajectory record then carries the serve/cache/skew series alongside
    # the wall-clock numbers, in the same JSON-safe snapshot shape the
    # `metrics` serving verb returns.
    from repro.observability.export import json_snapshot

    record["metrics"] = json_snapshot()
    return record


def render_trajectory(record: Dict[str, Any]) -> str:
    """Human-readable tables for one trajectory record."""
    engine = Table(
        title=f"perf trajectory — engine (quick={record['quick']})",
        columns=[
            "method", "n", "d", "kernel", "driver_wall_s", "sim_total_s",
            "dominance_tests", "points_pruned", "global_skyline", "optimality",
        ],
        precision=4,
    )
    for row in record["engine"]:
        engine.add_row(
            row["method"], row["n"], row["d"], row.get("kernel", "scalar"),
            row["driver_wall_s"], row["sim_total_s"], row["dominance_tests"],
            row.get("points_pruned", 0), row["global_skyline"],
            row["optimality"],
        )
    serving = record["serving"]
    serve = Table(
        title=f"perf trajectory — serving (n={serving['n']}, d={serving['d']})",
        columns=["metric", "seconds"],
        precision=6,
    )
    for metric in (
        "cold_skyline_s", "warm_cache_hit_s", "insert_requery_s",
        "cold_skyband_s",
    ):
        serve.add_row(metric, serving[metric])
    serve.add_note(
        f"skyline size {serving['skyline_size']}, "
        f"median of {serving['repeats']} repeats"
    )
    sections = [engine.render(), serve.render()]
    showdown = record.get("kernels")
    if showdown:
        kernels = Table(
            title=(
                f"perf trajectory — kernels "
                f"(n={showdown['n']}, d={showdown['d']}, "
                f"method={showdown['method']})"
            ),
            columns=[
                "kernel", "driver_wall_s", "dominance_tests",
                "points_pruned", "filter_points", "global_skyline",
            ],
            precision=4,
        )
        for name in ("scalar", "block"):
            run = showdown[name]
            kernels.add_row(
                name, run["driver_wall_s"], run["dominance_tests"],
                run["points_pruned"], run["filter_points"],
                run["global_skyline"],
            )
        kernels.add_note(
            f"block speedup {showdown['speedup']:g}x, identical skyline: "
            f"{showdown['identical_skyline']}"
        )
        sections.append(kernels.render())
    cluster = record.get("cluster")
    if cluster:
        table = Table(
            title=(
                f"perf trajectory — cluster wire "
                f"(n={cluster['n']}, d={cluster['d']}, "
                f"{cluster['shards']} shards, {cluster['workload']})"
            ),
            columns=["metric", "value"],
            precision=6,
        )
        for metric in (
            "points_held", "candidates_sent", "wire_reduction",
            "filter_pruned", "cold_skyline_s", "cold_constrained_s",
        ):
            table.add_row(metric, cluster[metric])
        table.add_note(
            f"skyline size {cluster['skyline_size']}, communication "
            f"efficient: {cluster['communication_efficient']}"
        )
        sections.append(table.render())
    loadtest = record.get("loadtest")
    if loadtest and "error" not in loadtest:
        table = Table(
            title=(
                f"perf trajectory — loadtest "
                f"(target {loadtest['target_qps']:g} qps, open loop)"
            ),
            columns=["metric", "value"],
            precision=6,
        )
        table.add_row("achieved_qps", loadtest["achieved_qps"])
        for pct in ("p50", "p95", "p99"):
            table.add_row(f"latency_{pct}_ms", loadtest["latency_ms"][pct])
        req = loadtest["requests"]
        for metric in ("sent", "answered", "shed", "degraded", "errors"):
            table.add_row(metric, req[metric])
        recovery = loadtest.get("recovery", {})
        if recovery:
            table.add_row("recovery_time_s", recovery["recovery_time_s"])
        durability = loadtest.get("durability", {})
        notes = []
        if recovery:
            notes.append(
                f"id-for-id recovery parity: {recovery['parity']}"
            )
        if durability:
            notes.append(
                f"{durability['records_replayed']} WAL record(s) replayed, "
                f"snapshot/raw ratio {durability['snapshot_to_raw_ratio']}"
            )
        if notes:
            table.add_note("; ".join(notes))
        sections.append(table.render())
    elif loadtest:
        sections.append(f"loadtest section skipped: {loadtest['error']}")
    return "\n\n".join(sections)
