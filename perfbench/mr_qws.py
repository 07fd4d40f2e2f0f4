"""``mr-qws``: the paper's headline cell, MR skyline at 100k x 10.

The input is the QWS-like matrix the figures use
(``DatasetCache().matrix(100_000, 10)``), the paper's fixed cell, in its
own row order for every seed.  Permuting the rows by seed was tried:
scalar BNL's work then moved by up to 11% between seeds (233M to 260M
dominance tests per round), an input variation the paper's cell does
not have.  Each pipeline runs with the program's defaults (4 workers,
default executor and kernel), so the run measures what a user of
``run_mr_skyline`` gets.  No serving code runs here.

The traced run times each layer from outside, through the same public
entry points the pipeline uses: partitioner ``fit``/``assign``, the
local-skyline BNL per partition, the merge BNL over the local skylines,
and filter-point selection.  The pipeline's own ``MRSkylineResult``
supplies the engine's task busy times, shuffle bytes and counters.
"""

from __future__ import annotations

import resource
import statistics
import time
from typing import Any, Dict, List

import numpy as np

from repro.bench.harness import DatasetCache
from repro.core.bnl import bnl_skyline
from repro.core.filtering import DEFAULT_FILTER_K, compute_filter_points
from repro.core.kernels import get_kernel
from repro.core.mr_skyline import default_partition_count, run_mr_skyline
from repro.core.partitioning import GridPartitioner, make_partitioner
from repro.mapreduce.types import TaskKind

from perfbench.result import Result

METHODS = ("angle", "grid", "dim")
N_POINTS = 100_000
DIMS = 10
NUM_WORKERS = 4
SETUP_REPEATS = 3


def build_input() -> np.ndarray:
    """A freshly generated QWS-like matrix (no cache shared between calls)."""
    return DatasetCache().matrix(N_POINTS, DIMS)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(seconds: float, trace: bool) -> Result:
    res = Result()
    setups: List[float] = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        points = build_input()
        setups.append(time.perf_counter() - t0)
    res.setup_s = setups

    # The single-node reference every MR answer must equal.
    expected = np.sort(get_kernel("block").skyline(points))
    res.detail["single_node_skyline"] = int(expected.size)

    walls: Dict[str, List[float]] = {m: [] for m in METHODS}
    rounds: List[float] = []
    results: Dict[str, Any] = {}
    started = time.perf_counter()
    # Rounds run until ``seconds`` is spent; a round is not started when
    # it would overrun the budget by more than half a round.
    while not rounds or (time.perf_counter() - started
                         + statistics.mean(rounds) / 2 < seconds):
        round_wall = 0.0
        for method in METHODS:
            t0 = time.perf_counter()
            result = run_mr_skyline(points, method=method, num_workers=NUM_WORKERS)
            wall = time.perf_counter() - t0
            walls[method].append(wall)
            round_wall += wall
            results[method] = result
            res.attempted += 1
            if not np.array_equal(np.sort(result.global_indices), expected):
                res.fail(f"{method}: MR global skyline differs from the single-node "
                         f"skyline ({result.global_indices.size} vs {expected.size})")
        rounds.append(round_wall)

    res.detail["rounds"] = len(rounds)
    res.detail["kernel"] = results["angle"].kernel
    res.detail["executor"] = results["angle"].executor
    for method in METHODS:
        res.named[f"mr_wall_s.{method}"] = (statistics.median(walls[method]), "s")
    res.e2e["p50_ms"] = statistics.median(rounds) * 1e3
    res.e2e["mean_ms"] = statistics.mean(rounds) * 1e3
    res.e2e["capacity_per_s"] = len(METHODS) * N_POINTS / statistics.median(rounds)
    res.e2e["peak_rss_mb"] = peak_rss_mb()
    res.named["peak_rss_mb"] = (res.e2e["peak_rss_mb"], "MB")
    res.named["error_rate"] = (res.failed / res.attempted, "ratio")

    if trace:
        for method in METHODS:
            _attribute(res, points, method, results[method],
                       statistics.median(walls[method]))
    return res


def _attribute(res: Result, points: np.ndarray, method: str, result: Any,
               wall_s: float) -> None:
    """Per-layer times of one pipeline, each measured through its public API."""
    layer = res.layer
    num_partitions = default_partition_count(NUM_WORKERS)

    t0 = time.perf_counter()
    partitioner = make_partitioner(method, num_partitions)
    partitioner.fit(points)
    ids = partitioner.assign(points)
    fit_assign_s = time.perf_counter() - t0

    pruned = set()
    if isinstance(partitioner, GridPartitioner):
        pruned = {int(c) for c in partitioner.pruned_cells()}
    local_s = 0.0
    local_sky: List[np.ndarray] = []
    for pid in range(partitioner.num_partitions):
        if pid in pruned:
            continue
        rows_idx = np.flatnonzero(ids == pid)
        if not rows_idx.size:
            continue
        t0 = time.perf_counter()
        sky = bnl_skyline(points[rows_idx]).indices
        local_s += time.perf_counter() - t0
        local_sky.append(rows_idx[sky])
    union = np.concatenate(local_sky)
    t0 = time.perf_counter()
    bnl_skyline(points[union])
    merge_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    filters = compute_filter_points(points, k=DEFAULT_FILTER_K)
    select_s = time.perf_counter() - t0
    alive = get_kernel("block").filter_survivors(filters, points)
    pruned_frac = 1.0 - float(alive.sum()) / points.shape[0]

    layer_sum = fit_assign_s + local_s + merge_s
    if result.filter_points:
        layer_sum += select_s  # the pipeline only selects filters when pruning

    chain = result.chain
    local_total = sum(v.size for v in result.local_skylines.values())
    layer[f"mr_wall_s.{method}"] = wall_s
    layer[f"partitioning.fit_assign_s.{method}"] = fit_assign_s
    layer[f"kernels.local_skyline_s.{method}"] = local_s
    layer[f"kernels.merge_skyline_s.{method}"] = merge_s
    layer[f"kernels.dominance_tests.{method}"] = result.dominance_tests
    layer[f"filtering.select_s.{method}"] = select_s
    layer[f"filtering.pruned_frac.{method}"] = pruned_frac
    layer[f"mapreduce.map_busy_s.{method}"] = chain.phase_stats(TaskKind.MAP).busy_s
    layer[f"mapreduce.reduce_busy_s.{method}"] = chain.phase_stats(TaskKind.REDUCE).busy_s
    layer[f"mapreduce.shuffle_bytes.{method}"] = sum(
        r.shuffle_stats.bytes for r in chain.results)
    layer[f"mapreduce.job_wall_s.partition.{method}"] = chain.results[0].wall_s
    layer[f"mapreduce.job_wall_s.merge.{method}"] = chain.results[-1].wall_s
    layer[f"mapreduce.overhead_s.{method}"] = wall_s - layer_sum
    layer[f"mr_skyline.optimality.{method}"] = (
        result.global_indices.size / local_total if local_total else 0.0)
