"""Shard restart with generation-vector continuity.

Two storylines over a durable :class:`LocalCluster`:

* **continuity** — kill a shard, restart it on its old port, and the
  recovered shard answers at its pre-crash generations: no query
  degrades, every query kind stays id-for-id, and post-restart inserts
  keep drawing ids the coordinator's shard map already agrees with;
* **regression detection** — a shard restarted from *damaged* durability
  state (its WAL rolled back under it) answers below the generation the
  coordinator has observed; the coordinator must treat that leg as lost
  rather than merge silently-stale data, and the placement's
  generation vector must never regress.
"""

import os

import numpy as np
import pytest

from repro.observability.metrics import get_metrics
from repro.serving.cluster import ClusterConfig, ClusterCoordinator, LocalCluster
from repro.serving.queries import QuerySpec
from repro.serving.service import ServeConfig

DATASET = "fleet"
DIMS = 3


def _points(n=40, seed=11):
    return np.random.default_rng(seed).random((n, DIMS)) + 0.01


def _specs():
    return [
        QuerySpec(dataset=DATASET),
        QuerySpec(dataset=DATASET, kind="skyband", k=2),
        QuerySpec(
            dataset=DATASET,
            kind="constrained",
            lower=(0.0,) * DIMS,
            upper=(0.8,) * DIMS,
        ),
        QuerySpec(dataset=DATASET, kind="subspace", dims=(0, 1)),
    ]


def _configs():
    # cache_entries=0: every query is a real fan-out, so post-restart
    # answers come from the recovered shard, not the coordinator cache.
    return {
        "config": ClusterConfig(shard_timeout_s=5.0),
        "serve_config": ServeConfig(cache_entries=0),
    }


def _answers(coordinator):
    out = {}
    for spec in _specs():
        response = coordinator.query(spec)
        assert not response.degraded, (spec.kind, response.missing_shards)
        out[spec.kind] = (response.ids, response.generation)
    return out


def _redial(coordinator, *, attempts=8):
    """Drain the coordinator's dead pooled connections after a restart.

    Endpoint recovery is by design lazy — a pooled connection severed by
    the crash fails exactly one leg, then the endpoint dials fresh — so a
    few throwaway queries absorb the stale sockets deterministically.
    """
    for _ in range(attempts):
        if not coordinator.query(QuerySpec(dataset=DATASET)).degraded:
            return
    raise AssertionError(f"coordinator still degraded after {attempts} redials")


class TestRestartContinuity:
    def test_recovered_shard_answers_id_for_id(self, tmp_path):
        rows = _points()
        with LocalCluster(2, data_dir=str(tmp_path), fsync="always") as fleet:
            with ClusterCoordinator(fleet.addresses(), **_configs()) as coord:
                gvec = coord.register(DATASET, rows, shard_fn="angle")
                assert gvec == (1, 1)
                inserted = [
                    coord.insert(DATASET, [0.02 + 0.01 * i] * DIMS)[0]
                    for i in range(4)
                ]
                pre = _answers(coord)

                fleet.kill(0)
                address = fleet.restart(0)
                assert address == fleet.addresses()[0], "same port after restart"
                _redial(coord)

                post = _answers(coord)
                assert post == pre, "restart changed an answer or a generation"

                # The id clock survives too: the next insert draws a fresh
                # global id past everything recovered, on either shard.
                new_id, new_gvec = coord.insert(DATASET, [0.001] * DIMS)
                assert new_id == rows.shape[0] + len(inserted)
                assert all(
                    g >= old for g, old in zip(new_gvec, pre["skyline"][1])
                ), "generation vector regressed after restart"
                fresh = coord.query(QuerySpec(dataset=DATASET))
                assert new_id in fresh.ids

    def test_both_shards_survive_sequential_restarts(self, tmp_path):
        rows = _points(seed=12)
        with LocalCluster(2, data_dir=str(tmp_path), fsync="always") as fleet:
            with ClusterCoordinator(fleet.addresses(), **_configs()) as coord:
                coord.register(DATASET, rows, shard_fn="angle")
                coord.insert(DATASET, [0.015] * DIMS)
                pre = _answers(coord)
                for shard in (0, 1):
                    fleet.kill(shard)
                    fleet.restart(shard)
                    _redial(coord)
                    assert _answers(coord) == pre, f"shard {shard} restart drifted"


class TestGenerationRegression:
    def test_rolled_back_shard_is_quarantined_not_merged(self, tmp_path):
        rows = _points(seed=13)
        with LocalCluster(2, data_dir=str(tmp_path), fsync="always") as fleet:
            with ClusterCoordinator(fleet.addresses(), **_configs()) as coord:
                coord.register(DATASET, rows, shard_fn="angle")
                wal_paths = [
                    os.path.join(
                        str(tmp_path), f"shard-{i:02d}", DATASET, "wal.log"
                    )
                    for i in range(2)
                ]
                pristine = [open(p, "rb").read() for p in wal_paths]

                # Mutate until some shard has acknowledged an insert the
                # pristine WAL image knows nothing about.
                victim = coord.insert(DATASET, [0.03] * DIMS)[1].index(2)
                pre = coord.query(QuerySpec(dataset=DATASET))
                observed_gvec = pre.generation

                # Crash the victim and roll its WAL back to the pre-insert
                # image: the restarted shard recovers at generation 1 while
                # the coordinator has observed 2 — silent data loss unless
                # the coordinator notices.
                fleet.kill(victim)
                open(wal_paths[victim], "wb").write(pristine[victim])
                fleet.restart(victim)

                # The first post-restart legs may fail on the severed
                # pooled sockets; once the endpoint redials, the stale
                # shard *answers* — and must be quarantined, not merged.
                counter = get_metrics().counter(
                    "serve.cluster.generation_regressed"
                )
                before = counter.value
                for _ in range(8):
                    response = coord.query(QuerySpec(dataset=DATASET))
                    assert response.degraded, "stale shard must not merge clean"
                    assert response.missing_shards == [victim]
                    if counter.value > before:
                        break
                else:
                    raise AssertionError(
                        "regressed shard never reached the quarantine path"
                    )
                # The placement's max-merge gvec holds its ground.
                assert response.generation == observed_gvec
