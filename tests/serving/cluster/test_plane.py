"""The coordinator runs the single-node request plane.

A :class:`ClusterCoordinator` is a :class:`SkylineService` whose datasets
are sharded backends, so it inherits what used to be single-node only:

* request coalescing — identical concurrent cache misses share one
  fan-out;
* admission control with stale-on-overload — over capacity, the newest
  cached answer comes back flagged ``degraded``;
* one telemetry schema — ``stats`` / ``health`` / ``slo`` / ``events``
  answer with the same keys on both backends.
"""

import threading

import numpy as np
import pytest

from repro.observability.metrics import get_metrics
from repro.serving.cluster import ClusterCoordinator, LocalCluster
from repro.serving.protocol import handle_request
from repro.serving.queries import QuerySpec
from repro.serving.service import ServeConfig, ServiceOverloadedError, SkylineService


def _points(n=80, d=3, seed=17):
    return np.random.default_rng(seed).random((n, d)) + 0.01


def _counter(name):
    return get_metrics().counter(name).value


@pytest.fixture(scope="module")
def fleet():
    with LocalCluster(2) as cluster:
        yield cluster


class TestCoalescing:
    def test_identical_concurrent_misses_share_one_fan_out(self, fleet):
        with ClusterCoordinator(fleet.addresses()) as coordinator:
            coordinator.register("co", _points(), shard_fn="angle")
            backend = coordinator.store("co")
            spec = QuerySpec(dataset="co", kind="skyband", k=2)
            gate = threading.Event()
            entered = threading.Event()
            calls = []
            original = backend.answer

            def gated_answer(*args):
                calls.append(args)
                entered.set()
                assert gate.wait(timeout=10)
                return original(*args)

            backend.answer = gated_answer
            legs_before = _counter("serve.shard.served")
            computes_before = _counter("serve.cluster.computes")
            responses, errors = [], []

            def worker():
                try:
                    responses.append(coordinator.query(spec))
                except BaseException as exc:  # surfaced after join
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            threads[0].start()
            assert entered.wait(timeout=10)  # the leader owns the flight
            for thread in threads[1:]:
                thread.start()
            for _ in range(500):
                with coordinator._lock:
                    flights = list(coordinator._flights.values())
                if flights and flights[0].requests == 4:
                    break
                threading.Event().wait(0.01)
            gate.set()
            for thread in threads:
                thread.join(timeout=30)

        assert not errors
        assert len(calls) == 1, "one fan-out for four identical misses"
        assert _counter("serve.shard.served") - legs_before == 2  # one leg per shard
        assert _counter("serve.cluster.computes") - computes_before == 1
        assert len({tuple(r.ids) for r in responses}) == 1
        assert sum(1 for r in responses if r.coalesced) == 3
        assert all(not r.degraded for r in responses)


class TestStaleOnOverload:
    def test_over_capacity_serves_newest_stale_answer_degraded(self, fleet):
        config = ServeConfig(max_inflight=1, max_queue=0)
        with ClusterCoordinator(fleet.addresses(), serve_config=config) as coordinator:
            coordinator.register("ov", _points(), shard_fn="hash")
            spec = QuerySpec(dataset="ov")
            fresh = coordinator.query(spec)
            _, gvec = coordinator.insert("ov", [0.5, 0.5, 0.5])
            assert gvec != fresh.generation  # the cached answer is now stale

            assert coordinator._admission.acquire(blocking=False)  # at capacity
            try:
                shed_before = _counter("serve.cluster.shed")
                stale = coordinator.query(spec)
                wire = handle_request(coordinator, {"op": "query", "dataset": "ov"})
                with pytest.raises(ServiceOverloadedError):
                    coordinator.query(QuerySpec(dataset="ov", kind="skyband", k=3))
            finally:
                coordinator._admission.release()

        assert stale.degraded and stale.status == "degraded" and stale.cache_hit
        assert stale.ids == fresh.ids
        assert stale.generation == fresh.generation
        assert _counter("serve.cluster.shed") - shed_before == 3
        assert wire["ok"] and wire["degraded"]
        assert wire["generations"] == list(fresh.generation)
        assert wire["missing_shards"] == []


class TestOneSchema:
    @pytest.mark.parametrize("op", ["stats", "health", "slo", "events"])
    def test_admin_verbs_share_keys(self, fleet, op):
        points = _points(40)
        single = SkylineService()
        single.register("schema", points)
        single.query(QuerySpec(dataset="schema"))
        with ClusterCoordinator(fleet.addresses()) as coordinator:
            coordinator.register("schema", points, shard_fn="angle")
            coordinator.query(QuerySpec(dataset="schema"))
            local = handle_request(single, {"op": op})
            cluster = handle_request(coordinator, {"op": op})
        assert local["ok"] and cluster["ok"]
        assert set(local) == set(cluster)
        if op == "stats":
            assert set(local["datasets"]["schema"]) <= set(cluster["datasets"]["schema"])
            assert local["shards"] == {} and len(cluster["shards"]) == 2
            assert cluster["latency"]["count"] >= 1


class TestLocalOnlyOps:
    """A coordinator's datasets are sharded: the shard-side verbs refuse
    them with an error response instead of failing the session."""

    def test_shard_query_to_a_coordinator_is_an_error_response(self, fleet):
        with ClusterCoordinator(fleet.addresses()) as coordinator:
            coordinator.register("lo", _points(20), shard_fn="hash")
            computes_before = _counter("serve.cluster.computes")
            response = handle_request(
                coordinator, {"op": "shard_query", "dataset": "lo", "kind": "skyline"}
            )
            assert coordinator.query(QuerySpec(dataset="lo")).status == "ok"
        assert response["ok"] is False and response["status"] == "error"
        assert "sharded" in response["error"]
        # Refused before any fan-out ran.
        assert _counter("serve.cluster.computes") - computes_before == 1

    def test_register_and_ping_fields_come_from_the_backend(self, fleet):
        single = SkylineService()
        local = handle_request(
            single, {"op": "register", "dataset": "w", "points": _points(10).tolist()}
        )
        with ClusterCoordinator(fleet.addresses()) as coordinator:
            cluster = handle_request(
                coordinator,
                {"op": "register", "dataset": "w", "points": _points(10).tolist()},
            )
            pong = handle_request(coordinator, {"op": "ping"})
        assert local["size"] == 10 and "shards" not in local
        assert cluster["shards"] == 2 and "size" not in cluster
        assert cluster["generations"] and "generation" not in cluster
        assert pong["shards"] == 2
        assert "shards" not in handle_request(single, {"op": "ping"})
