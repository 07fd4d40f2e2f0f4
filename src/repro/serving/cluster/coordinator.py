"""The cluster coordinator: the request plane over N shard servers.

A :class:`ClusterCoordinator` is a
:class:`~repro.serving.service.SkylineService` whose datasets are
:class:`ShardedDataset` backends; admission, cache, coalescing,
deadlines, stale-on-overload and the telemetry verbs are the plane's.
What sharding adds:

* **Reads** fan out as ``shard_query`` legs — one thread per owning shard
  — carrying the dataset's **filter points** (live rows, recomputed from
  every full skyline merge) so shards prune dominated candidates before
  they cross the wire (Ciaccia–Martinenghi); the candidate union is
  merged exactly (:func:`~repro.serving.cluster.merge.merge_candidates`).
* **Writes** route to the owning shard
  (:class:`~repro.serving.cluster.shards.ShardMap`) and bump its
  component of the dataset's **generation vector**, the cache-key
  generation of a sharded dataset.
* **Shard loss degrades, it does not fail**: a refused connection, EOF,
  leg timeout, or injected fault (``ClusterConfig.fault_plan``) marks the
  leg lost and the survivors merge into an uncached partial answer
  flagged ``degraded`` with the missing shards listed.  Losing every
  owning shard raises :class:`ClusterUnavailableError`, which the plane's
  shed path turns into the newest stale answer or an ``unavailable``
  rejection.  ``serve.shard.lost`` counts and events record every loss;
  generation vectors fold in with ``max`` and never regress.

Thread-safety: a dataset's placement and filters mutate only under its
lock, the shard map and loss/attempt tallies under the plane's lock; no RPC,
join or wait runs under either.  Each :class:`ShardEndpoint` pool locks
its free-list, never its socket I/O.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple, Type

import numpy as np

from repro.core.filtering import DEFAULT_FILTER_K, compute_filter_points
from repro.core.kernels import get_kernel
from repro.mapreduce.errors import TaskError
from repro.mapreduce.faults import FaultInjector, FaultPlan, apply_fault
from repro.observability.events import get_events
from repro.observability.metrics import get_metrics
from repro.observability.tracing import get_tracer
from repro.serving.client import ServingClient, ServingConnectionError
from repro.serving.cluster.merge import merge_candidates
from repro.serving.cluster.shards import DatasetPlacement, ShardMap
from repro.serving.queries import Answer, QuerySpec
from repro.serving.service import ServeConfig, ServiceUnavailableError, SkylineService

__all__ = [
    "ClusterConfig",
    "ClusterCoordinator",
    "ClusterUnavailableError",
    "ShardEndpoint",
    "ShardLostError",
    "ShardedDataset",
]


class ShardLostError(ServiceUnavailableError):
    """One shard could not answer (refused, EOF, timeout, injected fault)."""

    def __init__(self, shard: int, reason: str):
        super().__init__(f"shard {shard} lost ({reason})", missing=(shard,), shard=shard)
        self.reason = reason


class ClusterUnavailableError(ServiceUnavailableError):
    """Every owning shard of a query was lost."""


@dataclass(slots=True)
class ClusterConfig:
    """Fan-out knobs of a coordinator.  Admission, cache size, deadlines,
    SLOs and the dominance kernel of merges and filter selection are the
    request plane's (:class:`ServeConfig`)."""

    #: Broadcast filter-set size (0 disables wire pruning).
    filter_k: int = DEFAULT_FILTER_K
    #: Per-leg socket budget for queries and small writes.
    shard_timeout_s: float = 5.0
    #: TCP connect budget per shard.
    connect_timeout_s: float = 5.0
    #: Inject shard faults (chaos tests): consulted once per fan-out leg
    #: with ``job_name="cluster.<dataset>"``, ``kind="map"``,
    #: ``index=<shard id>``.
    fault_plan: FaultPlan | None = None

    def validate(self) -> None:
        if self.filter_k < 0:
            raise ValueError(f"filter_k must be >= 0, got {self.filter_k}")
        if self.shard_timeout_s <= 0:
            raise ValueError(
                f"shard_timeout_s must be > 0, got {self.shard_timeout_s}"
            )
        if self.connect_timeout_s <= 0:
            raise ValueError(
                f"connect_timeout_s must be > 0, got {self.connect_timeout_s}"
            )


class ShardEndpoint:
    """One shard's address plus a small pool of protocol connections.

    ``call`` takes an idle connection (or dials a new one), runs exactly
    one request/response on it with the socket timeout set to the leg
    budget, and returns it to the pool.  Transport failure closes the
    connection, flips ``state`` to ``"lost"`` and raises
    :class:`ShardLostError`; the next call simply dials again — recovery
    is automatic once the shard is back.

    The pool free-list is the only locked state; socket I/O never runs
    under the lock.
    """

    def __init__(
        self,
        index: int,
        host: str,
        port: int,
        *,
        connect_timeout_s: float = 5.0,
    ):
        self.index = index
        self.host = host
        self.port = int(port)
        self.connect_timeout_s = connect_timeout_s
        self.state = "up"
        self._lock = threading.Lock()
        self._idle: List[ServingClient] = []

    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def call(self, timeout_s: float | None, **request: Any) -> Dict[str, Any]:
        """One request/response against this shard, bounded by ``timeout_s``."""
        client: ServingClient | None = None
        with self._lock:
            if self._idle:
                client = self._idle.pop()
        try:
            if client is None:
                client = ServingClient.connect(
                    self.host, self.port, timeout=self.connect_timeout_s
                )
            client.settimeout(timeout_s)
            response = client.call(**request)
        except (ServingConnectionError, OSError) as exc:
            if client is not None:
                _close_quietly(client)
            with self._lock:
                self.state = "lost"
            raise ShardLostError(self.index, str(exc)) from exc
        with self._lock:
            self.state = "up"
            self._idle.append(client)
        return response

    def close(self) -> None:
        with self._lock:
            clients = list(self._idle)
            self._idle.clear()
        for client in clients:
            _close_quietly(client)


def _close_quietly(client: ServingClient) -> None:
    try:
        client.close()
    except (OSError, ValueError):
        pass  # tearing down a dead transport; nothing left to report


def _parse_endpoint(spec: "str | Tuple[str, int]") -> Tuple[str, int]:
    if isinstance(spec, tuple):
        host, port = spec
        return str(host), int(port)
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"shard endpoint must be host:port, got {spec!r}")
    return host, int(port)


class ShardedDataset:
    """One dataset spread over the coordinator's shards: the request
    plane's sharded backend (:class:`~repro.serving.service.Backend`).

    Its cache-key generation is the placement's generation vector.
    ``answer`` runs the fan-out, the filter broadcast, the unfiltered
    retry, the generation-regression quarantine and the merge.
    """

    def __init__(self, coordinator: "ClusterCoordinator", placement: DatasetPlacement):
        self._coordinator = coordinator
        self.placement = placement
        self._lock = threading.Lock()
        #: (generation vector the filter rows are valid at, filter rows)
        self._filters: Tuple[Tuple[int, ...], np.ndarray] | None = None

    @property
    def name(self) -> str:
        return self.placement.name

    @property
    def generation(self) -> Tuple[int, ...]:
        with self._lock:
            return self.placement.generation_vector()

    def describe(self) -> Dict[str, Any]:
        """The store row of ``stats`` plus the placement: the generation
        is the vector's sum, the vector itself is ``generations``."""
        kernel = get_kernel(self._coordinator.config.kernel).name
        with self._lock:
            gvec = self.placement.generation_vector()
            return {
                "size": self.placement.size,
                "generation": sum(gvec),
                "kernel": kernel,
                "generations": list(gvec),
                "shard_fn": self.placement.shard_fn,
                "shards": len(self.placement.shard_ids),
            }

    def register_fields(self) -> Dict[str, Any]:
        """What a ``register`` response reports beyond the generation."""
        return self._coordinator.ping_fields()

    def shard_of(self, point_id: int) -> int:
        with self._lock:
            return self._address(point_id)[0]

    def _address(self, point_id: int) -> Tuple[int, int]:
        """``(shard, local id)`` of a live global id; caller holds the lock."""
        try:
            return self.placement.local_of[int(point_id)]
        except KeyError:
            raise KeyError(
                f"unknown point id {point_id} in dataset {self.name!r}"
            ) from None

    # -- writes -----------------------------------------------------------------

    def _write(
        self, shard: int, error: Type[Exception], timeout_s: float | None, **request: Any
    ) -> Dict[str, Any]:
        """One write routed to ``shard``; a rejection raises ``error`` (a
        write has no replica to degrade to)."""
        response = self._coordinator._call_shard(
            self.name, shard, timeout_s, {**request, "dataset": self.name}
        )
        if not response.get("ok"):
            raise error(
                f"shard {shard} rejected {request['op']} on {self.name!r}: "
                f"{response.get('error', response)}"
            )
        return response

    def load(
        self,
        slices: List[np.ndarray | None],
        rows: np.ndarray | None,
        *,
        scheme: str,
        num_partitions: int,
    ) -> None:
        """Register each owning shard's slice (``scheme`` /
        ``num_partitions`` set its within-shard partitioning); seed the
        filter points."""
        for shard in self.placement.shard_ids:
            part = slices[shard]
            points = {} if part is None or not part.shape[0] else {"points": part.tolist()}
            response = self._write(
                shard, RuntimeError, None,
                op="register", scheme=scheme, partitions=num_partitions, **points,
            )
            with self._lock:
                self.placement.observe_generation(shard, response["generation"])
        coordinator = self._coordinator
        filter_k = coordinator.cluster_config.filter_k
        if filter_k and rows is not None and rows.shape[0]:
            flt = compute_filter_points(
                rows, k=filter_k, kernel=coordinator.config.kernel
            )
            with self._lock:
                self._filters = (self.placement.generation_vector(), flt)

    def insert(self, point: Sequence[float] | np.ndarray) -> Tuple[int, Tuple[int, ...]]:
        """Insert one row; returns ``(global id, generation vector)``."""
        row = np.asarray(point, dtype=np.float64).ravel()
        with self._lock:
            shard = self.placement.owner_of(row)
            self._filters = None
        response = self._write(
            shard, RuntimeError, self._coordinator.cluster_config.shard_timeout_s,
            op="insert", point=[float(v) for v in row],
        )
        with self._lock:
            self.placement.observe_generation(shard, response["generation"])
            global_id = self.placement.bind(shard, int(response["id"]))
            return global_id, self.placement.generation_vector()

    def remove(self, point_id: int) -> Tuple[int, ...]:
        """Remove one row by global id; returns the generation vector."""
        with self._lock:
            shard, local_id = self._address(point_id)
            self._filters = None
        response = self._write(
            shard, KeyError, self._coordinator.cluster_config.shard_timeout_s,
            op="remove", id=local_id,
        )
        with self._lock:
            self.placement.observe_generation(shard, response["generation"])
            self.placement.release(int(point_id))
            return self.placement.generation_vector()

    # -- reads ------------------------------------------------------------------

    def answer(self, spec: QuerySpec, remaining_s: float | None) -> Answer:
        """Fan out, merge, and label the result with its generation vector.

        Any partial loss is a degraded, uncacheable answer; losing every
        owning shard raises :class:`ClusterUnavailableError`.
        """
        coordinator = self._coordinator
        filter_k = coordinator.cluster_config.filter_k
        kernel = coordinator.config.kernel
        metrics = get_metrics()
        deadline = (
            None if remaining_s is None
            else coordinator.clock.monotonic() + remaining_s
        )
        with self._lock:
            gvec = self.placement.generation_vector()
            entry = self._filters
            filters = entry[1] if entry is not None and entry[0] == gvec else None
        span = get_tracer().current_span()
        if span is not None:
            span.set_attrs(filters=0 if filters is None else len(filters))
        answers, lost = self._fan_out(spec, filters, deadline, span)
        gen_of = dict(zip(self.placement.shard_ids, gvec))
        if filters is not None and any(
            ans["generation"] != gen_of[shard] for shard, ans in answers.items()
        ):
            # A mutation raced past the filter tag: one of the filter rows
            # may no longer be live at the generation a shard answered at,
            # so its pruning cannot be trusted.  Re-fan-out unfiltered.
            metrics.counter("serve.cluster.unfiltered_retries").inc()
            answers, lost = self._fan_out(spec, None, deadline, span)
        # A shard answering *below* the generation the coordinator has
        # already observed for it has restarted without (full) recovery:
        # its answer may silently miss acknowledged mutations, so the leg
        # is treated as lost rather than merged — and the placement's
        # max-merge generation vector never regresses.
        regressed = {
            shard
            for shard, ans in answers.items()
            if ans["generation"] < gen_of[shard]
        }
        if regressed:
            for shard in regressed:
                del answers[shard]
                lost[shard] = "generation-regressed"
            metrics.counter("serve.cluster.generation_regressed").inc(
                len(regressed)
            )
            get_events().emit(
                "cluster.generation_regressed",
                dataset=spec.dataset,
                shards=sorted(regressed),
            )
        with self._lock:
            for shard, ans in answers.items():
                self.placement.observe_generation(shard, ans["generation"])
            new_gvec = self.placement.generation_vector()
            mapped = [self._map_answer(shard, ans) for shard, ans in answers.items()]
        coordinator._note_lost(spec.dataset, lost)
        if not answers:
            raise ClusterUnavailableError(
                f"query {spec.describe()}: all {len(lost)} owning shards "
                f"lost ({', '.join(f'{s}:{r}' for s, r in sorted(lost.items()))}) "
                "and no stale answer cached",
                missing=lost,
            )
        ids, rows = merge_candidates(spec, mapped, kernel=kernel)
        metrics.counter("serve.cluster.points_held").inc(
            sum(ans["held"] for ans in answers.values())
        )
        metrics.counter("serve.cluster.candidates_received").inc(
            sum(ans["sent"] for ans in answers.values())
        )
        metrics.counter("serve.cluster.filter_pruned").inc(
            sum(ans["candidates"] - ans["sent"] for ans in answers.values())
        )
        gen_of_new = dict(zip(self.placement.shard_ids, new_gvec))
        # Degraded or racy answers are never cached: the cache must only
        # ever serve answers that are exact at their generation vector.
        consistent = not lost and all(
            ans["generation"] == gen_of_new[shard]
            for shard, ans in answers.items()
        )
        if lost:
            metrics.counter("serve.cluster.degraded").inc()
            get_events().emit(
                "cluster.degraded",
                dataset=spec.dataset,
                query=spec.kind,
                missing=sorted(lost),
            )
        elif consistent and filter_k and spec.kind == "skyline" and len(ids):
            flt = compute_filter_points(rows, k=filter_k, kernel=kernel)
            with self._lock:
                self._filters = (new_gvec, flt)
        return Answer(new_gvec, ids, consistent, tuple(sorted(lost)))

    def _fan_out(
        self,
        spec: QuerySpec,
        filters: np.ndarray | None,
        deadline: float | None,
        parent_span: Any,
    ) -> Tuple[Dict[int, Dict[str, Any]], Dict[int, str]]:
        """Run one ``shard_query`` leg per owning shard, concurrently.

        Returns ``(answers by shard, lost shards by reason)``.  A leg is
        lost on transport failure, an injected fault, a non-ok response,
        or the query deadline (absolute, on the coordinator's clock)
        expiring before it finishes.
        """
        coordinator = self._coordinator
        tracer = get_tracer()
        request: Dict[str, Any] = {"op": "shard_query", **spec.to_dict()}
        if filters is not None and len(filters):
            request["filters"] = [[float(v) for v in row] for row in filters]
        results: Dict[int, Tuple[str, Any]] = {}
        results_lock = threading.Lock()
        threads: List[Tuple[int, threading.Thread]] = []

        def leg(shard: int, timeout_s: float | None) -> None:
            outcome: Tuple[str, Any]
            try:
                with tracer.span(
                    "serve.shard.call", kind="serve", parent=parent_span,
                    shard=shard, dataset=spec.dataset, query=spec.kind,
                ) as leg_span:
                    response = coordinator._call_shard(
                        spec.dataset, shard, timeout_s, request
                    )
                    if not response.get("ok"):
                        reason = response.get("error") or response.get("reason")
                        raise ShardLostError(shard, str(reason or "rejected"))
                    leg_span.set_attrs(sent=response.get("sent"))
                outcome = ("ok", response)
            except ShardLostError as exc:
                outcome = ("lost", exc.reason)
            with results_lock:
                results[shard] = outcome

        def remaining() -> float | None:
            if deadline is None:
                return None
            return max(deadline - coordinator.clock.monotonic(), 0.0)

        budget = coordinator.cluster_config.shard_timeout_s
        for shard in self.placement.shard_ids:
            left = remaining()
            thread = threading.Thread(
                target=leg,
                args=(shard, budget if left is None else max(min(budget, left), 0.001)),
                name=f"cluster-leg-{spec.dataset}-{shard}",
                daemon=True,
            )
            threads.append((shard, thread))
            thread.start()
        answers: Dict[int, Dict[str, Any]] = {}
        lost: Dict[int, str] = {}
        for shard, thread in threads:
            thread.join(remaining())
            if thread.is_alive():
                lost[shard] = "timeout"
                continue
            state, payload = results[shard]
            if state == "ok":
                answers[shard] = payload
            else:
                lost[shard] = payload
        return answers, lost

    def _map_answer(
        self, shard: int, ans: Dict[str, Any]
    ) -> Tuple[List[int], np.ndarray]:
        """Translate one shard answer to global ids, dropping rows whose
        identity the coordinator already released (a remove racing the
        fan-out: such rows cannot be live at the labelled generations).
        Caller holds ``self._lock``."""
        rows = np.asarray(ans["rows"], dtype=np.float64)
        global_ids: List[int] = []
        keep: List[int] = []
        for i, local_id in enumerate(ans["ids"]):
            gid = self.placement.global_of.get((shard, int(local_id)))
            if gid is not None:
                global_ids.append(gid)
                keep.append(i)
        if len(keep) != rows.shape[0]:
            rows = rows[keep] if keep else np.empty((0, rows.shape[1] if rows.ndim == 2 else 0))
        return global_ids, rows


class ClusterCoordinator(SkylineService):
    """The request plane over N ``repro serve`` shard servers.

    ``config`` holds the fan-out knobs; ``serve_config`` the plane's
    admission, cache, deadline, SLO and kernel knobs.
    """

    metric_prefix = "serve.cluster"

    def __init__(
        self,
        endpoints: Sequence["str | Tuple[str, int]"],
        *,
        config: ClusterConfig | None = None,
        serve_config: ServeConfig | None = None,
        clock: Any = None,
    ):
        if not endpoints:
            raise ValueError("a cluster needs at least one shard endpoint")
        self.cluster_config = config or ClusterConfig()
        self.cluster_config.validate()
        super().__init__(serve_config, clock=clock)
        self._endpoints = [
            ShardEndpoint(
                i, *_parse_endpoint(spec),
                connect_timeout_s=self.cluster_config.connect_timeout_s,
            )
            for i, spec in enumerate(endpoints)
        ]
        self.num_shards = len(self._endpoints)
        self._map = ShardMap(self.num_shards)
        self._lost_counts: Dict[int, int] = {}
        self._attempts: Dict[Tuple[str, int], int] = {}
        self._injector = (
            FaultInjector(self.cluster_config.fault_plan)
            if self.cluster_config.fault_plan is not None
            else None
        )

    def close(self) -> None:
        for endpoint in self._endpoints:
            endpoint.close()

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _new_backend(
        self,
        name: str,
        points: np.ndarray | None,
        *,
        scheme: str,
        num_partitions: int,
        shard_fn: str | None,
    ) -> ShardedDataset:
        """Place a dataset and register each shard's slice.

        ``shard_fn=None`` keeps the whole dataset on one shard
        (round-robin); ``"hash"`` / ``"angle"`` / ``"grid"`` / ``"dim"``
        split it across every shard with the matching partitioner.
        """
        rows = np.asarray(points, dtype=np.float64) if points is not None else None
        with self._lock:
            placement, slices = self._map.place(name, rows, shard_fn=shard_fn)
        dataset = ShardedDataset(self, placement)
        dataset.load(slices, rows, scheme=scheme, num_partitions=num_partitions)
        return dataset

    def shard_of(self, dataset: str, point_id: int) -> int:
        """The shard currently holding global id ``point_id``.

        Ops/debug surface (and the chaos suite's ground truth for which
        points a killed shard takes down with it)."""
        return self.store(dataset).shard_of(point_id)

    # -- shard RPCs -------------------------------------------------------------

    def _call_shard(
        self,
        dataset: str,
        shard: int,
        timeout_s: float | None,
        request: Dict[str, Any],
    ) -> Dict[str, Any]:
        """One shard RPC, with the chaos injector in the loop.

        Faults only ever target query fan-out legs: a lost write must
        surface as an error to the writer (there is no replica to degrade
        to), so injecting into register/insert/remove would just test the
        error path twice.
        """
        decision = None
        if self._injector is not None and request.get("op") == "shard_query":
            with self._lock:
                attempt = self._attempts.get((dataset, shard), 0) + 1
                self._attempts[(dataset, shard)] = attempt
                decision = self._injector.decide(
                    f"cluster.{dataset}", "map", shard, attempt
                )
        endpoint = self._endpoints[shard]
        if decision is None:
            return endpoint.call(timeout_s, **request)
        try:
            return apply_fault(
                decision,
                timeout_s,
                lambda: endpoint.call(timeout_s, **request),
            )
        except TaskError as exc:
            # Injected crash or cooperative hang-past-deadline: the leg is
            # lost exactly as if the shard's transport had died.
            raise ShardLostError(shard, f"injected:{decision.action}") from exc

    def _note_lost(self, dataset: str, lost: Dict[int, str]) -> None:
        if not lost:
            return
        metrics = get_metrics()
        with self._lock:
            for shard in lost:
                self._lost_counts[shard] = self._lost_counts.get(shard, 0) + 1
        for shard, reason in sorted(lost.items()):
            metrics.counter("serve.shard.lost").inc()
            get_events().emit(
                "serve.shard.lost", shard=shard, dataset=dataset, reason=reason
            )

    # -- introspection ----------------------------------------------------------

    def ping_fields(self) -> Dict[str, Any]:
        return {"shards": self.num_shards}

    def _shard_table(self) -> Dict[str, Dict[str, Any]]:
        participation: Dict[int, int] = {}
        with self._lock:
            for name in self._map.datasets():
                for shard in self._map.placement(name).shard_ids:
                    participation[shard] = participation.get(shard, 0) + 1
            lost = dict(self._lost_counts)
        return {
            f"shard{ep.index}": {
                "address": ep.address(),
                "state": ep.state,
                "datasets": participation.get(ep.index, 0),
                "lost": lost.get(ep.index, 0),
            }
            for ep in self._endpoints
        }
