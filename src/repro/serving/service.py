"""The request plane: admission, cache, coalescing, compute — once.

One :class:`SkylineService` answers concurrent queries over registered
datasets without rerunning the batch MapReduce pipeline.  Each dataset
is a :class:`Backend` — a local :class:`~repro.serving.store.SkylineStore`
here, a :class:`~repro.serving.cluster.coordinator.ShardedDataset` in the
:class:`~repro.serving.cluster.coordinator.ClusterCoordinator` subclass —
and every request takes the same path::

    request -> admission -> cache -> [coalesce] -> backend.answer

* **Admission control.**  At most ``max_inflight`` requests execute at
  once; up to ``max_queue`` more may wait.  A request beyond that is
  *shed*: it gets the newest cached answer for the same query flagged
  ``degraded=True`` when one exists (stale but never wrong), else a
  429-style :class:`ServiceOverloadedError`.  A backend that cannot
  answer at all (every shard lost) raises :class:`ServiceUnavailableError`
  and takes the same shed path.
* **Request coalescing.**  Identical in-flight queries (same versioned
  cache key: a store's generation or a shard generation vector) share
  one computation — one compute span, many request spans.
* **Deadlines.**  Per-query deadlines run on the fault-tolerance clock
  (:class:`~repro.mapreduce.faults.MonotonicClock`; tests inject a fake),
  bound queue and coalesced waits, and reach the backend.
* **Observability.**  ``<prefix>.request`` → ``.admission`` / ``.cache``
  / ``.compute`` spans, ``<prefix>.*`` counters and the
  ``<prefix>.latency_s`` histogram, shed/degraded events, the SLO burn
  tracker and a skew watch on the ``partition.skew.*`` gauges — served by
  the ``stats`` / ``health`` / ``slo`` / ``events`` verbs.  The prefix
  (:attr:`SkylineService.metric_prefix`) is ``serve`` here and
  ``serve.cluster`` on the coordinator, which shares a metrics registry
  with its shards when they run in one process.

Thread-safety: the backend table, flight table and queue depth mutate
only under ``self._lock``; per-dataset state is guarded by each
backend's own lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Protocol, Sequence, Tuple

import numpy as np

from repro.core.kernels import KERNEL_NAMES, get_kernel
from repro.mapreduce.executors import Executor
from repro.mapreduce.faults import MonotonicClock
from repro.observability.events import get_events
from repro.observability.metrics import Histogram, get_metrics
from repro.observability.slo import SLOTracker, default_objectives
from repro.observability.tracing import get_tracer
from repro.serving.cache import ResultCache
from repro.serving.queries import Answer, QuerySpec, candidate_prune_mask, evaluate
from repro.serving.store import DEFAULT_MR_BULK_THRESHOLD, SkylineStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.durability.manager import DurabilityManager

__all__ = [
    "Backend",
    "ServeConfig",
    "ServiceOverloadedError",
    "ServiceUnavailableError",
    "UnknownDatasetError",
    "QueryResponse",
    "SkylineService",
]


class ServiceOverloadedError(RuntimeError):
    """429-style rejection: over capacity (or past deadline), no stale answer."""

    def __init__(self, message: str, *, reason: str = "overload"):
        super().__init__(message)
        self.reason = reason


class ServiceUnavailableError(RuntimeError):
    """503-style: the backend lost every source of the answer (all owning
    shards, or the one shard a write routes to)."""

    def __init__(self, message: str, *, missing: Sequence[int] = (), shard: int | None = None):
        super().__init__(message)
        self.missing = sorted(missing)
        self.shard = shard


class UnknownDatasetError(KeyError):
    """The query named a dataset that was never registered."""


class Backend(Protocol):
    """One registered dataset as the request plane sees it."""

    @property
    def generation(self) -> Any:
        """The current cache-key generation (an int, or a tuple)."""

    def answer(self, spec: QuerySpec, remaining_s: float | None) -> Answer:
        """Compute one query; may raise :class:`ServiceUnavailableError`."""

    def insert(self, point: Sequence[float] | np.ndarray) -> Tuple[int, Any]:
        """Add one row; returns ``(point id, new generation)``."""

    def remove(self, point_id: int) -> Any:
        """Drop one row; returns the new generation."""

    def describe(self) -> Dict[str, Any]:
        """The per-dataset row of the ``stats`` op."""

    def register_fields(self) -> Dict[str, Any]:
        """What a ``register`` response reports beyond the generation."""


@dataclass(slots=True)
class ServeConfig:
    """Admission-control and cache knobs of one service instance."""

    #: Concurrent computations admitted at once.
    max_inflight: int = 8
    #: Requests allowed to wait for admission beyond ``max_inflight``.
    max_queue: int = 16
    #: Versioned result-cache capacity (entries).
    cache_entries: int = 256
    #: Deadline applied when a query names none (``None`` = unbounded).
    default_deadline_s: float | None = None
    #: Shed path: serve the newest stale cached answer (``degraded=True``)
    #: instead of rejecting, when one exists.
    stale_on_overload: bool = True
    #: Bulk loads at or above this many rows run the MapReduce pipeline
    #: (this and the next two apply to local stores; a coordinator's
    #: shards bulk-load under their own flags).
    mr_bulk_threshold: int = DEFAULT_MR_BULK_THRESHOLD
    #: Workers / executor for MR bulk loads of registered datasets.
    num_workers: int = 2
    executor: str | Executor | None = None
    #: Dominance backend for every registered dataset (``"scalar"`` /
    #: ``"block"``); ``None`` resolves the process default
    #: (``--kernel`` / ``$REPRO_KERNEL``, else ``scalar``).
    kernel: str | None = None
    #: Latency SLO: this fraction of answered requests …
    slo_latency_target: float = 0.95
    #: … must finish within this many seconds.
    slo_latency_threshold_s: float = 0.25
    #: Availability SLO: fraction of requests that must be answered at all
    #: (shed-without-stale and errors count against it).
    slo_availability_target: float = 0.999
    #: A ``partition.skew.*.max_min_ratio`` gauge crossing this bound emits
    #: a ``skew.alert`` event (the re-balancer trigger signal).
    skew_alert_ratio: float = 8.0

    def validate(self) -> None:
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.cache_entries < 0:
            raise ValueError(f"cache_entries must be >= 0, got {self.cache_entries}")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ValueError(
                f"default_deadline_s must be > 0, got {self.default_deadline_s}"
            )
        for name in ("slo_latency_target", "slo_availability_target"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {value}")
        if self.slo_latency_threshold_s <= 0:
            raise ValueError(
                f"slo_latency_threshold_s must be > 0, "
                f"got {self.slo_latency_threshold_s}"
            )
        if self.skew_alert_ratio <= 1.0:
            raise ValueError(
                f"skew_alert_ratio must be > 1, got {self.skew_alert_ratio}"
            )
        if self.kernel is not None and self.kernel not in KERNEL_NAMES:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; "
                f"expected one of {', '.join(KERNEL_NAMES)}"
            )


@dataclass(slots=True)
class QueryResponse:
    """One served answer, labelled with the generation it was computed at."""

    dataset: str
    kind: str
    ids: List[int]
    #: A local store's generation, or a sharded dataset's generation vector.
    generation: Any
    cache_hit: bool = False
    coalesced: bool = False
    degraded: bool = False
    status: str = "ok"
    latency_s: float = 0.0
    #: Shards a degraded cluster answer is missing.
    missing_shards: List[int] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        # A coordinator's answer also names the shards it is missing; only
        # a single node reports coalescing on the wire.
        sharded = isinstance(self.generation, tuple)
        return {
            "dataset": self.dataset,
            "kind": self.kind,
            "ids": list(self.ids),
            **generation_field(self.generation),
            "cache_hit": self.cache_hit,
            **({} if sharded else {"coalesced": self.coalesced}),
            "degraded": self.degraded,
            **({"missing_shards": list(self.missing_shards)} if sharded else {}),
            "status": self.status,
            "latency_s": round(self.latency_s, 9),
        }


def generation_field(generation: Any) -> Dict[str, Any]:
    """The wire spelling of a generation: a store's ``generation`` counter
    or a sharded dataset's ``generations`` vector."""
    if isinstance(generation, tuple):
        return {"generations": list(generation)}
    return {"generation": generation}


class _Flight:
    """One in-flight computation shared by coalesced requests."""

    __slots__ = ("event", "response", "error", "requests")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: QueryResponse | None = None
        self.error: BaseException | None = None
        self.requests = 1


@dataclass(slots=True)
class _Request:
    """Per-request bookkeeping threaded through the serve path."""

    spec: QuerySpec
    span: Any
    start: float
    deadline_s: float | None = None
    status: str = "ok"
    flight: _Flight | None = field(default=None, repr=False)


class SkylineService:
    """Long-running skyline query service over registered datasets."""

    #: Prefix of every metric, span and event the plane emits.
    metric_prefix = "serve"

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        clock: Any = None,
        durability: "DurabilityManager | None" = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.config.validate()
        self.durability = durability
        self.clock = clock if clock is not None else MonotonicClock()
        self._lock = threading.RLock()
        self._backends: Dict[str, Backend] = {}
        self._cache = ResultCache(self.config.cache_entries)
        self._flights: Dict[Tuple[Any, ...], _Flight] = {}
        self._queued = 0
        self._admission = threading.BoundedSemaphore(self.config.max_inflight)
        self._started_at = self.clock.monotonic()
        self.slo = SLOTracker(
            default_objectives(
                availability_target=self.config.slo_availability_target,
                latency_threshold_s=self.config.slo_latency_threshold_s,
                latency_target=self.config.slo_latency_target,
            ),
            clock=self.clock,
        )
        # Edge-triggered skew alert: the ROADMAP re-balancer's trigger.  The
        # watch lives on the registry current at construction time; tests
        # that swap registries build their service after the swap.
        self._skew_watch = get_metrics().watch(
            "partition.skew.*.max_min_ratio",
            self.config.skew_alert_ratio,
            self._on_skew_alert,
        )

    def _name(self, suffix: str) -> str:
        return f"{self.metric_prefix}.{suffix}"

    def _on_skew_alert(self, gauge: str, value: float, watch: Any) -> None:
        get_events().emit(
            "skew.alert",
            gauge=gauge,
            value=round(value, 4),
            threshold=watch.threshold,
        )

    # -- dataset management -----------------------------------------------------

    def register(
        self,
        name: str,
        points: np.ndarray | None = None,
        *,
        scheme: str = "angle",
        num_partitions: int = 8,
        shard_fn: str | None = None,
    ) -> Any:
        """Create (or replace) a dataset; returns its generation.

        ``scheme`` / ``num_partitions`` set the store's partitioning;
        ``shard_fn`` places rows across a cluster's shards (a single node
        holds every row, so it ignores it).
        """
        if not name:
            raise ValueError("dataset name must be non-empty")
        backend = self._new_backend(
            name,
            points,
            scheme=scheme,
            num_partitions=num_partitions,
            shard_fn=shard_fn,
        )
        return self.adopt_store(name, backend)

    def _new_backend(
        self,
        name: str,
        points: np.ndarray | None,
        *,
        scheme: str,
        num_partitions: int,
        shard_fn: str | None,
    ) -> Backend:
        """Build (and load) one dataset's backend: a local store."""
        store = SkylineStore(
            name,
            scheme=scheme,
            num_partitions=num_partitions,
            num_workers=self.config.num_workers,
            mr_bulk_threshold=self.config.mr_bulk_threshold,
            executor=self.config.executor,
            kernel=self.config.kernel,
        )
        if points is not None:
            store.bulk_load(points)
        if self.durability is not None:
            # Nothing is acknowledged before the register and bulk records
            # are logged, together or not at all; replay rebuilds the
            # store with the same parameters, then the same data.
            store.log_registration(self.durability.dataset_log(name), points)
        return store

    def adopt_store(self, name: str, store: Backend) -> Any:
        """Install a built backend (a fresh register, or a store rebuilt by
        recovery) as a dataset; returns its generation."""
        with self._lock:
            replaced = name in self._backends
            self._backends[name] = store
            get_metrics().gauge(self._name("datasets")).set(len(self._backends))
        if replaced:
            # The fresh backend restarts its generation, so cached answers
            # of the previous incarnation must not be addressable.
            self._cache.invalidate(name)
        return store.generation

    def recover_datasets(self) -> List[Any]:
        """Recover every dataset found in the durability directory.

        Runs before the server starts answering: each recovered store is
        adopted under its recorded name, with this service's executor and
        kernel flags overriding the persisted config (a restarted fleet
        member stays homogeneous with its peers).  Returns the
        per-dataset :class:`~repro.serving.durability.recovery.RecoveryReport`
        list (empty when durability is off or the directory is fresh).
        """
        if self.durability is None:
            return []
        from repro.serving.durability.recovery import recover_dataset

        reports = []
        for name in self.durability.dataset_names():
            store, report = recover_dataset(
                self.durability,
                name,
                executor=self.config.executor,
                kernel=self.config.kernel,
            )
            if store is not None:
                self.adopt_store(name, store)
                reports.append(report)
        return reports

    def datasets(self) -> List[str]:
        with self._lock:
            return sorted(self._backends)

    def store(self, name: str) -> Any:
        """The dataset's backend (a :class:`SkylineStore` on a single node)."""
        with self._lock:
            try:
                return self._backends[name]
            except KeyError:
                raise UnknownDatasetError(name) from None

    # -- mutations --------------------------------------------------------------

    def insert(
        self, dataset: str, point: Sequence[float] | np.ndarray
    ) -> Tuple[int, Any]:
        """Insert into a dataset; returns ``(point id, new generation)``."""
        with get_tracer().span(self._name("mutation"), kind="serve",
                               dataset=dataset, op="insert"):
            result = self.store(dataset).insert(point)
        get_metrics().counter(self._name("mutations")).inc()
        return result

    def remove(self, dataset: str, point_id: int) -> Any:
        """Remove from a dataset; returns the new generation."""
        with get_tracer().span(self._name("mutation"), kind="serve",
                               dataset=dataset, op="remove"):
            generation = self.store(dataset).remove(point_id)
        get_metrics().counter(self._name("mutations")).inc()
        return generation

    # -- the serve path ---------------------------------------------------------

    def query(
        self, spec: QuerySpec, *, deadline_s: float | None = None
    ) -> QueryResponse:
        """Serve one query; raises :class:`ServiceOverloadedError` on shed
        without a stale answer, :class:`ServiceUnavailableError` when the
        backend cannot answer and nothing stale is cached, and
        :class:`UnknownDatasetError` on a bad name."""
        metrics = get_metrics()
        tracer = get_tracer()
        metrics.counter(self._name("requests")).inc()
        req = _Request(
            spec=spec,
            span=tracer.start_span(
                self._name("request"), kind="serve",
                dataset=spec.dataset, query=spec.kind,
            ),
            start=self.clock.monotonic(),
            deadline_s=(
                deadline_s if deadline_s is not None
                else self.config.default_deadline_s
            ),
        )
        try:
            backend = self.store(spec.dataset)
            response = self._serve(req, backend)
            req.status = response.status
            response.latency_s = self.clock.monotonic() - req.start
            return response
        except BaseException:
            if req.status == "ok":
                req.status = "error"
            raise
        finally:
            latency_s = self.clock.monotonic() - req.start
            metrics.histogram(self._name("latency_s")).observe(latency_s)
            # SLO accounting: a degraded (stale) answer is still an answer;
            # errors and shed-without-stale burn the availability budget.
            self.slo.record(latency_s, ok=req.status in ("ok", "degraded"))
            req.span.set_attrs(status=req.status)
            tracer.end_span(
                req.span,
                status="ok" if req.status in ("ok", "degraded") else "error",
            )

    # -- serve-path stages ------------------------------------------------------

    def _remaining_s(self, req: _Request) -> float | None:
        """Seconds left before the request's deadline (None = unbounded)."""
        if req.deadline_s is None:
            return None
        return req.deadline_s - (self.clock.monotonic() - req.start)

    def _serve(self, req: _Request, backend: Backend) -> QueryResponse:
        if not self._admit(req):
            remaining = self._remaining_s(req)
            reason = (
                "deadline" if remaining is not None and remaining <= 0
                else "overload"
            )
            return self._shed(req, reason)
        try:
            cached = self._check_cache(req, backend)
            if cached is not None:
                return cached
            return self._coalesced_compute(req, backend)
        except ServiceUnavailableError as exc:
            return self._shed(req, "unavailable", exc)
        finally:
            self._admission.release()

    def _admit(self, req: _Request) -> bool:
        """Take an admission permit; False means over capacity or deadline."""
        tracer = get_tracer()
        span = tracer.start_span(
            self._name("admission"), kind="serve", parent=req.span
        )
        admitted = self._admission.acquire(blocking=False)
        waited = False
        if not admitted:
            with self._lock:
                can_queue = self._queued < self.config.max_queue
                if can_queue:
                    self._queued += 1
            if can_queue:
                waited = True
                remaining = self._remaining_s(req)
                try:
                    if remaining is None:
                        admitted = self._admission.acquire()
                    elif remaining > 0:
                        admitted = self._admission.acquire(timeout=remaining)
                finally:
                    with self._lock:
                        self._queued -= 1
        span.set_attrs(admitted=admitted, queued=waited)
        tracer.end_span(span)
        return admitted

    def _shed(
        self,
        req: _Request,
        reason: str,
        error: ServiceUnavailableError | None = None,
    ) -> QueryResponse:
        """Over capacity, past deadline, or backend unavailable: degraded
        stale answer when possible, else the rejection."""
        metrics = get_metrics()
        events = get_events()
        metrics.counter(self._name("shed")).inc()
        events.emit(
            self._name("shed"),
            dataset=req.spec.dataset,
            query=req.spec.kind,
            reason=reason,
        )
        if reason == "deadline":
            metrics.counter(self._name("deadline_exceeded")).inc()
        missing = error.missing if error is not None else []
        if self.config.stale_on_overload:
            stale = self._cache.latest(
                req.spec.dataset, req.spec.kind, req.spec.params_key()
            )
            if stale is not None:
                generation, ids = stale
                metrics.counter(self._name("degraded")).inc()
                events.emit(
                    self._name("degraded"),
                    dataset=req.spec.dataset,
                    query=req.spec.kind,
                    reason=reason,
                    stale_generation=generation,
                )
                req.span.set_attrs(degraded=True, shed_reason=reason)
                return QueryResponse(
                    dataset=req.spec.dataset,
                    kind=req.spec.kind,
                    ids=ids,
                    generation=generation,
                    cache_hit=True,
                    degraded=True,
                    status="degraded",
                    missing_shards=missing,
                )
        req.span.set_attrs(shed_reason=reason)
        if error is not None:
            raise error
        raise ServiceOverloadedError(
            f"query {req.spec.describe()} shed ({reason}): "
            f"{self.config.max_inflight} in flight, "
            f"{self.config.max_queue} queued, no stale answer cached",
            reason=reason,
        )

    def _check_cache(
        self, req: _Request, backend: Backend
    ) -> QueryResponse | None:
        tracer = get_tracer()
        generation = backend.generation
        key = req.spec.cache_key(generation)
        span = tracer.start_span(self._name("cache"), kind="serve", parent=req.span)
        ids = self._cache.get(key)
        hit = ids is not None
        span.set_attrs(hit=hit, generation=generation)
        tracer.end_span(span)
        req.span.set_attrs(cache="hit" if hit else "miss", key=req.spec.describe())
        get_metrics().counter(
            self._name("cache.hits" if hit else "cache.misses")
        ).inc()
        if ids is None:
            return None
        return QueryResponse(
            dataset=req.spec.dataset,
            kind=req.spec.kind,
            ids=ids,
            generation=generation,
            cache_hit=True,
        )

    def _coalesced_compute(
        self, req: _Request, backend: Backend
    ) -> QueryResponse:
        """Compute once per (query, generation); identical requests share it."""
        key = req.spec.cache_key(backend.generation)
        leader = False
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = _Flight()
                self._flights[key] = flight
                leader = True
            else:
                flight.requests += 1
        req.flight = flight
        if leader:
            try:
                response = self._compute(req, backend)
                flight.response = response
                return response
            except BaseException as exc:
                flight.error = exc
                raise
            finally:
                with self._lock:
                    self._flights.pop(key, None)
                flight.event.set()
        return self._follow(req, flight)

    def _follow(self, req: _Request, flight: _Flight) -> QueryResponse:
        """Wait for the flight leader's result (bounded by the deadline)."""
        get_metrics().counter(self._name("coalesced")).inc()
        req.span.set_attrs(coalesced=True)
        remaining = self._remaining_s(req)
        finished = flight.event.wait(timeout=remaining)
        if not finished:
            return self._shed(req, "deadline")
        if flight.error is not None:
            raise flight.error
        assert flight.response is not None
        return replace(flight.response, coalesced=True)

    def _compute(self, req: _Request, backend: Backend) -> QueryResponse:
        get_metrics().counter(self._name("computes")).inc()
        with get_tracer().span(
            self._name("compute"), kind="serve", parent=req.span,
            dataset=req.spec.dataset, query=req.spec.kind,
            key=req.spec.describe(),
        ) as span:
            answer = backend.answer(req.spec, self._remaining_s(req))
            if answer.cacheable:
                # The answer's generation may be newer than the one the
                # cache key was derived from (a mutation raced in); it is
                # cached under the generation actually computed.
                self._cache.put(req.spec.cache_key(answer.generation), answer.ids)
            span.set_attrs(
                generation=answer.generation,
                results=len(answer.ids),
                requests=req.flight.requests if req.flight is not None else 1,
            )
        missing = list(answer.missing_shards)
        if missing:
            req.span.set_attrs(degraded=True, missing=missing)
        return QueryResponse(
            dataset=req.spec.dataset,
            kind=req.spec.kind,
            ids=answer.ids,
            generation=answer.generation,
            degraded=bool(missing),
            status="degraded" if missing else "ok",
            missing_shards=missing,
        )

    # -- cluster shard duty -----------------------------------------------------

    def shard_candidates(
        self,
        spec: QuerySpec,
        *,
        filters: np.ndarray | Sequence[Sequence[float]] | None = None,
        deadline_s: float | None = None,
    ) -> Dict[str, Any]:
        """Answer one fan-out leg of a cluster query (the ``shard_query`` op).

        Runs the normal serve path for ``spec``, joins the resulting ids to
        their coordinate rows over a consistent snapshot, and — when the
        coordinator broadcast ``filters`` (live rows of the *global*
        dataset) — drops every candidate the filter set already refutes
        before it crosses the wire (:func:`~repro.serving.queries.candidate_prune_mask`).

        The serve path and the snapshot are two lock acquisitions, so a
        racing mutation can slip between them; the pair re-runs (bounded)
        until the generations agree, falling back to a direct
        :func:`~repro.serving.queries.evaluate` over the snapshot.  The
        returned ``generation`` is therefore always the generation the ids
        and rows are mutually consistent at.
        """
        metrics = get_metrics()
        store = self.store(spec.dataset)
        if not isinstance(store, SkylineStore):  # a coordinator's dataset
            raise ValueError(f"shard_query needs a local dataset; {spec.dataset!r} is sharded")
        for _ in range(4):
            response = self.query(spec, deadline_s=deadline_s)
            snap = store.snapshot()
            if snap.generation == response.generation and not response.degraded:
                ids = [int(i) for i in response.ids]
                break
        else:
            ids = evaluate(spec, snap.ids, snap.rows)
        rows = snap.rows_of(ids)
        held = int(snap.ids.shape[0])
        candidates = len(ids)
        if filters is not None:
            flt = np.asarray(filters, dtype=np.float64)
            if flt.size and candidates:
                mask = candidate_prune_mask(
                    spec, rows, flt, kernel=self.config.kernel
                )
                ids = [pid for pid, keep in zip(ids, mask) if keep]
                rows = rows[mask]
        metrics.counter("serve.shard.served").inc()
        metrics.counter("serve.shard.held").inc(held)
        metrics.counter("serve.shard.sent").inc(len(ids))
        metrics.counter("serve.shard.pruned").inc(candidates - len(ids))
        return {
            "ids": ids,
            "rows": [[float(v) for v in row] for row in rows],
            "generation": int(snap.generation),
            "held": held,
            "candidates": candidates,
            "sent": len(ids),
        }

    # -- introspection ----------------------------------------------------------

    def cache_stats(self) -> Dict[str, int]:
        return self._cache.stats()

    def uptime_s(self) -> float:
        return self.clock.monotonic() - self._started_at

    def _shard_table(self) -> Dict[str, Dict[str, Any]]:
        """Per-shard rows of ``stats`` (none on a single node)."""
        return {}

    def ping_fields(self) -> Dict[str, Any]:
        """What a ``ping`` response reports beyond liveness (nothing on a
        single node)."""
        return {}

    def stats(self) -> Dict[str, Any]:
        """JSON-ready operational snapshot (the protocol's ``stats`` op).

        Everything ``repro top`` renders in one poll, in one schema for
        both backends: per-dataset rows (:meth:`Backend.describe`), the
        shard table (empty on a single node), cache and admission state,
        the ``serve.*`` / ``prune.*`` / ``wal.*`` / ``durability.*``
        counters, the ``serve.*`` / ``partition.*`` / ``durability.*``
        gauges (partition-skew above all), and the plane's latency
        histogram.  Counters are cumulative; pollers rate them with
        :func:`repro.observability.export.snapshot_delta`.
        """
        snapshot = get_metrics().snapshot()
        with self._lock:
            backends = sorted(self._backends.items())
            queued = self._queued
            inflight = len(self._flights)
        latency = self._name("latency_s")
        return {
            "uptime_s": round(self.uptime_s(), 6),
            "kernel": get_kernel(self.config.kernel).name,
            "datasets": {name: backend.describe() for name, backend in backends},
            "shards": self._shard_table(),
            "cache": self._cache.stats(),
            "queued": queued,
            "inflight_computes": inflight,
            "counters": {
                name: value
                for name, value in snapshot["counters"].items()
                if name.startswith(("serve.", "prune.", "wal.", "durability."))
            },
            "gauges": {
                name: value
                for name, value in snapshot["gauges"].items()
                if name.startswith(("serve.", "partition.", "durability."))
            },
            "latency": snapshot["histograms"].get(
                latency, Histogram(latency).snapshot()
            ),
            "events": get_events().counts(),
        }

    def slo_report(self) -> Dict[str, Any]:
        """Burn-rate evaluation of the service SLOs (the ``slo`` op)."""
        return self.slo.evaluate()

    def health(self) -> Dict[str, Any]:
        """Liveness + burn-driven readiness (the ``health`` op).

        ``healthy`` while every SLO is within budget and every shard is
        up; a ticket-level burn or an unreachable shard reports
        ``degraded`` and a page-level burn ``unhealthy`` — the states a
        load balancer or the ``repro top`` header needs, without shipping
        the whole burn report.
        """
        slo_state = self.slo.evaluate()["state"]
        status = {"ok": "healthy", "ticket": "degraded", "page": "unhealthy"}[
            slo_state
        ]
        down = sorted(
            name for name, shard in self._shard_table().items()
            if shard["state"] != "up"
        )
        if down and status == "healthy":
            status = "degraded"
        with self._lock:
            datasets = len(self._backends)
            queued = self._queued
            inflight = len(self._flights)
        return {
            "status": status,
            "slo_state": slo_state,
            "uptime_s": round(self.uptime_s(), 6),
            "datasets": datasets,
            "queued": queued,
            "inflight_computes": inflight,
            "shards_down": down,
        }

    def events_tail(
        self,
        n: int | None = 50,
        *,
        kinds: Sequence[str] | None = None,
        since_seq: int | None = None,
    ) -> List[Dict[str, Any]]:
        """Newest structured events as dicts (the ``events`` op)."""
        return [
            event.to_dict()
            for event in get_events().tail(n, kinds=kinds, since_seq=since_seq)
        ]
