"""JSON-lines request protocol of ``repro serve`` and the coordinator.

One request per line, one response per line.  Every request is an object
with an ``"op"`` field; every response has ``"ok": true/false``.  One
dispatcher, :func:`handle_request`, serves a single node and a cluster
coordinator alike: a client tells them apart only by what responses
carry — a single node labels answers with its ``generation`` counter, a
coordinator with the per-shard ``generations`` vector (plus
``missing_shards`` on query answers and ``shards`` on ``register`` and
``ping``).  The ops:

``register``
    ``{"op": "register", "dataset": "qws", "points": [[...], ...]}`` or
    ``{"op": "register", "dataset": "qws", "generate": {"n": 500, "d": 4,
    "seed": 0}}`` (synthesises a QWS-like sample server-side, so clients
    don't ship megabytes of literals).  Optional ``scheme`` (default
    ``"angle"``) and ``partitions``; on a coordinator, optional
    ``shard_fn`` (``"hash"`` / ``"angle"`` / ``"grid"`` / ``"dim"``;
    omitted = single-shard placement).
``query``
    ``{"op": "query", "dataset": "qws", "kind": "skyline"}`` plus the
    kind-specific parameters (``k`` / ``lower`` + ``upper`` / ``dims``)
    and an optional ``deadline_s``.  Response carries ``ids``, the
    generation, ``cache_hit``, ``degraded``, ``status`` (and
    ``coalesced`` on a single node, ``missing_shards`` on a coordinator).
``shard_query``
    The cluster fan-out leg (``docs/cluster.md``), answered by a shard:
    like ``query`` but the response carries candidate ``rows`` alongside
    ``ids`` plus traffic accounting (``held`` / ``candidates`` /
    ``sent``), and an optional ``filters`` row list prunes dominated
    candidates before they cross the wire.  A coordinator refuses it
    with an error response (its datasets are sharded).
``insert`` / ``remove``
    Point mutations; responses carry the new generation (and the
    assigned ``id`` for inserts).
``stats`` / ``ping`` / ``shutdown``
    Operational introspection, liveness, and orderly stop.
``health`` / ``slo`` / ``events`` / ``metrics``
    The read-only telemetry plane (``docs/observability.md``):
    burn-driven health (``healthy`` / ``degraded`` / ``unhealthy``), the
    full multi-window SLO burn report, the structured event tail
    (optional ``n``, ``kinds`` glob list, ``since_seq`` for incremental
    polls), and the metrics registry as JSON (default) or
    ``"format": "prometheus"`` text exposition.  ``repro top`` is a
    client of exactly these verbs.

Failures are responses, not broken connections: an invalid request gets
``{"ok": false, "status": "error", "error": ...}``; an admission-control
rejection gets ``{"ok": false, "status": "rejected", "reason": ...}`` —
the JSON-lines analogue of HTTP 429 — and a coordinator that lost every
shard it needed ``{"ok": false, "status": "unavailable", ...}``.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.serving.queries import QuerySpec
from repro.serving.service import (
    ServiceOverloadedError,
    ServiceUnavailableError,
    SkylineService,
    UnknownDatasetError,
    generation_field,
)

__all__ = ["handle_request", "parse_query_spec"]

#: Protocol revision; bump on breaking changes.
PROTOCOL_VERSION = 1


def parse_query_spec(request: Dict[str, Any]) -> QuerySpec:
    """Build (and validate) the :class:`QuerySpec` of a ``query`` request."""
    lower = request.get("lower")
    upper = request.get("upper")
    dims = request.get("dims")
    return QuerySpec(
        dataset=str(request.get("dataset", "")),
        kind=str(request.get("kind", "skyline")),
        k=request.get("k"),
        lower=tuple(lower) if lower is not None else None,
        upper=tuple(upper) if upper is not None else None,
        dims=tuple(dims) if dims is not None else None,
    )


def _points_of(request: Dict[str, Any]) -> np.ndarray | None:
    """Dataset rows of a ``register`` request (inline or generated)."""
    if request.get("points") is not None:
        return np.asarray(request["points"], dtype=np.float64)
    generate = request.get("generate")
    if generate is not None:
        from repro.services.qws import generate_qws

        n = int(generate.get("n", 1000))
        d = int(generate.get("d", 4))
        seed = int(generate.get("seed", 0))
        return generate_qws(n, seed=seed).qos_matrix(d)
    return None


def _handle_register(service: SkylineService, request: Dict[str, Any]) -> Dict[str, Any]:
    dataset = str(request.get("dataset", ""))
    shard_fn = request.get("shard_fn")
    generation = service.register(
        dataset,
        _points_of(request),
        scheme=str(request.get("scheme", "angle")),
        num_partitions=int(request.get("partitions", 8)),
        shard_fn=str(shard_fn) if shard_fn is not None else None,
    )
    return {
        "ok": True,
        "dataset": dataset,
        **generation_field(generation),
        **service.store(dataset).register_fields(),
    }


def _deadline_s(request: Dict[str, Any]) -> float | None:
    deadline = request.get("deadline_s")
    return float(deadline) if deadline is not None else None


def _handle_query(service: SkylineService, request: Dict[str, Any]) -> Dict[str, Any]:
    response = service.query(parse_query_spec(request), deadline_s=_deadline_s(request))
    return {"ok": True, **response.to_dict()}


def _handle_shard_query(
    service: SkylineService, request: Dict[str, Any]
) -> Dict[str, Any]:
    """One fan-out leg of a cluster query: ids *and* rows, filter-pruned.

    ``{"op": "shard_query", "dataset": ..., "kind": ..., <params>,
    "filters": [[...], ...]}`` — ``filters`` are live rows of the global
    dataset broadcast by the coordinator (Ciaccia–Martinenghi); candidates
    they dominate never cross the wire.
    """
    spec = parse_query_spec(request)
    filters = request.get("filters")
    payload = service.shard_candidates(
        spec,
        filters=np.asarray(filters, dtype=np.float64) if filters else None,
        deadline_s=_deadline_s(request),
    )
    return {"ok": True, "dataset": spec.dataset, "kind": spec.kind, **payload}


def _handle_insert(service: SkylineService, request: Dict[str, Any]) -> Dict[str, Any]:
    point_id, generation = service.insert(
        str(request.get("dataset", "")), request["point"]
    )
    return {"ok": True, "id": point_id, **generation_field(generation)}


def _handle_remove(service: SkylineService, request: Dict[str, Any]) -> Dict[str, Any]:
    generation = service.remove(
        str(request.get("dataset", "")), int(request["id"])
    )
    return {"ok": True, **generation_field(generation)}


def _handle_events(service: SkylineService, request: Dict[str, Any]) -> Dict[str, Any]:
    n = request.get("n", 50)
    kinds = request.get("kinds")
    since_seq = request.get("since_seq")
    if kinds is not None and (
        not isinstance(kinds, list)
        or not all(isinstance(k, str) for k in kinds)
    ):
        raise ValueError(f"kinds must be a list of glob strings, got {kinds!r}")
    events = service.events_tail(
        int(n) if n is not None else None,
        kinds=kinds,
        since_seq=int(since_seq) if since_seq is not None else None,
    )
    return {"ok": True, "events": events, "count": len(events)}


def _handle_metrics(service: SkylineService, request: Dict[str, Any]) -> Dict[str, Any]:
    from repro.observability.export import json_snapshot, render_prometheus

    fmt = str(request.get("format", "json"))
    if fmt == "prometheus":
        return {
            "ok": True,
            "format": "prometheus",
            "content_type": "text/plain; version=0.0.4",
            "body": render_prometheus(),
        }
    if fmt == "json":
        return {"ok": True, "format": "json", "metrics": json_snapshot()}
    raise ValueError(f"unknown metrics format {fmt!r} (json or prometheus)")


def handle_request(
    service: SkylineService, request: Dict[str, Any]
) -> Dict[str, Any]:
    """Dispatch one decoded request; always returns a response object."""
    if not isinstance(request, dict):
        return {"ok": False, "status": "error", "error": "request must be an object"}
    op = request.get("op")
    try:
        if op == "register":
            return _handle_register(service, request)
        if op == "query":
            return _handle_query(service, request)
        if op == "shard_query":
            return _handle_shard_query(service, request)
        if op == "insert":
            return _handle_insert(service, request)
        if op == "remove":
            return _handle_remove(service, request)
        if op == "stats":
            return {"ok": True, "version": PROTOCOL_VERSION, **service.stats()}
        if op == "health":
            return {"ok": True, **service.health()}
        if op == "slo":
            return {"ok": True, **service.slo_report()}
        if op == "events":
            return _handle_events(service, request)
        if op == "metrics":
            return _handle_metrics(service, request)
        if op == "ping":
            return {
                "ok": True,
                "pong": True,
                "version": PROTOCOL_VERSION,
                **service.ping_fields(),
            }
        if op == "shutdown":
            return {"ok": True, "bye": True}
        return {"ok": False, "status": "error", "error": f"unknown op {op!r}"}
    except ServiceUnavailableError as exc:
        unavailable = {"ok": False, "status": "unavailable", "error": str(exc)}
        if exc.shard is not None:
            unavailable["shard"] = exc.shard
        return unavailable
    except ServiceOverloadedError as exc:
        return {
            "ok": False,
            "status": "rejected",
            "reason": exc.reason,
            "error": str(exc),
        }
    except UnknownDatasetError as exc:
        return {
            "ok": False,
            "status": "error",
            "error": f"unknown dataset {exc.args[0]!r}",
        }
    except (KeyError, TypeError, ValueError) as exc:
        return {"ok": False, "status": "error", "error": str(exc)}
