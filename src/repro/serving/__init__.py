"""Online skyline query serving — the §II scenario made long-running.

The paper motivates MapReduce skyline processing with interactive
QoS-based service selection over a live UDDI registry.  The batch engine
(:mod:`repro.core.mr_skyline`) answers one query per pipeline run; this
package keeps the per-partition skyline state *resident* and serves many
concurrent queries against it:

* :class:`~repro.serving.store.SkylineStore` — one
  :class:`~repro.core.incremental.IncrementalSkyline` per registered
  dataset behind a generation counter; mutations touch one partition and
  bump the generation.  Large cold loads seed through the pipelined
  MapReduce job instead of serial inserts.
* :class:`~repro.serving.cache.ResultCache` — versioned result cache
  keyed ``(dataset, kind, params, generation)``; mutation invalidates by
  construction, and stale generations back the degraded answer path.
* :class:`~repro.serving.service.SkylineService` — the request plane:
  admission control with bounded queueing and load shedding, request
  coalescing (identical in-flight queries share one computation),
  per-query deadlines, four query kinds (skyline, k-skyband, constrained,
  subspace), full serve-path observability — over one backend per
  dataset (a local store, or a sharded dataset on the coordinator).
* :mod:`~repro.serving.protocol` / :mod:`~repro.serving.server` /
  :mod:`~repro.serving.client` — the ``repro serve`` JSON-lines front end
  (stdio or TCP) and the client helper used by tests and CI; the
  read-only ``stats`` / ``health`` / ``slo`` / ``events`` / ``metrics``
  verbs are the live telemetry plane.
* :mod:`~repro.serving.top` — the ``repro top`` terminal dashboard that
  polls those verbs against a running server.
* :mod:`~repro.serving.cluster` — sharded multi-node serving: the
  coordinator is the same request plane with sharded backends that fan
  queries out to shard servers with broadcast filter points, merge
  candidate sets exactly, and degrade (never fail) on shard loss.
  ``repro serve --cluster N`` / ``repro coordinator``.

See ``docs/serving.md``, ``docs/cluster.md`` and ``docs/observability.md``.
"""

from repro.serving.cache import ResultCache
from repro.serving.client import ServingClient, ServingConnectionError
from repro.serving.cluster import (
    ClusterConfig,
    ClusterCoordinator,
    ClusterUnavailableError,
    LocalCluster,
    ShardLostError,
    ShardMap,
)
from repro.serving.queries import QUERY_KINDS, QuerySpec, candidate_prune_mask, evaluate
from repro.serving.service import (
    QueryResponse,
    ServeConfig,
    ServiceOverloadedError,
    ServiceUnavailableError,
    SkylineService,
    UnknownDatasetError,
)
from repro.serving.store import SkylineStore, StoreSnapshot
from repro.serving.top import render_frame, run_top

__all__ = [
    "QUERY_KINDS",
    "ClusterConfig",
    "ClusterCoordinator",
    "ClusterUnavailableError",
    "LocalCluster",
    "QueryResponse",
    "QuerySpec",
    "ResultCache",
    "ServeConfig",
    "ServiceOverloadedError",
    "ServiceUnavailableError",
    "ServingClient",
    "ServingConnectionError",
    "ShardLostError",
    "ShardMap",
    "SkylineService",
    "SkylineStore",
    "StoreSnapshot",
    "UnknownDatasetError",
    "candidate_prune_mask",
    "evaluate",
    "render_frame",
    "run_top",
]
