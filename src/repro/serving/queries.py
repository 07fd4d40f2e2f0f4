"""Query kinds served by the online skyline service.

Four query kinds, all answered from one membership snapshot and all
dispatched through the existing :mod:`repro.core` algorithms:

* ``skyline`` — the full skyline (the service answers this one from the
  per-dataset :class:`~repro.core.incremental.IncrementalSkyline`, which
  amortises local-skyline state across queries; :func:`evaluate` is the
  from-scratch reference used by every other kind and by the tests);
* ``skyband`` — the k-skyband (points dominated by fewer than ``k``
  others; ``k = 1`` is the skyline), via :func:`repro.core.skyband.k_skyband`;
* ``constrained`` — the skyline of the points inside an axis-aligned
  range ``[lower, upper]`` (QoS constraints first, Pareto filter second —
  the classic constrained-skyline query);
* ``subspace`` — the skyline over a projection onto a subset of the
  attribute dimensions (ignore attributes the user doesn't care about).

A :class:`QuerySpec` is the canonical, hashable description of one query;
its :meth:`~QuerySpec.cache_key` — ``(dataset, kind, params, generation)``
— is the versioned key of the serving layer's result cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Tuple

import numpy as np

from repro.core.kernels import DominanceKernel, get_kernel
from repro.core.skyband import k_skyband
from repro.core.skyline import skyline

__all__ = ["QUERY_KINDS", "Answer", "QuerySpec", "candidate_prune_mask", "evaluate"]

#: The query kinds the service understands.
QUERY_KINDS = ("skyline", "skyband", "constrained", "subspace")


class Answer(NamedTuple):
    """One dataset backend's answer to one query (``Backend.answer``)."""

    #: The generation the ids are exact at: an int for a local store, the
    #: per-shard generation vector for a sharded dataset.
    generation: Any
    ids: List[int]
    #: Whether the plane may cache the ids under ``generation`` (a partial
    #: or racy cluster answer is never cached).
    cacheable: bool = True
    #: Shards a degraded partial answer is missing (cluster only).
    missing_shards: Tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class QuerySpec:
    """One fully-specified query against one registered dataset."""

    dataset: str
    kind: str = "skyline"
    #: ``skyband``: the k in k-skyband (``k >= 1``).
    k: int | None = None
    #: ``constrained``: inclusive per-dimension bounds, same length as the
    #: dataset's attribute count.
    lower: Tuple[float, ...] | None = None
    upper: Tuple[float, ...] | None = None
    #: ``subspace``: attribute dimensions to project onto (ascending, unique).
    dims: Tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.dataset:
            raise ValueError("query needs a dataset name")
        if self.kind not in QUERY_KINDS:
            raise ValueError(
                f"unknown query kind {self.kind!r}; choose from {QUERY_KINDS}"
            )
        if self.kind == "skyband":
            if self.k is None or int(self.k) < 1:
                raise ValueError(f"skyband needs k >= 1, got {self.k}")
            object.__setattr__(self, "k", int(self.k))
        if self.kind == "constrained":
            if self.lower is None or self.upper is None:
                raise ValueError("constrained query needs lower and upper bounds")
            lower = tuple(float(v) for v in self.lower)
            upper = tuple(float(v) for v in self.upper)
            if len(lower) != len(upper) or not lower:
                raise ValueError(
                    f"bounds must be non-empty and equal length, got "
                    f"{len(lower)} vs {len(upper)}"
                )
            if any(lo > hi for lo, hi in zip(lower, upper)):
                raise ValueError("every lower bound must be <= its upper bound")
            object.__setattr__(self, "lower", lower)
            object.__setattr__(self, "upper", upper)
        if self.kind == "subspace":
            if not self.dims:
                raise ValueError("subspace query needs at least one dimension")
            dims = tuple(int(d) for d in self.dims)
            if len(set(dims)) != len(dims) or any(d < 0 for d in dims):
                raise ValueError(f"dims must be unique and >= 0, got {dims}")
            object.__setattr__(self, "dims", tuple(sorted(dims)))

    # -- cache identity ---------------------------------------------------------

    def params_key(self) -> Tuple[Any, ...]:
        """Canonical, hashable form of the kind-specific parameters."""
        if self.kind == "skyband":
            return (self.k,)
        if self.kind == "constrained":
            return (self.lower, self.upper)
        if self.kind == "subspace":
            return (self.dims,)
        return ()

    def cache_key(self, generation: int | Tuple[int, ...]) -> Tuple[Any, ...]:
        """The versioned result-cache key for this query at ``generation``
        (a store's counter or a sharded dataset's generation vector)."""
        if not isinstance(generation, tuple):
            generation = int(generation)
        return (self.dataset, self.kind, self.params_key(), generation)

    def describe(self) -> str:
        """Short human-readable label used in spans and logs."""
        params = self.params_key()
        suffix = f":{params}" if params else ""
        return f"{self.dataset}/{self.kind}{suffix}"

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {"dataset": self.dataset, "kind": self.kind}
        if self.k is not None:
            record["k"] = self.k
        if self.lower is not None:
            record["lower"] = list(self.lower)
        if self.upper is not None:
            record["upper"] = list(self.upper)
        if self.dims is not None:
            record["dims"] = list(self.dims)
        return record


def evaluate(spec: QuerySpec, ids: np.ndarray, rows: np.ndarray) -> List[int]:
    """From-scratch answer to ``spec`` over one membership snapshot.

    ``ids[i]`` is the stable point id of ``rows[i]``; the result is the
    ascending list of point ids satisfying the query.  This is both the
    serving compute path for the non-skyline kinds and the ground truth
    the differential tests compare every served answer against.
    """
    ids = np.asarray(ids, dtype=np.intp)
    if ids.size == 0:
        return []
    if rows.shape[0] != ids.shape[0]:
        raise ValueError(
            f"snapshot mismatch: {ids.shape[0]} ids for {rows.shape[0]} rows"
        )
    if spec.kind == "skyline":
        idx = skyline(rows)
    elif spec.kind == "skyband":
        assert spec.k is not None
        idx = k_skyband(rows, spec.k)
    elif spec.kind == "constrained":
        lower = np.asarray(spec.lower, dtype=np.float64)
        upper = np.asarray(spec.upper, dtype=np.float64)
        if lower.shape[0] != rows.shape[1]:
            raise ValueError(
                f"bounds cover {lower.shape[0]} dims, dataset has {rows.shape[1]}"
            )
        inside = np.flatnonzero(
            ((rows >= lower) & (rows <= upper)).all(axis=1)
        )
        if inside.size == 0:
            return []
        idx = inside[skyline(rows[inside])]
    else:  # subspace
        assert spec.dims is not None
        if max(spec.dims) >= rows.shape[1]:
            raise ValueError(
                f"dims {spec.dims} out of range for {rows.shape[1]} attributes"
            )
        idx = skyline(rows[:, spec.dims])
    return sorted(int(ids[i]) for i in idx)


def candidate_prune_mask(
    spec: QuerySpec,
    rows: np.ndarray,
    filters: np.ndarray,
    *,
    kernel: str | DominanceKernel | None = None,
) -> np.ndarray:
    """Mask over candidate ``rows``: True where the row must cross the wire.

    The cluster's Ciaccia–Martinenghi leg: the coordinator broadcasts a
    small set of **live data rows** (``filters``) with each fan-out, and a
    shard drops every local candidate the filters already refute before
    transmitting.  Because each filter point is an actual member of the
    global dataset, pruning is *exact* per query kind:

    * ``skyline`` — a candidate strictly dominated by a filter point is
      dominated by a live point, hence not in the global skyline;
    * ``skyband`` — a candidate dominated by ``k`` or more filter points
      has at least ``k`` global dominators, hence is outside the k-skyband
      (with ``k = 1`` this degenerates to the skyline rule);
    * ``constrained`` — only filter points *inside* the query box count
      (an out-of-box dominator does not exclude an in-box point from the
      constrained skyline);
    * ``subspace`` — dominance is tested on the projected coordinates.

    Returns a boolean ``(len(rows),)`` array; with no applicable filters
    every candidate survives.
    """
    rows = np.asarray(rows, dtype=np.float64)
    flt = np.asarray(filters, dtype=np.float64)
    keep_all = np.ones(rows.shape[0], dtype=bool)
    if rows.shape[0] == 0 or flt.shape[0] == 0:
        return keep_all
    if flt.shape[1] != rows.shape[1]:
        raise ValueError(
            f"filter width {flt.shape[1]} != candidate width {rows.shape[1]}"
        )
    knl = get_kernel(kernel)
    if spec.kind == "skyline":
        return knl.filter_survivors(flt, rows, stage="cluster-prune")
    if spec.kind == "skyband":
        assert spec.k is not None
        if spec.k == 1:
            return knl.filter_survivors(flt, rows, stage="cluster-prune")
        # Count filter dominators per candidate: filters are tiny (k <= 32
        # by default), so the dense broadcast is cheaper than a kernel call.
        le = (flt[None, :, :] <= rows[:, None, :]).all(axis=2)
        lt = (flt[None, :, :] < rows[:, None, :]).any(axis=2)
        return (le & lt).sum(axis=1) < spec.k
    if spec.kind == "constrained":
        lower = np.asarray(spec.lower, dtype=np.float64)
        upper = np.asarray(spec.upper, dtype=np.float64)
        if lower.shape[0] != flt.shape[1]:
            return keep_all
        inside = ((flt >= lower) & (flt <= upper)).all(axis=1)
        if not inside.any():
            return keep_all
        return knl.filter_survivors(flt[inside], rows, stage="cluster-prune")
    assert spec.dims is not None
    if max(spec.dims) >= flt.shape[1]:
        return keep_all
    dims = list(spec.dims)
    return knl.filter_survivors(
        np.ascontiguousarray(flt[:, dims]),
        np.ascontiguousarray(rows[:, dims]),
        stage="cluster-prune",
    )
