"""Seeded serving inputs and the in-process correctness oracle.

A mix is a fixed per-block count of each operation.  The order of the
operations in the stream (and each skyband's ``k``, which decides what
the result cache can reuse) is one fixed pattern per mix; the seed
draws the dataset and every other request parameter: inserted points,
removed ids, constraint boxes and subspaces.  So every seed offers the
same sequence of expensive and cheap requests, and the tail latency of
a run measures the program rather than where a seed happened to
cluster its costly queries.  Removes only name ids that are live at
that point of the stream, so no request of a mix is expected to fail.

:class:`Oracle` replays the ordered stream in-process and checks every
served answer id-for-id against :func:`repro.serving.queries.evaluate`
over the membership at the same point of the stream (one connection
keeps the server's order equal to the stream order).
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from repro.core.kernels import set_default_kernel
from repro.serving.protocol import parse_query_spec
from repro.serving.queries import evaluate

BLOCK = 200
DATASET = "bench"


@dataclass(frozen=True)
class Mix:
    name: str
    n_points: int
    dims: int
    #: Operations per block of ``BLOCK`` requests.
    counts: Tuple[Tuple[str, int], ...]

    def __post_init__(self) -> None:
        if sum(c for _, c in self.counts) != BLOCK:
            raise ValueError(f"mix {self.name} does not fill a block")

    def points(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng([seed, self.n_points, self.dims])
        return rng.random((self.n_points, self.dims))


#: The loadtest's read mix (55% skyline, 20% skyband, 15% constrained,
#: 10% subspace of the reads) with 10% insert/remove, on 800 x 3.
SERVE_MIX = Mix("serve-mix", 800, 3, (
    ("skyline", 99), ("skyband", 36), ("constrained", 27), ("subspace", 18),
    ("insert", 10), ("remove", 10),
))

#: Half mutations plus cheap reads (no skyband), on 2000 x 4.
SERVE_WRITE = Mix("serve-write", 2000, 4, (
    ("skyline", 68), ("constrained", 19), ("subspace", 13),
    ("insert", 50), ("remove", 50),
))


def build_stream(mix: Mix, seed: int, count: int) -> List[Dict[str, Any]]:
    """The first ``count`` requests of ``mix`` under ``seed``."""
    pattern = random.Random(f"{mix.name}:pattern")
    rng = random.Random(f"{mix.name}:{seed}")
    alive = list(range(mix.n_points))
    next_id = mix.n_points
    out: List[Dict[str, Any]] = []
    while len(out) < count:
        ops = [op for op, c in mix.counts for _ in range(c)]
        pattern.shuffle(ops)
        for op in ops:
            request: Dict[str, Any] = {"dataset": DATASET}
            if op == "insert":
                request.update(op="insert",
                               point=[round(rng.random(), 6) for _ in range(mix.dims)])
                alive.append(next_id)
                next_id += 1
            elif op == "remove":
                slot = rng.randrange(len(alive))
                alive[slot], alive[-1] = alive[-1], alive[slot]
                request.update(op="remove", id=alive.pop())
            else:
                request.update(op="query", kind=op)
                if op == "skyband":
                    request["k"] = pattern.randrange(1, 4)
                elif op == "constrained":
                    lower = [round(rng.random() * 0.3, 3) for _ in range(mix.dims)]
                    request["lower"] = lower
                    request["upper"] = [round(v + 0.5, 3) for v in lower]
                elif op == "subspace":
                    width = rng.randrange(2, mix.dims + 1)
                    request["dims"] = sorted(rng.sample(range(mix.dims), width))
            out.append(request)
    return out[:count]


def served_generation(response: Dict[str, Any]) -> int:
    """Single-node generation, or the sum of a cluster's generation vector
    (every mutation bumps exactly one shard by one)."""
    if "generation" in response:
        return int(response["generation"])
    return int(sum(response["generations"]))


@contextmanager
def oracle_kernel() -> Iterator[None]:
    """Run ``evaluate()`` on the block kernel while the oracle checks.

    Answers are kernel-independent by the program's own contract (its
    kernel parity suite), so a served answer that differs from the block
    kernel's is wrong either way; the block kernel only makes the replay
    cheaper.  The previous process default is restored on exit, so
    timed in-process replays still run the program's default kernel.
    """
    previous = set_default_kernel("block")
    try:
        yield
    finally:
        set_default_kernel(previous)


class Oracle:
    """In-process model of one dataset, advanced request by request."""

    def __init__(self, points: np.ndarray, generation: int):
        self.rows: Dict[int, np.ndarray] = {i: r for i, r in enumerate(points)}
        self.next_id = len(points)
        self.generation = generation
        self._arrays: Tuple[int, np.ndarray, np.ndarray] | None = None
        self._answers: Dict[Tuple[Any, ...], List[int]] = {}
        self.checked = 0

    def expected(self, request: Dict[str, Any]) -> List[int]:
        """``evaluate()`` of a query over the current membership."""
        spec = parse_query_spec(request)
        key = spec.cache_key(self.generation)
        if key not in self._answers:
            if self._arrays is None or self._arrays[0] != self.generation:
                ids = np.fromiter(sorted(self.rows), dtype=np.intp)
                rows = np.stack([self.rows[i] for i in ids.tolist()])
                self._arrays = (self.generation, ids, rows)
            _, ids, rows = self._arrays
            self._answers = {k: v for k, v in self._answers.items()
                             if k[-1] == self.generation}
            self._answers[key] = evaluate(spec, ids, rows)
        return self._answers[key]

    def check(self, request: Dict[str, Any],
              response: Dict[str, Any] | None) -> str | None:
        """Advance past ``request``; a description of the mismatch, if any."""
        self.checked += 1
        op = request["op"]
        if response is None:
            return "no response"
        if not response.get("ok"):
            return f"{op} failed: {response.get('error') or response.get('reason')}"
        if op == "query":
            if served_generation(response) != self.generation:
                return (f"query served at generation {served_generation(response)}, "
                        f"stream is at {self.generation}")
            if response["ids"] != self.expected(request):
                return f"wrong answer to {parse_query_spec(request).describe()}"
            return None
        if op == "insert":
            self.rows[self.next_id] = np.asarray(request["point"], dtype=np.float64)
            self.next_id += 1
            if response.get("id") != self.next_id - 1:
                return f"insert got id {response.get('id')}, expected {self.next_id - 1}"
        else:
            del self.rows[request["id"]]
        self.generation += 1
        if served_generation(response) != self.generation:
            return f"{op} at generation {served_generation(response)}, expected {self.generation}"
        return None
