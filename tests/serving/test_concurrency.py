"""Concurrency stress: every served answer matches SOME generation's truth.

A single writer thread mutates a store/service while reader threads hammer
it; the writer records the membership snapshot after every mutation, and
at the end every answer a reader got is checked against the recorded
ground truth of the generation it was labelled with.  Plus a hypothesis
property test driving random insert/remove sequences through the store.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.metrics import get_metrics
from repro.serving.queries import QuerySpec, evaluate
from repro.serving.service import (
    ServeConfig,
    ServiceOverloadedError,
    SkylineService,
)
from repro.serving.store import SkylineStore


def _points(n=60, d=3, seed=0):
    return np.random.default_rng(seed).random((n, d)) + 0.01


class _History:
    """Generation -> (ids, rows) ground truth, recorded by the one writer."""

    def __init__(self, store):
        self.store = store
        self.lock = threading.Lock()
        self.snapshots = {}
        self.record()

    def record(self):
        snap = self.store.snapshot()
        with self.lock:
            self.snapshots[snap.generation] = snap

    def verify(self, generation, ids, spec):
        snap = self.snapshots[generation]
        assert ids == evaluate(spec, snap.ids, snap.rows), (
            f"generation {generation}: served {ids}"
        )


def _run_writer(store, history, steps, seed=1, pause_s=0.0):
    rng = np.random.default_rng(seed)
    live = sorted(int(i) for i in store.snapshot().ids)
    for _ in range(steps):
        if pause_s:
            time.sleep(pause_s)
        if live and rng.random() < 0.4:
            victim = int(rng.choice(live))
            store.remove(victim)
            live.remove(victim)
        else:
            pid, _ = store.insert(rng.random(3) + 0.01)
            live.append(pid)
        history.record()


class TestStoreStress:
    def test_concurrent_readers_always_see_a_consistent_generation(self):
        store = SkylineStore("qws", _points())
        history = _History(store)
        spec = QuerySpec(dataset="qws")
        stop = threading.Event()
        answers = []

        def reader():
            local = []
            while not stop.is_set():
                generation, ids = store.skyline_snapshot()
                local.append((generation, ids))
            return local

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(reader) for _ in range(4)]
            _run_writer(store, history, steps=60)
            stop.set()
            for future in futures:
                answers.extend(future.result())

        assert answers
        seen_generations = {generation for generation, _ in answers}
        assert len(seen_generations) > 1, "readers never observed a mutation"
        for generation, ids in answers:
            history.verify(generation, ids, spec)


class TestServiceStress:
    def test_every_answer_matches_its_generation(self):
        service = SkylineService(ServeConfig(max_inflight=4, max_queue=8))
        service.register("qws", _points())
        history = _History(service.store("qws"))
        specs = [
            QuerySpec(dataset="qws"),
            QuerySpec(dataset="qws", kind="skyband", k=2),
            QuerySpec(dataset="qws", kind="subspace", dims=(0, 2)),
        ]
        stop = threading.Event()
        answers = []

        def reader(index):
            local = []
            rng = np.random.default_rng(100 + index)
            while not stop.is_set():
                spec = specs[int(rng.integers(len(specs)))]
                try:
                    response = service.query(spec)
                except ServiceOverloadedError:
                    continue  # shed without a stale answer: no wrong data
                local.append((spec, response))
            return local

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(reader, i) for i in range(4)]
            _run_writer(service.store("qws"), history, steps=50)
            stop.set()
            for future in futures:
                answers.extend(future.result())

        assert answers
        for spec, response in answers:
            history.verify(response.generation, response.ids, spec)

    def test_overload_sheds_without_wrong_answers(self):
        service = SkylineService(
            ServeConfig(max_inflight=1, max_queue=0, stale_on_overload=True)
        )
        service.register("qws", _points())
        store = service.store("qws")
        history = _History(store)
        spec = QuerySpec(dataset="qws")
        service.query(spec)  # warm the stale path

        # Make each compute hold the single admission permit long enough
        # that concurrent queries genuinely overflow capacity.
        original_snapshot = store.skyline_snapshot

        def slow_snapshot():
            result = original_snapshot()
            threading.Event().wait(0.005)
            return result

        store.skyline_snapshot = slow_snapshot
        answers = []
        rejections = []
        stop = threading.Event()
        answers_lock = threading.Lock()

        # Readers are all looping before the writer starts, so its
        # mutations' recomputes overlap live traffic.
        started = threading.Barrier(7)

        def reader():
            started.wait()
            while not stop.is_set():
                try:
                    response = service.query(spec)
                    with answers_lock:
                        answers.append(response)
                except ServiceOverloadedError:
                    with answers_lock:
                        rejections.append(1)

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for t in threads:
            t.start()
        started.wait()
        # Pausing between mutations yields the GIL, so each recompute
        # overlaps the readers instead of finishing within one time slice.
        _run_writer(store, history, steps=20, pause_s=0.002)
        stop.set()
        for t in threads:
            t.join(timeout=30)

        shed = get_metrics().counter("serve.shed").value
        assert shed > 0, "over-admission never shed a request"
        for response in answers:
            history.verify(response.generation, response.ids, spec)


coords = st.tuples(
    st.floats(0.01, 10.0, allow_nan=False),
    st.floats(0.01, 10.0, allow_nan=False),
    st.floats(0.01, 10.0, allow_nan=False),
)


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(
    st.one_of(coords, st.integers(min_value=0, max_value=200)),
    min_size=1, max_size=40,
))
def test_store_insert_remove_sequences_stay_consistent(ops):
    """Random insert/remove scripts: generation labels never lie."""
    store = SkylineStore("qws")
    live = []
    last_generation = 0
    for op in ops:
        if isinstance(op, tuple):
            pid, generation = store.insert(np.array(op))
            live.append(pid)
        elif live:
            victim = live[op % len(live)]
            generation = store.remove(victim)
            live.remove(victim)
        else:
            continue
        assert generation == last_generation + 1, "generations must be dense"
        last_generation = generation
        snap = store.snapshot()
        assert snap.generation == generation
        assert sorted(int(i) for i in snap.ids) == sorted(live)
        got = store.skyline_snapshot()
        assert got[0] == generation
        assert got[1] == evaluate(QuerySpec(dataset="qws"), snap.ids, snap.rows)
