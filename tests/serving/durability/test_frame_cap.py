"""Chaos leg: the frame-size cap is enforced where frames are written.

``read_wal`` / ``read_snapshot`` refuse frames past ``MAX_RECORD_BYTES``.
A writer that ignored the cap would acknowledge a mutation whose frame
the reader then takes for a torn tail, dropping it *and every later
acknowledged record*; an oversize snapshot would be written, the WAL
truncated on its promise, and recovery would fail.  These tests lower
the cap so ordinary payloads cross it and check that:

* an oversize mutation raises before it is applied or acknowledged;
* an oversize (re-)registration writes nothing, so the dataset it would
  have replaced keeps serving and recovers intact;
* an explicit checkpoint raises before it truncates the WAL;
* an automatic checkpoint that cannot fit is skipped, not failed;
* recovery afterwards returns every acknowledged record, id-for-id.
"""

import os

import numpy as np
import pytest

from repro.observability.events import get_events
from repro.serving.durability import (
    DurabilityConfig,
    DurabilityManager,
    RecordTooLargeError,
    WriteAheadLog,
    read_wal,
    wal,
)
from repro.serving.queries import QuerySpec
from repro.serving.service import SkylineService
from repro.serving.store import SkylineStore
from tests.serving.durability.test_recovery import (
    DATASET,
    DIMS,
    answers_of,
    apply_ops,
    recover,
)

#: Every mutation frame of these tests fits (an insert is ~90 bytes); a
#: 40-row bulk record or the membership snapshot of 60 ops does not.
CAP = 1000


@pytest.fixture(autouse=True)
def small_cap(monkeypatch):
    """Lower the cap for writers and readers alike (snapshot.py reads it
    through the wal module, so one patch covers both file kinds)."""
    monkeypatch.setattr(wal, "MAX_RECORD_BYTES", CAP)


def durable_store(data_dir, *, snapshot_every=10_000):
    """A durable store grown by single inserts, so every frame is small."""
    manager = DurabilityManager(
        DurabilityConfig(data_dir, fsync="always", snapshot_every=snapshot_every)
    )
    store = SkylineStore(DATASET, num_partitions=4)
    log = manager.dataset_log(DATASET)
    store.attach_durability(log)
    log.log_register(store.store_config())
    apply_ops(store, 60)
    return manager, store


class TestWalWrites:
    def test_oversize_append_writes_nothing_and_keeps_later_records(
        self, tmp_path
    ):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path, fsync="always") as log:
            for i in range(3):
                log.append_record({"op": "insert", "row": [float(i)]})
            size = os.path.getsize(path)
            with pytest.raises(RecordTooLargeError):
                log.append_record({"op": "bulk", "rows": [[0.5] * 4] * 100})
            assert os.path.getsize(path) == size, "nothing may hit the file"
            assert log.next_seq == 3, "a rejected frame must not burn a seq"
            for i in range(2):
                log.append_record({"op": "insert", "row": [float(i)]})
        scan = read_wal(path)
        assert not scan.torn
        assert [r.seq for r in scan.records] == [0, 1, 2, 3, 4]


class TestStoreMutations:
    def test_oversize_bulk_is_rejected_before_apply(self, tmp_path):
        data_dir = str(tmp_path / "data")
        manager, store = durable_store(data_dir)
        before = answers_of(store)
        big = np.random.default_rng(3).random((40, DIMS)) + 0.01
        with pytest.raises(RecordTooLargeError):
            store.bulk_load(big)
        assert answers_of(store) == before, "rejected bulk must not apply"
        store.insert([0.003] * DIMS)
        acknowledged = answers_of(store)
        manager.close()

        manager2, recovered, report = recover(data_dir)
        assert not report.torn_tail
        assert answers_of(recovered) == acknowledged
        manager2.close()


class TestRegistration:
    """``SkylineService.register`` logs the register record and the
    initial rows together or not at all: a register record alone would
    reset the dataset on replay."""

    def test_oversize_initial_register_leaves_no_dataset(self, tmp_path):
        data_dir = str(tmp_path / "data")
        manager = DurabilityManager(DurabilityConfig(data_dir, fsync="always"))
        service = SkylineService(durability=manager)
        big = np.random.default_rng(5).random((40, DIMS)) + 0.01
        with pytest.raises(RecordTooLargeError):
            service.register(DATASET, big, num_partitions=4)
        assert service.datasets() == []
        manager.close()

        manager2, recovered, _report = recover(data_dir)
        assert recovered is None, "a failed register must leave no dataset"
        manager2.close()

    def test_oversize_reregister_keeps_the_old_dataset(self, tmp_path):
        data_dir = str(tmp_path / "data")
        manager = DurabilityManager(DurabilityConfig(data_dir, fsync="always"))
        service = SkylineService(durability=manager)
        small = np.random.default_rng(6).random((5, DIMS)) + 0.01
        service.register(DATASET, small, num_partitions=4)
        old = service.store(DATASET)
        apply_ops(old, 20)
        big = np.random.default_rng(7).random((40, DIMS)) + 0.01
        with pytest.raises(RecordTooLargeError):
            service.register(DATASET, big, num_partitions=4)
        assert service.store(DATASET) is old, "the old dataset must stay live"
        # The old store still logs, and its later writes survive too.
        service.insert(DATASET, [0.002] * DIMS)
        acknowledged = answers_of(old)
        served = service.query(QuerySpec(dataset=DATASET))
        assert served.ids == acknowledged["skyline"]
        manager.close()

        manager2, recovered, report = recover(data_dir)
        assert not report.torn_tail
        assert answers_of(recovered) == acknowledged
        manager2.close()


class TestCheckpoints:
    def test_oversize_checkpoint_raises_before_truncating(self, tmp_path):
        data_dir = str(tmp_path / "data")
        manager, store = durable_store(data_dir)
        acknowledged = answers_of(store)
        wal_path = os.path.join(data_dir, DATASET, "wal.log")
        snap_path = os.path.join(data_dir, DATASET, "snapshot.bin")
        records = len(read_wal(wal_path).records)
        with pytest.raises(RecordTooLargeError):
            store.checkpoint()
        assert len(read_wal(wal_path).records) == records, "WAL truncated"
        assert not os.path.exists(snap_path)
        assert not os.path.exists(snap_path + ".tmp")
        manager.close()

        manager2, recovered, report = recover(data_dir)
        assert report.snapshot_generation is None
        assert answers_of(recovered) == acknowledged
        manager2.close()

    def test_automatic_checkpoint_that_cannot_fit_is_skipped(self, tmp_path):
        data_dir = str(tmp_path / "data")
        # Every mutation is acknowledged, though the checkpoints it
        # triggers cannot be written.
        manager, store = durable_store(data_dir, snapshot_every=4)
        acknowledged = answers_of(store)
        skipped = [
            e for e in get_events().tail(None)
            if e.kind == "durability.checkpoint_skipped"
        ]
        assert skipped, "the skipped checkpoint must be observable"
        manager.close()

        manager2, recovered, report = recover(data_dir)
        assert not report.torn_tail
        assert answers_of(recovered) == acknowledged
        manager2.close()
