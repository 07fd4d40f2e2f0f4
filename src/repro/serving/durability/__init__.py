"""Durable serving state: write-ahead log + snapshot recovery.

The paper's batch pipeline inherits durability from the MapReduce
substrate (HDFS keeps the inputs; a failed job is re-run).  The serving
layer has no such substrate — a registered dataset lives in a
:class:`~repro.serving.store.SkylineStore`'s memory and dies with the
process.  This package closes that gap with the classic database recipe,
sized to the skyline workload:

* :mod:`repro.serving.durability.wal` — a per-dataset append-only
  **write-ahead log** of mutation records (length-prefixed JSON with a
  CRC and monotone sequence numbers, torn-tail tolerant);
* :mod:`repro.serving.durability.snapshot` — atomic **checkpoints** of
  the live membership + generation counter + id-allocation state, after
  which the delta log is truncated;
* :mod:`repro.serving.durability.manager` — the per-dataset
  :class:`DatasetLog` facade the store writes through, and the
  :class:`DurabilityManager` that owns the data directory;
* :mod:`repro.serving.durability.recovery` — replay snapshot + WAL tail
  back into a store so a restarted server answers **id-for-id
  identically** to the pre-crash one.

Recovery I/O is proportional to the live membership plus the mutation
tail since the last checkpoint — never the raw input — following the
communication-efficiency principle of *Computing Skylines on Distributed
Data*: persist candidates and deltas, not whole partitions.
"""

from repro.serving.durability.manager import (
    DatasetLog,
    DurabilityConfig,
    DurabilityManager,
)
from repro.serving.durability.recovery import (
    RecoveryReport,
    recover_dataset,
    recover_store,
)
from repro.serving.durability.snapshot import (
    SNAPSHOT_FORMAT,
    SnapshotError,
    read_snapshot,
    write_snapshot,
)
from repro.serving.durability.wal import (
    FSYNC_POLICIES,
    RecordTooLargeError,
    WalRecord,
    WalScan,
    WriteAheadLog,
    read_wal,
)

__all__ = [
    "DatasetLog",
    "DurabilityConfig",
    "DurabilityManager",
    "FSYNC_POLICIES",
    "RecordTooLargeError",
    "RecoveryReport",
    "SNAPSHOT_FORMAT",
    "SnapshotError",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "read_snapshot",
    "read_wal",
    "recover_dataset",
    "recover_store",
    "write_snapshot",
]
