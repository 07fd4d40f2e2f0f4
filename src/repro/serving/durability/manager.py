"""Per-dataset durability facade and the data-directory owner.

Layout under ``data_dir``::

    data_dir/
      <dataset>/             # filesystem-safe encoding of the name
        wal.log              # framed mutation records (torn-tail tolerant)
        snapshot.bin         # framed checkpoint (atomic replace)
        name                 # the original dataset name, verbatim

A :class:`DatasetLog` is what a :class:`~repro.serving.store.SkylineStore`
writes through: ``log_register`` / ``log_insert`` / ``log_remove`` /
``log_bulk`` append WAL records *before* the mutation is acknowledged,
and :meth:`DatasetLog.maybe_checkpoint` turns the log over into a
snapshot once enough mutations accumulate.  Every one of those calls
must run under the owning store's lock — the ``wal-discipline`` rule in
``repro lint`` verifies the call sites — because the WAL's sequence
numbers and the store's generation counter must advance in lock-step for
recovery to reproduce generations exactly.

The :class:`DurabilityManager` owns the directory: it hands out dataset
logs, enumerates recoverable datasets for startup recovery, and closes
every log on shutdown.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Dict, List, Sequence

from repro.observability.events import get_events
from repro.observability.metrics import get_metrics
from repro.serving.durability.snapshot import write_snapshot
from repro.serving.durability.wal import (
    FSYNC_POLICIES,
    RecordTooLargeError,
    WriteAheadLog,
)

__all__ = ["DatasetLog", "DurabilityConfig", "DurabilityManager"]

#: Default mutation count between checkpoints.
DEFAULT_SNAPSHOT_EVERY = 256

WAL_FILENAME = "wal.log"
SNAPSHOT_FILENAME = "snapshot.bin"
NAME_FILENAME = "name"

_SAFE_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


def encode_dataset_dir(name: str) -> str:
    """A filesystem-safe directory name for a dataset (percent-escaped)."""
    out = []
    for ch in name:
        if ch in _SAFE_CHARS and ch != "%":
            out.append(ch)
        else:
            out.append("".join(f"%{b:02x}" for b in ch.encode("utf-8")))
    encoded = "".join(out)
    # An all-escaped or empty name still needs a non-empty directory.
    return encoded or "%00"


class DurabilityConfig:
    """Validated knobs for the durability plane."""

    def __init__(
        self,
        data_dir: str,
        *,
        fsync: str = "interval",
        fsync_interval: int = 8,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    ):
        if not data_dir:
            raise ValueError("data_dir must be a non-empty path")
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if fsync_interval < 1:
            raise ValueError(f"fsync_interval must be >= 1, got {fsync_interval}")
        if snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
        self.data_dir = data_dir
        self.fsync = fsync
        self.fsync_interval = fsync_interval
        self.snapshot_every = snapshot_every

    def describe(self) -> Dict[str, Any]:
        return {
            "data_dir": self.data_dir,
            "fsync": self.fsync,
            "fsync_interval": self.fsync_interval,
            "snapshot_every": self.snapshot_every,
        }


class DatasetLog:
    """WAL + snapshot pair for one dataset.

    Method names are deliberately distinctive (``log_*``, ``append_record``,
    ``checkpoint``, ``maybe_checkpoint``, ``truncate``): the
    ``wal-discipline`` lint rule recognises them at call sites and
    verifies each runs under the owning store's lock.
    """

    def __init__(self, directory: str, name: str, config: DurabilityConfig):
        self.name = name
        self.directory = directory
        self.config = config
        os.makedirs(directory, exist_ok=True)
        name_path = os.path.join(directory, NAME_FILENAME)
        if not os.path.exists(name_path):
            with open(name_path, "w", encoding="utf-8") as fh:
                fh.write(name)
        self.wal_path = os.path.join(directory, WAL_FILENAME)
        self.snapshot_path = os.path.join(directory, SNAPSHOT_FILENAME)
        self.wal = WriteAheadLog(
            self.wal_path,
            fsync=config.fsync,
            fsync_interval=config.fsync_interval,
        )
        self._since_checkpoint = 0

    # -- mutation records (call sites must hold the owning store's lock) --------

    def log_register(
        self,
        store_config: Dict[str, Any],
        rows: Sequence[Sequence[float]] | None = None,
    ) -> int:
        """Record a (re-)registration — fresh store, construction config —
        and its initial ``rows`` as a ``bulk`` record, all-or-nothing: a
        register record alone would reset the dataset on replay."""
        payloads = [{"op": "register", "config": store_config}]
        if rows is not None:
            payloads.append({"op": "bulk", "rows": [[float(v) for v in row] for row in rows]})
        seqs = self.wal.append_records(payloads)
        self._since_checkpoint += len(seqs)
        return seqs[0]

    def log_insert(self, row: Sequence[float]) -> int:
        return self.append_record({"op": "insert", "row": [float(v) for v in row]})

    def log_remove(self, point_id: int) -> int:
        return self.append_record({"op": "remove", "id": int(point_id)})

    def log_bulk(self, rows: Sequence[Sequence[float]]) -> int:
        return self.append_record(
            {"op": "bulk", "rows": [[float(v) for v in row] for row in rows]}
        )

    def append_record(self, payload: Dict[str, Any]) -> int:
        seq = self.wal.append_record(payload)
        self._since_checkpoint += 1
        return seq

    # -- checkpointing ----------------------------------------------------------

    def maybe_checkpoint(self, state_fn: Callable[[], Dict[str, Any]]) -> bool:
        """Checkpoint if ``snapshot_every`` mutations accumulated since the
        last one; returns whether a snapshot was written.

        Takes a zero-arg callable rather than the state itself: building
        the snapshot payload copies the whole membership, which would be
        wasted work on the (vastly more common) no-checkpoint path.
        """
        if self._since_checkpoint < self.config.snapshot_every:
            return False
        try:
            self.checkpoint(state_fn())
        except RecordTooLargeError as exc:
            # The mutation that triggered this is already applied and
            # logged; failing it now would report an error for a write
            # that recovery will replay.  The WAL stays the record of
            # truth (it was not truncated); retry after another interval.
            self._since_checkpoint = 0
            get_metrics().counter("wal.checkpoints_skipped").inc()
            get_events().emit(
                "durability.checkpoint_skipped", dataset=self.name, error=str(exc)
            )
            return False
        return True

    def checkpoint(self, state: Dict[str, Any]) -> int:
        """Persist ``state`` as the new snapshot, then truncate the WAL.

        Ordering is the whole point: the WAL frames are only dropped
        *after* the snapshot replace has been fsynced, so a crash at any
        instant leaves either (old snapshot + full WAL) or (new snapshot
        + empty WAL) — both recoverable.  The snapshot stamps
        ``wal_seq`` = last assigned sequence number, so replay after a
        pre-truncate crash skips frames the snapshot already covers.
        """
        payload = {**state, "wal_seq": self.wal.next_seq - 1}
        size = write_snapshot(self.snapshot_path, payload)
        self.wal.truncate()
        self._since_checkpoint = 0
        metrics = get_metrics()
        metrics.counter("wal.checkpoints").inc()
        metrics.gauge("durability.snapshot_bytes").set(size)
        get_events().emit(
            "durability.checkpoint",
            dataset=self.name,
            generation=state.get("generation"),
            members=len(state.get("ids", [])),
            snapshot_bytes=size,
            wal_seq=payload["wal_seq"],
        )
        return size

    # -- lifecycle --------------------------------------------------------------

    def sync(self) -> None:
        self.wal.sync()

    def close(self) -> None:
        self.wal.close()


class DurabilityManager:
    """Owns one data directory; hands out per-dataset logs."""

    def __init__(self, config: DurabilityConfig):
        self.config = config
        os.makedirs(config.data_dir, exist_ok=True)
        self._lock = threading.Lock()
        self._logs: Dict[str, DatasetLog] = {}

    def dataset_log(self, name: str) -> DatasetLog:
        """The (cached) log for ``name``, creating its directory on first use."""
        with self._lock:
            log = self._logs.get(name)
            if log is None:
                directory = os.path.join(self.config.data_dir, encode_dataset_dir(name))
                log = DatasetLog(directory, name, self.config)
                self._logs[name] = log
            return log

    def dataset_names(self) -> List[str]:
        """Every dataset with on-disk state, by recorded (verbatim) name."""
        names = []
        try:
            entries = sorted(os.listdir(self.config.data_dir))
        except FileNotFoundError:
            return []
        for entry in entries:
            directory = os.path.join(self.config.data_dir, entry)
            if not os.path.isdir(directory):
                continue
            has_state = os.path.exists(
                os.path.join(directory, WAL_FILENAME)
            ) or os.path.exists(os.path.join(directory, SNAPSHOT_FILENAME))
            if not has_state:
                continue
            name_path = os.path.join(directory, NAME_FILENAME)
            try:
                names.append(open(name_path, encoding="utf-8").read())
            except FileNotFoundError:
                names.append(entry)
        return names

    def sync(self) -> None:
        """Flush every open WAL (the signal-exit path calls this)."""
        with self._lock:
            logs = list(self._logs.values())
        for log in logs:
            log.sync()

    def close(self) -> None:
        with self._lock:
            logs = list(self._logs.values())
            self._logs.clear()
        for log in logs:
            log.close()
