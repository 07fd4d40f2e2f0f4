"""Append-only write-ahead log of serving mutations.

File format — a sequence of framed records::

    +----------------+----------------+------------------+
    | length  (u32)  | crc32   (u32)  | payload (length) |
    +----------------+----------------+------------------+

both header fields big-endian; the payload is UTF-8 JSON of one record
object carrying a monotone ``"seq"`` number plus the mutation fields.
The CRC covers the payload bytes only, so a torn header and a torn
payload are detected the same way: the frame fails to verify and the
scan stops *before* it.  Everything up to the last verifiable frame is
trusted; everything after is discarded (and physically truncated the
next time the log is opened for writing) — the standard torn-tail rule.

Durability knobs (``fsync`` policy):

``always``
    ``flush`` + ``os.fsync`` after every append.  No acknowledged
    mutation can be lost to a crash; slowest.
``interval``
    fsync every ``fsync_interval`` appends (and on :meth:`sync` /
    :meth:`close`).  A crash can lose at most the last interval's
    acknowledged mutations; the file is still never *corrupted* beyond
    the torn tail.
``never``
    flush to the OS only.  Survives process crashes (the page cache
    holds the data) but not power loss; fastest.

Sequence numbers are monotone for the lifetime of the dataset — they
keep counting across :meth:`truncate` (checkpoints), which lets the
snapshot record "applied through seq N" and the recovery path replay
exactly the frames with ``seq > N``.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Any, Dict, List, NamedTuple, Sequence

from repro.observability.events import get_events
from repro.observability.metrics import get_metrics

__all__ = [
    "FSYNC_POLICIES",
    "HEADER",
    "MAX_RECORD_BYTES",
    "RecordTooLargeError",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "read_wal",
]

#: Frame header: payload length + CRC32 of the payload, both big-endian u32.
HEADER = struct.Struct(">II")

FSYNC_POLICIES = ("always", "interval", "never")

#: Refuse to trust frames claiming more than this many payload bytes: a
#: corrupt length field must not make the scanner allocate gigabytes.
#: Writers enforce the same cap (:func:`frame`), so no frame the readers
#: would reject is ever written.
MAX_RECORD_BYTES = 256 * 1024 * 1024


class RecordTooLargeError(ValueError):
    """A frame would exceed :data:`MAX_RECORD_BYTES`.

    Raised *before* anything is written: a reader would take the frame
    for a torn tail and drop it together with every later record, so an
    oversize mutation is rejected instead of acknowledged."""


class WalRecord(NamedTuple):
    """One decoded frame: its sequence number and the payload object."""

    seq: int
    payload: Dict[str, Any]


class WalScan(NamedTuple):
    """Result of reading a log file.

    ``valid_bytes`` is the offset just past the last verifiable frame —
    a writer reopening the log truncates to it before appending, so a
    torn tail can never corrupt later records.
    """

    records: List[WalRecord]
    valid_bytes: int
    torn: bool


def frame(body: bytes) -> bytes:
    """``length + crc32 + body``; raises :class:`RecordTooLargeError`
    past :data:`MAX_RECORD_BYTES` (read at call time, so a lowered cap
    applies to WAL records and snapshots alike)."""
    if len(body) > MAX_RECORD_BYTES:
        raise RecordTooLargeError(
            f"{len(body)}-byte record exceeds the {MAX_RECORD_BYTES}-byte "
            "frame cap; nothing was written"
        )
    return HEADER.pack(len(body), zlib.crc32(body)) + body


def encode_record(payload: Dict[str, Any]) -> bytes:
    """Frame one payload object (which must already carry ``"seq"``)."""
    return frame(
        json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
    )


def read_wal(path: str) -> WalScan:
    """Scan a log file, stopping at the first unverifiable frame.

    Missing file reads as an empty, un-torn log.  A frame is rejected —
    and the scan stopped — when its header is short, its declared length
    runs past EOF or exceeds :data:`MAX_RECORD_BYTES`, its CRC fails, or
    its payload is not a JSON object with an integer ``"seq"``.
    """
    try:
        blob = open(path, "rb").read()
    except FileNotFoundError:
        return WalScan([], 0, False)
    records: List[WalRecord] = []
    offset = 0
    torn = False
    size = len(blob)
    while offset < size:
        if offset + HEADER.size > size:
            torn = True
            break
        length, crc = HEADER.unpack_from(blob, offset)
        start = offset + HEADER.size
        end = start + length
        if length > MAX_RECORD_BYTES or end > size:
            torn = True
            break
        body = blob[start:end]
        if zlib.crc32(body) != crc:
            torn = True
            break
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            torn = True
            break
        if not isinstance(payload, dict) or not isinstance(payload.get("seq"), int):
            torn = True
            break
        records.append(WalRecord(payload["seq"], payload))
        offset = end
    return WalScan(records, offset, torn)


class WriteAheadLog:
    """Appender over one log file; torn-tail trimming on open.

    Not internally locked: the owning :class:`~repro.serving.store.SkylineStore`
    serialises every append under its store lock (the ``wal-discipline``
    contract ``repro lint`` checks), which also keeps the sequence
    numbers monotone without a second lock here.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync: str = "interval",
        fsync_interval: int = 8,
        next_seq: int | None = None,
    ):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if fsync_interval < 1:
            raise ValueError(f"fsync_interval must be >= 1, got {fsync_interval}")
        self.path = path
        self.fsync_policy = fsync
        self.fsync_interval = fsync_interval
        scan = read_wal(path)
        #: Whether the file had a torn tail when this writer opened it —
        #: the recovery report wants that fact even though the tail is
        #: physically trimmed a few lines below.
        self.torn_on_open = scan.torn
        if scan.torn:
            get_metrics().counter("wal.torn_tail").inc()
            get_events().emit(
                "durability.torn_tail",
                path=path,
                kept_records=len(scan.records),
                kept_bytes=scan.valid_bytes,
            )
        # Open for in-place append and trim any torn tail *before* the
        # first write lands after it.
        self._fh = open(path, "ab")
        if os.path.getsize(path) != scan.valid_bytes:
            self._fh.truncate(scan.valid_bytes)
            self._fh.seek(scan.valid_bytes)
        last_seq = scan.records[-1].seq if scan.records else -1
        self._next_seq = (last_seq + 1) if next_seq is None else max(next_seq, last_seq + 1)
        self._unsynced = 0
        self._closed = False

    # -- inspection -------------------------------------------------------------

    @property
    def next_seq(self) -> int:
        return self._next_seq

    @property
    def size_bytes(self) -> int:
        return self._fh.tell() if not self._closed else 0

    # -- writes -----------------------------------------------------------------

    def append_record(self, payload: Dict[str, Any]) -> int:
        return self.append_records([payload])[0]

    def append_records(self, payloads: Sequence[Dict[str, Any]]) -> List[int]:
        """Frame and append records all-or-nothing; returns their seqs.

        Each payload's ``"seq"`` field is assigned here; callers pass the
        mutation fields only.  Every frame is encoded (and size-checked)
        before the first byte is written, so a :class:`RecordTooLargeError`
        leaves the log as it was.  Durability of the returned seqs depends
        on the fsync policy (see the module docstring).
        """
        if self._closed:
            raise ValueError(f"write-ahead log {self.path} is closed")
        first = self._next_seq
        framed = b"".join(
            encode_record({**payload, "seq": first + i})
            for i, payload in enumerate(payloads)
        )
        self._fh.write(framed)
        self._next_seq = first + len(payloads)
        self._unsynced += len(payloads)
        metrics = get_metrics()
        metrics.counter("wal.appends").inc(len(payloads))
        metrics.counter("wal.bytes_written").inc(len(framed))
        if self.fsync_policy == "always":
            self._do_sync()
        elif self.fsync_policy == "interval" and self._unsynced >= self.fsync_interval:
            self._do_sync()
        else:
            self._fh.flush()
        return list(range(first, self._next_seq))

    def sync(self) -> None:
        """Force everything appended so far onto stable storage."""
        if not self._closed and self._unsynced:
            self._do_sync()

    def truncate(self) -> None:
        """Drop every frame — the post-checkpoint reset.

        Sequence numbers keep counting; only the *file* restarts, because
        the snapshot now durably covers everything the dropped frames
        said.  Callers must only invoke this after the snapshot replace
        has been fsynced (see :meth:`DatasetLog.checkpoint`).
        """
        if self._closed:
            raise ValueError(f"write-ahead log {self.path} is closed")
        self._fh.truncate(0)
        self._fh.seek(0)
        self._do_sync()
        get_metrics().counter("wal.truncates").inc()

    def close(self) -> None:
        if not self._closed:
            self.sync()
            self._fh.close()
            self._closed = True

    def _do_sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._unsynced = 0
        get_metrics().counter("wal.syncs").inc()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
