"""Atomic dataset snapshots — the delta-log-truncating checkpoint.

A snapshot file holds one framed JSON object (the same ``length + crc32
+ payload`` frame as a WAL record, see :mod:`repro.serving.durability.wal`)
describing a dataset's full recoverable state at one generation:

``format``
    :data:`SNAPSHOT_FORMAT`, for forward-compatible readers.
``dataset`` / ``generation`` / ``next_id``
    Identity, the mutation counter, and the id-allocation cursor —
    ``next_id`` is what makes post-recovery inserts assign the *same*
    ids the pre-crash store would have.
``ids`` / ``rows``
    Every **live member** (id-aligned), not only the skyline.  The WAL
    holds deltas and the checkpoint holds candidates, but here the
    candidate set is the whole membership: skyband, constrained and
    subspace queries (and future removes) answer from non-skyline
    members, so persisting only the skyline would break the id-for-id
    recovery contract for three of the four query kinds.
``skyline_ids``
    The skyline subset at checkpoint time — recorded for observability
    and the bench's snapshot-size accounting, not consulted by replay.
``wal_seq``
    The last WAL sequence number the snapshot covers; recovery replays
    only frames after it.
``config``
    Store construction parameters (scheme, partitions, kernel, …) so a
    recovered store is built like the original.

Writes are atomic: frame to ``<path>.tmp``, flush + fsync, then
``os.replace`` over the target and fsync the directory.  A crash at any
point leaves either the old snapshot or the new one — never a partial
file under the real name — and the WAL is truncated only *after* the
replace is durable, so "stale snapshot + long tail" is the worst state a
crash can produce, and it is fully recoverable.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Dict

from repro.serving.durability import wal

__all__ = ["SNAPSHOT_FORMAT", "SnapshotError", "read_snapshot", "write_snapshot"]

SNAPSHOT_FORMAT = 1


class SnapshotError(RuntimeError):
    """The snapshot file exists but cannot be trusted (bad frame / CRC /
    format).  Unlike a torn WAL tail this is *not* silently skippable:
    the WAL was truncated on the snapshot's promise, so a corrupt
    snapshot means acknowledged data is unrecoverable and the operator
    must know."""


def write_snapshot(path: str, payload: Dict[str, Any]) -> int:
    """Atomically persist ``payload`` to ``path``; returns bytes written.

    tmp-write + fsync + ``os.replace`` + directory fsync: the target
    name always refers to a complete, CRC-verifiable snapshot.  A payload
    past the frame cap raises :class:`~repro.serving.durability.wal.RecordTooLargeError`
    before any file is touched, so the caller never truncates its WAL on
    the promise of a snapshot :func:`read_snapshot` would refuse.
    """
    framed = wal.frame(
        json.dumps(
            {**payload, "format": SNAPSHOT_FORMAT},
            separators=(",", ":"),
            sort_keys=True,
        ).encode("utf-8")
    )
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(framed)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(path) or ".")
    return len(framed)


def read_snapshot(path: str) -> Dict[str, Any] | None:
    """The snapshot payload, or ``None`` when no snapshot exists.

    Raises :class:`SnapshotError` on a present-but-unverifiable file —
    see the class docstring for why that is fatal rather than skippable.
    """
    try:
        blob = open(path, "rb").read()
    except FileNotFoundError:
        return None
    if len(blob) < wal.HEADER.size:
        raise SnapshotError(f"snapshot {path} is shorter than its header")
    length, crc = wal.HEADER.unpack_from(blob, 0)
    body = blob[wal.HEADER.size : wal.HEADER.size + length]
    if length > wal.MAX_RECORD_BYTES or len(body) != length:
        raise SnapshotError(f"snapshot {path} declares {length} bytes, has {len(body)}")
    if zlib.crc32(body) != crc:
        raise SnapshotError(f"snapshot {path} failed its CRC check")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"snapshot {path} holds malformed JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SnapshotError(f"snapshot {path} is not an object: {payload!r}")
    if payload.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"snapshot {path} has format {payload.get('format')!r}, "
            f"expected {SNAPSHOT_FORMAT}"
        )
    return payload


def _fsync_dir(path: str) -> None:
    """Make a rename durable by fsyncing its directory (best-effort on
    platforms whose directories refuse ``os.open`` for reading)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
