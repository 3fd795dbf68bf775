"""Write-ahead log: crash durability for the delta-buffer update path.

PR 6's delta buffer made the index mutable while serving, but it is
memory-only -- a crash silently drops every acknowledged un-merged
insert/delete.  This module closes that hole with the classic WAL
contract: :meth:`BrePartitionIndex.insert`/``delete`` append a
checksummed record *before* acknowledging, so after any crash
:meth:`BrePartitionIndex.recover` replays the log and reopens to search
results bitwise equal to an uninterrupted run over the acknowledged
prefix.

Format
------
The file opens with an 8-byte magic (``BPWAL001``).  Each record is a
fixed 17-byte little-endian header::

    op (u8) | payload_len (u32) | version (u64) | crc32 (u32)

followed by ``payload_len`` payload bytes.  ``op`` is 1 (insert: u64
point id + raw float64 vector), 2 (delete: u64 point id) or 3
(merge-commit: empty payload; ``version`` carries the global op version
the merge folded into the frozen base).  ``version`` is the index's
monotone ``updates_applied`` counter at the op, so replay order and the
checkpoint's coverage compose exactly.  The CRC covers the header
(minus itself) plus the payload.

Torn tails are expected, not fatal: a crash mid-append leaves a short
or checksum-failing final record, and :meth:`WriteAheadLog.scan` stops
at the first bad byte -- the op it belonged to was never acknowledged,
so dropping it preserves the acknowledged-prefix contract.  Corruption
*before* the valid tail (a record that parses but fails its CRC while
complete records follow) still surfaces as truncation at that point;
the records after it are unreachable by construction of the scan.

Compaction and checkpoints
--------------------------
``merge()`` appends a merge-commit record, writes an atomic
:class:`Checkpoint` (the live frozen points + global ids, via a temp
file and ``os.replace``), then rewrites the log keeping only records
*newer* than the commit.  A crash between any two of those steps leaves
a recoverable state: commits without a checkpoint are ignored at
replay, and a checkpoint without compaction simply skips the covered
records by version.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from typing import IO, List, Optional

import numpy as np

from ..exceptions import InvalidParameterError, WALError

__all__ = ["Checkpoint", "WALRecord", "WalScan", "WriteAheadLog"]

_MAGIC = b"BPWAL001"
#: record header: op (u8), payload_len (u32), version (u64), crc32 (u32)
_HEADER = struct.Struct("<BIQI")
#: payload prefix carrying the external point id (inserts and deletes).
_PID = struct.Struct("<Q")

OP_INSERT = 1
OP_DELETE = 2
OP_COMMIT = 3

_OP_NAMES = {OP_INSERT: "insert", OP_DELETE: "delete", OP_COMMIT: "commit"}


@dataclass(frozen=True)
class WALRecord:
    """One decoded log record."""

    #: ``OP_INSERT`` / ``OP_DELETE`` / ``OP_COMMIT``.
    op: int
    #: global op version (``updates_applied`` after the op applied); a
    #: commit's version is the cut the merge folded into the base.
    version: int
    #: external point id (inserts and deletes; ``-1`` for commits).
    pid: int
    #: inserted vector (``None`` for deletes and commits).
    point: Optional[np.ndarray]

    @property
    def kind(self) -> str:
        """Human-readable op name."""
        return _OP_NAMES[self.op]


@dataclass(frozen=True)
class WalScan:
    """Outcome of reading a log file front to back."""

    #: every complete, checksum-valid record, in file order.
    records: List[WALRecord]
    #: bytes of the valid prefix (magic + intact records).
    valid_bytes: int
    #: trailing bytes dropped as a torn tail (0 on a clean log).
    torn_bytes: int

    @property
    def last_version(self) -> int:
        """Highest version among the valid records (0 on an empty log)."""
        return max((r.version for r in self.records), default=0)


def _crc(op: int, payload_len: int, version: int, payload: bytes) -> int:
    head = struct.pack("<BIQ", op, payload_len, version)
    return zlib.crc32(payload, zlib.crc32(head)) & 0xFFFFFFFF


def _encode(op: int, version: int, payload: bytes) -> bytes:
    return _HEADER.pack(op, len(payload), version, _crc(op, len(payload), version, payload)) + payload


class WriteAheadLog:
    """Append-only, CRC-checksummed log of delta-buffer operations.

    Parameters
    ----------
    path:
        Log file location.
    fresh:
        ``True`` truncates/creates the file and writes a new magic
        header (the :meth:`BrePartitionIndex.build` path); ``False``
        attaches to an existing log, physically truncating any torn
        tail, and resumes appending after the valid prefix (the
        recovery path).
    fsync:
        When ``True`` every append fsyncs (real-crash durability);
        ``False`` (default) only flushes to the OS -- the simulated
        crash-recovery tests and benchmarks exercise the same code
        paths without paying device latency.
    group_commit_ms:
        When set, appends within this window share one flush/fsync
        (group commit): the first appender under the lock becomes the
        group *leader*, writes its record, waits out the window while
        followers append theirs, then makes the whole group durable
        with a single flush and releases everyone.  No append
        acknowledges before its record is flushed -- the WAL contract
        is unchanged; only the flush count drops (``n_flushes``) at the
        price of up to one window of acknowledge latency.  ``None``
        (default) flushes every append individually.

    Appends and compaction serialise on an internal lock, so concurrent
    mutators (holding the index's mutation lock) and a merge's
    compaction (holding the merge lock) can never interleave file
    writes.
    """

    def __init__(
        self,
        path: str,
        fresh: bool = False,
        fsync: bool = False,
        group_commit_ms: Optional[float] = None,
    ) -> None:
        if group_commit_ms is not None and group_commit_ms < 0:
            raise InvalidParameterError(
                "group_commit_ms must be >= 0 (or None to disable)"
            )
        self.path = str(path)
        self.fsync = bool(fsync)
        self.group_commit_s = (
            group_commit_ms / 1000.0 if group_commit_ms is not None else None
        )
        #: durability flushes performed (each covers >= 1 record under
        #: group commit; == records appended without it).
        self.n_flushes = 0
        #: appends that rode a group led by another appender.
        self.n_group_followers = 0
        #: the current open group's release event (``None`` when no
        #: group is collecting); guarded by ``_lock``.
        self._group: Optional[threading.Event] = None
        self._lock = threading.Lock()
        self._file: IO[bytes]
        if fresh:
            self._file = open(self.path, "wb")
            self._file.write(_MAGIC)
            self._file.flush()
            self.last_version = 0
        else:
            scan = self.scan(self.path)
            if scan.torn_bytes:
                with open(self.path, "r+b") as fh:
                    fh.truncate(scan.valid_bytes)
            self._file = open(self.path, "r+b")
            self._file.seek(scan.valid_bytes)
            self.last_version = scan.last_version

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------

    def append_insert(self, pid: int, point: np.ndarray, version: int) -> None:
        """Log one insert (must precede acknowledging it)."""
        point = np.ascontiguousarray(np.asarray(point, dtype=float))
        self._append(OP_INSERT, version, _PID.pack(int(pid)) + point.tobytes())

    def append_delete(self, pid: int, version: int) -> None:
        """Log one delete (must precede acknowledging it)."""
        self._append(OP_DELETE, version, _PID.pack(int(pid)))

    def append_commit(self, covers_version: int) -> None:
        """Log a merge-commit: every op at or below ``covers_version``
        is now folded into the frozen base on disk-independent state."""
        self._append(OP_COMMIT, covers_version, b"")

    def _append(self, op: int, version: int, payload: bytes) -> None:
        if version < 0:
            raise InvalidParameterError("WAL versions must be non-negative")
        record = _encode(op, version, payload)
        window = self.group_commit_s
        with self._lock:
            if self._file.closed:
                raise WALError(f"write-ahead log {self.path!r} is closed")
            self._file.write(record)
            self.last_version = max(self.last_version, version)
            if window is None:
                self._flush_locked()
                return
            if self._group is None:
                # first in: lead a new group -- wait out the window so
                # concurrent appenders can pile on, then flush for all
                group = self._group = threading.Event()
                leader = True
            else:
                group = self._group
                leader = False
                self.n_group_followers += 1
        if leader:
            time.sleep(window)
            with self._lock:
                self._group = None
                if not self._file.closed:
                    self._flush_locked()
            group.set()
        else:
            # acknowledged only once the leader's flush covered us
            group.wait()

    def _flush_locked(self) -> None:
        """Flush (and optionally fsync) under ``_lock``."""
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        self.n_flushes += 1

    # ------------------------------------------------------------------
    # reading / maintenance
    # ------------------------------------------------------------------

    @staticmethod
    def scan(path: str) -> WalScan:
        """Decode a log file, tolerating a torn tail.

        Stops at the first short, oversized or checksum-failing record;
        everything before it is the valid prefix, everything after is
        reported (not removed) as ``torn_bytes``.  A missing or
        wrong-magic file raises :class:`~repro.exceptions.WALError` --
        that is not a crash artifact but the wrong file.
        """
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError as err:
            raise WALError(f"no write-ahead log at {path!r}") from err
        if len(blob) < len(_MAGIC) or blob[: len(_MAGIC)] != _MAGIC:
            raise WALError(f"{path!r} is not a BrePartition write-ahead log")
        records: List[WALRecord] = []
        offset = len(_MAGIC)
        while offset + _HEADER.size <= len(blob):
            op, payload_len, version, crc = _HEADER.unpack_from(blob, offset)
            end = offset + _HEADER.size + payload_len
            if op not in _OP_NAMES or end > len(blob):
                break
            payload = blob[offset + _HEADER.size : end]
            if _crc(op, payload_len, version, payload) != crc:
                break
            if op == OP_COMMIT:
                records.append(WALRecord(op=op, version=version, pid=-1, point=None))
            else:
                if payload_len < _PID.size or (
                    op == OP_INSERT and (payload_len - _PID.size) % 8 != 0
                ):
                    break
                pid = _PID.unpack_from(payload)[0]
                point = None
                if op == OP_INSERT:
                    point = np.frombuffer(payload, dtype=float, offset=_PID.size).copy()
                records.append(
                    WALRecord(op=op, version=version, pid=int(pid), point=point)
                )
            offset = end
        return WalScan(
            records=records, valid_bytes=offset, torn_bytes=len(blob) - offset
        )

    def compact(self, covers_version: int) -> int:
        """Drop records a checkpoint already covers; returns how many.

        Keeps only insert/delete records with ``version >
        covers_version`` (commit records are never carried: the
        checkpoint *is* the durable form of the commit).  The rewrite
        goes through a temp file and ``os.replace``, so a crash during
        compaction leaves either the old or the new log -- both
        recoverable.  Under ``fsync`` the temp file is fsynced before
        the replace and the directory after it.
        """
        with self._lock:
            self._file.flush()
            scan = self.scan(self.path)
            keep = [
                r
                for r in scan.records
                if r.op != OP_COMMIT and r.version > covers_version
            ]
            tmp = self.path + ".tmp"
            with open(tmp, "wb") as fh:
                fh.write(_MAGIC)
                for r in keep:
                    if r.op == OP_INSERT and r.point is not None:
                        payload = _PID.pack(r.pid) + r.point.tobytes()
                    else:
                        payload = _PID.pack(r.pid)
                    fh.write(_encode(r.op, r.version, payload))
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
            self._file.close()
            os.replace(tmp, self.path)
            if self.fsync:
                _fsync_dir(self.path)
            self._file = open(self.path, "r+b")
            self._file.seek(0, os.SEEK_END)
            return len(scan.records) - len(keep)

    def close(self) -> None:
        """Flush and close the file handle (idempotent)."""
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WriteAheadLog({self.path!r}, last_version={self.last_version})"


def _fsync_dir(path: str) -> None:
    """Fsync the directory holding ``path``, making a rename into it
    durable."""
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class Checkpoint:
    """Atomic sidecar snapshot of the frozen base a merge published.

    Stored as ``<wal_path>.ckpt`` (NumPy ``.npz``): the *live* frozen
    points sorted by external id, their global ids, the op version the
    checkpoint covers, the base epoch and the next id to assign.
    Written via temp file + ``os.replace``, so readers observe either
    the old or the new checkpoint, never a torn one.  Recovery builds
    the index from the checkpoint and replays only WAL records newer
    than ``covers_version``.
    """

    SUFFIX = ".ckpt"

    @staticmethod
    def path_for(wal_path: str) -> str:
        """Sidecar checkpoint path for a log path."""
        return str(wal_path) + Checkpoint.SUFFIX

    @staticmethod
    def save(
        wal_path: str,
        points: np.ndarray,
        global_ids: np.ndarray,
        covers_version: int,
        epoch: int,
        next_id: int,
        fsync: bool = False,
    ) -> str:
        """Atomically (re)write the checkpoint; returns its path.

        ``fsync`` (the log's policy) makes the new checkpoint durable
        before the log compaction that follows it drops the records it
        covers: the temp file is fsynced before ``os.replace`` and the
        directory after it.
        """
        path = Checkpoint.path_for(wal_path)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                points=np.asarray(points, dtype=float),
                global_ids=np.asarray(global_ids, dtype=np.int64),
                covers_version=np.int64(covers_version),
                epoch=np.int64(epoch),
                next_id=np.int64(next_id),
            )
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
        if fsync:
            _fsync_dir(path)
        return path

    @staticmethod
    def load(wal_path: str) -> Optional[dict]:
        """The checkpoint's fields, or ``None`` when none was written."""
        path = Checkpoint.path_for(wal_path)
        if not os.path.exists(path):
            return None
        try:
            with np.load(path) as data:
                return {
                    "points": np.asarray(data["points"], dtype=float),
                    "global_ids": np.asarray(data["global_ids"], dtype=int),
                    "covers_version": int(data["covers_version"]),
                    "epoch": int(data["epoch"]),
                    "next_id": int(data["next_id"]),
                }
        except (OSError, ValueError, KeyError) as err:
            raise WALError(f"checkpoint {path!r} is unreadable: {err}") from err
