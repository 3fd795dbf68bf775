"""Write-ahead log and crash recovery.

The durability contract under test: an index that crashed at *any*
point reopens, via :meth:`BrePartitionIndex.recover`, to search results
bitwise equal to a brute-force oracle over exactly the acknowledged
mutation prefix -- no acknowledged op lost, no unacknowledged op
resurrected.  The kill-point matrix drives every crash window the
merge epilogue has (commit record, checkpoint, compaction) plus torn
mid-insert tails, across every decomposable divergence and both the
one-shard and four-shard layouts.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.core.config import BrePartitionConfig
from repro.core.index import BrePartitionIndex
from repro.exceptions import InvalidParameterError, WALError
from repro.storage import Checkpoint, FaultInjector, WriteAheadLog
from repro.storage import wal as wal_module
from repro.storage.wal import OP_COMMIT, OP_DELETE, OP_INSERT, _MAGIC

from conftest import all_decomposable_divergences, points_for


def _oracle(divergence, live: dict, query: np.ndarray, k: int):
    """Brute-force kNN over a {id: vector} live set, id-ascending ties."""
    ids = np.array(sorted(live))
    points = np.stack([live[int(pid)] for pid in ids])
    div = divergence.batch_divergence(points, query)
    order = np.argsort(div, kind="stable")[:k]
    return ids[order], div[order]


def _config(tmp_path, n_shards=1, **overrides):
    return BrePartitionConfig(
        n_partitions=2,
        seed=0,
        page_size_bytes=512,
        n_shards=n_shards,
        wal_path=str(tmp_path / "index.wal"),
        **overrides,
    )


@pytest.fixture
def closing():
    """Register an index to be closed at teardown, pass or fail."""
    opened = []

    def register(index):
        opened.append(index)
        return index

    yield register
    for index in opened:
        index.close()


def _crash(index):
    """Simulate a crash: the index dies without a clean shutdown.

    Its log handle is released before ``recover`` reopens the file, and
    the release must write nothing: every acknowledged record is already
    on disk, so recovery sees exactly the bytes a real crash leaves.
    """
    path = index.config.wal_path
    with open(path, "rb") as fh:
        before = fh.read()
    index.close()
    with open(path, "rb") as fh:
        assert fh.read() == before


# ----------------------------------------------------------------------
# log format
# ----------------------------------------------------------------------


class TestLogFormat:
    def test_record_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.wal")
        wal = WriteAheadLog(path, fresh=True)
        point = np.array([1.5, -2.0, 3.25])
        wal.append_insert(7, point, version=1)
        wal.append_delete(3, version=2)
        wal.append_commit(2)
        wal.close()

        scan = WriteAheadLog.scan(path)
        assert scan.torn_bytes == 0
        assert [r.op for r in scan.records] == [OP_INSERT, OP_DELETE, OP_COMMIT]
        assert [r.version for r in scan.records] == [1, 2, 2]
        assert scan.records[0].pid == 7
        np.testing.assert_array_equal(scan.records[0].point, point)
        assert scan.records[1].pid == 3
        assert scan.records[1].point is None
        assert scan.records[2].kind == "commit"
        assert scan.last_version == 2

    def test_scan_rejects_missing_and_foreign_files(self, tmp_path):
        with pytest.raises(WALError):
            WriteAheadLog.scan(str(tmp_path / "nope.wal"))
        bogus = tmp_path / "bogus.wal"
        bogus.write_bytes(b"NOTAWAL!" + b"\x00" * 32)
        with pytest.raises(WALError):
            WriteAheadLog.scan(str(bogus))

    def test_torn_tail_is_dropped_then_truncated_on_attach(self, tmp_path):
        path = str(tmp_path / "t.wal")
        wal = WriteAheadLog(path, fresh=True)
        wal.append_insert(0, np.ones(4), version=1)
        wal.append_insert(1, np.zeros(4), version=2)
        wal.close()
        clean_size = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(b"\x01\x09\x00half-written")  # crash mid-append

        scan = WriteAheadLog.scan(path)
        assert len(scan.records) == 2
        assert scan.torn_bytes == os.path.getsize(path) - clean_size

        reopened = WriteAheadLog(path, fresh=False)  # attach truncates
        assert os.path.getsize(path) == clean_size
        assert reopened.last_version == 2
        reopened.append_delete(0, version=3)  # and appending still works
        reopened.close()
        assert len(WriteAheadLog.scan(path).records) == 3

    def test_corrupt_tail_flips_fail_crc(self, tmp_path):
        path = str(tmp_path / "t.wal")
        wal = WriteAheadLog(path, fresh=True)
        wal.append_insert(0, np.ones(4), version=1)
        wal.append_insert(1, np.full(4, 2.0), version=2)
        wal.close()
        flipped = FaultInjector.corrupt_tail(path, n_bytes=4)
        assert flipped == 4
        scan = WriteAheadLog.scan(path)
        # the corrupted record is exactly the last one
        assert len(scan.records) == 1
        assert scan.records[0].pid == 0
        assert scan.torn_bytes > 0

    def test_compaction_keeps_only_uncovered_records(self, tmp_path):
        path = str(tmp_path / "t.wal")
        wal = WriteAheadLog(path, fresh=True)
        for v in range(1, 7):
            wal.append_insert(v, np.full(2, float(v)), version=v)
        wal.append_commit(4)
        dropped = wal.compact(4)
        assert dropped == 5  # four covered inserts + the commit record
        wal.append_delete(2, version=7)  # handle survives compaction
        wal.close()
        scan = WriteAheadLog.scan(path)
        assert [(r.op, r.version) for r in scan.records] == [
            (OP_INSERT, 5),
            (OP_INSERT, 6),
            (OP_DELETE, 7),
        ]

    def test_append_on_closed_log_raises(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "t.wal"), fresh=True)
        wal.close()
        wal.close()  # idempotent
        with pytest.raises(WALError):
            wal.append_delete(0, version=1)

    def test_checkpoint_roundtrip(self, tmp_path):
        wal_path = str(tmp_path / "t.wal")
        assert Checkpoint.load(wal_path) is None
        points = np.arange(12.0).reshape(4, 3)
        gids = np.array([0, 2, 5, 9])
        saved = Checkpoint.save(
            wal_path, points, gids, covers_version=6, epoch=2, next_id=10
        )
        assert saved == wal_path + Checkpoint.SUFFIX
        ckpt = Checkpoint.load(wal_path)
        np.testing.assert_array_equal(ckpt["points"], points)
        np.testing.assert_array_equal(ckpt["global_ids"], gids)
        assert ckpt["covers_version"] == 6
        assert ckpt["epoch"] == 2
        assert ckpt["next_id"] == 10

    def test_unreadable_checkpoint_raises(self, tmp_path):
        wal_path = str(tmp_path / "t.wal")
        with open(wal_path + Checkpoint.SUFFIX, "wb") as fh:
            fh.write(b"garbage, not an npz")
        with pytest.raises(WALError):
            Checkpoint.load(wal_path)


# ----------------------------------------------------------------------
# group commit
# ----------------------------------------------------------------------


class TestCheckpointDurability:
    """Under ``wal_fsync`` a merge makes its checkpoint durable before
    compaction drops the log records the checkpoint covers."""

    def _record(self, monkeypatch):
        """Log ``os.fsync`` and ``os.replace`` calls the WAL module
        makes, identifying files by inode."""
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.stat(src).st_ino, str(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(wal_module.os, "fsync", fsync)
        monkeypatch.setattr(wal_module.os, "replace", replace)
        return events

    def _merge(self, tmp_path, closing, wal_fsync, monkeypatch):
        div = all_decomposable_divergences(8)[0][1]
        config = _config(tmp_path, wal_fsync=wal_fsync)
        index = closing(
            BrePartitionIndex(div, config).build(points_for(div, 40, 8, seed=81))
        )
        events = self._record(monkeypatch)
        for vec in points_for(div, 3, 8, seed=82):
            index.insert(vec)
        index.merge(mode="extend")
        return events

    def test_merge_fsyncs_checkpoint_before_replacing_it(
        self, tmp_path, closing, monkeypatch
    ):
        events = self._merge(tmp_path, closing, True, monkeypatch)
        ckpt = Checkpoint.path_for(str(tmp_path / "index.wal"))
        directory = os.stat(tmp_path).st_ino
        [at] = [
            i for i, e in enumerate(events) if e[0] == "replace" and e[2] == ckpt
        ]
        assert ("fsync", events[at][1]) in events[:at]
        assert ("fsync", directory) in events[at:]
        # the compacted log's rename is made durable too
        [log_at] = [
            i
            for i, e in enumerate(events)
            if e[0] == "replace" and e[2] == str(tmp_path / "index.wal")
        ]
        assert log_at > at
        assert ("fsync", directory) in events[log_at:]

    def test_default_policy_never_fsyncs(self, tmp_path, closing, monkeypatch):
        events = self._merge(tmp_path, closing, False, monkeypatch)
        assert [e for e in events if e[0] == "replace"]
        assert not [e for e in events if e[0] == "fsync"]


class TestGroupCommit:
    def test_validation(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            WriteAheadLog(
                str(tmp_path / "t.wal"), fresh=True, group_commit_ms=-1.0
            )

    def test_without_group_commit_every_append_flushes(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "t.wal"), fresh=True)
        for v in range(1, 5):
            wal.append_delete(v, version=v)
        assert wal.n_flushes == 4
        assert wal.n_group_followers == 0
        wal.close()

    def test_concurrent_appends_share_one_flush(self, tmp_path):
        """The satellite contract: appends within the window ride one
        leader's flush -- fewer flushes than appends, every record
        durable, and nothing acknowledged before its flush."""
        path = str(tmp_path / "t.wal")
        wal = WriteAheadLog(path, fresh=True, group_commit_ms=30.0)
        n = 8
        barrier = threading.Barrier(n)

        def append(i: int) -> None:
            barrier.wait()  # pile into one window
            wal.append_insert(i, np.full(4, float(i)), version=i + 1)

        threads = [
            threading.Thread(target=append, args=(i,)) for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert wal.n_flushes < n  # shared flushes
        assert wal.n_group_followers > 0
        assert wal.n_flushes + wal.n_group_followers == n
        wal.close()

        scan = WriteAheadLog.scan(path)  # every append is on disk
        assert scan.torn_bytes == 0
        assert sorted(r.pid for r in scan.records) == list(range(n))

    def test_sequential_appends_still_durable(self, tmp_path):
        """A lone appender leads a group of one: slower (it waits the
        window) but just as durable."""
        path = str(tmp_path / "t.wal")
        wal = WriteAheadLog(path, fresh=True, group_commit_ms=1.0)
        wal.append_insert(0, np.ones(3), version=1)
        wal.append_delete(0, version=2)
        assert wal.n_flushes == 2
        assert wal.n_group_followers == 0
        wal.close()
        assert len(WriteAheadLog.scan(path).records) == 2

    def test_index_threads_the_window_through(self, tmp_path, closing):
        """``wal_group_commit_ms`` reaches the log the index opens, and
        acknowledged mutations recover after a crash exactly as without
        group commit."""
        divergence = all_decomposable_divergences(8)[0][1]
        points = points_for(divergence, 32, 8, seed=61)
        config = _config(tmp_path, wal_group_commit_ms=5.0)
        index = BrePartitionIndex(divergence, config).build(points)
        assert index._wal.group_commit_s == pytest.approx(0.005)
        extra = points_for(divergence, 3, 8, seed=62)
        pids = [index.insert(p) for p in extra]
        index.delete(pids[0])
        _crash(index)

        recovered = closing(
            BrePartitionIndex.recover(config.wal_path, divergence, config)
        )
        live = {pid: extra[i] for i, pid in enumerate(pids) if i > 0}
        for i, point in enumerate(points):
            live[i] = point
        query = points_for(divergence, 1, 8, seed=63)[0]
        want_ids, want_div = _oracle(divergence, live, query, 5)
        got = recovered.search(query, 5)
        np.testing.assert_array_equal(got.ids, want_ids)
        np.testing.assert_allclose(got.divergences, want_div)


# ----------------------------------------------------------------------
# crash-recovery kill-point matrix
# ----------------------------------------------------------------------

#: where the simulated crash lands.  The merge epilogue is commit record
#: -> checkpoint -> compaction; each gap is a distinct disk state.
KILL_POINTS = (
    "clean",            # no crash artifacts: merge + post-merge ops
    "mid_insert",       # torn half-record of an unacknowledged insert
    "pre_commit",       # merge died before the commit record
    "post_commit",      # commit record on disk, checkpoint never written
    "post_checkpoint",  # checkpoint written, compaction never ran
)


class _Boom(RuntimeError):
    """The simulated crash."""


def _mutate(index, divergence, live, d):
    """Scripted acknowledged mutations, mirrored into ``live``."""
    extra = points_for(divergence, 10, d, seed=99)
    new_ids = [index.insert(p) for p in extra]
    for pid, p in zip(new_ids, extra):
        live[int(pid)] = p
    for pid in (3, 11, new_ids[0]):
        index.delete(pid)
        del live[int(pid)]


@pytest.mark.parametrize("n_shards", [1, 4])
@pytest.mark.parametrize("kill", KILL_POINTS)
def test_crash_recovery_matrix(
    decomposable, n_shards, kill, tmp_path, monkeypatch, closing
):
    divergence = decomposable
    n, d, k = 48, 8, 5
    points = points_for(divergence, n, d, seed=1)
    config = _config(tmp_path, n_shards=n_shards)
    index = BrePartitionIndex(divergence, config).build(points)
    live = {i: points[i] for i in range(n)}
    _mutate(index, divergence, live, d)
    # post_checkpoint runs an extend merge so the checkpoint's dead-row
    # filtering is exercised too; the other merge kills use rebuild
    merge_mode = "extend" if kill == "post_checkpoint" else "rebuild"

    if kill == "mid_insert":
        # crash mid-append: the torn record's insert was never
        # acknowledged, so the oracle's live set must not include it
        with open(config.wal_path, "ab") as fh:
            fh.write(b"\x01\x40\x00\x00\x00torn")
    elif kill == "pre_commit":
        monkeypatch.setattr(
            WriteAheadLog,
            "append_commit",
            lambda self, covers: (_ for _ in ()).throw(_Boom()),
        )
        with pytest.raises(_Boom):
            index.merge(mode=merge_mode)
        monkeypatch.undo()
    elif kill == "post_commit":
        monkeypatch.setattr(
            BrePartitionIndex,
            "_wal_checkpoint",
            lambda self, covers, base: (_ for _ in ()).throw(_Boom()),
        )
        with pytest.raises(_Boom):
            index.merge(mode=merge_mode)
        monkeypatch.undo()
    elif kill == "post_checkpoint":
        monkeypatch.setattr(
            WriteAheadLog,
            "compact",
            lambda self, covers: (_ for _ in ()).throw(_Boom()),
        )
        with pytest.raises(_Boom):
            index.merge(mode=merge_mode)
        monkeypatch.undo()
    else:  # clean: a full merge plus post-merge acknowledged ops
        stats = index.merge(mode=merge_mode)
        assert stats.wal_records_truncated > 0
        tail = points_for(divergence, 3, d, seed=100)
        for p in tail:
            live[int(index.insert(p))] = p
        index.delete(5)
        del live[5]

    # the crashed process is gone; reopen purely from the on-disk state
    _crash(index)
    recovered = closing(
        BrePartitionIndex.recover(config.wal_path, divergence, config=config)
    )
    assert recovered.config.wal_path == config.wal_path

    stats = recovered.recovery_stats
    assert stats is not None
    assert stats.used_checkpoint
    assert stats.final_version == recovered.updates_applied
    if kill == "mid_insert":
        assert stats.torn_bytes_dropped > 0
    if kill == "post_checkpoint":
        # checkpoint covers the merge cut but compaction never ran: the
        # covered records must be skipped by version, not replayed
        assert stats.skipped_ops > 0 and stats.replayed_inserts == 0

    snap = recovered.snapshot()
    assert snap.n_live == len(live)
    queries = points_for(divergence, 4, d, seed=2)
    for q in queries:
        want_ids, want_div = _oracle(divergence, live, q, k)
        got = recovered.search(q, k)
        np.testing.assert_array_equal(got.ids, want_ids)
        np.testing.assert_array_equal(got.divergences, want_div)


def test_recovered_index_keeps_serving_and_recovering(tmp_path, closing):
    """Continue mutating after recovery, then recover a second time."""
    divergence = all_decomposable_divergences(6)[0][1]
    points = points_for(divergence, 40, 6, seed=3)
    config = _config(tmp_path)
    index = BrePartitionIndex(divergence, config).build(points)
    live = {i: points[i] for i in range(40)}
    _mutate(index, divergence, live, 6)
    _crash(index)

    first = BrePartitionIndex.recover(config.wal_path, divergence, config=config)
    extra = points_for(divergence, 4, 6, seed=101)
    for p in extra:  # recovered index appends to the same log
        live[int(first.insert(p))] = p
    first.delete(7)
    del live[7]
    _crash(first)

    second = closing(
        BrePartitionIndex.recover(config.wal_path, divergence, config=config)
    )
    assert second.updates_applied == first.updates_applied
    q = points_for(divergence, 1, 6, seed=4)[0]
    want_ids, want_div = _oracle(divergence, live, q, 6)
    got = second.search(q, 6)
    np.testing.assert_array_equal(got.ids, want_ids)
    np.testing.assert_array_equal(got.divergences, want_div)


def test_recover_without_checkpoint_needs_points(tmp_path, closing):
    divergence = all_decomposable_divergences(6)[0][1]
    points = points_for(divergence, 30, 6, seed=5)
    config = _config(tmp_path)
    index = BrePartitionIndex(divergence, config).build(points)
    live = {i: points[i] for i in range(30)}
    _mutate(index, divergence, live, 6)
    _crash(index)
    os.remove(Checkpoint.path_for(config.wal_path))  # pre-checkpoint era

    with pytest.raises(WALError):
        BrePartitionIndex.recover(config.wal_path, divergence, config=config)

    recovered = closing(
        BrePartitionIndex.recover(
            config.wal_path, divergence, config=config, points=points
        )
    )
    assert not recovered.recovery_stats.used_checkpoint
    q = points_for(divergence, 1, 6, seed=6)[0]
    want_ids, want_div = _oracle(divergence, live, q, 5)
    got = recovered.search(q, 5)
    np.testing.assert_array_equal(got.ids, want_ids)
    np.testing.assert_array_equal(got.divergences, want_div)


def test_replay_contradiction_raises(tmp_path):
    """A log replaying a delete of a never-live id is corrupt, not torn."""
    divergence = all_decomposable_divergences(6)[0][1]
    points = points_for(divergence, 30, 6, seed=7)
    config = _config(tmp_path)
    _crash(BrePartitionIndex(divergence, config).build(points))
    wal = WriteAheadLog(config.wal_path, fresh=False)
    wal.append_delete(9999, version=1)
    wal.close()
    with pytest.raises(WALError):
        BrePartitionIndex.recover(config.wal_path, divergence, config=config)


def test_build_without_wal_path_stays_memory_only(tmp_path, closing):
    divergence = all_decomposable_divergences(6)[0][1]
    points = points_for(divergence, 30, 6, seed=8)
    config = BrePartitionConfig(n_partitions=2, seed=0)
    index = closing(BrePartitionIndex(divergence, config).build(points))
    index.insert(points_for(divergence, 1, 6, seed=9)[0])
    assert index._wal is None
    assert not (tmp_path / "index.wal").exists()


def test_fresh_build_truncates_stale_log(tmp_path, closing):
    """build() owns its wal_path: a stale log there is reset, and the
    bootstrap checkpoint makes the new index recoverable immediately."""
    divergence = all_decomposable_divergences(6)[0][1]
    config = _config(tmp_path)
    with open(config.wal_path, "wb") as fh:
        fh.write(_MAGIC + b"leftover bytes from an older run")
    points = points_for(divergence, 30, 6, seed=10)
    index = BrePartitionIndex(divergence, config).build(points)
    first_log = index._wal
    index.build(points)  # a rebuild re-owns the path and closes the old log
    with pytest.raises(WALError):
        first_log.append_delete(0, version=1)
    assert WriteAheadLog.scan(config.wal_path).records == []
    _crash(index)
    recovered = closing(
        BrePartitionIndex.recover(config.wal_path, divergence, config=config)
    )
    assert recovered.n_points == 30


def test_close_releases_the_log_and_refuses_mutations(tmp_path, closing):
    """After close() searches are unchanged, a second close() is
    harmless, and mutations raise: they can no longer be logged."""
    divergence = all_decomposable_divergences(6)[0][1]
    points = points_for(divergence, 30, 6, seed=11)
    index = closing(BrePartitionIndex(divergence, _config(tmp_path)).build(points))
    query = points_for(divergence, 1, 6, seed=12)[0]
    before = index.search(query, 5)
    index.close()
    index.close()
    after = index.search(query, 5)
    np.testing.assert_array_equal(after.ids, before.ids)
    np.testing.assert_array_equal(after.divergences, before.divergences)
    with pytest.raises(WALError):
        index.insert(points_for(divergence, 1, 6, seed=13)[0])
    with pytest.raises(WALError):
        index.delete(0)
    assert index.updates_applied == 0  # neither op applied
