"""Tests for the epoch/snapshot mutation subsystem.

Covers the delta buffer, index-level insert/delete parity against a
brute-force oracle over the live points, rebuild/extend merges
(including the gid ``-1`` sentinel for delete-then-reinsert), snapshot
pinning and merge drain, exact per-scope page accounting under
mutations, serving-layer mutations, and a threaded linearizability
stress: every concurrent response must be bitwise equal to the answer
for *some* prefix of the applied updates, bracketed by the index's
monotone ``updates_applied`` counter.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro import BrePartitionConfig, BrePartitionIndex, brute_force_knn
from repro.core.snapshot import DeltaBuffer
from repro.datasets import load_dataset
from repro.divergences import ItakuraSaito, SquaredEuclidean
from repro.exceptions import InvalidParameterError
from repro.serve import MicroBatcher, make_serving_index
from repro.storage.io_stats import DiskAccessTracker

from conftest import all_decomposable_divergences, points_for


def _build(div, n=48, d=6, seed=5, n_shards=1, tracker=None, **overrides):
    points = points_for(div, n, d, seed=seed)
    config = BrePartitionConfig(
        n_partitions=2, seed=0, page_size_bytes=512, n_shards=n_shards, **overrides
    )
    index = BrePartitionIndex(div, config, tracker=tracker).build(points)
    return points, index


def _oracle(div, live: dict, query: np.ndarray, k: int):
    """Exact (ids, divergences) over a {external id: point} dict.

    Points are laid out in ascending id order before the stable
    brute-force top-k, which is exactly the tie order the snapshot
    search path guarantees -- so comparisons can be bitwise.
    """
    ids = np.array(sorted(live))
    pts = np.stack([live[int(i)] for i in ids])
    order, dists = brute_force_knn(div, pts, query, k)
    return ids[order], dists


def _live_map(points: np.ndarray) -> dict:
    return {int(i): points[i] for i in range(points.shape[0])}


def _assert_matches_oracle(index, div, live, queries, k):
    """Single and batch search both bitwise-equal to the oracle."""
    batch = index.search_batch(np.stack(queries), k)
    for q, query in enumerate(queries):
        want_ids, want_div = _oracle(div, live, query, k)
        single = index.search(query, k)
        np.testing.assert_array_equal(single.ids, want_ids)
        np.testing.assert_array_equal(single.divergences, want_div)
        np.testing.assert_array_equal(batch.results[q].ids, want_ids)
        np.testing.assert_array_equal(batch.results[q].divergences, want_div)


# ----------------------------------------------------------------------
# delta buffer unit behaviour
# ----------------------------------------------------------------------


class TestDeltaBuffer:
    def test_insert_and_view(self):
        buf = DeltaBuffer(3)
        buf.insert(np.array([1.0, 2.0, 3.0]), 7)
        buf.insert(np.array([4.0, 5.0, 6.0]), 2)
        view = buf.view()
        assert view.version == 2
        np.testing.assert_array_equal(view.ids, [2, 7])
        np.testing.assert_array_equal(view.points[1], [1.0, 2.0, 3.0])
        assert view.tombstones == frozenset()

    def test_view_cached_until_next_op(self):
        buf = DeltaBuffer(2)
        buf.insert(np.zeros(2), 0)
        first = buf.view()
        assert buf.view() is first
        buf.delete(0)
        assert buf.view() is not first

    def test_insert_copies_point(self):
        buf = DeltaBuffer(2)
        point = np.array([1.0, 1.0])
        buf.insert(point, 0)
        point[:] = 99.0
        np.testing.assert_array_equal(buf.view().points[0], [1.0, 1.0])

    def test_shape_mismatch_rejected(self):
        buf = DeltaBuffer(3)
        with pytest.raises(InvalidParameterError):
            buf.insert(np.zeros(2), 0)

    def test_duplicate_delta_insert_rejected(self):
        buf = DeltaBuffer(2)
        buf.insert(np.zeros(2), 4)
        with pytest.raises(InvalidParameterError):
            buf.insert(np.ones(2), 4)

    def test_delete_kills_delta_insert_and_tombstones(self):
        buf = DeltaBuffer(2)
        buf.insert(np.zeros(2), 4)
        buf.delete(4)
        buf.delete(9)
        view = buf.view()
        assert view.n_inserts == 0
        assert view.tombstones == frozenset({4, 9})

    def test_delete_then_reinsert_keeps_newest_copy(self):
        buf = DeltaBuffer(2)
        buf.insert(np.zeros(2), 4)
        buf.delete(4)
        buf.insert(np.ones(2), 4)
        view = buf.view()
        np.testing.assert_array_equal(view.ids, [4])
        np.testing.assert_array_equal(view.points[0], [1.0, 1.0])
        # the tombstone survives: the frozen copy (if any) must stay dead
        assert 4 in view.tombstones

    def test_rebase_replays_only_the_tail(self):
        buf = DeltaBuffer(2)
        buf.insert(np.zeros(2), 0)   # op 1: merged away
        buf.delete(5)                # op 2: merged away
        cut = buf.version
        buf.insert(np.ones(2), 1)    # op 3: still pending
        buf.delete(0)                # op 4: still pending
        fresh = buf.rebase(cut)
        view = fresh.view()
        assert fresh.version == 2
        np.testing.assert_array_equal(view.ids, [1])
        assert view.tombstones == frozenset({0})


# ----------------------------------------------------------------------
# index-level mutations: parity against the rebuilt-from-scratch oracle
# ----------------------------------------------------------------------


class TestMutationParity:
    @pytest.mark.parametrize("name,div", all_decomposable_divergences(6))
    def test_insert_delete_search_exact(self, name, div):
        points, index = _build(div)
        live = _live_map(points)
        extra = points_for(div, 6, 6, seed=6)
        for vec in extra:
            live[index.insert(vec)] = vec
        for victim in (3, 17, 40):
            index.delete(victim)
            del live[victim]
        queries = list(points_for(div, 3, 6, seed=7))
        _assert_matches_oracle(index, div, live, queries, k=5)

    def test_sharded_store_parity(self):
        div = SquaredEuclidean()
        points, index = _build(div, n_shards=2)
        live = _live_map(points)
        for vec in points_for(div, 5, 6, seed=8):
            live[index.insert(vec)] = vec
        index.delete(0)
        del live[0]
        queries = list(points_for(div, 2, 6, seed=9))
        _assert_matches_oracle(index, div, live, queries, k=4)

    def test_inserted_point_is_its_own_nearest_neighbour(self):
        div = SquaredEuclidean()
        points, index = _build(div)
        vec = points_for(div, 1, 6, seed=10)[0]
        pid = index.insert(vec)
        result = index.search(vec, k=1)
        assert result.ids[0] == pid
        assert result.divergences[0] == 0.0
        assert result.stats.delta_candidates == 1

    def test_deleting_the_nearest_neighbour_promotes_the_next(self):
        div = SquaredEuclidean()
        points, index = _build(div)
        query = points[11]
        before = index.search(query, k=2)
        index.delete(int(before.ids[0]))
        after = index.search(query, k=1)
        assert after.ids[0] == before.ids[1]
        assert after.divergences[0] == before.divergences[1]

    def test_k_validated_against_live_count(self):
        div = SquaredEuclidean()
        points, index = _build(div, n=20)
        index.delete(4)
        assert index.n_points == 19
        index.search(points[0], k=19)
        with pytest.raises(InvalidParameterError):
            index.search(points[0], k=20)

    def test_insert_rejects_duplicate_and_bad_ids(self):
        div = SquaredEuclidean()
        points, index = _build(div, n=20)
        with pytest.raises(InvalidParameterError):
            index.insert(points[0], point_id=7)  # frozen-live id
        pid = index.insert(points_for(div, 1, 6, seed=11)[0])
        with pytest.raises(InvalidParameterError):
            index.insert(points[1], point_id=pid)  # delta-live id
        with pytest.raises(InvalidParameterError):
            index.insert(points[1], point_id=-3)

    def test_delete_rejects_dead_ids(self):
        div = SquaredEuclidean()
        points, index = _build(div, n=20)
        with pytest.raises(InvalidParameterError):
            index.delete(999)
        index.delete(3)
        with pytest.raises(InvalidParameterError):
            index.delete(3)

    def test_updates_applied_is_monotone(self):
        div = SquaredEuclidean()
        points, index = _build(div, n=20)
        assert index.updates_applied == 0
        index.insert(points_for(div, 1, 6, seed=12)[0])
        index.delete(2)
        assert index.updates_applied == 2
        index.merge()
        assert index.updates_applied == 2  # merges are not updates


# ----------------------------------------------------------------------
# merges: rebuild, extend, sentinel rows, drain
# ----------------------------------------------------------------------


class TestMerge:
    @pytest.mark.parametrize("mode", ["rebuild", "extend"])
    def test_merge_preserves_search_parity(self, mode):
        div = ItakuraSaito()
        points, index = _build(div)
        live = _live_map(points)
        for vec in points_for(div, 7, 6, seed=13):
            live[index.insert(vec)] = vec
        for victim in (1, 25):
            index.delete(victim)
            del live[victim]
        stats = index.merge(mode=mode)
        assert stats.mode == mode
        assert stats.epoch == 1 == index.epoch
        assert stats.merged_inserts == 7
        assert stats.resolved_tombstones == 2
        assert index.delta_ops == 0
        queries = list(points_for(div, 3, 6, seed=14))
        _assert_matches_oracle(index, div, live, queries, k=5)

    def test_rebuild_compacts_extend_carries_dead_rows(self):
        div = SquaredEuclidean()
        points, index = _build(div)
        index.delete(5)
        extend_stats = index.merge(mode="extend")
        assert extend_stats.n_frozen == 48  # row kept, marked dead
        assert index._base.n_frozen_dead == 1
        assert index._base.global_ids[5] == -1
        index.delete(6)
        rebuild_stats = index.merge(mode="rebuild")
        assert rebuild_stats.n_frozen == 46  # both tombstones compacted
        assert index._base.dead_rows is None

    def test_delete_reinsert_then_extend_uses_sentinel(self):
        """A reinserted id must serve from its new row while the dead
        frozen predecessor still occupies the old one."""
        div = SquaredEuclidean()
        points, index = _build(div)
        live = _live_map(points)
        replacement = points[9] + 0.25
        index.delete(9)
        index.insert(replacement, point_id=9)
        live[9] = replacement
        index.merge(mode="extend")
        assert index._base.global_ids[9] == -1
        assert (index._base.global_ids == 9).sum() == 1
        result = index.search(replacement, k=1)
        assert result.ids[0] == 9
        assert result.divergences[0] == 0.0
        queries = list(points_for(div, 2, 6, seed=15))
        _assert_matches_oracle(index, div, live, queries, k=4)

    def test_chained_merges_stay_exact(self):
        div = SquaredEuclidean()
        points, index = _build(div)
        live = _live_map(points)
        rng = np.random.default_rng(16)
        for round_no, mode in enumerate(["extend", "rebuild", "extend"]):
            for vec in points_for(div, 4, 6, seed=20 + round_no):
                live[index.insert(vec)] = vec
            victim = int(rng.choice(sorted(live)))
            index.delete(victim)
            del live[victim]
            index.merge(mode=mode)
        assert index.epoch == 3
        queries = list(points_for(div, 3, 6, seed=17))
        _assert_matches_oracle(index, div, live, queries, k=6)

    def test_extend_merge_of_duplicate_inserts_stays_exact(self):
        """A burst of identical inserts defeats two-means leaf splitting
        (the degenerate half-split fallback kicks in during the extend)
        yet parity must hold -- ties resolve by ascending external id on
        both sides."""
        div = SquaredEuclidean()
        points, index = _build(div, leaf_capacity=4)
        live = _live_map(points)
        dup = points[0] + 0.5
        for _ in range(12):
            live[index.insert(dup)] = dup
        index.merge(mode="extend")
        result = index.search(dup, k=12)
        want_ids, want_div = _oracle(div, live, dup, 12)
        np.testing.assert_array_equal(result.ids, want_ids)
        np.testing.assert_array_equal(result.divergences, want_div)

    def test_extend_preserves_page_identity(self):
        """Old pages (and the pool entries keyed on them) stay valid."""
        div = SquaredEuclidean()
        points, index = _build(div)
        old_store = index.datastore
        old_pages = old_store.count_pages_of(np.arange(10))
        for vec in points_for(div, 3, 6, seed=18):
            index.insert(vec)
        index.merge(mode="extend")
        new_store = index.datastore
        assert new_store is not old_store
        for old_copies, new_copies in zip(old_store.replicas, new_store.replicas):
            for old_replica, new_replica in zip(old_copies, new_copies):
                assert new_replica.fileno == old_replica.fileno
        assert new_store.count_pages_of(np.arange(10)) == old_pages

    def test_reshard_after_extend_keeps_parity(self):
        div = SquaredEuclidean()
        points, index = _build(div)
        live = _live_map(points)
        for vec in points_for(div, 5, 6, seed=19):
            live[index.insert(vec)] = vec
        index.merge(mode="extend")
        index.reshard(2)
        assert index.epoch == 2
        queries = list(points_for(div, 2, 6, seed=21))
        _assert_matches_oracle(index, div, live, queries, k=4)

    def test_noop_merge(self):
        div = SquaredEuclidean()
        points, index = _build(div, n=20)
        stats = index.merge()
        assert stats.epoch == 0 and stats.merged_inserts == 0 and stats.drained
        assert index.epoch == 0

    def test_merge_refuses_to_empty_the_index(self):
        div = SquaredEuclidean()
        points, index = _build(div, n=20)
        for pid in range(19):
            index.delete(pid)
        with pytest.raises(InvalidParameterError):
            index.merge(mode="rebuild")

    def test_invalid_merge_mode(self):
        div = SquaredEuclidean()
        points, index = _build(div, n=20)
        with pytest.raises(InvalidParameterError):
            index.merge(mode="compact")

    def test_merge_reports_undrained_pinned_scopes(self):
        div = SquaredEuclidean()
        points, index = _build(div, n=20)
        old_base = index._base
        snap = index.snapshot()
        snap.pin()
        index.insert(points_for(div, 1, 6, seed=22)[0])
        stats = index.merge(drain_timeout=0.05)
        assert not stats.drained  # the pinned reader is still out there
        assert index._base is not old_base  # ...but the swap happened
        snap.unpin()
        assert old_base.wait_drained(timeout=5.0)

    def test_inflight_scope_serves_its_pinned_epoch(self):
        """A snapshot taken before a merge answers from the old state."""
        div = SquaredEuclidean()
        points, index = _build(div)
        live_before = _live_map(points)
        query = points_for(div, 1, 6, seed=23)[0]
        snap = index.snapshot()
        vec = points_for(div, 1, 6, seed=24)[0]
        index.insert(vec)
        index.merge(mode="rebuild")
        # the pre-merge snapshot still resolves: drive the pipeline
        # against it explicitly, as an in-flight search would
        from repro.pipeline import QueryBatchContext

        scope = index.tracker.scope()
        scope.pin(snap)
        ctx = QueryBatchContext(
            queries=query[None, :], k=3, single=True, scope=scope, snapshot=snap
        )
        index.pipeline.run(ctx)
        index.tracker.finish_scope(scope)
        want_ids, want_div = _oracle(div, live_before, query, 3)
        np.testing.assert_array_equal(ctx.refined[0][0], want_ids)
        np.testing.assert_array_equal(ctx.refined[0][1], want_div)


# ----------------------------------------------------------------------
# accounting: per-scope page counts stay exact under mutations
# ----------------------------------------------------------------------


class TestAccounting:
    def test_pages_sum_to_tracker_total_across_mutations(self):
        div = SquaredEuclidean()
        tracker = DiskAccessTracker()
        points, index = _build(div, tracker=tracker)
        queries = points_for(div, 4, 6, seed=25)
        charged = 0
        for step, query in enumerate(queries):
            result = index.search(query, k=3)
            charged += result.stats.pages_read
            index.insert(points_for(div, 1, 6, seed=30 + step)[0])
            if step == 1:
                index.merge(mode="extend")
        batch = index.search_batch(np.stack(queries), 3)
        charged += batch.stats.pages_read
        assert tracker.total_pages_read == charged

    def test_delta_candidates_charge_zero_pages(self):
        """Delta points are memory-resident: a delta-heavy search reads
        no more pages than the frozen candidates alone require."""
        div = SquaredEuclidean()
        tracker = DiskAccessTracker()
        points, index = _build(div, tracker=tracker)
        query = points_for(div, 1, 6, seed=26)[0]
        frozen_only = index.search(query, k=3)
        for vec in points_for(div, 10, 6, seed=27):
            index.insert(vec)
        with_delta = index.search(query, k=3)
        assert with_delta.stats.delta_candidates == 10
        assert with_delta.stats.pages_read <= frozen_only.stats.pages_read


# ----------------------------------------------------------------------
# serving layer: mutations through the MicroBatcher
# ----------------------------------------------------------------------


class TestServingMutations:
    def test_insert_delete_and_auto_merge(self):
        div = SquaredEuclidean()
        points, index = _build(div, n=32)
        live = _live_map(points)
        queries = points_for(div, 4, 6, seed=28)

        async def drive():
            async with MicroBatcher(
                index, k=3, max_batch_size=4, max_wait_ms=1.0, merge_threshold=6
            ) as batcher:
                for step, vec in enumerate(points_for(div, 8, 6, seed=29)):
                    pid = await batcher.insert(vec)
                    live[pid] = vec
                    if step == 2:
                        await batcher.delete(1)
                        del live[1]
                results = await asyncio.gather(
                    *(batcher.search(q) for q in queries)
                )
            return results, batcher.stats

        results, stats = asyncio.run(drive())
        assert stats.n_inserts == 8 and stats.n_deletes == 1
        assert stats.n_merges >= 1
        assert index.epoch >= 1
        assert index.delta_ops < 9
        for query, served in zip(queries, results):
            want_ids, want_div = _oracle(div, live, query, 3)
            np.testing.assert_array_equal(served.ids, want_ids)
            np.testing.assert_array_equal(served.divergences, want_div)

    def test_no_merge_below_threshold(self):
        div = SquaredEuclidean()
        points, index = _build(div, n=32)

        async def drive():
            async with MicroBatcher(
                index, k=3, merge_threshold=100
            ) as batcher:
                await batcher.insert(points_for(div, 1, 6, seed=31)[0])
            return batcher.stats

        stats = asyncio.run(drive())
        assert stats.n_merges == 0 and index.epoch == 0 and index.delta_ops == 1


# ----------------------------------------------------------------------
# linearizability under concurrent serving, mutation and merging
# ----------------------------------------------------------------------


def assert_linearizable(
    div, points, index, queries, k, pool, n_ops, rng_seed, searches
):
    """Threaded stress: one mutator applies ``n_ops`` inserts/deletes
    (recording the live set at every version), a merger alternates
    extend/rebuild merges, and two searchers bracket every search
    between two reads of ``updates_applied``.  Every response must be
    bitwise equal to the oracle for some update prefix within its
    bracket, and per-scope page counts must sum exactly to what the
    tracker charged meanwhile."""
    n_base = points.shape[0]
    live = _live_map(points)
    prefixes = {0: dict(live)}
    mutation_rng = np.random.default_rng(rng_seed)
    pages_before = index.tracker.total_pages_read
    errors = []
    records = []
    records_lock = threading.Lock()
    stop = threading.Event()

    def mutator():
        try:
            for op in range(n_ops):
                if len(live) > n_base // 2 and mutation_rng.random() < 0.4:
                    victim = int(mutation_rng.choice(sorted(live)))
                    index.delete(victim)
                    del live[victim]
                else:
                    vec = pool[op]
                    pid = index.insert(vec)
                    live[pid] = vec
                prefixes[index.updates_applied] = dict(live)
                time.sleep(0.001)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            stop.set()

    def merger():
        try:
            modes = ["extend", "rebuild"]
            merges = 0
            while not stop.is_set():
                time.sleep(0.01)
                index.merge(mode=modes[merges % 2], drain_timeout=5.0)
                merges += 1
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def searcher(worker: int):
        try:
            for i in range(searches):
                slot = (worker + i) % len(queries)
                lo = index.updates_applied
                result = index.search(queries[slot], k)
                hi = index.updates_applied
                with records_lock:
                    records.append((slot, result, lo, hi))
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=mutator),
        threading.Thread(target=merger),
        threading.Thread(target=searcher, args=(0,)),
        threading.Thread(target=searcher, args=(1,)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    assert len(prefixes) == n_ops + 1  # every version got its prefix image

    oracle_cache = {}

    def matches(slot, result, version) -> bool:
        key = (slot, version)
        if key not in oracle_cache:
            oracle_cache[key] = _oracle(div, prefixes[version], queries[slot], k)
        want_ids, want_div = oracle_cache[key]
        return bool(
            np.array_equal(result.ids, want_ids)
            and np.array_equal(result.divergences, want_div)
        )

    for slot, result, lo, hi in records:
        assert any(
            matches(slot, result, version) for version in range(lo, hi + 1)
        ), f"response matches no update prefix in [{lo}, {hi}]"

    total = sum(result.stats.pages_read for _, result, _, _ in records)
    assert index.tracker.total_pages_read - pages_before == total


class TestLinearizability:
    def test_concurrent_search_mutate_merge(self):
        div = SquaredEuclidean()
        points, index = _build(div)
        assert_linearizable(
            div,
            points,
            index,
            queries=points_for(div, 4, 6, seed=32),
            k=3,
            pool=points_for(div, 60, 6, seed=33),
            n_ops=40,
            rng_seed=34,
            searches=25,
        )

    def test_concurrent_search_mutate_merge_on_fonts(self):
        # the serving benchmark's index: fonts (Itakura-Saito, d=400)
        dataset, index = make_serving_index(dataset_name="fonts", n=400, n_queries=8)
        # domain-valid points disjoint from the indexed set (the loader
        # holds some rows out as queries, so over-request and slice)
        pool = load_dataset("fonts", n=76, n_queries=1, seed=9).points[:60]
        assert_linearizable(
            dataset.divergence,
            dataset.points,
            index,
            queries=dataset.queries,
            k=10,
            pool=pool,
            n_ops=60,
            rng_seed=35,
            searches=20,
        )
