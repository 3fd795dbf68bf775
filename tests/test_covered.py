"""Covered batches: Plan's proof that a batch's filter reads every live page.

The contract under test: when a batch's dense fast pass (plus, for a few
unproven pages, a bisection of only the pairs above them) proves that
the filter's candidate union spans every page holding a live row, Plan
hands every query all live frozen rows and skips the remaining
bisection rounds.  Such a batch reads exactly the pages the filter-only
union spans and returns the bits per-query ``search`` returns; an
uncovered batch keeps its filter candidates bitwise.  Single searches
and ``point_filter=True`` indexes never take the path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ApproximateBrePartitionIndex, BrePartitionConfig, BrePartitionIndex
from repro.bbtree import BBForest
from repro.bbtree import forest as forest_module
from repro.divergences import SquaredEuclidean
from repro.exceptions import InvalidParameterError
from repro.geometry import BatchRangeProber
from repro.partitioning import ContiguousPartitioner
from repro.pipeline.plan import PlanStage

from conftest import all_decomposable_divergences, points_for

DIM = 8
N = 300
K = 5
STATES = ("fresh", "tombstoned", "merged")


def clustered(divergence, m, seed):
    """``m`` points near twelve shared centers: convex combinations, so
    valid in every divergence's (convex) domain.  Clusters give the
    filter something to prune, so small batches stay uncovered."""
    gen = np.random.default_rng(seed)
    centers = points_for(divergence, 12, DIM, seed=4)
    labels = gen.integers(12, size=m)
    return 0.98 * centers[labels] + 0.02 * points_for(divergence, m, DIM, seed=seed)


def build(divergence, points, n_shards=1, **overrides):
    config = BrePartitionConfig(
        n_partitions=2, seed=0, page_size_bytes=256, n_shards=n_shards, **overrides
    )
    return BrePartitionIndex(divergence, config).build(points)


def build_in_state(divergence, points, n_shards, state):
    """An index over ``points[:N]``: fresh, with tombstones, or
    extend-merged and then carrying a delta (inserts and tombstones)."""
    index = build(divergence, points[:N], n_shards)
    if state == "tombstoned":
        for pid in (3, 50, 111):
            index.delete(pid)
    elif state == "merged":
        for point in points[N : N + 20]:
            index.insert(point)
        for pid in (7, 80, N + 2):
            index.delete(pid)
        index.merge("extend")
        for point in points[N + 20 : N + 25]:
            index.insert(point)
        for pid in (9, N + 4):
            index.delete(pid)
    return index


def pages_spanned(store, ids):
    """Distinct pages holding ``ids``, counted per shard file."""
    return sum(
        store.shards[s].count_pages_of(local)
        for s, (_, local) in enumerate(store.shard_split(ids))
    )


@pytest.fixture(scope="module")
def matrix():
    """Every divergence x {1, 4} shards x the three index states x
    B in {2, 8, 64}: each batch's coalesced pages next to the pages of
    its filter-only union (``range_union_batch`` without the proof,
    tombstones filtered), and, at B = 2 and 8, whether each row equals
    its per-query ``search``."""
    rows = []
    original = BBForest.range_union_batch
    filter_unions = []

    def spy(self, subs, radii, point_filter=False, cover=None):
        if cover is not None:
            filter_unions.append(original(self, subs, radii, point_filter)[0])
        return original(self, subs, radii, point_filter, cover)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BBForest, "range_union_batch", spy)
        for name, divergence in all_decomposable_divergences(DIM):
            points = clustered(divergence, N + 25, seed=5)
            queries = clustered(divergence, 64, seed=6)
            for n_shards in (1, 4):
                for state in STATES:
                    index = build_in_state(divergence, points, n_shards, state)
                    snap = index.snapshot()
                    for b in (2, 8, 64):
                        batch = index.search_batch(queries[:b], K)
                        union = np.unique(np.concatenate(filter_unions.pop()))
                        exact = None
                        if b < 64:
                            exact = all(
                                np.array_equal(got.ids, want.ids)
                                and np.array_equal(got.divergences, want.divergences)
                                for got, want in zip(
                                    batch, (index.search(q, K) for q in queries[:b])
                                )
                            )
                        rows.append(
                            dict(
                                name=name,
                                case=(n_shards, state, b),
                                covered=batch.stats.covered,
                                pages=batch.stats.pages_coalesced,
                                filter_pages=pages_spanned(
                                    snap.datastore, snap.filter_live(union)
                                ),
                                exact=exact,
                            )
                        )
    return rows


class TestCoveredPageParity:
    @pytest.mark.parametrize(
        "name", [name for name, _ in all_decomposable_divergences(DIM)]
    )
    def test_pages_match_the_filter_union(self, matrix, name):
        rows = [row for row in matrix if row["name"] == name]
        assert len(rows) == 18
        for row in rows:
            assert row["pages"] == row["filter_pages"], row["case"]
            assert row["exact"] in (None, True), row["case"]

    def test_matrix_holds_covered_and_uncovered_batches(self, matrix):
        covered = {row["covered"] for row in matrix}
        assert covered == {True, False}


class TestProofSteps:
    def test_fast_pass_alone_proves_a_batch(self, monkeypatch):
        """A batch the fast pass proves covered never bisects a pair,
        and its per-query stats describe the whole live file."""
        divergence = SquaredEuclidean()
        points = clustered(divergence, N, seed=5)
        queries = clustered(divergence, 64, seed=6)
        index = build(divergence, points)
        want = [index.search(query, K) for query in queries]
        calls = []
        original = BatchRangeProber.bisect

        def counting(self, *args):
            calls.append(1)
            return original(self, *args)

        monkeypatch.setattr(BatchRangeProber, "bisect", counting)
        batch = index.search_batch(queries, K)
        assert batch.stats.covered
        assert calls == []
        n_pages = index.datastore.n_pages
        assert batch.stats.pages_coalesced == n_pages
        assert batch.stats.pages_read_unshared == 64 * n_pages
        for got, expected in zip(batch, want):
            np.testing.assert_array_equal(got.ids, expected.ids)
            np.testing.assert_array_equal(got.divergences, expected.divergences)
            assert got.stats.pages_read == n_pages
            assert got.stats.n_candidates == N
            assert got.stats.per_subspace_candidates == [N, N]
            assert got.stats.leaves_visited > 0

    @pytest.mark.parametrize("gap", [forest_module.COVER_GAP, 1.0])
    def test_uncovered_unions_are_the_filter_unions(self, monkeypatch, gap):
        """Over radii from tiny to wide, with and without the targeted
        step's share bound: a covered batch's filter union spans every
        required page, and an uncovered batch's unions and stats are
        bitwise those of the filter without the proof."""
        monkeypatch.setattr(forest_module, "COVER_GAP", gap)
        steps = []
        original = forest_module._unproven

        def counting(*args):
            steps.append(1)
            return original(*args)

        monkeypatch.setattr(forest_module, "_unproven", counting)
        divergence = SquaredEuclidean()
        points = clustered(divergence, N, seed=5)
        queries = clustered(divergence, 8, seed=6)
        partitioning = ContiguousPartitioner().partition(points, 2)
        forest = BBForest(
            divergence, partitioning, leaf_capacity=4, rng=np.random.default_rng(0)
        ).build(points)
        subs = partitioning.split_matrix(queries)
        cover = np.arange(N) // 4
        cover[::9] = -1  # dead rows: no page requires them
        required = np.flatnonzero(cover >= 0)
        dists = [
            np.stack([divergence.batch_divergence(points[:, dims], q) for q in sub])
            for sub, dims in zip(subs, partitioning.subspaces)
        ]
        outcomes = set()
        for level in np.geomspace(0.002, 0.6, 14):
            radii = np.stack([np.quantile(d, level, axis=1) for d in dists], axis=1)
            want, want_stats = forest.range_union_batch(subs, radii)
            steps.clear()
            got, got_stats = forest.range_union_batch(subs, radii, cover=cover)
            covered = got_stats[0].covered
            outcomes.add((covered, len(steps)))
            if covered:
                assert all(ids is got[0] for ids in got)
                np.testing.assert_array_equal(got[0], required)
                union = np.unique(np.concatenate(want))
                live = union[cover[union] >= 0]
                np.testing.assert_array_equal(
                    np.unique(cover[live]), np.unique(cover[required])
                )
                assert all(s.union_candidates == required.size for s in got_stats)
            else:
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a, b)
                assert got_stats == want_stats
        if gap == 1.0:
            # the targeted step ran and both proved and failed a batch
            assert {(True, 2), (False, 2)} <= outcomes
        else:
            assert (True, 1) in outcomes and (False, 1) in outcomes

    def test_cover_needs_leaf_level_candidates(self):
        divergence = SquaredEuclidean()
        points = clustered(divergence, 40, seed=5)
        partitioning = ContiguousPartitioner().partition(points, 2)
        forest = BBForest(divergence, partitioning, leaf_capacity=4).build(points)
        subs = partitioning.split_matrix(points[:2])
        with pytest.raises(InvalidParameterError, match="point_filter"):
            forest.range_union_batch(
                subs, np.ones((2, 2)), point_filter=True, cover=np.zeros(40, int)
            )


class TestWhoTriesTheProof:
    def test_search_and_point_filter_never_cover(self, monkeypatch):
        divergence = SquaredEuclidean()
        points = clustered(divergence, N, seed=5)
        queries = clustered(divergence, 64, seed=6)
        seen = []
        original = PlanStage.run

        def recording(self, ctx):
            original(self, ctx)
            seen.append(ctx.covered)

        monkeypatch.setattr(PlanStage, "run", recording)
        index = build(divergence, points)
        index.search(queries[0], K)
        index.search_batch(queries[:1], K)
        assert seen == [False, False]
        # the same data covers a batch of 64 ...
        assert index.search_batch(queries, K).stats.covered
        # ... but not with point-level candidates, nor on ABP's default
        assert not build(divergence, points, point_filter=True).search_batch(
            queries, K
        ).stats.covered
        abp = ApproximateBrePartitionIndex(divergence, probability=0.9).build(points)
        assert abp.config.point_filter
        assert not abp.search_batch(queries, K).stats.covered

    def test_partial_shard_failure_never_covers(self):
        """Under ``shard_failure="partial"`` a query's candidates decide
        whether a dead shard dooms it, so batches keep their own."""
        divergence = SquaredEuclidean()
        points = clustered(divergence, N, seed=5)
        queries = clustered(divergence, 64, seed=6)
        raising = build(divergence, points, n_shards=4)
        assert raising.search_batch(queries, K).stats.covered
        partial = build(divergence, points, n_shards=4, shard_failure="partial")
        assert not partial.search_batch(queries, K).stats.covered
