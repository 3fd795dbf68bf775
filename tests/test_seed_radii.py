"""Seed radii: a single search's range radius from exactly scored rows.

A context with one query takes its radius from the rows of the leaves
nearest the query, scored with the fixed-order certified estimate and
its bound (:mod:`repro.pipeline.plan`).  As a hypothesis property over
every decomposable divergence, ``M`` in {1, 3}, ``point_filter`` on and
off, and both the exact index and ABP:

* every exact single search is bitwise the brute-force oracle over the
  live set, on inputs with queries equal to data rows, more copies of
  that row than one leaf holds (so zero-divergence ties sit in other
  leaves), ties at the ``k``-th value, tombstoned seeds and seed leaves
  with fewer than ``k`` live rows, fewer than ``k`` live frozen rows,
  neighbours only in the delta, extend-merged bases whose appended rows
  land in the seed leaves, and exponential-distance queries that
  ``estimable`` refuses;
* the radius a search ran with (``search_bound``) is the seed rule's,
  below its Theorem-1 total and at least its ``k``-th returned
  divergence, or the Theorem-1 total where the rule declines; the live
  seeds are among its candidates, and a one-row batch is the same
  search;
* ABP's single-search candidates are a subset of the exact rule's on
  the same base and hold the live seeds, and its result is the
  oracle's over the rows it read (its candidates and the delta); a
  lower ``p`` keeps a subset of a higher one's rows;
* the candidates and pages of batches of two or more queries are the
  Theorem-1 path's.

The tier-1 budget is fixed; the ``slow``-marked run draws many more
examples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BrePartitionConfig, BrePartitionIndex, brute_force_knn
from repro.core.approximate import ApproximateBrePartitionIndex
from repro.core.transforms import pad_radii
from repro.datasets import load_dataset
from repro.divergences import ExponentialDistance, SquaredEuclidean
from repro.pipeline import PlanStage, QueryBatchContext

from conftest import all_decomposable_divergences, points_for

NAMES = [name for name, _ in all_decomposable_divergences(3)]
#: what happens to the index between build and search
MUTATIONS = ("none", "tombstoned_seeds", "few_live", "delta_only", "extend")
LEAF = 4


def draw_inputs(name, refused, rng, n, d):
    """``(divergence, points, queries)``.  The points hold ``LEAF + 2``
    copies of the first query and copies of the second query's ``k``-th
    neighbour are added later; ``refused`` (exponential distance only)
    draws data near -600 and queries with a coordinate far above it,
    which ``estimable`` refuses."""
    if name == "exponential" and refused:
        divergence = ExponentialDistance(max_abs=700.0)
        points = rng.uniform(-690.0, -600.0, size=(n, d))
        queries = rng.uniform(-690.0, -600.0, size=(3, d))
        queries[np.arange(3), rng.integers(0, d, size=3)] = rng.uniform(100.0, 300.0, 3)
        return divergence, points, queries
    divergence = dict(all_decomposable_divergences(d))[name]
    seed = int(rng.integers(2**31))
    points = points_for(divergence, n, d, seed=seed)
    queries = points_for(divergence, 3, d, seed=seed + 1)
    queries[0] = points[int(rng.integers(n))]
    copies = np.repeat(queries[:1], LEAF + 2, axis=0)
    return divergence, np.concatenate([points, copies]), queries


def with_kth_ties(divergence, points, query, k):
    """``points`` plus two copies of the query's ``k``-th neighbour."""
    order, _ = brute_force_knn(divergence, points, query, k)
    row = points[order[-1]]
    return np.concatenate([points, np.repeat(row[None, :], 2, axis=0)])


def oracle(divergence, live, query, k, ids=None):
    """Exact ``(ids, divergences)`` over a ``{id: point}`` dict (or its
    ``ids`` subset), laid out by ascending id: the tie order the index
    guarantees."""
    keys = np.array(sorted(live if ids is None else ids), dtype=int)
    if keys.size == 0:
        return np.empty(0, dtype=int), np.empty(0)
    order, dists = brute_force_knn(
        divergence, np.stack([live[int(i)] for i in keys]), query, k
    )
    return keys[order], dists


def watched(index):
    """Record every context Plan finishes on ``index``."""
    seen = []
    plan = index.pipeline.stage("plan")
    run = plan.run

    def observe(ctx):
        run(ctx)
        seen.append(ctx)

    plan.run = observe
    return seen


def theorem1_totals(snap, queries, k):
    """The Theorem-1 totals a batch of ``queries`` runs with."""
    transforms = snap.transforms
    k_plan = min(snap.n_frozen, k + snap.n_dead)
    triples = transforms.query_triples_batch(queries)
    return transforms.search_bounds_batch(triples, k_plan).totals


def theorem1_total(snap, query, k):
    """The Theorem-1 total a search of ``query`` would run with."""
    return float(theorem1_totals(snap, query[None, :], k)[0])


def seed_radii(index, snap, query, k):
    """Plan's seed rule for ``query`` on ``snap``: ``(seeds, radii, r)``
    or ``None``."""
    forest = snap.forest
    batches = forest.range_batches(snap.partitioning.split_matrix(query[None, :]))
    return index.pipeline.stage("plan").seed_radii(
        snap, batches[forest.seed_subspace], query, k, theorem1_total(snap, query, k)
    )


def exact_candidates(index, snap, query, k):
    """The candidates Plan gives ``query`` on ``snap`` with the index's
    radius hook disabled: the exact index's on the same base."""
    ctx = QueryBatchContext(queries=query[None, :], k=k, snapshot=snap)
    index._adjust_radii_batch = lambda bounds, triples, transforms: bounds.radii
    try:
        PlanStage(index).run(ctx)
    finally:
        del index._adjust_radii_batch
    return ctx.candidates[0]


def mutate(indexes, live, mutation, divergence, queries, k, rng, n_frozen):
    """Apply one mutation scenario to every index alike (and to the
    ``live`` map)."""

    def delete(pid):
        for index in indexes:
            index.delete(pid)
        del live[pid]

    def insert(point):
        pid = max(live) + 1 if live else 0
        pid = max(pid, n_frozen)
        for index in indexes:
            index.insert(point, pid)
        live[pid] = point

    if mutation == "tombstoned_seeds":
        snap = indexes[0].snapshot()
        batch = snap.forest.range_batches(snap.partitioning.split_matrix(queries))[
            snap.forest.seed_subspace
        ]
        flat = batch.flat
        for q in range(queries.shape[0]):
            nearest = batch.nearest_leaves(q)
            # the two nearest leaves keep one row each; later ones half
            doomed = [flat.leaf_points(leaf)[1:] for leaf in nearest[:2]]
            doomed += [flat.leaf_points(leaf)[::2] for leaf in nearest[2:4]]
            for pid in np.concatenate(doomed):
                if int(pid) in live and len(live) > k + 1:
                    delete(int(pid))
    elif mutation == "few_live":
        frozen = [pid for pid in sorted(live) if pid < n_frozen]
        keep = set(rng.choice(frozen, size=int(rng.integers(0, k)), replace=False).tolist())
        for pid in frozen:
            if pid not in keep:
                delete(pid)
        for point in points_like(divergence, queries, k, rng):
            insert(point)
    elif mutation == "delta_only":
        for point in points_like(divergence, queries, k, rng):
            insert(point)
    elif mutation == "extend":
        for point in points_like(divergence, queries, 2, rng):
            insert(point)
        for index in indexes:
            index.merge("extend")
        for pid in rng.choice(sorted(live), size=min(3, len(live) - k - 1), replace=False):
            delete(int(pid))
        for point in points_like(divergence, queries[:1], 1, rng):
            insert(point)
    assert len(live) >= k


def points_like(divergence, queries, copies, rng):
    """In-domain points near each query: ``copies`` per query, the
    first of them the query itself."""
    out = []
    for query in queries:
        out.append(query.copy())
        for _ in range(copies - 1):
            nudged = query * (1.0 + 1e-3 * rng.standard_normal(query.size))
            if divergence.name == "shannon_entropy":
                nudged = np.clip(nudged, 1e-3, 1.0 - 1e-3)
            out.append(nudged)
    return out


def check_single_searches(name, refused, mutation, seed, n, d, m, point_filter, k):
    rng = np.random.default_rng(seed)
    divergence, points, queries = draw_inputs(name, refused, rng, n, d)
    points = with_kth_ties(divergence, points, queries[1], k)

    def config():
        return BrePartitionConfig(
            n_partitions=m, seed=0, leaf_capacity=LEAF, point_filter=point_filter
        )

    bp = BrePartitionIndex(divergence, config()).build(points)
    abp = ApproximateBrePartitionIndex(divergence, probability=0.7, config=config())
    abp.build(points)
    live = {i: points[i] for i in range(points.shape[0])}
    mutate([bp, abp], live, mutation, divergence, queries, k, rng, points.shape[0])
    bp_seen, abp_seen = watched(bp), watched(abp)
    refusals = 0
    for query in queries:
        result = bp.search(query, k)
        ctx = bp_seen[-1]
        snap = ctx.snapshot
        want_ids, want_divs = oracle(divergence, live, query, k)
        np.testing.assert_array_equal(result.ids, want_ids)
        np.testing.assert_array_equal(result.divergences, want_divs)

        total = theorem1_total(snap, query, k)
        assert result.stats.search_bound <= total
        seeded = seed_radii(bp, snap, query, k)
        if seeded is None:
            assert result.stats.search_bound == total
            refusals += 1
        else:
            seeds, radii, radius = seeded
            assert result.stats.search_bound == radius < total
            assert radius >= result.divergences[-1]
            assert radii.shape == (1, m) and (radii >= 0.0).all()
            assert np.isin(snap.filter_live(seeds), ctx.candidates[0]).all()

        # a one-row batch is the same single search
        (row,) = bp.search_batch(query[None, :], k)
        np.testing.assert_array_equal(row.ids, result.ids)
        np.testing.assert_array_equal(row.divergences, result.divergences)
        assert row.stats.search_bound == result.stats.search_bound
        assert row.stats.n_candidates == result.stats.n_candidates

        got = abp.search(query, k)
        abp_ctx = abp_seen[-1]
        snap = abp_ctx.snapshot  # merges draw ABP's trees from its own rng
        assert np.isin(abp_ctx.candidates[0], exact_candidates(abp, snap, query, k)).all()
        seeded = seed_radii(abp, snap, query, k)
        if seeded is not None:
            assert np.isin(snap.filter_live(seeded[0]), abp_ctx.candidates[0]).all()
        read = set(snap.map_rows(abp_ctx.candidates[0]).tolist()) | set(
            snap.delta.ids.tolist()
        )
        want_ids, want_divs = oracle(divergence, live, query, k, read)
        np.testing.assert_array_equal(got.ids, want_ids)
        np.testing.assert_array_equal(got.divergences, want_divs)
    if name == "exponential" and refused and mutation != "extend":
        # (an extend merge may re-derive the conditioner around the
        # appended query copies)
        assert refusals == queries.shape[0]

    for index, seen in ((bp, bp_seen), (abp, abp_seen)):
        check_batch_keeps_theorem1(index, seen, divergence, live, queries, k)


def check_batch_keeps_theorem1(index, seen, divergence, live, queries, k):
    """A batch of two or more queries plans with Theorem-1 radii: its
    candidates are the filter's at the hook's radii (all live rows when
    covered), and its pages theirs."""
    batch = index.search_batch(queries, k)
    ctx = seen[-1]
    snap = ctx.snapshot
    transforms = snap.transforms
    k_plan = min(snap.n_frozen, k + snap.n_dead)
    triples = transforms.query_triples_batch(queries)
    bounds = transforms.search_bounds_batch(triples, k_plan)
    np.testing.assert_array_equal(ctx.bound_totals, theorem1_totals(snap, queries, k))
    radii = pad_radii(index._adjust_radii_batch(bounds, triples, transforms))
    filtered, _ = snap.forest.range_union_batch(
        snap.partitioning.split_matrix(queries),
        radii,
        point_filter=index.config.point_filter,
    )
    every_live = snap.filter_live(np.arange(snap.n_frozen))
    for q, result in enumerate(batch):
        if batch.stats.covered:
            np.testing.assert_array_equal(ctx.candidates[q], every_live)
        elif filtered[q].size >= k_plan:  # no widening
            np.testing.assert_array_equal(
                ctx.candidates[q], snap.filter_live(filtered[q])
            )
        if isinstance(index, ApproximateBrePartitionIndex):
            continue  # shrunken radii: exact only when covered
        want_ids, want_divs = oracle(divergence, live, queries[q], k)
        np.testing.assert_array_equal(result.ids, want_ids)
        np.testing.assert_array_equal(result.divergences, want_divs)
    union = np.unique(np.concatenate(ctx.candidates))
    assert batch.stats.pages_coalesced == snap.datastore.count_pages_of(union)


examples = dict(
    refused=st.booleans(),
    mutation=st.sampled_from(MUTATIONS),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(16, 48),
    d=st.integers(3, 7),
    m=st.sampled_from([1, 3]),
    point_filter=st.booleans(),
    k=st.integers(1, 6),
)


@pytest.mark.parametrize("name", NAMES)
@given(**examples)
@settings(max_examples=25, deadline=None)
def test_single_searches_are_exact(name, refused, mutation, seed, n, d, m, point_filter, k):
    check_single_searches(name, refused, mutation, seed, n, d, m, point_filter, k)


@pytest.mark.slow
@pytest.mark.parametrize("name", NAMES)
@given(**examples)
@settings(max_examples=400, deadline=None)
def test_single_searches_are_exact_large_budget(
    name, refused, mutation, seed, n, d, m, point_filter, k
):
    check_single_searches(name, refused, mutation, seed, n, d, m, point_filter, k)


@pytest.mark.parametrize("name,divergence", all_decomposable_divergences(8))
def test_search_bound_is_the_radius_used(name, divergence):
    """A single search reports the radius its range ran with: at least
    its k-th returned divergence and at most its Theorem-1 total, and on
    these inputs below it; a batch of two reports the Theorem-1 totals."""
    points = points_for(divergence, 300, 8, seed=1)
    queries = points_for(divergence, 6, 8, seed=2)
    index = BrePartitionIndex(divergence, BrePartitionConfig(n_partitions=1, seed=0))
    index.build(points)
    tighter = 0
    for query in queries:
        result = index.search(query, 5)
        total = theorem1_total(index.snapshot(), query, 5)
        assert result.divergences[-1] <= result.stats.search_bound <= total
        tighter += result.stats.search_bound < total
        pair = np.stack([query, query])
        totals = theorem1_totals(index.snapshot(), pair, 5)
        got = [result.stats.search_bound for result in index.search_batch(pair, 5)]
        np.testing.assert_array_equal(got, totals)
    assert tighter == len(queries)


def test_single_search_reads_fewer_pages():
    """Seed radii cut a single search's candidates and pages below the
    Theorem-1 path's, which a batch of two copies of the query runs."""
    divergence = SquaredEuclidean()
    rng = np.random.default_rng(3)
    centers = rng.normal(0.0, 4.0, size=(20, 6))
    points = centers[rng.integers(20, size=1500)] + rng.normal(size=(1500, 6))
    index = BrePartitionIndex(
        divergence, BrePartitionConfig(n_partitions=1, seed=0, page_size_bytes=1024)
    ).build(points)
    for query in points[:5] + 0.1:
        single = index.search(query, 10)
        pair = index.search_batch(np.stack([query, query]), 10)
        np.testing.assert_array_equal(single.ids, pair[0].ids)
        assert single.stats.n_candidates < pair[0].stats.n_candidates
        assert single.stats.pages_read < pair[0].stats.pages_read


def test_abp_probability_acts_on_single_searches():
    """ABP scales a single search's seed radii by its radius hook's
    shrink: lower ``p`` keeps a subset of higher ``p``'s rows, which are
    a subset of the exact index's, and reads fewer pages in all."""
    dataset = load_dataset("audio", n=1500, n_queries=8, seed=0)
    divergence = dataset.divergence

    def config():
        return BrePartitionConfig(
            n_partitions=4,
            page_size_bytes=dataset.page_size_bytes,
            seed=0,
            point_filter=True,
        )

    indexes = [BrePartitionIndex(divergence, config()).build(dataset.points)]
    for p in (0.9, 0.5):
        abp = ApproximateBrePartitionIndex(divergence, probability=p, config=config())
        indexes.append(abp.build(dataset.points))
    seen = [watched(index) for index in indexes]
    pages = np.zeros(len(indexes), dtype=int)
    for query in dataset.queries:
        for i, index in enumerate(indexes):
            pages[i] += index.search(query, 10).stats.pages_read
        wider, *narrower = [contexts[-1].candidates[0] for contexts in seen]
        for rows in narrower:
            assert np.isin(rows, wider).all()
            wider = rows
    assert pages[0] > pages[1] > pages[2]
