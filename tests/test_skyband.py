"""Plan bounds only the k-skyband: the domination order and its prefix.

At ``M = 1`` each published base orders its rows by how many others
dominate them in ``(alpha, gamma)`` (``domination_counts``), and Plan
builds the Theorem-1 tensor over the rows fewer than ``k_plan`` others
dominate.  The contract:

* the counts are the definition's, on ties, duplicates, zeros, +-inf
  and NaN (a hypothesis property against an O(n^2) brute force);
* the prefix's ``k``-th total and radii are the full tensor's bit for
  bit, the prefix holds at least ``k`` rows, and the anchor is the full
  tensor's whenever one row reaches the ``k``-th total (its ``(alpha,
  gamma)`` pair whenever one pair does);
* Plan's tensor spans exactly that prefix on every base a mutation can
  publish, and its candidates and pages are the full-tensor Plan's; at
  ``M > 1`` it spans every row.

The tier-1 budget is fixed; the ``slow``-marked run draws many more
examples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BrePartitionConfig, BrePartitionIndex
from repro.bbtree import BBForest
from repro.core.transforms import (
    SubspaceTransforms,
    determine_search_bounds_batch,
    domination_counts,
)
from repro.divergences import ExponentialDistance, SquaredEuclidean
from repro.geometry.bounds import QueryTripleBatch

from conftest import points_for

INF = float("inf")


def brute_force_counts(alpha, gamma):
    """|{x : x dominates y}| for every y, straight from the definition."""
    n = alpha.size
    ids = np.arange(n)
    a, g, i = alpha[:, None], gamma[:, None], ids[:, None]
    weak = (a <= alpha) & (g <= gamma)
    before = (a < alpha) | ((a == alpha) & ((g < gamma) | ((g == gamma) & (i < ids))))
    return (weak & before).sum(axis=0)


def transforms_of(alpha, gamma):
    """Transforms over given one-subspace summaries (no points behind)."""
    transforms = object.__new__(SubspaceTransforms)
    transforms._set_summaries(alpha[:, None], gamma[:, None])
    return transforms


def bits(values):
    """Bit patterns, with every NaN mapped to one pattern."""
    values = np.where(np.isnan(values), np.nan, values)
    return values.view(np.int64)


@st.composite
def columns(draw):
    """(alpha, gamma) columns drawn from small value pools: heavy ties,
    duplicate rows, zeros and infinities; NaN alpha now and then."""
    n = draw(st.integers(1, 60))
    finite = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    alpha_pool = draw(
        st.lists(finite | st.sampled_from([0.0, INF, -INF]), min_size=1, max_size=5)
    )
    gamma_pool = draw(
        st.lists(
            st.floats(0.0, 4.0, allow_nan=False) | st.sampled_from([0.0, INF]),
            min_size=1,
            max_size=5,
        )
    )
    if draw(st.booleans()):
        alpha_pool.append(float("nan"))
    pick = st.integers(0, 10**6)
    alpha = np.array([alpha_pool[draw(pick) % len(alpha_pool)] for _ in range(n)])
    gamma = np.array([gamma_pool[draw(pick) % len(gamma_pool)] for _ in range(n)])
    return alpha, gamma


@st.composite
def triples(draw):
    """Finite query triples, ``delta >= 0`` (zero included), B in [1, 4]."""
    b = draw(st.integers(1, 4))
    finite = st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False)
    delta = st.floats(0.0, 6.0, allow_nan=False) | st.just(0.0)

    def column(elements):
        return np.array([[draw(elements)] for _ in range(b)], dtype=float)

    return QueryTripleBatch(
        alpha=column(finite), beta_yy=column(finite), delta=column(delta)
    )


def check_prefix(alpha, gamma, query, k_seed):
    counts = domination_counts(alpha, gamma)
    np.testing.assert_array_equal(counts, brute_force_counts(alpha, gamma))
    # a row with a NaN summary never leaves the prefix
    assert np.all(counts[np.isnan(alpha) | np.isnan(gamma)] == 0)

    transforms = transforms_of(alpha, gamma)
    n = alpha.size
    k = 1 + k_seed % n
    with np.errstate(invalid="ignore", over="ignore"):
        full = determine_search_bounds_batch(transforms.upper_bound_tensor(query), k)
        totals = transforms.upper_bound_tensor(query)[:, :, 0]
        rows = transforms.bound_rows(query, k)
        band = transforms.search_bounds_batch(query, k)
    if rows is not None:
        assert rows.size >= k
        np.testing.assert_array_equal(np.sort(rows), np.flatnonzero(counts < k))
    np.testing.assert_array_equal(bits(band.totals), bits(full.totals))
    np.testing.assert_array_equal(bits(band.radii), bits(full.radii))
    np.testing.assert_array_equal(bits(band.radii[:, 0]), bits(band.totals))
    for b in range(totals.shape[0]):
        reach = np.flatnonzero(bits(totals[b]) == bits(full.totals[b : b + 1])[0])
        if reach.size == 1:
            assert band.anchor_ids[b] == full.anchor_ids[b]
        pairs = {(bits(alpha[r : r + 1])[0], bits(gamma[r : r + 1])[0]) for r in reach}
        if len(pairs) == 1:
            for column in (alpha, gamma):
                assert bits(column[band.anchor_ids[b : b + 1]]) == bits(
                    column[full.anchor_ids[b : b + 1]]
                )


examples = dict(summaries=columns(), query=triples(), k_seed=st.integers(0, 10**6))


@given(**examples)
@settings(max_examples=200, deadline=None)
def test_prefix_is_exact(summaries, query, k_seed):
    check_prefix(*summaries, query, k_seed)


@pytest.mark.slow
@given(**examples)
@settings(max_examples=5000, deadline=None)
def test_prefix_is_exact_large_budget(summaries, query, k_seed):
    check_prefix(*summaries, query, k_seed)


class TestOrderEdges:
    def test_identical_rows_dominate_in_id_order(self):
        alpha = np.zeros(5)
        gamma = np.ones(5)
        np.testing.assert_array_equal(domination_counts(alpha, gamma), np.arange(5))
        transforms = transforms_of(alpha, gamma)
        np.testing.assert_array_equal(transforms.skyband_rows, np.arange(5))

    def test_large_input_matches_brute_force(self):
        rng = np.random.default_rng(0)
        alpha = rng.integers(0, 40, 1500).astype(float)
        gamma = rng.integers(0, 40, 1500).astype(float)
        np.testing.assert_array_equal(
            domination_counts(alpha, gamma), brute_force_counts(alpha, gamma)
        )

    def test_nan_from_opposite_infinities_keeps_every_row(self):
        # (-inf, inf) dominates (0, inf), yet at delta > 0 its bound is
        # -inf + inf = NaN, which sorts after the other row's inf: the
        # order does not hold for that query, so every row is bounded
        alpha = np.array([-INF, 0.0, 1.0])
        gamma = np.array([INF, INF, 0.5])
        transforms = transforms_of(alpha, gamma)
        query = QueryTripleBatch(
            alpha=np.zeros((1, 1)), beta_yy=np.zeros((1, 1)), delta=np.ones((1, 1))
        )
        assert transforms.bound_rows(query, 1) is None
        flat = QueryTripleBatch(
            alpha=np.zeros((1, 1)), beta_yy=np.zeros((1, 1)), delta=np.zeros((1, 1))
        )
        assert transforms.bound_rows(flat, 1) is not None

    def test_non_finite_query_terms_keep_every_row(self):
        transforms = transforms_of(np.arange(4.0), np.arange(4.0))
        for field in ("alpha", "beta_yy", "delta"):
            terms = dict(
                alpha=np.zeros((2, 1)), beta_yy=np.zeros((2, 1)), delta=np.ones((2, 1))
            )
            terms[field] = np.array([[0.0], [INF]])
            assert transforms.bound_rows(QueryTripleBatch(**terms), 1) is None

    def test_no_order_at_m_above_one(self):
        div = SquaredEuclidean()
        index = BrePartitionIndex(div, BrePartitionConfig(n_partitions=3, seed=0))
        index.build(points_for(div, 60, 6, seed=1))
        assert index.transforms.skyband_rows is None
        assert index.transforms.skyband_counts is None


# ----------------------------------------------------------------------
# Plan-level pins
# ----------------------------------------------------------------------

N_POINTS = 240
DIM = 12
PAGE_BYTES = 8 * DIM * 8
BASES = ("fresh", "tombstoned", "extended", "rebuilt", "resharded", "recovered")


def index_on_base(divergence, base, tmp_path, n_partitions=1):
    """A 4-shard index whose published base is ``base``: fresh,
    tombstoned, extend-merged and then carrying a delta, rebuilt,
    resharded, or recovered from its WAL."""
    points = points_for(divergence, N_POINTS + 30, DIM, seed=1)
    config = BrePartitionConfig(
        n_partitions=n_partitions, seed=0, n_shards=4, page_size_bytes=PAGE_BYTES
    )
    if base == "recovered":
        config.wal_path = str(tmp_path / "wal.log")
    index = BrePartitionIndex(divergence, config).build(points[:N_POINTS])
    if base == "tombstoned":
        for pid in (3, 50, 111, 140):
            index.delete(pid)
    elif base in ("extended", "rebuilt", "recovered"):
        for point in points[N_POINTS : N_POINTS + 20]:
            index.insert(point)
        for pid in (7, 80, N_POINTS + 2):
            index.delete(pid)
        index.merge("rebuild" if base == "rebuilt" else "extend")
        if base != "rebuilt":
            for point in points[N_POINTS + 20 :]:
                index.insert(point)
            for pid in (9, N_POINTS + 4):
                index.delete(pid)
    elif base == "resharded":
        index.reshard(2, replication_factor=2)
    if base == "recovered":
        index.close()
        index = BrePartitionIndex.recover(config.wal_path, divergence, config)
    return index


def filter_only_batches(monkeypatch):
    """Make Plan skip the covered-batch proof: every batch stays uncovered."""
    original = BBForest.range_union_batch

    def filter_only(self, subs, radii, point_filter=False, cover=None):
        return original(self, subs, radii, point_filter)

    monkeypatch.setattr(BBForest, "range_union_batch", filter_only)


def run_calls(index, queries, k, monkeypatch):
    """A search, a covered batch and an uncovered batch: their results,
    the Plan candidates and pages, and the rows each tensor spanned."""
    spans = []
    original = SubspaceTransforms.upper_bound_tensor

    def spy(self, triples, rows=None):
        tensor = original(self, triples, rows)
        spans.append((self, rows, tensor.shape))
        return tensor

    seen = []
    plan = index.pipeline.stage("plan")
    plan_run = plan.run

    def observe(ctx):
        plan_run(ctx)
        seen.append(ctx)

    out = []
    with monkeypatch.context() as mp:
        mp.setattr(SubspaceTransforms, "upper_bound_tensor", spy)
        mp.setattr(plan, "run", observe)
        single = index.search(queries[0], k)
        out.append(([single.ids], [single.divergences], single.stats.pages_read))
        batch = index.search_batch(queries, k)
        assert batch.stats.covered
        out.append(batch)
        filter_only_batches(mp)
        batch = index.search_batch(queries[:3], k)
        assert not batch.stats.covered
        out.append(batch)
    return out, seen, spans


def flatten(out, seen):
    single, covered, uncovered = out
    record = [single]
    for batch in (covered, uncovered):
        record.append(
            (
                [r.ids for r in batch],
                [r.divergences for r in batch],
                batch.stats.pages_coalesced,
                batch.stats.pages_read,
            )
        )
    record.append([[ids for ids in ctx.candidates] for ctx in seen])
    record.append([ctx.bound_totals for ctx in seen])
    return record


def assert_same(a, b):
    if isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    else:
        np.testing.assert_array_equal(a, b)


class TestPlanSpansTheSkyband:
    @pytest.mark.parametrize("k", [1, 5, 20])
    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize(
        "divergence", [ExponentialDistance(), SquaredEuclidean()], ids=lambda d: d.name
    )
    def test_tensor_spans_the_prefix_and_plans_bitwise(
        self, divergence, base, k, tmp_path, monkeypatch
    ):
        index = index_on_base(divergence, base, tmp_path)
        queries = points_for(divergence, 24, DIM, seed=2)
        out, seen, spans = run_calls(index, queries, k, monkeypatch)
        assert len(seen) == len(spans) == 3
        for ctx, (transforms, rows, shape) in zip(seen, spans):
            snap = ctx.snapshot
            assert transforms is snap.transforms
            k_plan = min(snap.n_frozen, k + snap.n_dead)
            counts = domination_counts(
                transforms.alpha[:, 0], transforms.gamma[:, 0]
            )
            assert rows is not None
            want = np.flatnonzero(counts < k_plan)
            np.testing.assert_array_equal(np.sort(rows), want)
            assert shape == (ctx.n_queries, rows.size, 1)
            assert rows.size < snap.n_frozen or k_plan >= snap.n_frozen
        with monkeypatch.context() as mp:
            # the full-tensor Plan: every row is bounded
            mp.setattr(SubspaceTransforms, "bound_rows", lambda self, t, k: None)
            full_out, full_seen, full_spans = run_calls(index, queries, k, monkeypatch)
        assert all(rows is None for _, rows, _ in full_spans)
        assert_same(flatten(out, seen), flatten(full_out, full_seen))
        index.close()

    def test_extend_merge_recounts_every_row(self):
        # an appended row that dominates the old ones moves them back
        div = SquaredEuclidean()
        points = points_for(div, 50, 4, seed=3) + 5.0
        index = BrePartitionIndex(div, BrePartitionConfig(n_partitions=1, seed=0))
        index.build(points)
        old = index.transforms
        before = domination_counts(old.alpha[:, 0], old.gamma[:, 0])
        index.insert(np.zeros(4))
        index.merge("extend")
        transforms = index.transforms
        after = domination_counts(transforms.alpha[:, 0], transforms.gamma[:, 0])
        np.testing.assert_array_equal(after, np.append(before + 1, 0))
        assert transforms.skyband_rows[0] == 50
        np.testing.assert_array_equal(
            after[transforms.skyband_rows], transforms.skyband_counts
        )
        np.testing.assert_array_equal(transforms.skyband_counts, np.sort(after))

    def test_every_row_at_m_above_one(self, tmp_path, monkeypatch):
        div = SquaredEuclidean()
        index = index_on_base(div, "fresh", tmp_path, n_partitions=3)
        queries = points_for(div, 24, DIM, seed=2)
        _, seen, spans = run_calls(index, queries, 5, monkeypatch)
        for ctx, (_, rows, shape) in zip(seen, spans):
            assert rows is None
            assert shape == (ctx.n_queries, ctx.snapshot.n_frozen, 3)
        index.close()
