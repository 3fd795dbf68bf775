"""Staged-pipeline and serving-layer tests.

The contracts under test (ISSUE 4's tentpole): decomposing
``search_batch`` into Plan -> Fetch -> Refine -> Rerank stages must
change *nothing* about the results -- for every decomposable divergence
and the sharded fan-out, batched top-k ids and divergences stay bitwise
equal to a brute-force oracle -- and the asyncio micro-batching
front-end must serve every concurrent client a response bitwise
identical to a direct ``search`` call.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro import (
    ApproximateBrePartitionIndex,
    BrePartitionConfig,
    BrePartitionIndex,
    ExponentialDistance,
    ItakuraSaito,
    SquaredEuclidean,
    brute_force_knn,
)
from repro.bbtree import BBForest
from repro.datasets import load_dataset
from repro.exceptions import (
    DomainError,
    InvalidParameterError,
    ServerOverloadedError,
)
from repro.pipeline import (
    PipelineStage,
    QueryBatchContext,
    SearchPipeline,
    default_stages,
)
from repro.pipeline import rerank as rerank_module
from repro.pipeline.plan import PlanStage
from repro.serve import MicroBatchConfig, MicroBatcher, make_serving_index
from repro.storage import BufferPool, DataStore, FaultInjector

from conftest import all_decomposable_divergences, charge_groups, points_for

N_POINTS = 240
N_QUERIES = 12
DIM = 12
K = 5
# tiny pages (8 points each) so batches span several pages per shard
PAGE_BYTES = 8 * DIM * 8

STAGE_NAMES = ("plan", "fetch", "refine", "rerank")


def build_index(divergence, points, **config_kwargs):
    config_kwargs.setdefault("n_partitions", 3)
    config_kwargs.setdefault("seed", 0)
    return BrePartitionIndex(
        divergence, BrePartitionConfig(**config_kwargs)
    ).build(points)


def fonts_index(n, n_queries, n_partitions):
    """The fonts proxy (Itakura-Saito, d=400: the costliest per-pair
    divergence here) at the dataset's own page size."""
    dataset = load_dataset("fonts", n=n, n_queries=n_queries, seed=0)
    index = build_index(
        dataset.divergence,
        dataset.points,
        n_partitions=n_partitions,
        page_size_bytes=dataset.page_size_bytes,
    )
    return index, dataset.queries


def filter_only_batches(monkeypatch):
    """Make Plan skip the covered-batch proof: every batch stays uncovered."""
    original = BBForest.range_union_batch

    def filter_only(self, subs, radii, point_filter=False, cover=None):
        return original(self, subs, radii, point_filter)

    monkeypatch.setattr(BBForest, "range_union_batch", filter_only)


def plan_candidates(index, queries, k):
    """Each query's own filter candidates: the Plan stage run with the
    forest ignoring the covered-batch proof, which would otherwise hand
    every query of a large batch the whole file."""
    plan = SearchPipeline(index, [index.pipeline.stage("plan")])
    with pytest.MonkeyPatch.context() as mp:
        filter_only_batches(mp)
        return plan.run(QueryBatchContext(queries=queries, k=k)).candidates


@pytest.fixture(scope="module")
def fonts_refine():
    """All 1,744 fonts rows at M=8 with 256 queries, the Plan stage's
    filter output for them and their looped-reference refinement."""
    index, queries = fonts_index(n=2000, n_queries=256, n_partitions=8)
    candidates = plan_candidates(index, queries, 10)
    # per-query sets, not one shared file: the refinement-parity tests
    # need a gathered union and ragged candidate rows
    assert len({ids.tobytes() for ids in candidates}) > 1
    looped = index.pipeline.refine_looped(candidates, queries, 10)
    return index, queries, candidates, looped


@pytest.fixture(scope="module")
def fonts_serving():
    """The serving benchmark's index (fonts, n=400, one disk) with 32
    queries and their direct-search results at k=10."""
    dataset, index = make_serving_index(dataset_name="fonts", n=400, n_queries=32)
    reference = [index.search(query, 10) for query in dataset.queries]
    return index, dataset.queries, reference


def assert_same_refined(got, want, n_queries):
    assert len(got) == len(want) == n_queries
    for (a_ids, a_divs), (b_ids, b_divs) in zip(got, want):
        np.testing.assert_array_equal(a_ids, b_ids)
        np.testing.assert_array_equal(a_divs, b_divs)


def assert_matches_looped(index, candidates, queries, k):
    """Refine's one kernel returns the looped reference's top-k bitwise,
    from a ``(B, union)`` estimate matrix."""
    ctx = index.pipeline.refine_prefetched(candidates, queries, k)
    union = np.unique(np.concatenate(candidates))
    assert ctx.estimates.shape == (len(candidates), union.size)
    looped = index.pipeline.refine_looped(candidates, queries, k)
    assert_same_refined(ctx.refined, looped, len(candidates))


class TestPipelineOracleParity:
    """Acceptance: staged-pipeline results are bitwise the oracle's."""

    @pytest.mark.parametrize("name,divergence", all_decomposable_divergences(DIM))
    def test_batch_matches_brute_force_bitwise(self, name, divergence):
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        index = build_index(
            divergence, points, n_shards=4, page_size_bytes=PAGE_BYTES
        )
        index.config.shard_workers = 4
        batch = index.search_batch(queries, K)
        for query, result in zip(queries, batch):
            oracle_ids, oracle_divs = brute_force_knn(divergence, points, query, K)
            np.testing.assert_array_equal(result.ids, oracle_ids)
            np.testing.assert_array_equal(result.divergences, oracle_divs)

    @pytest.mark.parametrize("name,divergence", all_decomposable_divergences(DIM))
    def test_single_search_matches_brute_force_bitwise(self, name, divergence):
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, 4, DIM, seed=2)
        index = build_index(divergence, points)
        for query in queries:
            result = index.search(query, K)
            oracle_ids, oracle_divs = brute_force_knn(divergence, points, query, K)
            np.testing.assert_array_equal(result.ids, oracle_ids)
            np.testing.assert_array_equal(result.divergences, oracle_divs)


class TestStageMechanics:
    def _index(self, **kwargs):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        return build_index(divergence, points, **kwargs), points

    def test_batch_stats_record_stage_seconds(self):
        index, _ = self._index()
        queries = points_for(SquaredEuclidean(), N_QUERIES, DIM, seed=2)
        stats = index.search_batch(queries, K).stats
        assert tuple(stats.stage_seconds) == STAGE_NAMES  # insertion order
        assert all(seconds >= 0.0 for seconds in stats.stage_seconds.values())
        # the stages are timed inside the driver's elapsed window
        assert sum(stats.stage_seconds.values()) <= stats.cpu_seconds + 0.05

    def test_single_search_records_stage_seconds(self):
        index, _ = self._index()
        query = points_for(SquaredEuclidean(), 1, DIM, seed=2)[0]
        stats = index.search(query, K).stats
        assert tuple(stats.stage_seconds) == STAGE_NAMES

    def test_stage_lookup(self):
        index, _ = self._index()
        assert index.pipeline.stage("plan").name == "plan"
        with pytest.raises(KeyError, match="no stage"):
            index.pipeline.stage("shuffle")

    def test_refine_prefetched_matches_looped_reference(self):
        index, _ = self._index()
        queries = points_for(SquaredEuclidean(), N_QUERIES, DIM, seed=2)
        rng = np.random.default_rng(3)
        candidates = [
            np.unique(rng.integers(0, N_POINTS, size=rng.integers(K, 60)))
            for _ in range(N_QUERIES)
        ]
        charge_groups(index.datastore, candidates)
        staged = index.pipeline.refine_prefetched(candidates, queries, K).refined
        looped = index.pipeline.refine_looped(candidates, queries, K)
        assert_same_refined(staged, looped, N_QUERIES)

    def test_refine_scores_nothing_without_candidates(self):
        # an empty union: Refine scores nothing, so it leaves no
        # estimates and no kernel name, and every frozen top-k is empty
        index, _ = self._index()
        queries = points_for(SquaredEuclidean(), 3, DIM, seed=2)
        empty = [np.empty(0, dtype=int)] * 3
        ctx = index.pipeline.refine_prefetched(empty, queries, K)
        assert ctx.refine_kernel is None and ctx.estimates is None
        assert [(ids.size, divs.size) for ids, divs in ctx.refined] == [(0, 0)] * 3

    @pytest.mark.parametrize("batch_size", [1, 16, 64, 256])
    def test_refine_prefetched_matches_looped_on_fonts(
        self, fonts_refine, batch_size
    ):
        # planning and the looped reference are per query, so one run
        # over all 256 queries serves every batch size
        index, queries, candidates, looped = fonts_refine
        staged = index.pipeline.refine_prefetched(
            candidates[:batch_size], queries[:batch_size], 10
        ).refined
        assert_same_refined(staged, looped[:batch_size], batch_size)

    def test_custom_stage_splices_into_pipeline(self):
        # the stage list is open: appending an observer stage must not
        # disturb results, and the driver must run (and time) it
        index, points = self._index()
        query = points_for(SquaredEuclidean(), 1, DIM, seed=2)[0]
        before = index.search(query, K)
        seen = []

        class ProbeStage(PipelineStage):
            name = "probe"

            def run(self, ctx: QueryBatchContext) -> None:
                seen.append((len(ctx.refined), ctx.refine_backend))

        index.pipeline = SearchPipeline(
            index, default_stages(index) + [ProbeStage(index)]
        )
        after = index.search(query, K)
        np.testing.assert_array_equal(before.ids, after.ids)
        np.testing.assert_array_equal(before.divergences, after.divergences)
        assert "probe" in after.stats.stage_seconds
        # observers see the finished context; scoring always runs in-process
        assert seen == [(1, "serial")]


class TestKernelsOnSynthesizedCandidates:
    """Refine's one kernel matches the looped reference bitwise on the
    fonts proxy's synthesized candidate sets: a mid-density one, and the
    Pareto-skewed one, its most ragged gathered union."""

    def test_mid_density(self, fonts_refine):
        # each of 64 queries keeps a uniform half of an 800-row pool:
        # density ~0.5
        index, queries, _, _ = fonts_refine
        queries = queries[:64]
        rng = np.random.default_rng(7)
        pool = np.arange(800)
        candidates = [
            np.sort(rng.choice(pool, size=400, replace=False)) for _ in queries
        ]
        assert_matches_looped(index, candidates, queries, 10)

    def test_pareto_skewed(self):
        # per-query candidate sets Pareto-distributed over contiguous id
        # runs: most keep a few dozen rows, a heavy tail up to the file.
        # At n=6,000 the density is ~0.02.
        index, queries = fonts_index(n=6000, n_queries=64, n_partitions=8)
        n = index.n_points
        rng = np.random.default_rng(1)
        sizes = np.minimum(n, (8 * (1.0 + rng.pareto(1.3, size=64))).astype(int))
        starts = rng.integers(0, n, size=64)
        candidates = [
            np.unique((starts[q] + np.arange(max(10, sizes[q]))) % n)
            for q in range(64)
        ]
        assert_matches_looped(index, candidates, queries, 10)


class TestCrossBatchPoolReuse:
    """Satellite: the buffer pool measures reuse across batches."""

    def _index(self, pool):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        config = BrePartitionConfig(
            n_partitions=3, seed=0, page_size_bytes=PAGE_BYTES
        )
        return BrePartitionIndex(divergence, config, buffer_pool=pool).build(points)

    def test_second_batch_reuses_first_batch_pages(self):
        pool = BufferPool(capacity_pages=10_000)
        index = self._index(pool)
        queries = points_for(SquaredEuclidean(), N_QUERIES, DIM, seed=2)
        first = index.search_batch(queries, K).stats
        second = index.search_batch(queries, K).stats
        # a cold pool has nothing from earlier batches to hand back
        assert first.cross_batch_hits == 0
        # identical queries: the whole coalesced working set is served
        # from pages the first batch inserted
        assert second.cross_batch_hits == second.pages_coalesced > 0
        assert second.pages_read == 0
        assert pool.cross_batch_hits == second.cross_batch_hits

    def test_disjoint_working_sets_count_no_cross_reuse(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(40, 6))
        pool = BufferPool(capacity_pages=10_000)
        store = DataStore(points, page_size_bytes=4 * 6 * 8, buffer_pool=pool)
        pool.begin_batch()
        store.charge_pages_for([np.arange(0, 8)])
        pool.begin_batch()
        store.charge_pages_for([np.arange(20, 28)])  # page-disjoint batch
        assert pool.cross_batch_hits == 0
        pool.begin_batch()
        store.charge_pages_for([np.arange(0, 8)])  # revisits batch 1's pages
        assert pool.cross_batch_hits == store.count_pages_of(np.arange(0, 8))

    def test_no_pool_reports_none(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        index = build_index(divergence, points)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        assert index.search_batch(queries, K).stats.cross_batch_hits is None

    def test_pool_epoch_separates_intra_from_cross(self):
        pool = BufferPool(capacity_pages=16)
        pool.begin_batch()
        assert pool.access(1, 7) is False  # miss inserts
        assert pool.access(1, 7) is True  # intra-batch re-hit
        assert pool.cross_batch_hits == 0
        pool.begin_batch()
        assert pool.access(1, 7) is True  # cross-batch reuse
        assert pool.cross_batch_hits == 1
        pool.clear()
        assert pool.cross_batch_hits == 0


# ----------------------------------------------------------------------
# Refine reads the pinned base: scores pinned, no vector bytes from store
# ----------------------------------------------------------------------

BASES = ("fresh", "tombstoned", "extended", "rebuilt", "resharded", "recovered")


def index_on_base(divergence, base, tmp_path):
    """An index over ``N_POINTS`` rows whose published base is ``base``:
    fresh, tombstoned, extend-merged and then carrying a delta (inserts
    and tombstones), rebuilt, resharded, or recovered from its WAL."""
    points = points_for(divergence, N_POINTS + 30, DIM, seed=1)
    config = dict(page_size_bytes=PAGE_BYTES)
    if base == "recovered":
        config["wal_path"] = str(tmp_path / "wal.log")
    index = build_index(divergence, points[:N_POINTS], **config)
    if base == "tombstoned":
        for pid in (3, 50, 111):
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
        index.reshard(4, replication_factor=2)
    if base == "recovered":
        index.close()
        index = BrePartitionIndex.recover(
            config["wal_path"], divergence, index.config
        )
    return index


class _Observer(PipelineStage):
    """Appended after Rerank: keeps every finished context."""

    name = "observe"

    def __init__(self, index) -> None:
        super().__init__(index)
        self.contexts = []

    def run(self, ctx: QueryBatchContext) -> None:
        self.contexts.append(ctx)


def observe(index):
    observer = _Observer(index)
    index.pipeline = SearchPipeline(index, default_stages(index) + [observer])
    return observer.contexts


def assert_scores_certified(index, contexts):
    """Each context's estimates are within their bounds of
    ``batch_divergence`` over the store's own rows, and those bounds are
    the ones freshly computed terms give; a query the divergence does
    not estimate has NaN estimates and bounds."""
    divergence = index.divergence
    refine = index.pipeline.stage("refine")
    for ctx in contexts:
        snap = ctx.snapshot
        conditioner = snap.refine_conditioner
        conditioned = ctx.queries if conditioner is None else conditioner.transform(
            ctx.queries
        )
        estimable = divergence.estimable(conditioned)
        for q, ids in enumerate(ctx.candidates):
            rows = ctx.row_of[ids]
            got, bound = ctx.estimates[q, rows], ctx.bound_of(q, rows)
            if not estimable[q]:
                assert np.isnan(got).all() and np.isnan(bound).all()
                continue
            vectors = snap.datastore.peek(ids)
            direct = divergence.batch_divergence(vectors, ctx.queries[q])
            fresh, fresh_bound = refine.certify(
                vectors,
                ctx.queries[q : q + 1],
                conditioner=snap.refine_conditioner,
            )
            np.testing.assert_allclose(bound, fresh_bound[:, 0], rtol=1e-12)
            assert np.all(np.abs(got - direct) <= bound)
            assert np.all(np.abs(fresh[:, 0] - direct) <= bound)
            if ids.size == ctx.union.size:
                # the in-place read Rerank takes for a whole union
                np.testing.assert_array_equal(ctx.estimates[q], got)
                np.testing.assert_array_equal(ctx.bound_of(q, slice(None)), bound)


class TestRefineScoresPinned:
    """Refine's estimates themselves, not just the top-k the oracle
    suites check (a wrong but well-ordered kernel still ranks right and
    only slows the rerank).  Estimates run through BLAS, so their bits
    are not pinned; their certificate is: every ``ctx.estimates[q,
    rows]`` is within the context's ``ctx.bound_of(q, rows)`` of
    ``batch_divergence`` over the store's own rows (``peek``), and that
    bound is the one freshly computed terms give (``certify``), on every
    base a mutation can publish.  (Until the certificate, this pinned
    the fixed-order scores bitwise; the test names are kept.)"""

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("name,divergence", all_decomposable_divergences(DIM))
    def test_scores_equal_fresh_terms_over_store_rows(
        self, name, divergence, base, tmp_path, monkeypatch
    ):
        index = index_on_base(divergence, base, tmp_path)
        queries = points_for(divergence, 32, DIM, seed=2)
        contexts = observe(index)
        index.search(queries[0], K)
        assert index.search_batch(queries, K).stats.covered
        with monkeypatch.context() as mp:
            filter_only_batches(mp)
            assert not index.search_batch(queries[:3], K).stats.covered
        index.close()
        assert len(contexts) == 3
        assert all(ctx.refine_kernel == "dense" for ctx in contexts)
        assert_scores_certified(index, contexts)

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("name,divergence", all_decomposable_divergences(DIM))
    def test_direct_kernel_scores_only_the_first_buffer(
        self, name, divergence, base, tmp_path, monkeypatch
    ):
        # the direct kernel scores exactly the certificate's survivors,
        # and on these well-separated inputs the bound is tight enough
        # that exactly k rows per query survive; a wrong kernel or a
        # loose bound lets more through
        index = index_on_base(divergence, base, tmp_path)
        queries = points_for(divergence, 32, DIM, seed=2)
        contexts = observe(index)
        scored = []
        direct = divergence.batch_divergence

        def counting(points, y):
            scored.append(len(points))
            return direct(points, y)

        monkeypatch.setattr(divergence, "batch_divergence", counting)
        for batch in (queries[:1], queries[:3], queries):
            index.search_batch(batch, K)
        index.close()
        want = []
        for ctx in contexts:
            for q, ids in enumerate(ctx.candidates):
                rows = ctx.row_of[ids]
                kept = rerank_module.survivors(
                    ctx.estimates[q, rows], ctx.bound_of(q, rows), K
                )
                assert kept.size == min(ids.size, K)
                want.append(kept.size)
            if ctx.snapshot.has_delta:
                want += [ctx.snapshot.delta.n_inserts] * ctx.n_queries
        assert scored == want


class TestOverflowingQueries:
    """A query whose conditioned terms would overflow gets no estimate:
    every candidate of it goes to the direct kernel.  Exponential
    distance with ``max_abs`` above ~355: the conditioner shifts by the
    data max (about -600 here), so a query coordinate in [100, 300]
    conditions to about 900 and ``e^900`` overflows.  Row estimates
    became inf, the row holding the data max NaN (``0 * inf``), and the
    true nearest neighbour could be dropped; under ``-W
    error::RuntimeWarning`` the search raised instead."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_query_coordinates_match_the_oracle(self, monkeypatch):
        divergence = ExponentialDistance(max_abs=700.0)
        rng = np.random.default_rng(0)
        points = rng.uniform(-690.0, -600.0, size=(300, 8))
        queries = rng.uniform(-690.0, -600.0, size=(20, 8))
        far = rng.integers(0, 8, size=20)
        queries[np.arange(20), far] = rng.uniform(100.0, 300.0, size=20)
        index = build_index(divergence, points, n_partitions=1)
        oracle = [brute_force_knn(divergence, points, query, K) for query in queries]
        results = [index.search(query, K) for query in queries]
        batch = index.search_batch(queries, K)
        assert batch.stats.covered
        results += list(batch)
        with monkeypatch.context() as mp:
            filter_only_batches(mp)
            batch = index.search_batch(queries, K)
            assert not batch.stats.covered
            results += list(batch)
        for result, (ids, divs) in zip(results, oracle * 3):
            np.testing.assert_array_equal(result.ids, ids)
            np.testing.assert_array_equal(result.divergences, divs)


class TestOverflowingExtendMerge:
    """An extend merge whose appended row's cached terms would overflow
    under the old conditioner re-derives the conditioner over every row
    first.  Exponential distance with ``max_abs=700``: the conditioner
    shifts by the data max (about -600 here), so an inserted row with a
    coordinate at 150 conditions to about 750, and ``e^750`` overflows:
    the base cached inf kernel and bound terms, and under ``-W
    error::RuntimeWarning`` the merge raised."""

    def _index(self, inserted):
        divergence = ExponentialDistance(max_abs=700.0)
        rng = np.random.default_rng(0)
        points = rng.uniform(-690.0, -600.0, size=(300, 8))
        queries = rng.uniform(-690.0, -600.0, size=(20, 8))
        queries[:4] = inserted + rng.uniform(-1.0, 1.0, size=(4, 8))
        index = build_index(divergence, points, n_partitions=1)
        return index, np.vstack([points, inserted]), queries

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_row_re_derives_the_conditioner(self, monkeypatch):
        inserted = np.random.default_rng(1).uniform(-690.0, -600.0, size=8)
        inserted[3] = 150.0
        index, points, queries = self._index(inserted)
        index.insert(inserted)
        index.merge("extend")
        base = index.snapshot().base
        assert base.refine_conditioner.shift == 150.0
        fresh = index.divergence.row_terms(base.refine_conditioner.transform(points))
        for got, want in zip(base.row_terms.kernel, fresh.kernel):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(base.row_terms.bound, fresh.bound)
        np.testing.assert_array_equal(base.row_terms.norm, fresh.norm)

        divergence = index.divergence
        oracle = [brute_force_knn(divergence, points, query, K) for query in queries]
        contexts = observe(index)
        results = [index.search(query, K) for query in queries]
        batch = index.search_batch(queries, K)
        assert batch.stats.covered
        results += list(batch)
        with monkeypatch.context() as mp:
            filter_only_batches(mp)
            batch = index.search_batch(queries, K)
            assert not batch.stats.covered
            results += list(batch)
        for result, (ids, divs) in zip(results, oracle * 3):
            np.testing.assert_array_equal(result.ids, ids)
            np.testing.assert_array_equal(result.divergences, divs)
        assert_scores_certified(index, contexts)

    def test_cacheable_rows_keep_the_old_conditioner(self):
        inserted = np.random.default_rng(1).uniform(-690.0, -600.0, size=8)
        index, _, _ = self._index(inserted)
        old = index.snapshot().base
        index.insert(inserted)
        index.merge("extend")
        base = index.snapshot().base
        assert base.refine_conditioner is old.refine_conditioner
        for got, want in zip(base.row_terms.kernel, old.row_terms.kernel):
            np.testing.assert_array_equal(got[: old.n_frozen], want)


class TestUnderflowingTerms:
    """Gradual underflow is absolute, not relative, error: the certified
    bound carries a floor for it, and a query whose kernel would scale
    an underflowed term by a large coordinate is refused.  Exponential
    distance at ``max_abs=700``: rows (700, -100), (-44.95, -44.95) and
    (-44.07, -100) condition (shift 700) to exps that are subnormal or
    zero, which the output factor ``e^700`` scales back up, so the
    estimates of the two small rows were off by far more than the
    rounding part of their bound, and the true nearest row was pruned.
    Squared Euclidean near 1e-162: every product underflows, and the
    rounding part of the bound is zero."""

    def _check(self, divergence, points, queries, monkeypatch, k):
        index = build_index(divergence, points, n_partitions=1)
        oracle = [brute_force_knn(divergence, points, query, k) for query in queries]
        results = [index.search(query, k) for query in queries]
        batch = index.search_batch(queries, k)
        assert batch.stats.covered
        results += list(batch)
        with monkeypatch.context() as mp:
            filter_only_batches(mp)
            batch = index.search_batch(queries, k)
            assert not batch.stats.covered
            results += list(batch)
        for result, (ids, divs) in zip(results, oracle * 3):
            np.testing.assert_array_equal(result.ids, ids)
            np.testing.assert_array_equal(result.divergences, divs)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_exponentials_match_the_oracle(self, monkeypatch):
        divergence = ExponentialDistance(max_abs=700.0)
        points = np.array([[700.0, -100.0], [-44.95, -44.95], [-44.07, -100.0]])
        queries = np.array([[-100.0, -100.0], [-90.0, -100.0], [-5.0, -5.0]])
        self._check(divergence, points, queries, monkeypatch, k=1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_query_exponentials_are_refused(self):
        # conditioned query coordinates near -745: e^{q~_j} is subnormal,
        # and the contraction would scale its absolute rounding error by
        # x~_j (about -1400) past the floor, so such a query gets no
        # estimate (NaN); every estimate given must hold its bound
        divergence = ExponentialDistance(max_abs=700.0)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            points = np.vstack([[700.0, 700.0], rng.uniform(-700.0, -690.0, (60, 2))])
            queries = rng.uniform(-46.0, -44.0, (100, 2))
            index = build_index(divergence, points, n_partitions=1)
            estimates, bounds = index.pipeline.stage("refine").certify(points, queries)
            for q, query in enumerate(queries):
                direct = divergence.batch_divergence(points, query)
                assert np.isnan(estimates[:, q]).all() or np.all(
                    np.abs(estimates[:, q] - direct) <= bounds[:, q]
                )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_products_match_the_oracle(self, monkeypatch):
        rng = np.random.default_rng(0)
        points = rng.normal(0.0, 1e-162, size=(200, 6))
        queries = rng.normal(0.0, 1e-162, size=(8, 6))
        self._check(SquaredEuclidean(), points, queries, monkeypatch, k=K)


class TestSearchPathReadsNoVectors:
    """Fetch charges pages and copies nothing; Refine and Rerank read
    the pinned base.  With ``DataStore.peek`` raising, every search path
    still returns the oracle's bits, and the same pages as without."""

    @staticmethod
    def _forbid_peek(monkeypatch):
        def peek(self, point_ids):
            raise AssertionError("the search path read vectors from the store")

        monkeypatch.setattr(DataStore, "peek", peek)

    def _run(self, index, calls, monkeypatch):
        """Each call's ``(ids, divergences, pages, failures)``, run
        normally and then with ``peek`` forbidden: the two must agree."""
        want = [call(index) for call in calls]
        with monkeypatch.context() as mp:
            self._forbid_peek(mp)
            got = [call(index) for call in calls]
        assert got == want
        return got

    @staticmethod
    def _search(query):
        def call(index):
            result = index.search(query, K)
            return (
                result.ids.tolist(),
                result.divergences.tolist(),
                result.stats.pages_read,
                None,
            )

        return call

    @staticmethod
    def _batch(queries, covered):
        def call(index):
            batch = index.search_batch(queries, K)
            assert batch.stats.covered == covered
            return (
                [None if r is None else r.ids.tolist() for r in batch.results],
                [None if r is None else r.divergences.tolist() for r in batch.results],
                batch.stats.pages_read,
                sorted(batch.failures),
            )

        return call

    @staticmethod
    def _assert_oracle(divergence, points, queries, outcome):
        ids, divs = outcome[0], outcome[1]
        if not isinstance(ids[0], list):
            ids, divs = [ids], [divs]
        for query, got_ids, got_divs in zip(queries, ids, divs):
            if got_ids is None:
                continue
            want_ids, want_divs = brute_force_knn(divergence, points, query, K)
            assert got_ids == want_ids.tolist()
            assert got_divs == want_divs.tolist()

    def test_search_and_batches(self, monkeypatch):
        divergence = ItakuraSaito()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, 32, DIM, seed=2)
        index = build_index(divergence, points, page_size_bytes=PAGE_BYTES)
        search, covered = self._run(
            index,
            [self._search(queries[0]), self._batch(queries, covered=True)],
            monkeypatch,
        )
        self._assert_oracle(divergence, points, queries[:1], search)
        self._assert_oracle(divergence, points, queries, covered)
        filter_only_batches(monkeypatch)
        (uncovered,) = self._run(
            index, [self._batch(queries[:4], covered=False)], monkeypatch
        )
        self._assert_oracle(divergence, points, queries[:4], uncovered)

    def test_approximate_index(self, monkeypatch):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, 8, DIM, seed=2)
        config = BrePartitionConfig(
            n_partitions=3, seed=0, page_size_bytes=PAGE_BYTES, point_filter=True
        )
        index = ApproximateBrePartitionIndex(
            divergence, probability=0.9, config=config
        ).build(points)
        self._run(
            index,
            [self._search(queries[0]), self._batch(queries, covered=False)],
            monkeypatch,
        )

    def test_failover_around_a_dead_replica(self, monkeypatch):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, 8, DIM, seed=2)
        injector = FaultInjector(seed=0)
        index = BrePartitionIndex(
            divergence,
            BrePartitionConfig(
                n_partitions=3,
                seed=0,
                page_size_bytes=PAGE_BYTES,
                n_shards=4,
                replication_factor=2,
            ),
        )
        index.attach_fault_injector(injector)
        index.build(points)
        clean = build_index(
            divergence, points, page_size_bytes=PAGE_BYTES, n_shards=4
        )
        injector.set_plan(shard=0, broken=True)
        calls = [self._search(queries[0]), self._batch(queries, covered=True)]
        outcomes = self._run(index, calls, monkeypatch)
        assert outcomes == [call(clean) for call in calls]
        self._assert_oracle(divergence, points, queries[:1], outcomes[0])
        self._assert_oracle(divergence, points, queries, outcomes[1])

    def test_hedged_read(self, monkeypatch):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, 8, DIM, seed=2)
        injector = FaultInjector(seed=0)
        index = BrePartitionIndex(
            divergence,
            BrePartitionConfig(
                n_partitions=3,
                seed=0,
                page_size_bytes=PAGE_BYTES,
                n_shards=2,
                replication_factor=2,
                hedge_after_ms=2.0,
            ),
        )
        index.attach_fault_injector(injector)
        index.build(points)
        injector.set_plan(shard=0, stall_seconds=0.02)
        with monkeypatch.context() as mp:
            self._forbid_peek(mp)
            batch = index.search_batch(queries, K)
            time.sleep(0.1)  # let the straggling legs finish charging
        assert batch.stats.n_hedged > 0
        self._assert_oracle(
            divergence,
            points,
            queries,
            ([r.ids.tolist() for r in batch], [r.divergences.tolist() for r in batch]),
        )
        clean = build_index(
            divergence, points, page_size_bytes=PAGE_BYTES, n_shards=2
        )
        assert batch.stats.pages_read == clean.search_batch(queries, K).stats.pages_read

    def test_partial_mode_with_a_broken_disk(self, monkeypatch):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, 8, DIM, seed=2)
        injector = FaultInjector(seed=0)
        index = BrePartitionIndex(
            divergence,
            BrePartitionConfig(
                n_partitions=3,
                seed=0,
                page_size_bytes=PAGE_BYTES,
                n_shards=4,
                shard_failure="partial",
            ),
        )
        index.attach_fault_injector(injector)
        index.build(points)
        injector.set_plan(shard=1, broken=True)
        # steer query 0's candidates off the broken shard so one query
        # survives next to the doomed ones
        original = PlanStage.run

        def steered(stage, ctx):
            original(stage, ctx)
            store = ctx.snapshot.datastore
            ctx.candidates[0] = ctx.candidates[0][
                store.shard_of[ctx.candidates[0]] != 1
            ]

        monkeypatch.setattr(PlanStage, "run", steered)
        (outcome,) = self._run(
            index, [self._batch(queries, covered=False)], monkeypatch
        )
        assert 0 not in outcome[3]
        assert outcome[3]  # the broken disk still dooms queries


def serve_all(index, k, queries, return_exceptions=False, **batcher_kwargs):
    """Issue every query at once through one batcher; returns the
    per-request results and the batcher's stats."""

    async def serve():
        async with MicroBatcher(index, k, **batcher_kwargs) as batcher:
            results = await asyncio.gather(
                *(batcher.search(query) for query in queries),
                return_exceptions=return_exceptions,
            )
        return results, batcher.stats

    return asyncio.run(serve())


def assert_same_results(reference, served):
    assert len(served) == len(reference)
    for expected, got in zip(reference, served):
        np.testing.assert_array_equal(expected.ids, got.ids)
        np.testing.assert_array_equal(expected.divergences, got.divergences)


def assert_coalesced_serving(index, k, queries, reference, max_batch_size, max_wait_ms):
    results, stats = serve_all(
        index, k, queries, max_batch_size=max_batch_size, max_wait_ms=max_wait_ms
    )
    assert_same_results(reference, results)
    assert stats.n_requests == len(queries)
    assert sum(stats.batch_sizes) == len(queries)
    assert max(stats.batch_sizes) <= max_batch_size
    assert stats.mean_batch_size > 1.0


def assert_per_request_serving(index, k, queries, reference):
    results, stats = serve_all(
        index, k, queries, config=MicroBatchConfig(max_batch_size=1, max_wait_ms=0.0)
    )
    assert stats.n_batches == len(queries)
    assert list(stats.batch_sizes) == [1] * len(queries)
    assert_same_results(reference, results)


def assert_overlapped_serving(
    index, k, queries, reference, workers, max_batch_size, max_wait_ms
):
    results, stats = serve_all(
        index,
        k,
        queries,
        max_batch_size=max_batch_size,
        max_wait_ms=max_wait_ms,
        max_concurrent_batches=workers,
    )
    assert_same_results(reference, results)
    assert stats.n_requests == len(queries)
    assert sum(stats.batch_sizes) == len(queries)
    assert max(stats.batch_sizes) <= max_batch_size
    assert stats.n_batches == len(queries) // max_batch_size
    assert stats.n_cancelled == stats.n_failed == stats.n_rejected == 0
    assert stats.mean_batch_size == max_batch_size


def assert_burst_shed(index, k, queries, reference, depth):
    # the batch cap sits above the burst, so the queue cannot drain
    # mid-burst: exactly the requests beyond ``depth`` are shed
    results, stats = serve_all(
        index,
        k,
        queries,
        return_exceptions=True,
        max_batch_size=64,
        max_wait_ms=5.0,
        max_queue_depth=depth,
        overflow="reject",
    )
    shed = [r for r in results if isinstance(r, ServerOverloadedError)]
    assert len(shed) == len(queries) - depth
    assert stats.n_rejected == len(queries) - depth
    assert stats.n_requests == depth  # only admitted requests dispatched
    assert_same_results(reference[:depth], results[:depth])


def assert_burst_backpressured(index, k, queries, reference, depth, max_wait_ms):
    results, stats = serve_all(
        index,
        k,
        queries,
        max_batch_size=64,
        max_wait_ms=max_wait_ms,
        max_queue_depth=depth,
        overflow="wait",
    )
    assert stats.n_rejected == 0
    assert stats.n_requests == len(queries)
    assert stats.n_batches >= 3  # the depth forces several waves
    assert_same_results(reference, results)


class TestMicroBatcher:
    """Satellite: async serving parity under concurrent clients."""

    def _index(self, divergence=None, points=None, **kwargs):
        divergence = divergence if divergence is not None else SquaredEuclidean()
        if points is None:
            points = points_for(divergence, N_POINTS, DIM, seed=1)
        return build_index(divergence, points, **kwargs), points

    def test_32_concurrent_clients_bitwise_identical_to_search(self):
        index, _ = self._index(n_shards=4, page_size_bytes=PAGE_BYTES)
        index.config.shard_workers = 4
        queries = points_for(SquaredEuclidean(), 32, DIM, seed=2)
        reference = [index.search(query, K) for query in queries]
        assert_coalesced_serving(
            index, K, queries, reference, max_batch_size=8, max_wait_ms=50.0
        )

    def test_64_concurrent_clients_on_fonts(self, fonts_serving):
        index, queries, reference = fonts_serving
        assert_coalesced_serving(  # 64 requests: the 32 queries twice
            index,
            10,
            np.concatenate([queries, queries]),
            reference * 2,
            max_batch_size=16,
            max_wait_ms=20.0,
        )

    def test_deadline_flushes_partial_batch(self):
        index, _ = self._index()
        queries = points_for(SquaredEuclidean(), 3, DIM, seed=2)

        async def serve():
            async with MicroBatcher(
                index, K, max_batch_size=100, max_wait_ms=1.0
            ) as batcher:
                results = await asyncio.gather(
                    *(batcher.search(query) for query in queries)
                )
            return results, batcher.stats

        results, stats = asyncio.run(serve())
        assert stats.n_batches == 1
        assert list(stats.batch_sizes) == [3]
        for query, served in zip(queries, results):
            expected = index.search(query, K)
            np.testing.assert_array_equal(expected.ids, served.ids)

    def test_per_request_mode_dispatches_singleton_batches(self):
        index, _ = self._index()
        queries = points_for(SquaredEuclidean(), 6, DIM, seed=2)
        reference = [index.search(query, K) for query in queries]
        assert_per_request_serving(index, K, queries, reference)

    def test_per_request_mode_on_fonts(self, fonts_serving):
        index, queries, reference = fonts_serving
        assert_per_request_serving(index, 10, queries[:16], reference[:16])

    def test_bad_query_fails_alone_not_its_batch(self):
        divergence = ItakuraSaito()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        index, _ = self._index(divergence=divergence, points=points)
        good = points_for(divergence, 4, DIM, seed=2)
        bad = good[0].copy()
        bad[0] = -1.0  # outside the Itakura-Saito domain

        async def serve():
            async with MicroBatcher(
                index, K, max_batch_size=8, max_wait_ms=5.0
            ) as batcher:
                return await asyncio.gather(
                    *(batcher.search(query) for query in good),
                    batcher.search(bad),
                    return_exceptions=True,
                )

        results = asyncio.run(serve())
        assert isinstance(results[-1], DomainError)
        for query, served in zip(good, results[:-1]):
            expected = index.search(query, K)
            np.testing.assert_array_equal(expected.ids, served.ids)

    def test_wrong_shape_query_fails_alone_not_its_batch(self):
        # shape mismatches must be rejected eagerly: once batched, a
        # misshapen query would make np.stack fail the whole dispatch
        index, _ = self._index()
        good = points_for(SquaredEuclidean(), 4, DIM, seed=2)

        async def serve():
            async with MicroBatcher(
                index, K, max_batch_size=8, max_wait_ms=5.0
            ) as batcher:
                return await asyncio.gather(
                    *(batcher.search(query) for query in good),
                    batcher.search(good[0][: DIM - 2]),
                    batcher.search(good[:2]),  # 2-D input
                    return_exceptions=True,
                )

        results = asyncio.run(serve())
        assert isinstance(results[-2], InvalidParameterError)
        assert isinstance(results[-1], InvalidParameterError)
        for query, served in zip(good, results[:-2]):
            expected = index.search(query, K)
            np.testing.assert_array_equal(expected.ids, served.ids)

    def test_closed_batcher_rejects_requests(self):
        index, _ = self._index()
        query = points_for(SquaredEuclidean(), 1, DIM, seed=2)[0]

        async def serve():
            batcher = MicroBatcher(index, K)
            await batcher.close()
            with pytest.raises(InvalidParameterError, match="closed"):
                await batcher.search(query)

        asyncio.run(serve())

    def test_config_validation(self):
        index, _ = self._index()
        with pytest.raises(InvalidParameterError, match="max_batch_size"):
            MicroBatchConfig(max_batch_size=0)
        with pytest.raises(InvalidParameterError, match="max_wait_ms"):
            MicroBatchConfig(max_wait_ms=-1.0)
        with pytest.raises(InvalidParameterError, match="k must be"):
            MicroBatcher(index, 0)

    def test_serving_accounting_flows_through(self):
        # the engine-side BatchQueryStats ride along per dispatched batch
        index, _ = self._index()
        queries = points_for(SquaredEuclidean(), 8, DIM, seed=2)

        async def serve():
            async with MicroBatcher(
                index, K, max_batch_size=8, max_wait_ms=50.0
            ) as batcher:
                await asyncio.gather(*(batcher.search(query) for query in queries))
                return batcher.stats

        stats = asyncio.run(serve())
        assert len(stats.batch_stats) == stats.n_batches
        engine = stats.batch_stats[0]
        assert engine.n_queries == stats.batch_sizes[0]
        assert tuple(engine.stage_seconds) == STAGE_NAMES


class _HeadlessIndex:
    """An index proxy exposing only ``search_batch`` + ``divergence``.

    Models a serving target with no declared dimensionality (the
    MicroBatcher's ``_dimensionality`` probes find nothing), so batch
    shape consistency must come from the first pending request.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.divergence = inner.divergence

    def search_batch(self, queries, k):
        return self._inner.search_batch(queries, k)


class _SlowIndex(_HeadlessIndex):
    """Delays each batch on the worker thread (cancellation windows)."""

    def __init__(self, inner, delay_seconds: float) -> None:
        super().__init__(inner)
        self.delay_seconds = delay_seconds

    def search_batch(self, queries, k):
        time.sleep(self.delay_seconds)
        return self._inner.search_batch(queries, k)


class TestConcurrentServing:
    """ISSUE 5: overlapped in-flight batches, backpressure, accounting."""

    def _index(self, **kwargs):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        return build_index(divergence, points, **kwargs), points

    @pytest.mark.parametrize("workers", (1, 4))
    def test_parity_matrix_vs_direct_search(self, workers):
        # acceptance: with max_concurrent_batches in {1, 4}, every served
        # response is bitwise identical to direct search -- under the
        # sharded fan-out, so shard-tracker mirroring is also exercised
        # by overlapping batch scopes
        index, _ = self._index(n_shards=4, page_size_bytes=PAGE_BYTES)
        index.config.shard_workers = 2
        queries = points_for(SquaredEuclidean(), 32, DIM, seed=2)
        reference = [index.search(query, K) for query in queries]
        assert_overlapped_serving(
            index, K, queries, reference, workers, max_batch_size=8, max_wait_ms=50.0
        )

    def test_overlapped_batches_on_fonts(self, fonts_serving):
        index, queries, reference = fonts_serving
        assert_overlapped_serving(
            index,
            10,
            np.concatenate([queries, queries]),
            reference * 2,
            workers=4,
            max_batch_size=8,
            max_wait_ms=20.0,
        )

    def test_per_batch_pages_read_matches_serialized_run(self):
        # acceptance: per-batch pages_read under 4 overlapped batches is
        # exactly what a serialized run of the same batches charges --
        # the scoped-dedup guarantee the tentpole exists for
        index, _ = self._index(page_size_bytes=PAGE_BYTES)
        queries = points_for(SquaredEuclidean(), 32, DIM, seed=2)

        async def serve():
            async with MicroBatcher(
                index,
                K,
                max_batch_size=8,
                max_wait_ms=200.0,
                max_concurrent_batches=4,
            ) as batcher:
                await asyncio.gather(*(batcher.search(query) for query in queries))
                return batcher.stats

        stats = asyncio.run(serve())
        # submission order fills batches in 8-request chunks; completion
        # (hence batch_stats) order is scheduler-dependent, so compare
        # the per-batch page bills as multisets
        concurrent_pages = sorted(s.pages_read for s in stats.batch_stats)
        serialized_pages = sorted(
            index.search_batch(queries[lo : lo + 8], K).stats.pages_read
            for lo in range(0, 32, 8)
        )
        assert concurrent_pages == serialized_pages
        assert stats.total_pages_read == sum(serialized_pages)

    def test_mixed_dimension_request_fails_alone_without_index_dim(self):
        # satellite: with no index-declared dimensionality, the first
        # pending request defines the batch's dimension and a mismatched
        # query is rejected eagerly instead of poisoning the whole batch
        index, _ = self._index()
        headless = _HeadlessIndex(index)
        good = points_for(SquaredEuclidean(), 4, DIM, seed=2)
        short = good[0][: DIM - 3]

        async def serve():
            async with MicroBatcher(
                headless, K, max_batch_size=8, max_wait_ms=20.0
            ) as batcher:
                return await asyncio.gather(
                    *(batcher.search(query) for query in good),
                    batcher.search(short),
                    return_exceptions=True,
                )

        results = asyncio.run(serve())
        assert isinstance(results[-1], InvalidParameterError)
        for query, served in zip(good, results[:-1]):
            expected = index.search(query, K)
            np.testing.assert_array_equal(expected.ids, served.ids)
            np.testing.assert_array_equal(expected.divergences, served.divergences)

    def test_cancelled_client_still_counts_as_dispatched(self):
        # satellite: n_requests counts dispatched requests, cancelled
        # clients land in n_cancelled, and mean_batch_size keeps
        # agreeing with the dispatched batch_sizes history
        index, _ = self._index()
        slow = _SlowIndex(index, delay_seconds=0.2)
        queries = points_for(SquaredEuclidean(), 4, DIM, seed=2)

        async def serve():
            async with MicroBatcher(
                slow, K, max_batch_size=4, max_wait_ms=5.0
            ) as batcher:
                tasks = [
                    asyncio.ensure_future(batcher.search(query))
                    for query in queries
                ]
                # let all four requests enqueue; the 4th triggers the
                # size-based flush, dispatching the batch to the worker
                await asyncio.sleep(0.05)
                assert batcher.stats.n_batches == 1
                tasks[1].cancel()
                results = await asyncio.gather(*tasks, return_exceptions=True)
            return results, batcher.stats

        results, stats = asyncio.run(serve())
        assert isinstance(results[1], asyncio.CancelledError)
        assert stats.n_requests == 4
        assert stats.n_cancelled == 1
        assert stats.n_failed == 0
        assert stats.mean_batch_size == 4.0
        assert list(stats.batch_sizes) == [4]
        for slot in (0, 2, 3):
            expected = index.search(queries[slot], K)
            np.testing.assert_array_equal(expected.ids, results[slot].ids)

    def test_queue_depth_reject_sheds_overload(self):
        # a 10-request burst against depth 3: 3 admitted, 7 shed
        index, _ = self._index()
        queries = points_for(SquaredEuclidean(), 10, DIM, seed=2)
        reference = [index.search(query, K) for query in queries]
        assert_burst_shed(index, K, queries, reference, depth=3)

    def test_queue_depth_wait_backpressures_and_serves_all(self):
        index, _ = self._index()
        queries = points_for(SquaredEuclidean(), 10, DIM, seed=2)
        reference = [index.search(query, K) for query in queries]
        assert_burst_backpressured(
            index, K, queries, reference, depth=3, max_wait_ms=2.0
        )

    def test_queue_depth_both_overflow_modes_on_fonts(self, fonts_serving):
        # a 12-request burst against depth 4
        index, queries, reference = fonts_serving
        assert_burst_shed(index, 10, queries[:12], reference[:12], depth=4)
        assert_burst_backpressured(
            index, 10, queries[:12], reference[:12], depth=4, max_wait_ms=5.0
        )

    def test_concurrency_config_validation(self):
        index, _ = self._index()
        with pytest.raises(InvalidParameterError, match="max_concurrent_batches"):
            MicroBatchConfig(max_concurrent_batches=0)
        with pytest.raises(InvalidParameterError, match="max_queue_depth"):
            MicroBatchConfig(max_queue_depth=0)
        with pytest.raises(InvalidParameterError, match="overflow"):
            MicroBatchConfig(overflow="drop")
        with pytest.raises(InvalidParameterError, match="overflow"):
            MicroBatcher(index, K, overflow="spill")
