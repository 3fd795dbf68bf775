"""Optimal number of partitions (paper Section 5.1, Theorem 4).

The online cost of a BrePartition query is modelled as

    T(M) = d + M*n + n*log(k) + beta*A*alpha^M * n * (d + log(k))

where the first three terms are the bound computation / sorting work and
the last is the filter-refinement work on the candidate set, whose size
is modelled as ``lambda * n`` with pruning factor ``lambda = beta * UB``
and an empirical exponential law ``UB(M) = A * alpha^M`` (more partitions
=> tighter Cauchy bounds).  Setting ``dT/dM = 0`` gives Theorem 4:

    M* = log_alpha( 2n / ( -mu * ln(alpha) * (d + log k) ) ),  mu = beta*A*n.

``A`` and ``alpha`` are fitted from sampled upper bounds at a few values
of ``M`` (the paper fits through two points; we least-squares over all
sampled M, which degrades gracefully to the same answer); ``beta`` is the
measured proportionality between a sample's upper bound and the fraction
of the dataset it fails to prune.  As in the paper, ``k = 1`` is used
offline, and both roundings of the real-valued ``M*`` are evaluated
against ``T`` before choosing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..divergences.base import DecomposableBregmanDivergence
from ..exceptions import InvalidParameterError
from ..geometry import bounds as bd
from .contiguous import ContiguousPartitioner
from .scheme import PartitionStrategy

__all__ = ["CostModelParams", "calibrate_cost_model", "online_cost", "optimal_partitions"]


@dataclass(frozen=True)
class CostModelParams:
    """Fitted constants of the cost model.

    ``A`` and ``alpha`` parametrise the bound decay ``UB(M) = A alpha^M``
    (``0 < alpha < 1``); ``beta`` converts a bound into a pruning
    fraction ``lambda = beta * UB``.
    """

    A: float
    alpha: float
    beta: float

    def expected_bound(self, n_partitions: int) -> float:
        """Modelled upper bound magnitude at ``M`` partitions."""
        return self.A * self.alpha**n_partitions

    def expected_candidates(self, n_partitions: int, n_points: int) -> float:
        """Modelled candidate-set size at ``M`` partitions."""
        fraction = min(1.0, self.beta * self.expected_bound(n_partitions))
        return fraction * n_points


def _mean_search_bound(
    divergence: DecomposableBregmanDivergence,
    points: np.ndarray,
    queries: np.ndarray,
    n_partitions: int,
    strategy: PartitionStrategy,
) -> float:
    """Mean (over sample queries) k=1 searching bound at ``M`` partitions.

    The searching bound is the smallest total upper bound over the data
    points -- the quantity whose exponential decay in ``M`` the cost
    model captures.
    """
    partitioning = strategy.partition(points, n_partitions)
    summaries = _subspace_summaries(divergence, points, partitioning)
    search_bounds = [
        _search_bound(summaries, partitioning, points.shape[0], query)
        for query in np.atleast_2d(queries)
    ]
    return float(np.mean(search_bounds))


def _subspace_summaries(divergence, points: np.ndarray, partitioning):
    """Each subspace's restricted divergence and the points' ``(alpha,
    gamma)`` there: query-independent, so computed once per partitioning,
    not per sample query."""
    summaries = []
    for dims_points, dims in zip(partitioning.split_matrix(points), partitioning.subspaces):
        sub_div = divergence.restrict(dims)
        summaries.append((sub_div, *bd.transform_points(sub_div, dims_points)))
    return summaries


def _search_bound(summaries, partitioning, n: int, query: np.ndarray) -> float:
    """The k=1 searching bound of one sample query: the smallest positive
    total upper bound over the points (the smallest total when none is
    positive)."""
    totals = np.zeros(n)
    for (sub_div, alpha, gamma), sub_query in zip(summaries, partitioning.split(query)):
        triple = bd.transform_query(sub_div, sub_query)
        totals += bd.batch_upper_bounds(alpha, gamma, triple)
    positive = totals[totals > 0]
    return float(np.min(positive)) if positive.size else float(np.min(totals))


def calibrate_cost_model(
    divergence: DecomposableBregmanDivergence,
    points: np.ndarray,
    n_samples: int = 50,
    m_values: tuple[int, ...] | None = None,
    strategy: PartitionStrategy | None = None,
    rng: np.random.Generator | None = None,
) -> CostModelParams:
    """Fit ``A``, ``alpha`` and ``beta`` from data samples.

    Follows the paper's recipe (Section 5.1): sample points serve as both
    queries and bound anchors; ``UB(M)`` is measured at a few partition
    counts and fitted in log space; ``beta`` is the mean over samples of
    ``(fraction of points within the sample's UB) / UB``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    rng = rng if rng is not None else np.random.default_rng()
    strategy = strategy if strategy is not None else ContiguousPartitioner()

    take = min(n_samples, n)
    sample_ids = rng.choice(n, size=take, replace=False)
    samples = points[sample_ids]

    if m_values is None:
        hi = max(2, min(d, 16))
        m_values = tuple(sorted({1, max(2, hi // 2), hi}))
    m_values = tuple(m for m in m_values if 1 <= m <= d)
    if len(m_values) < 2:
        raise InvalidParameterError("need at least two distinct M values to fit alpha")

    # --- fit UB(M) = A * alpha^M in log space -------------------------
    mean_bounds = np.array(
        [
            _mean_search_bound(divergence, points, samples[: min(10, take)], m, strategy)
            for m in m_values
        ]
    )
    mean_bounds = np.maximum(mean_bounds, 1e-12)
    slope, intercept = np.polyfit(np.array(m_values, dtype=float), np.log(mean_bounds), 1)
    alpha = float(np.exp(slope))
    big_a = float(np.exp(intercept))
    # The theory needs decay; near-flat fits are clamped just below 1 so
    # Theorem 4 degenerates gracefully to small M.
    alpha = min(max(alpha, 1e-6), 0.999)

    # --- measure the pruning fraction lambda(M) = beta * A * alpha^M ---
    # The paper measures beta at sampled bounds; we calibrate the same
    # linear pruning model against the *measured* candidate fractions at
    # the two extreme M values, which keeps the optimiser honest on data
    # where the bound decays but pruning has already saturated.
    def _pruning_fraction(m: int) -> float:
        partitioning = strategy.partition(points, m)
        summaries = _subspace_summaries(divergence, points, partitioning)
        fractions = []
        for query in samples[: min(20, take)]:
            ub = _search_bound(summaries, partitioning, n, query)
            exact = divergence.batch_divergence(points, query)
            fractions.append(float(np.mean(exact <= ub)))
        return float(np.mean(fractions)) if fractions else 1.0

    m_lo, m_hi = m_values[0], m_values[-1]
    frac_lo = max(_pruning_fraction(m_lo), 1e-6)
    frac_hi = max(_pruning_fraction(m_hi), 1e-6)
    if m_hi > m_lo and frac_hi < frac_lo:
        alpha = float((frac_hi / frac_lo) ** (1.0 / (m_hi - m_lo)))
    else:
        # No measurable pruning improvement with M: flat decay, so the
        # optimiser will keep M small (the Mn term dominates).
        alpha = 0.999
    alpha = min(max(alpha, 1e-6), 0.999)
    beta = frac_lo / max(big_a * alpha**m_lo, 1e-12)
    return CostModelParams(A=big_a, alpha=alpha, beta=beta)


def online_cost(
    n_partitions: int,
    n_points: int,
    dimensionality: int,
    params: CostModelParams,
    k: int = 1,
) -> float:
    """The paper's online time-complexity expression ``T(M)``."""
    log_k = math.log(k) if k > 1 else 0.0
    candidate_fraction = min(1.0, params.beta * params.A * params.alpha**n_partitions)
    return (
        dimensionality
        + n_partitions * n_points
        + n_points * log_k
        + candidate_fraction * n_points * (dimensionality + log_k)
    )


def optimal_partitions(
    n_points: int,
    dimensionality: int,
    params: CostModelParams,
    k: int = 1,
) -> int:
    """Theorem 4's optimised ``M``, clamped to ``[1, d]``.

    Evaluates ``T`` at both roundings of the real-valued stationary point
    (and at the clamp boundaries) and returns the cheapest.
    """
    if n_points < 1 or dimensionality < 1:
        raise InvalidParameterError("n_points and dimensionality must be positive")
    log_k = math.log(k) if k > 1 else 0.0
    mu = params.beta * params.A * n_points
    ln_alpha = math.log(params.alpha)
    denominator = -mu * ln_alpha * (dimensionality + log_k)

    candidates = {1, dimensionality}
    if denominator > 0:
        # The paper's closed form (Theorem 4) ...
        ratio_paper = (2.0 * n_points) / denominator
        # ... and the exact stationary point of T(M): dT/dM = 0 gives
        # alpha^M = n / denominator.  T is convex in M, so the integer
        # optimum is one of the roundings of this value; we evaluate all
        # candidates below and keep the cheapest.
        ratio_exact = n_points / denominator
        for ratio in (ratio_paper, ratio_exact):
            if ratio > 0:
                m_star = math.log(ratio) / ln_alpha
                for m in (math.floor(m_star), math.ceil(m_star)):
                    if 1 <= m <= dimensionality:
                        candidates.add(int(m))

    return min(
        candidates,
        key=lambda m: online_cost(m, n_points, dimensionality, params, k=k),
    )
