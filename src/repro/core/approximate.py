"""ABP: approximate BrePartition with probability guarantees (Section 8).

The exact searching bound has the form ``kappa + mu`` where ``kappa``
collects the terms that are computed exactly and

    mu = sqrt( sum_j x_j^2 * sum_j (df/dy_j)^2 )

is the Cauchy relaxation of the cross term ``beta_xy``.  When the
distribution ``Psi`` of ``beta_xy`` over the data is known, Proposition 1
shows that replacing ``mu`` by ``c * mu`` with

    c = Psi^{-1}( p * Psi(mu) + (1 - p) * Psi(-kappa) ) / mu

retrieves the exact kNN with probability at least ``p``.  The paper
multiplies every partition's exact radius by ``c``; so do we.

:class:`BetaXYModel` estimates ``Psi`` from sampled point pairs, either
with a normal fit (the paper's footnote suggests fitting a known
distribution to the per-dimension histograms; we fit the aggregate by
moments) or with the empirical CDF.
"""

from __future__ import annotations

from typing import Literal

import numpy as np
from scipy import stats as sps

from ..divergences.base import DecomposableBregmanDivergence
from ..exceptions import InvalidParameterError, NotFittedError
from ..geometry.bounds import cross_term
from .config import BrePartitionConfig
from .index import BrePartitionIndex

__all__ = ["BetaXYModel", "ApproximateBrePartitionIndex"]


class BetaXYModel:
    """Distribution model of the cross term ``beta_xy = -<x, grad f(y)>``."""

    def __init__(self, kind: Literal["normal", "empirical"] = "normal") -> None:
        if kind not in ("normal", "empirical"):
            raise InvalidParameterError("kind must be 'normal' or 'empirical'")
        self.kind = kind
        self._samples: np.ndarray | None = None
        self._mean = 0.0
        self._std = 1.0

    def fit(
        self,
        divergence: DecomposableBregmanDivergence,
        points: np.ndarray,
        n_pairs: int = 2000,
        rng: np.random.Generator | None = None,
    ) -> "BetaXYModel":
        """Sample random (x, y) pairs from the data and model beta_xy."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = points.shape[0]
        rng = rng if rng is not None else np.random.default_rng()
        xs = rng.integers(n, size=n_pairs)
        ys = rng.integers(n, size=n_pairs)
        grads = divergence.phi_prime(points[ys])
        samples = -np.einsum("ij,ij->i", points[xs], grads)
        self._samples = np.sort(samples)
        self._mean = float(np.mean(samples))
        self._std = float(np.std(samples))
        if self._std <= 0.0:
            self._std = 1e-12
        return self

    def _require_fit(self) -> None:
        if self._samples is None:
            raise NotFittedError("BetaXYModel.fit() must be called first")

    def cdf(self, value: float) -> float:
        """``Psi(value) = P(beta_xy <= value)``."""
        self._require_fit()
        if self.kind == "normal":
            return float(sps.norm.cdf(value, loc=self._mean, scale=self._std))
        rank = np.searchsorted(self._samples, value, side="right")
        return float(rank / self._samples.size)

    def inverse_cdf(self, probability: float) -> float:
        """``Psi^{-1}(probability)``."""
        self._require_fit()
        probability = min(max(probability, 1e-12), 1.0 - 1e-12)
        if self.kind == "normal":
            return float(sps.norm.ppf(probability, loc=self._mean, scale=self._std))
        return float(np.quantile(self._samples, probability))

    def coefficient(self, mu: float, kappa: float, probability: float) -> float:
        """Proposition 1's shrink factor ``c``, clamped to ``(0, 1]``."""
        if mu <= 0.0:
            return 1.0
        target = probability * self.cdf(mu) + (1.0 - probability) * self.cdf(-kappa)
        c = self.inverse_cdf(target) / mu
        if not np.isfinite(c):
            return 1.0
        return float(min(max(c, 1e-6), 1.0))


class ApproximateBrePartitionIndex(BrePartitionIndex):
    """ABP: shrinks the exact radii by Proposition 1's coefficient.

    Parameters
    ----------
    probability:
        The guarantee ``p`` in ``(0, 1]``: returned neighbours are the
        exact kNN with probability at least ``p`` under the fitted
        ``beta_xy`` model.  ``p = 1`` degenerates to the exact index.
    cdf_kind:
        ``"normal"`` (moment fit) or ``"empirical"``.

    Implementation note: unlike the exact index, ABP defaults to
    *leaf-exact* subspace filtering (``point_filter=True``).  At laptop
    scale the cluster-granularity candidate sets are dominated by fat
    leaves, which would erase the accuracy/efficiency trade-off the
    shrunken radii are supposed to buy; point-level filtering restores
    the smooth knob the paper's Fig. 15 sweeps.  Override by passing a
    config with ``point_filter=False``.
    """

    def __init__(
        self,
        divergence: DecomposableBregmanDivergence,
        probability: float = 0.9,
        config: BrePartitionConfig | None = None,
        cdf_kind: Literal["normal", "empirical"] = "normal",
        **kwargs,
    ) -> None:
        if not 0.0 < probability <= 1.0:
            raise InvalidParameterError("probability must be in (0, 1]")
        if config is None:
            config = BrePartitionConfig(point_filter=True)
        super().__init__(divergence, config=config, **kwargs)
        self.probability = float(probability)
        self.beta_xy_model = BetaXYModel(kind=cdf_kind)

    def build(self, points: np.ndarray) -> "ApproximateBrePartitionIndex":
        super().build(points)
        self.beta_xy_model.fit(self.divergence, points, rng=self.rng)
        return self

    def _adjust_radii_batch(self, search_bounds, triples, transforms) -> np.ndarray:
        """Shrink the Cauchy term of every partition's radius by ``c``.

        The exact bound has the form ``kappa + mu`` where only ``mu``
        (the Cauchy relaxation of ``beta_xy``) is slack; Proposition 1
        therefore licenses ``kappa + c * mu``.  The coefficient is
        computed once per query in the original space (paper Section 8)
        and applied to each partition's ``mu_i``.  The ``kappa`` and
        ``mu`` terms are computed for the whole ``(B, M)`` batch with
        broadcasting; only Proposition 1's coefficient (two CDF
        evaluations per query) remains a scalar loop.  ``transforms`` is
        the pinned snapshot's: the anchor ids are rows of its base, which
        a concurrent merge may already have replaced on the index.

        On a single search Plan takes its radius from exactly scored
        seed rows and scales it, subspace by subspace, by the factor
        these radii shrank the Theorem-1 radii by (see
        :mod:`repro.pipeline.plan`): it reads no more than the exact
        index, and less as ``p`` falls, but Proposition 1's probability
        is proved for the Theorem-1 anchor only.
        """
        anchors = search_bounds.anchor_ids
        gamma_rows = transforms.gamma[anchors]  # (B, M)
        alpha_rows = transforms.alpha[anchors]
        kappas = alpha_rows + (triples.alpha + triples.beta_yy)
        mus = np.sqrt(np.maximum(gamma_rows * triples.delta, 0.0))

        mu_totals = np.sqrt(
            np.maximum(gamma_rows.sum(axis=1) * triples.delta.sum(axis=1), 0.0)
        )
        kappa_totals = kappas.sum(axis=1)
        coefficients = np.array(
            [
                self.beta_xy_model.coefficient(float(mu), float(kap), self.probability)
                for mu, kap in zip(mu_totals, kappa_totals)
            ]
        )
        self._last_coefficients = coefficients
        if coefficients.size:  # the latest query's, for introspection
            self._last_coefficient = float(coefficients[-1])
        return kappas + coefficients[:, None] * mus
