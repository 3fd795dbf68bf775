"""Core abstractions for Bregman divergences.

A Bregman divergence is defined by a strictly convex, differentiable
*generator* function ``f``:

    D_f(x, y) = f(x) - f(y) - <grad f(y), x - y>

The BrePartition framework additionally requires the divergence to be
*decomposable* (the paper calls this "cumulative"): splitting the
dimensions into disjoint subsets must split the divergence into a sum of
per-subset divergences.  This holds exactly when the generator is
*separable*, ``f(x) = sum_j phi(x_j)`` for a scalar convex ``phi``
(possibly with per-dimension weights).  All the divergences the paper
evaluates (squared Euclidean / diagonal Mahalanobis, Itakura-Saito,
exponential distance, generalized KL, Shannon entropy, Burg entropy,
p-norm generators) are of this form.

Two base classes are provided:

* :class:`BregmanDivergence` -- the general contract (generator, gradient,
  divergence, batched divergence, domain validation).
* :class:`DecomposableBregmanDivergence` -- the separable specialisation
  used by BrePartition.  Subclasses implement only the scalar maps
  ``phi``, ``phi_prime`` and ``phi_prime_inverse`` (all vectorised over
  NumPy arrays); everything else (divergences, gradients, dual-space
  geodesics, restriction to a dimension subset) is derived here.  A
  subclass with its own expansion-form refinement kernel states its
  terms once, in ``point_terms``/``query_terms``/``combine`` (the term
  contract on the class), and the fixed-order ``cross_divergence`` and
  Refine's BLAS estimates both build from them.  Beside them it states
  the magnitudes of its proved error bound
  (``point_bound_terms``/``query_bound_terms``/``estimable``, the bound
  contract), which lets refinement contract in any summation order and
  still certify which rows can be neighbours.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from ..exceptions import DomainError, NotDecomposableError

__all__ = [
    "Domain",
    "REALS",
    "POSITIVE_REALS",
    "OPEN_UNIT_INTERVAL",
    "RefinementConditioner",
    "BregmanDivergence",
    "DecomposableBregmanDivergence",
    "KernelTerms",
    "RowTerms",
    "error_scale",
]

#: one array per expansion-kernel term: per row (``point_terms``) or
#: per query (``query_terms``), see the term contract on
#: :class:`DecomposableBregmanDivergence`.
KernelTerms = Tuple[np.ndarray, ...]

#: unit roundoff of float64.
_UNIT_ROUNDOFF = 2.0**-53

#: the smallest positive (subnormal) float64.
_SUBNORMAL = 2.0**-1074


class RowTerms(NamedTuple):
    """The query-independent terms of a block of conditioned rows, which
    each published base caches (:meth:`DecomposableBregmanDivergence.row_terms`):
    the kernel's ``point_terms``, and the certified bound's per-row
    magnitude ``A`` and norm ``||x~||`` (the bound contract)."""

    kernel: KernelTerms
    bound: np.ndarray
    norm: np.ndarray

    def take(self, rows: np.ndarray) -> "RowTerms":
        """The terms of a gathered row subset."""
        return RowTerms(
            tuple(term[rows] for term in self.kernel), self.bound[rows], self.norm[rows]
        )

    @classmethod
    def concatenate(cls, parts: Sequence["RowTerms"]) -> "RowTerms":
        """The terms of the stacked rows: every term is a row reduction."""
        return cls(
            tuple(np.concatenate(column) for column in zip(*(p.kernel for p in parts))),
            np.concatenate([p.bound for p in parts]),
            np.concatenate([p.norm for p in parts]),
        )


def error_scale(factor: float, dimensionality: int) -> Tuple[float, float]:
    """``(scale, floor)`` of the certified bound
    ``E = scale * (A + B + ||x~|| H) + floor`` (the bound contract on
    :class:`DecomposableBregmanDivergence`): ``scale = |factor| 64 (d + 8)
    u`` covers rounding, ``floor = (|factor| + 1) 64 (d + 8) 2^-1074``
    gradual underflow in the conditioned and the raw frame.  ``factor``
    is the conditioner's output factor (1.0 without one)."""
    factor = abs(float(factor))
    budget = 64.0 * (dimensionality + 8)
    return factor * budget * _UNIT_ROUNDOFF, (factor + 1.0) * budget * _SUBNORMAL


class RefinementConditioner:
    """Input transform that keeps expansion-form kernels well-conditioned.

    The matrixised :meth:`BregmanDivergence.cross_divergence` kernels
    trade conditioning for speed (the classic ``||x||^2 - 2<x,y> +
    ||y||^2`` cancellation).  When a divergence has an exact invariance
    -- translation, per-dimension scaling, or homogeneity -- evaluating
    the kernel on transformed inputs (and rescaling the output by
    ``factor``) recovers the same mathematical values from
    better-conditioned arithmetic, and keeps the certified error bounds
    (which scale with the conditioned magnitudes) tight.  Every
    refinement path applies the same conditioner elementwise, and the
    kernel and bound terms an index caches per row are those of the
    conditioned rows (``row_terms(transform(rows))``).

    Parameters
    ----------
    shift:
        Subtracted from every input row (translation invariance), or
        ``None``.
    scale:
        Every input row is divided by this (scale invariance /
        homogeneity), or ``None``.
    factor:
        Multiplier applied to the kernel's output values (1.0 for exact
        invariances; the homogeneity degree's scale for homogeneous
        divergences).
    """

    __slots__ = ("shift", "scale", "factor")

    def __init__(
        self,
        shift: np.ndarray | None = None,
        scale: np.ndarray | float | None = None,
        factor: float = 1.0,
    ) -> None:
        self.shift = shift
        self.scale = scale
        self.factor = float(factor)

    def transform(
        self, rows: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Condition an ``(n, d)`` array of kernel inputs (into ``out``,
        which may be ``rows`` itself, when given)."""
        if self.shift is not None:
            rows = np.subtract(rows, self.shift, out=out)
        if self.scale is not None:
            rows = np.divide(rows, self.scale, out=out)
        return rows


class Domain:
    """An axis-aligned open-box domain for divergence generators.

    Parameters
    ----------
    low, high:
        Open interval bounds applied to every coordinate.  ``-inf`` /
        ``inf`` denote an unbounded side.
    name:
        Human-readable label used in error messages.
    """

    def __init__(self, low: float, high: float, name: str) -> None:
        self.low = float(low)
        self.high = float(high)
        self.name = name

    def contains(self, x: np.ndarray) -> bool:
        """Return ``True`` when every coordinate of ``x`` is inside."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            return False
        ok_low = self.low == -np.inf or bool(np.all(x > self.low))
        ok_high = self.high == np.inf or bool(np.all(x < self.high))
        return ok_low and ok_high

    def clip(self, x: np.ndarray, margin: float = 1e-9) -> np.ndarray:
        """Project ``x`` into the domain, keeping an open-interval margin."""
        x = np.asarray(x, dtype=float)
        lo = self.low + margin if np.isfinite(self.low) else -np.inf
        hi = self.high - margin if np.isfinite(self.high) else np.inf
        return np.clip(x, lo, hi)

    def validate(self, x: np.ndarray, what: str = "vector") -> None:
        """Raise :class:`DomainError` when ``x`` is outside the domain."""
        if not self.contains(x):
            raise DomainError(
                f"{what} outside domain {self.name}: "
                f"expected coordinates in ({self.low}, {self.high})"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Domain({self.name}, ({self.low}, {self.high}))"


REALS = Domain(-np.inf, np.inf, "reals")
POSITIVE_REALS = Domain(0.0, np.inf, "positive reals")
OPEN_UNIT_INTERVAL = Domain(0.0, 1.0, "open unit interval")


class BregmanDivergence(ABC):
    """Contract for a Bregman divergence ``D_f``.

    Concrete classes expose the generator ``f``, its gradient, and
    point-to-point / batch divergence evaluation.  ``name`` is a stable
    identifier used by :mod:`repro.divergences.registry`.
    """

    #: registry identifier; subclasses override.
    name: str = "bregman"

    #: whether the divergence is cumulative over dimension partitions.
    supports_partitioning: bool = False

    #: the domain of the generator.
    domain: Domain = REALS

    @abstractmethod
    def generator(self, x: np.ndarray) -> float:
        """Evaluate the convex generator ``f`` at ``x``."""

    @abstractmethod
    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Evaluate ``grad f`` at ``x``."""

    def divergence(self, x: np.ndarray, y: np.ndarray) -> float:
        """Compute ``D_f(x, y) = f(x) - f(y) - <grad f(y), x - y>``."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        grad_y = self.gradient(y)
        value = self.generator(x) - self.generator(y) - float(np.dot(grad_y, x - y))
        # Guard against tiny negative values from floating-point cancellation.
        return value if value > 0.0 else 0.0

    def batch_divergence(self, points: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Compute ``D_f(x, y)`` for every row ``x`` of ``points``.

        The default implementation loops; decomposable subclasses provide
        a fully vectorised override.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.array([self.divergence(row, y) for row in points])

    def cross_divergence(self, points: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Compute ``D_f(x_i, q_b)`` for every (point, query) pair.

        Returns an ``(n, B)`` matrix.  Contract: each column must be
        bitwise independent of which other queries are in the batch
        (``cross(points, queries)[:, b] == cross(points,
        queries[b:b+1])[:, 0]``).  The default implementation stacks
        ``batch_divergence`` columns; decomposable subclasses provide a
        matrixised expansion kernel.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        if queries.shape[0] == 0:
            return np.empty((points.shape[0], 0), dtype=float)
        return np.stack(
            [self.batch_divergence(points, query) for query in queries], axis=1
        )

    def validate_domain(self, x: np.ndarray, what: str = "vector") -> None:
        """Raise :class:`DomainError` when ``x`` violates the domain."""
        self.domain.validate(x, what)

    def refinement_conditioner(
        self, points: np.ndarray
    ) -> "RefinementConditioner | None":
        """Conditioner for :meth:`cross_divergence` on this dataset.

        Divergences with an exact invariance override this to map the
        dataset's scale into the expansion kernels' well-conditioned
        regime (see :class:`RefinementConditioner`); the default --
        no known invariance -- returns ``None``, leaving inputs raw.
        """
        return None

    def restrict(self, dims: Sequence[int]) -> "BregmanDivergence":
        """Return the divergence restricted to a dimension subset.

        Only decomposable divergences can be restricted; the restriction
        of a separable generator is the same generator over fewer
        coordinates.
        """
        raise NotDecomposableError(
            f"divergence {self.name!r} is not decomposable and cannot be "
            "restricted to a dimension subset"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class DecomposableBregmanDivergence(BregmanDivergence):
    """Separable Bregman divergence ``f(x) = sum_j phi(x_j)``.

    Subclasses implement the scalar generator ``phi`` and its derivative
    as NumPy ufunc-style methods.  ``phi_prime_inverse`` is the inverse of
    ``phi'`` -- equivalently the (coordinate-wise) gradient of the convex
    conjugate ``f*`` -- and powers the dual-space geodesic used by the
    BB-tree's node bounds (Cayton 2008).
    """

    supports_partitioning = True

    # ------------------------------------------------------------------
    # scalar maps (vectorised over arrays) -- the subclass contract
    # ------------------------------------------------------------------

    @abstractmethod
    def phi(self, t: np.ndarray) -> np.ndarray:
        """Elementwise generator ``phi``."""

    @abstractmethod
    def phi_prime(self, t: np.ndarray) -> np.ndarray:
        """Elementwise derivative ``phi'``."""

    @abstractmethod
    def phi_prime_inverse(self, s: np.ndarray) -> np.ndarray:
        """Elementwise inverse of ``phi'`` (gradient of the conjugate)."""

    # ------------------------------------------------------------------
    # derived vector-level API
    # ------------------------------------------------------------------

    def generator(self, x: np.ndarray) -> float:
        return float(np.sum(self.phi(np.asarray(x, dtype=float))))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.phi_prime(np.asarray(x, dtype=float)), dtype=float)

    def gradient_inverse(self, s: np.ndarray) -> np.ndarray:
        """Map a dual vector back to the primal space (``(grad f)^-1``)."""
        return np.asarray(self.phi_prime_inverse(np.asarray(s, dtype=float)), dtype=float)

    def divergence(self, x: np.ndarray, y: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        grad_y = self.phi_prime(y)
        value = float(
            np.sum(self.phi(x)) - np.sum(self.phi(y)) - np.dot(grad_y, x - y)
        )
        return value if value > 0.0 else 0.0

    def batch_divergence(self, points: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorised ``D_f(x_i, y)`` over the rows of ``points``.

        Kept in the well-conditioned direct form (differences before
        reductions): this is the reference kernel for oracles, baselines
        and geometry.  The refinement hot path uses the faster
        expansion-form :meth:`cross_divergence` instead.  The cross-term
        reduction uses einsum's fixed summation order so each row's
        value is bitwise independent of how many rows are scored
        together (a BLAS matvec may switch accumulation patterns with
        the row count) -- rerank buffers must agree with full-scan
        oracles bit for bit.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        y = np.asarray(y, dtype=float)
        grad_y = self.phi_prime(y)
        fy = float(np.sum(self.phi(y)))
        values = (
            np.sum(self.phi(points), axis=1)
            - fy
            - np.einsum("ij,j->i", points - y, grad_y)
        )
        return np.maximum(values, 0.0)

    # ------------------------------------------------------------------
    # expansion kernels: the terms, stated once
    # ------------------------------------------------------------------
    #
    # Term contract.  The inner-product expansion
    #
    #     D_f(x, q) = f(x) - f(q) - <x, grad f(q)> + <grad f(q), q>
    #
    # splits every pair's value into three parts, which a divergence
    # with its own expansion overrides and nothing else:
    #
    # * point_terms(rows): per-row reductions that depend on no query
    #   (here f(x)).  They are row reductions, so the terms of a gathered
    #   row subset equal the same rows' terms computed on the whole array
    #   bit for bit: a caller may compute them once per dataset and pass
    #   gathered slices in (the index caches them on each published base,
    #   for the conditioned rows -- see RefinementConditioner);
    # * query_terms(queries): the (B, d) operand the point rows are
    #   contracted against (grad f(q) here; a subclass may move a
    #   constant factor into combine), then per-query reductions;
    # * combine(...): the per-pair expression over the aligned terms and
    #   the contraction <x, operand_q>, applied elementwise.  It may
    #   overwrite the contraction array (every caller passes a fresh one,
    #   or its own output slice) and returns the values.
    #
    # cross_divergence below broadcasts the terms over the (n, B) matrix
    # and contracts with one einsum, whose summation order is fixed, so
    # every entry is bitwise equal to the same pair scored in any other
    # batch, block or row subset.
    #
    # Bound contract.  Refinement may also run the same terms and combine
    # with the contraction in any summation order (BLAS), so its pair
    # values are estimates, not fixed bits.  Each estimate s of a pair
    # (x, q) comes with a proved bound on |s - D^|, where D^ is
    # batch_divergence's *computed* value on the raw pair -- the bits
    # the brute-force oracle returns:
    #
    #     E = |factor| 64 (d + 8) u (A(x~) + B(q~) + ||x~||_2 H(q~))
    #         + (|factor| + 1) 64 (d + 8) 2^-1074,
    #
    # u = 2^-53, x~ and q~ the conditioned inputs and factor the
    # conditioner's output factor (error_scale gives both scalars).
    # Higham's inner-product bound (Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., section 3.1) puts the rounding error of a sum
    # of d terms, in any order, within about d u times the sum of the
    # terms' absolute values.  So the first part holds when, in the
    # conditioned frame, A + B + ||x~|| H dominates (up to a small
    # constant) the absolute values of every term either computation
    # rounds:
    #
    # * the estimate's point and query terms, its contraction and its
    #   combine (the output factor is one more rounding);
    # * the direct kernel's own per-coordinate terms, scaled by
    #   1/factor;
    # * each coordinate's exp/log/pow, good to a few ulps of its result
    #   (NumPy's are not correctly rounded);
    # * the first-order change of D when the conditioner rounds x~ and
    #   q~ (one ulp each, times the partial derivatives);
    # * the survivor comparison's own rounding of s +- E.
    #
    # Summed, those stay below 8 (d + 16) u (A + B + ||x~|| H) when each
    # transcendental is good to 8 ulps, so the constant 64 leaves a
    # margin of at least 4; the measured one is over a thousand.
    #
    # The second part, the floor, covers gradual underflow (IEEE
    # subnormals; NumPy and OpenBLAS do not flush them to zero), where
    # a rounding is absolute, not relative: a product or quotient that
    # underflows is off by up to 2^-1075, an exp/log/pow result by a few
    # 2^-1074, and a sum or difference of subnormals is exact.  Each
    # frame rounds at most a few such results per coordinate, so 64
    # (d + 8) units cover them: in the conditioned frame the output
    # factor scales them by |factor|, in the raw (direct) frame by 1.
    # That holds while no underflowed result is then scaled by more than
    # a small constant -- or by a quantity whose own size already puts
    # the first part above it (a row coordinate that also enters A, say).
    # A kernel that would scale one otherwise refuses the query in
    # estimable: ED's contraction scales e^{q~_j} by x~_j while A may be
    # subnormal, so ED refuses a query whose e^{q~} would underflow.
    # Assumed, not checked: no Itakura-Saito or generalized-KL pair has a
    # coordinate ratio x_j / q_j below 2^-1022 (a log of a subnormal
    # quotient loses its relative accuracy), and every diagonal
    # Mahalanobis weight lies in [2^-1022, 8] wherever coordinates or
    # their differences fall below 1e-150 (a weight then scales an
    # underflowed square).
    #
    # Cauchy-Schwarz turns every pair term sum |x~_j| g_j into
    # ||x~|| ||g||, which is how per-pair magnitudes split into a
    # per-row A, a per-query B and H, and the row norm ||x~|| (the index
    # caches A and ||x~|| per row beside point_terms: row_terms).  A
    # divergence with its own expansion states, beside its terms and
    # with the derivation:
    #
    # * point_bound_terms(rows): A per (conditioned) row;
    # * query_bound_terms(queries): (B, H) per (conditioned) query;
    # * estimable(queries): which conditioned queries keep every term and
    #   magnitude finite, and no underflow the floor misses.  The others
    #   get no estimate: every candidate of such a query goes to the
    #   direct kernel;
    # * cacheable(rows): which conditioned rows keep their cached terms
    #   (row_terms) finite.  Build conditions every row it caches; an
    #   extend merge conditions appended rows with the old conditioner,
    #   and re-derives it over all rows when one is not cacheable.
    #
    # The generic expansion below, which ShannonEntropy and
    # PNormDivergence use, takes A = sum|phi(x)|, B = sum(|phi(q)| +
    # |q phi'(q)|) and H = ||phi'(q)||.  Its terms and the direct
    # kernel's are phi(x), phi(q), x phi'(q) and q phi'(q), covered by
    # A, B, ||x|| H and B.  Those magnitudes assume no conditioner (the
    # base class returns none), so there is no conditioner rounding to
    # cover; a subclass that conditions states its own.  They also
    # assume each phi/phi' evaluation is good to a few ulps of the
    # magnitudes it enters.  Shannon's phi'(t) = log t - log1p(-t)
    # cancels near t = 1/2, but its error there is a few ulps of
    # |log t| + |log(1-t)| <= |phi'(t)| + 2|phi(t)|, and since
    # |x_j - q_j| < 1 on the unit interval that lands in ||x|| H + 2B.
    # An underflowed phi'(q_j) (p-norm at a tiny |q_j|) is scaled by
    # x_j: by at most 1 when |x_j| <= 1, and within A = sum |x|^p's
    # share of the first part otherwise.

    def row_terms(self, rows: np.ndarray) -> RowTerms:
        """Everything a base caches per conditioned row: the kernel's
        :meth:`point_terms` and the bound's ``A`` and ``||x~||``."""
        return RowTerms(
            self.point_terms(rows),
            self.point_bound_terms(rows),
            np.sqrt(np.einsum("nj,nj->n", rows, rows)),
        )

    def point_bound_terms(self, points: np.ndarray) -> np.ndarray:
        """The bound's per-row magnitude ``A`` (see the bound contract)."""
        return np.sum(np.abs(self.phi(points)), axis=1)

    def query_bound_terms(
        self, queries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The bound's per-query magnitudes ``(B, H)``."""
        grad_q = self.phi_prime(queries)
        magnitude = np.sum(
            np.abs(self.phi(queries)) + np.abs(queries * grad_q), axis=1
        )
        return magnitude, np.sqrt(np.einsum("bj,bj->b", grad_q, grad_q))

    def estimable(self, queries: np.ndarray) -> np.ndarray:
        """Mask of the conditioned query rows whose expansion and bound
        terms all stay finite (every row, unless a subclass says not)."""
        return np.ones(queries.shape[0], dtype=bool)

    def cacheable(self, rows: np.ndarray) -> np.ndarray:
        """Mask of the conditioned rows whose :meth:`row_terms` all stay
        finite, decided before computing any (every row, unless a
        subclass says not)."""
        return np.ones(rows.shape[0], dtype=bool)

    def point_terms(self, points: np.ndarray) -> KernelTerms:
        """Query-independent per-row terms of the expansion kernel."""
        return (np.sum(self.phi(points), axis=1),)

    def query_terms(self, queries: np.ndarray) -> KernelTerms:
        """The ``(B, d)`` contraction operand, then per-query terms."""
        grad_q = self.phi_prime(queries)
        return (
            grad_q,
            np.einsum("bj,bj->b", grad_q, queries) - np.sum(self.phi(queries), axis=1),
        )

    def combine(
        self,
        point_terms: KernelTerms,
        query_terms: KernelTerms,
        contraction: np.ndarray,
        dimensionality: int,
    ) -> np.ndarray:
        """Raw (unclamped) pair values from aligned terms.

        ``query_terms`` are the per-query terms (the operand already
        went into ``contraction``); every array broadcasts to the
        output's shape, which is ``contraction``'s.  The values are
        computed in place in ``contraction``.
        """
        (fx,) = point_terms
        (qconst,) = query_terms
        values = np.subtract(fx, contraction, out=contraction)
        values += qconst
        return values

    def cross_divergence(
        self,
        points: np.ndarray,
        queries: np.ndarray,
        point_terms: KernelTerms | None = None,
    ) -> np.ndarray:
        """All-pairs ``D_f(x_i, q_b)`` as one matrixised ``(n, B)`` kernel.

        The expansion (see the term contract above) moves all
        transcendental work (``phi``/``phi'``) to per-point and
        per-query terms -- ``O((n + B) d)``, or ``O(B d)`` given
        ``point_terms`` -- leaving a single ``O(n B d)`` sum-of-products
        contraction.  ``point_terms`` must be :meth:`point_terms` of
        these very rows (or a gathered slice of a superset's terms).

        Contract: column ``b`` is *bitwise* identical for any query
        subset -- ``cross_divergence(points, queries)[:, b] ==
        cross_divergence(points, queries[b:b+1])[:, 0]`` -- which is
        what lets the index score single queries and blocked batches
        through one kernel with bit-for-bit agreement.  Values agree
        with :meth:`batch_divergence` to rounding (not bitwise): the
        expansion trades a little conditioning for speed, so tiny
        divergences between large-magnitude near-duplicates can cancel.
        For translation-invariant divergences callers should centre
        ``points``/``queries`` on a common shift first (the index's
        refinement paths do).
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        if point_terms is None:
            point_terms = self.point_terms(points)
        grad_q, *per_query = self.query_terms(queries)
        values = self.combine(
            tuple(term[:, None] for term in point_terms),
            tuple(term[None, :] for term in per_query),
            np.einsum("nj,bj->nb", points, grad_q),
            points.shape[1],
        )
        return np.maximum(values, 0.0)

    def elementwise_divergence(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-coordinate divergence contributions (sums to the total)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        contrib = self.phi(x) - self.phi(y) - self.phi_prime(y) * (x - y)
        return np.maximum(contrib, 0.0)

    def dual_interpolate(self, a: np.ndarray, b: np.ndarray, theta: float) -> np.ndarray:
        """Point on the dual geodesic between ``a`` (theta=1) and ``b``.

        Returns ``(grad f)^-1( theta * grad f(a) + (1 - theta) * grad f(b) )``,
        the curve along which the minimiser of ``D_f(., q)`` over a Bregman
        ball lies (Cayton 2008, Theorem 2).
        """
        ga = self.phi_prime(np.asarray(a, dtype=float))
        gb = self.phi_prime(np.asarray(b, dtype=float))
        return self.gradient_inverse(theta * ga + (1.0 - theta) * gb)

    def restrict(self, dims: Sequence[int]) -> "DecomposableBregmanDivergence":
        """Separable generators restrict to any dimension subset unchanged."""
        return self

    def centroid(self, points: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """Bregman centroid of ``points`` (the arithmetic mean).

        Banerjee et al. (2005): the minimiser of ``sum_i w_i D_f(x_i, c)``
        over ``c`` is the weighted arithmetic mean for *every* Bregman
        divergence, which is what makes Bregman k-means well defined.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(np.average(points, axis=0, weights=weights), dtype=float)
