"""Seeded inputs for the benchmark workloads.

The benchmark generates its own points and queries, so the program under
test receives only arrays and a later change to the library's dataset
helpers cannot move the inputs.  The recipe follows the structure of
multimedia feature vectors that BrePartition exploits:

* a heavy-tailed per-vector energy level (what makes the per-point
  Cauchy summaries discriminative);
* latent cluster factors shared by groups of consecutive dimensions
  (the correlation PCCP spreads and the clusters BB-trees find);
* small independent per-dimension noise.

Three shapes stand in for the paper's datasets (Table 4): ``fonts``
(d=400, positive, Itakura-Saito), ``sift`` (d=128, exponential
distance) and ``audio`` (d=192, exponential distance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Inputs", "SHAPES", "make_inputs"]


@dataclass(frozen=True)
class Shape:
    """Generator parameters of one dataset shape."""

    d: int
    n_clusters: int
    group_size: int
    energy_sigma: float
    pattern_scale: float
    noise: float
    positive: bool
    scale: float
    #: simulated page size of the paper's setting for this dataset.
    page_size_bytes: int


SHAPES = {
    "fonts": Shape(400, 20, 16, 0.9, 0.45, 0.25, True, 1.0, 128 * 1024),
    "sift": Shape(128, 30, 8, 1.0, 0.4, 0.3, False, 0.8, 64 * 1024),
    "audio": Shape(192, 15, 12, 0.8, 0.5, 0.2, False, 1.0, 32 * 1024),
}


@dataclass(frozen=True)
class Inputs:
    """Indexed points, held-out queries and a held-out pool to insert."""

    points: np.ndarray
    queries: np.ndarray
    pool: np.ndarray
    page_size_bytes: int


def _matrix(shape: Shape, rows: int, rng: np.random.Generator) -> np.ndarray:
    n_groups = -(-shape.d // shape.group_size)
    centers = rng.normal(0.0, 1.0, size=(shape.n_clusters, n_groups))
    labels = rng.integers(shape.n_clusters, size=rows)
    latent = centers[labels] + 0.3 * rng.normal(0.0, 1.0, size=(rows, n_groups))
    energy = rng.normal(0.0, shape.energy_sigma, size=(rows, 1))
    group_of = np.minimum(np.arange(shape.d) // shape.group_size, n_groups - 1)
    logs = (
        energy
        + shape.pattern_scale * latent[:, group_of]
        + shape.noise * rng.normal(0.0, 1.0, size=(rows, shape.d))
    )
    return shape.scale * (np.exp(logs) if shape.positive else logs)


def make_inputs(
    shape_name: str, n: int, n_queries: int, n_pool: int, seed: int
) -> Inputs:
    """Draw ``n + n_queries + n_pool`` rows and split them at random.

    The same ``(shape_name, sizes, seed)`` always gives the same arrays.
    """
    shape = SHAPES[shape_name]
    rng = np.random.default_rng(seed)
    rows = _matrix(shape, n + n_queries + n_pool, rng)
    order = rng.permutation(rows.shape[0])
    rows = rows[order]
    return Inputs(
        points=np.ascontiguousarray(rows[:n]),
        queries=np.ascontiguousarray(rows[n : n + n_queries]),
        pool=np.ascontiguousarray(rows[n + n_queries :]),
        page_size_bytes=shape.page_size_bytes,
    )
