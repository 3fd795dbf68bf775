"""repro: a full reproduction of *BrePartition: Optimized High-Dimensional
kNN Search with Bregman Distances* (Song, Gu, Zhang, Yu; ICDE 2023 /
arXiv:2006.00227).

Quickstart::

    import numpy as np
    from repro import BrePartitionIndex, ItakuraSaito

    points = np.abs(np.random.default_rng(0).normal(1.0, 0.2, (2000, 64)))
    index = BrePartitionIndex(ItakuraSaito()).build(points)
    result = index.search(points[0], k=10)
    print(result.ids, result.divergences, result.stats.pages_read)

Subpackages
-----------
``divergences``  Bregman divergence family (SED, ISD, ED, KL, ...).
``geometry``     Cauchy bounds, Bregman balls, dual projections.
``partitioning`` Contiguous & PCCP strategies, Theorem-4 optimiser.
``clustering``   Bregman k-means.
``storage``      Simulated disk, I/O accounting, buffer pool.
``bbtree``       BB-trees and the BB-forest.
``core``         The BrePartition index and its approximate extension.
``pipeline``     The staged Plan/Fetch/Refine/Rerank search engine.
``exec``         Thread-pool shard fan-out, failover and circuit breakers.
``serve``        Asyncio micro-batching serving layer.
``vafile``       The "VAF" baseline.
``baselines``    Linear scan, disk BBT, and "Var".
``datasets``     Paper synthetics and laptop-scale proxies.
``eval``         Metrics and the experiment harness.
"""

from .baselines import BBTreeIndex, LinearScanIndex, VarBBTreeIndex, brute_force_knn
from .core import (
    ApproximateBrePartitionIndex,
    BatchSearchResult,
    BrePartitionConfig,
    BrePartitionIndex,
    SearchResult,
)
from .divergences import (
    BregmanDivergence,
    DecomposableBregmanDivergence,
    DiagonalMahalanobis,
    ExponentialDistance,
    GeneralizedKL,
    ItakuraSaito,
    MahalanobisDivergence,
    PNormDivergence,
    ShannonEntropy,
    SimplexKL,
    SquaredEuclidean,
    get_divergence,
)
from .exceptions import (
    DomainError,
    InvalidParameterError,
    NotDecomposableError,
    NotFittedError,
    ReproError,
    ServerOverloadedError,
    StorageError,
)
from .vafile import VAFileIndex

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "BrePartitionIndex",
    "ApproximateBrePartitionIndex",
    "BrePartitionConfig",
    "SearchResult",
    "BatchSearchResult",
    # divergences
    "BregmanDivergence",
    "DecomposableBregmanDivergence",
    "SquaredEuclidean",
    "DiagonalMahalanobis",
    "MahalanobisDivergence",
    "ItakuraSaito",
    "ExponentialDistance",
    "GeneralizedKL",
    "SimplexKL",
    "ShannonEntropy",
    "PNormDivergence",
    "get_divergence",
    # baselines
    "VAFileIndex",
    "BBTreeIndex",
    "LinearScanIndex",
    "VarBBTreeIndex",
    "brute_force_knn",
    # errors
    "ReproError",
    "DomainError",
    "NotDecomposableError",
    "NotFittedError",
    "InvalidParameterError",
    "StorageError",
    "ServerOverloadedError",
]
