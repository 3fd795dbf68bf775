"""Shared fixtures: small datasets valid for every divergence domain."""

from __future__ import annotations

import numpy as np
import pytest

from repro.divergences import (
    DiagonalMahalanobis,
    ExponentialDistance,
    GeneralizedKL,
    ItakuraSaito,
    PNormDivergence,
    ShannonEntropy,
    SquaredEuclidean,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_points(divergence_name: str, n: int, d: int, seed: int = 0) -> np.ndarray:
    """Points valid for the named divergence's domain."""
    gen = np.random.default_rng(seed)
    if divergence_name in ("itakura_saito", "generalized_kl"):
        return np.exp(gen.normal(0.0, 0.5, size=(n, d)))
    if divergence_name == "shannon_entropy":
        return gen.uniform(0.05, 0.95, size=(n, d))
    # real-valued domains, kept small for the exponential distance
    return gen.normal(0.0, 0.8, size=(n, d))


def all_decomposable_divergences(d: int):
    """(name, instance) pairs of every decomposable divergence."""
    gen = np.random.default_rng(7)
    return [
        ("squared_euclidean", SquaredEuclidean()),
        ("diagonal_mahalanobis", DiagonalMahalanobis(gen.uniform(0.5, 2.0, d))),
        ("itakura_saito", ItakuraSaito()),
        ("exponential", ExponentialDistance()),
        ("generalized_kl", GeneralizedKL()),
        ("shannon_entropy", ShannonEntropy()),
        ("p_norm", PNormDivergence(p=3.0)),
    ]


def points_for(divergence, n: int, d: int, seed: int = 0) -> np.ndarray:
    """Points valid for a divergence instance."""
    name = divergence.name
    if name == "diagonal_mahalanobis":
        name = "squared_euclidean"
    if name == "p_norm":
        name = "squared_euclidean"
    return make_points(name, n, d, seed)


@pytest.fixture(params=[item[0] for item in all_decomposable_divergences(8)])
def decomposable(request):
    """Parametrised fixture yielding every decomposable divergence (d=8)."""
    mapping = dict(all_decomposable_divergences(8))
    return mapping[request.param]


def charge_groups(store, id_groups, scope=None) -> int:
    """Charge candidate groups on a ``ShardedDataStore`` the way the
    Fetch stage charges a batch: route each group with ``shard_split``
    and charge each shard's slice on its primary replica.  Returns the
    distinct page count."""
    plan = [[] for _ in range(store.n_shards)]
    for ids in id_groups:
        for s, (_, local) in enumerate(store.shard_split(ids)):
            plan[s].append(local)
    return sum(
        store.charge_shard_replica(s, 0, plan[s], scope=scope)
        for s in range(store.n_shards)
    )
