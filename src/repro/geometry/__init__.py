"""Geometric primitives: Cauchy bounds, Bregman balls, dual projections."""

from .ball import BregmanBall
from .bounds import (
    PointTuple,
    QueryTriple,
    QueryTripleBatch,
    batch_upper_bounds,
    compute_upper_bound,
    cross_term,
    transform_point,
    transform_points,
    transform_queries,
    transform_query,
)
from .projection import (
    BallTerms,
    BatchRangeProber,
    ball_intersects_range,
    batch_ball_intersects_range,
    min_divergence_to_ball,
    project_to_ball,
)

__all__ = [
    "BregmanBall",
    "PointTuple",
    "QueryTriple",
    "QueryTripleBatch",
    "transform_point",
    "transform_points",
    "transform_query",
    "transform_queries",
    "compute_upper_bound",
    "batch_upper_bounds",
    "cross_term",
    "min_divergence_to_ball",
    "ball_intersects_range",
    "batch_ball_intersects_range",
    "BallTerms",
    "BatchRangeProber",
    "project_to_ball",
]
