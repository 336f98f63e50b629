"""Rating normalization and side-information feature tables.

Ratings are centered per entity (per user or per item, matching the
training orientation), mapped affinely into [-1, 1] to fit the tanh output
range, and both steps are inverted at prediction time.  Side information
is a dense per-entity feature table: a truncated-SVD embedding of sparse
tag counts, binary attribute columns, or their concatenation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .data import RatingMatrix, RatingScale, TagMatrix, by_entity

log = logging.getLogger(__name__)

# Below this size (or when asking for nearly all components) a dense SVD
# is cheaper and more robust than an iterative solver.
_DENSE_SVD_LIMIT = 400


@dataclass(frozen=True)
class BiasTable:
    """Per-entity training means with a global-mean fallback."""

    orientation: str  # "user" or "item"
    means: np.ndarray
    global_mean: float

    def __post_init__(self):
        by_entity(self.orientation)


@dataclass(frozen=True)
class Scaler:
    """Invertible affine map from [centered_low, centered_high] onto [-1, 1]."""

    scale: RatingScale
    centered_low: float
    centered_high: float

    def __post_init__(self):
        if not (np.isfinite(self.centered_low) and np.isfinite(self.centered_high)):
            raise ValueError("scaler bounds must be finite")
        if not self.centered_low < self.centered_high:
            raise ValueError("centered_low must be strictly below centered_high")

    def to_unit(self, centered):
        span = self.centered_high - self.centered_low
        return 2.0 * (np.asarray(centered, dtype=np.float64) - self.centered_low) / span - 1.0

    def from_unit(self, unit):
        span = self.centered_high - self.centered_low
        return (np.asarray(unit, dtype=np.float64) + 1.0) * 0.5 * span + self.centered_low


def fit_bias(train: RatingMatrix, orientation: str) -> BiasTable:
    """Per-entity mean ratings over the training entries.

    Entities with no training ratings get the global training mean.
    """
    if train.n_entries == 0:
        raise ValueError("cannot fit biases on an empty training matrix")
    ptr, _, ratings = train.vectors(orientation)
    n = ptr.size - 1
    counts = np.diff(ptr)
    sums = np.bincount(np.repeat(np.arange(n), counts), weights=ratings,
                       minlength=n)
    global_mean = float(train.ratings.mean())
    means = np.full(n, global_mean)
    seen = counts > 0
    means[seen] = sums[seen] / counts[seen]
    means.setflags(write=False)
    return BiasTable(orientation, means, global_mean)


def fit_scaler(scale: RatingScale, bias: BiasTable) -> Scaler:
    """Choose a symmetric centered range wide enough for every training value.

    After centering, values lie in [min_rating - max(means), max_rating -
    min(means)]; the half-width is the larger end of that interval so the
    map fixes zero (an entity's own mean always transforms to 0.0).
    """
    half = max(scale.max_rating - float(bias.means.min()),
               float(bias.means.max()) - scale.min_rating)
    return Scaler(scale, -half, half)


def transform(r, entity, bias: BiasTable, scaler: Scaler):
    """Center by the entity mean and rescale into [-1, 1]."""
    r = np.asarray(r, dtype=np.float64)
    if not np.all(np.isfinite(r)):
        raise ValueError("cannot transform non-finite ratings")
    out = scaler.to_unit(r - bias.means[entity])
    return out if out.ndim else float(out)


def inverse_transform(y, entity, bias: BiasTable, scaler: Scaler):
    """Undo transform and clamp the result to the rating scale."""
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(y)):
        raise ValueError("cannot invert non-finite values")
    out = scaler.scale.clamp(scaler.from_unit(y) + bias.means[entity])
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class SideInfoTable:
    """Dense per-entity feature rows: SVD columns first, then binary flags."""

    features: np.ndarray

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)

    @property
    def n_entities(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def svd_embed(tags: TagMatrix, k_prime: int) -> SideInfoTable:
    """Embed tag counts as the left singular vectors scaled by sqrt(singular value).

    With T = P diag(s) Q^T and s sorted in descending order, the embedding
    is Y = P[:, :k'] diag(sqrt(s[:k'])), so Y^T Y = diag(s[:k']).  Columns
    beyond the numerical rank are zero (with a warning).  Column signs are
    fixed so each P column's largest-magnitude entry is positive.
    """
    n, m = tags.counts.shape
    limit = min(n, m)
    if n == 0 or m == 0:
        raise ValueError("cannot embed an empty tag matrix")
    if not 1 <= k_prime <= limit:
        raise ValueError(f"k_prime must be in [1, {limit}]")

    if tags.counts.nnz == 0:
        return SideInfoTable(np.zeros((n, k_prime)))

    counts = tags.counts.astype(np.float64)
    if limit <= _DENSE_SVD_LIMIT or k_prime >= limit - 1:
        p_full, s_full, _ = np.linalg.svd(counts.toarray(), full_matrices=False)
        p, s = p_full[:, :k_prime], s_full[:k_prime]
    else:
        # a fixed start vector, so ARPACK's result is reproducible
        v0 = np.random.default_rng(0).standard_normal(limit)
        u, s_asc, _ = spla.svds(counts, k=k_prime, v0=v0)
        desc = np.argsort(s_asc)[::-1]
        p, s = u[:, desc], s_asc[desc]

    # deterministic sign: largest-magnitude entry of each column positive
    flip = p[np.argmax(np.abs(p), axis=0), np.arange(p.shape[1])] < 0
    p = p * np.where(flip, -1.0, 1.0)

    tol = s.max() * max(n, m) * np.finfo(np.float64).eps
    effective = int(np.count_nonzero(s > tol))
    if effective < k_prime:
        log.warning("requested %d components but the tag matrix has rank %d; "
                    "padding with zero columns", k_prime, effective)
    y = p * np.sqrt(np.maximum(s, 0.0))
    y[:, effective:] = 0.0
    return SideInfoTable(y)


def build_side_info(svd_part: SideInfoTable | None,
                    binary_part: TagMatrix | None) -> SideInfoTable:
    """Concatenate the SVD embedding with binary attribute columns."""
    blocks = [] if svd_part is None else [svd_part.features]
    if binary_part is not None and binary_part.n_tags > 0:
        dense = binary_part.toarray()
        if blocks and dense.shape[0] != svd_part.n_entities:
            raise ValueError(f"entity counts differ: {svd_part.n_entities} "
                             f"vs {dense.shape[0]}")
        blocks.append(dense)
    if not blocks:
        raise ValueError("side information is empty")
    return SideInfoTable(np.hstack(blocks))
