"""RMSE evaluation, rating-count cluster analysis, and sweep harnesses.

A predictor is anything with ``predict_many(users, items) -> ratings``;
both the trained completer and the bias baseline qualify.  Sweeps retrain
from scratch per cell and return one flat row per cell.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import (RatingMatrix, RatingScale, SplitSpec, aligned_query,
                   by_entity, split)
from .preprocess import BiasTable, fit_bias, fit_scaler
from .train import TrainConfig, complete_matrix, train


@dataclass(frozen=True)
class BiasPredictor:
    """Predicts every rating as the entity's training mean, clamped.  Only
    entity indices are range-checked: the table has no counterpart count."""

    bias: BiasTable
    scale: RatingScale

    def predict(self, user: int, item: int) -> float:
        return float(self.predict_many([user], [item])[0])

    def predict_many(self, users, items) -> np.ndarray:
        entities = by_entity(self.bias.orientation,
                             *aligned_query(users, items))
        if entities.size and (entities.min() < 0
                              or entities.max() >= self.bias.means.size):
            raise IndexError("entity index out of range")
        return self.scale.clamp(self.bias.means[entities])


def _squared_errors(predictor, test: RatingMatrix) -> np.ndarray:
    """Squared error of each test entry, from one predict_many pass."""
    if test.n_entries == 0:
        raise ValueError("cannot score an empty test set")
    return (predictor.predict_many(test.users, test.items) - test.ratings) ** 2


def rmse(predictor, test: RatingMatrix) -> float:
    """Root mean squared error over exactly the test entries."""
    return float(np.sqrt(np.mean(_squared_errors(predictor, test))))


@dataclass(frozen=True)
class ClusterStat:
    """One rating-count bucket: label, RMSE (None if empty), entry count."""

    label: str
    rmse: float | None
    n_entries: int


def improvement_pct(base_rmse: float, other_rmse: float) -> float | None:
    """Relative RMSE gain of `other` over `base`, in percent; None for an
    exact base (RMSE 0), over which no gain is defined."""
    if base_rmse < 0:
        raise ValueError("base RMSE must be nonnegative")
    if base_rmse == 0:
        return None
    return 100.0 * (base_rmse - other_rmse) / base_rmse


def summarize_ratio_sweep(rows) -> list[dict]:
    """Collapse per-(ratio, seed) sweep rows into one labeled row per ratio:
    the mean RMSE and a 2-standard-deviation halfwidth over the seeds, a
    rough 95% range that is 0 for a single seed."""
    by_ratio: dict = {}
    for row in rows:
        by_ratio.setdefault(row["ratio"], []).append(row["rmse"])
    out = []
    for ratio in sorted(by_ratio):
        values = np.asarray(by_ratio[ratio], dtype=float)
        stddev = float(values.std(ddof=1)) if values.size > 1 else 0.0
        out.append({"ratio": ratio, "n_seeds": int(values.size),
                    "mean_rmse": float(values.mean()),
                    "plus_minus": 2.0 * stddev,
                    "label": f"mean +/- 2*stddev over {values.size} seeds"})
    return out


@dataclass(frozen=True)
class EvalReport:
    rmse: float
    n_test: int
    per_cluster: tuple[ClusterStat, ...]


def config_digest(cfg: TrainConfig, split_spec: SplitSpec,
                  data_fingerprint: str) -> str:
    """Short stable hash tying a report to its exact configuration."""
    payload = {"config": dataclasses.asdict(cfg),
               "split": [split_spec.train_fraction, split_spec.seed],
               "data": data_fingerprint}
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def build_report(predictor, test: RatingMatrix, train_data: RatingMatrix,
                 by: str = "item", n_clusters: int = 5) -> EvalReport:
    """Test RMSE overall and per bucket of entities sorted by
    training-rating count, from one predict_many pass.

    Entities are ordered by ascending count (ties broken by index) and cut
    into n_clusters near-equal groups, so the first bucket holds the
    least-rated fifth.  Buckets with no test entries report n_entries=0.
    """
    counts = np.diff(train_data.vectors(by)[0])
    if n_clusters < 1:
        raise ValueError("n_clusters must be at least 1")
    err2 = _squared_errors(predictor, test)

    order = np.argsort(counts, kind="stable")
    cluster_of = np.empty(counts.size, dtype=np.int64)
    for c, group in enumerate(np.array_split(order, n_clusters)):
        cluster_of[group] = c

    labels = cluster_of[by_entity(by, test.users, test.items)]
    clusters = []
    for c in range(n_clusters):
        name = f"{100 * c // n_clusters}-{100 * (c + 1) // n_clusters}%"
        inside = labels == c
        n = int(inside.sum())
        value = float(np.sqrt(err2[inside].mean())) if n else None
        clusters.append(ClusterStat(name, value, n))
    return EvalReport(float(np.sqrt(np.mean(err2))), test.n_entries,
                      tuple(clusters))


def _fit_and_score(ratings: RatingMatrix, scale: RatingScale,
                   cfg: TrainConfig, split_spec: SplitSpec, side):
    """Fresh split, fit, and test RMSE for one sweep cell."""
    train_m, test_m = split(ratings, split_spec)
    bias = fit_bias(train_m, cfg.orientation)
    scaler = fit_scaler(scale, bias)
    state = train(train_m, cfg, bias, scaler, side=side)
    completer = complete_matrix(train_m, state, bias, scaler, side)
    return rmse(completer, test_m), train_m.n_entries, test_m.n_entries


def _run_cells(tasks, jobs):
    """Evaluate _fit_and_score over argument tuples, optionally in parallel."""
    if jobs <= 1 or len(tasks) <= 1:
        return [_fit_and_score(*t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_fit_and_score, *zip(*tasks)))


def sweep_training_ratio(ratings: RatingMatrix, scale: RatingScale,
                         ratios, cfg: TrainConfig, seeds,
                         side=None, jobs: int = 1) -> list[dict]:
    """Retrain at several train fractions, one row per (ratio, seed)."""
    cells = [(ratio, seed) for ratio in ratios for seed in seeds]
    tasks = [(ratings, scale, dataclasses.replace(cfg, seed=seed),
              SplitSpec(ratio, seed), side)
             for ratio, seed in cells]
    return [{"ratio": ratio, "seed": seed, "rmse": err, "n_train": n_train,
             "n_test": n_test}
            for (ratio, seed), (err, n_train, n_test)
            in zip(cells, _run_cells(tasks, jobs))]


def sweep_dae(ratings: RatingMatrix, scale: RatingScale, recon_weights,
              mask_ratios, cfg: TrainConfig, split_spec: SplitSpec,
              side=None, jobs: int = 1) -> list[dict]:
    """Grid over reconstruction weight x mask ratio on one fixed split.

    The prediction weight stays at 1.  The (0, 0) cell has no error signal
    at all (nothing corrupted, reconstruction ignored) and is returned as
    invalid without running it.
    """
    if cfg.prediction_weight != 1.0:
        raise ValueError("the grid holds the prediction weight at 1")
    cells = [(rw, mr) for rw in recon_weights for mr in mask_ratios]
    valid = [(rw, mr) for rw, mr in cells if not (rw == 0 and mr == 0)]
    tasks = [(ratings, scale,
              dataclasses.replace(cfg, reconstruction_weight=rw,
                                  mask_ratio=mr),
              split_spec, side)
             for rw, mr in valid]
    results = dict(zip(valid, _run_cells(tasks, jobs)))
    return [{"reconstruction_weight": rw, "mask_ratio": mr,
             "valid": (rw, mr) in results,
             "rmse": results.get((rw, mr), (None,))[0],
             "seed": split_spec.seed}
            for rw, mr in cells]
