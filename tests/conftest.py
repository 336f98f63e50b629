"""Shared fixtures: toy matrices, synthetic data, and dataset discovery.

The MovieLens-1M tests need the real dataset on disk.  Point the
CFDAE_ML1M environment variable at the extracted `ml-1m` directory
(the one containing ratings.dat and movies.dat), or place it under
./data/ml-1m; the dependent tests skip with instructions otherwise.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from cfdae import RatingMatrix, RatingScale

ML1M_HINT = ("MovieLens-1M not found; download ml-1m.zip from "
             "https://grouplens.org/datasets/movielens/1m/, extract it, and "
             "either set CFDAE_ML1M=/path/to/ml-1m or place it at "
             "<repo>/data/ml-1m")


def ml1m_dir() -> Path | None:
    candidates = []
    env = os.environ.get("CFDAE_ML1M")
    if env:
        candidates.append(Path(env))
    here = Path(__file__).resolve().parent.parent
    candidates += [here / "data" / "ml-1m", Path.home() / "data" / "ml-1m"]
    for path in candidates:
        if (path / "ratings.dat").is_file():
            return path
    return None


@pytest.fixture(scope="session")
def ml1m() -> Path:
    path = ml1m_dir()
    if path is None:
        pytest.skip(ML1M_HINT)
    return path


def make_synthetic(n_users=40, n_items=30, density=0.3, seed=0, rank=3):
    """Low-rank ratings rounded onto a 1..5 scale, plus the scale."""
    rng = np.random.default_rng(seed)
    left = rng.normal(size=(n_users, rank))
    right = rng.normal(size=(n_items, rank))
    full = left @ right.T
    full = 3.0 + 1.2 * (full - full.mean()) / full.std()
    mask = rng.random((n_users, n_items)) < density
    users, items = np.nonzero(mask)
    values = np.clip(np.round(full[users, items]), 1.0, 5.0)
    return (RatingMatrix(n_users, n_items, users, items, values),
            RatingScale(1.0, 5.0, True, 1.0))


@pytest.fixture
def synthetic():
    return make_synthetic()


@pytest.fixture
def sparse_synthetic():
    """So sparse that training batches and the completer's 256-entity
    blocks know few enough coordinates to run on those alone."""
    return make_synthetic(n_users=1000, n_items=800, density=0.002)


@pytest.fixture
def toy_ratings():
    """4 users x 5 items, hand-enumerable."""
    users = [0, 0, 0, 1, 1, 2, 2, 2, 3]
    items = [0, 1, 3, 0, 2, 1, 3, 4, 0]
    values = [4.0, 3.0, 5.0, 2.0, 4.0, 1.0, 3.0, 2.0, 5.0]
    return RatingMatrix(4, 5, users, items, values)
