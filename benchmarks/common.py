"""Workload definitions and helpers shared by the benchmark's processes."""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The CLI's default split: 90/10 with split seed 0.
TRAIN_FRACTION = 0.9
SPLIT_SEED = 0
# A fixed epoch count keeps test_rmse and the trained weights a function of
# the seed alone.  train_epoch_s is timed per SGD step, so one epoch gives
# a hundred or more samples.
EPOCHS = 1
SVD_DIM = 20
# Set-up-only processes stop after this many SGD batches and hash the
# weights, which the full run must match bit for bit.
PREFIX_BATCHES = 2

# Each run does the whole CLI workflow on one data set: set-up, EPOCHS SGD
# epochs, the checkpoint write, then rounds of `cfdae evaluate` and
# predict_many on the model it trained.
WORKLOADS = {
    "ml1m-train": {
        "data": "ml1m", "config": {},
        "why": "paper default on ML-1M shape (items x 6040 users, hidden 600): "
               "a batch knows ~57% of outputs, so sparse kernels should not "
               "pay",
    },
    "sparse-side-train": {
        "data": "sparse", "config": {"orientation": "user",
                                     "side_info": "both"},
        "why": "8000x3000 at 0.33% density with SVD side info: a batch knows "
               "~9% of outputs, the side where sparse kernels pay",
    },
}


def import_cfdae():
    """Import cfdae from this checkout's src/, never from elsewhere."""
    if not (SRC / "cfdae" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: {SRC / 'cfdae'} not found; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import cfdae
    if Path(cfdae.__file__).resolve().parent != (SRC / "cfdae").resolve():
        raise SystemExit(f"benchmark: imported cfdae from {cfdae.__file__}, "
                         f"not from {SRC}")
    return cfdae


def train_config(workload: str):
    """The CLI's defaults (seed 0 included) plus the workload's settings."""
    from cfdae import TrainConfig
    return TrainConfig(epochs=EPOCHS, **WORKLOADS[workload]["config"])


def params_sha256(params) -> str:
    """Digest of the four weight arrays, or "absent" if they moved."""
    digest = hashlib.sha256()
    for name in ("W1", "b1", "W2", "b2"):
        arr = getattr(params, name, None)
        if arr is None:
            return "absent"
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def blas_threads() -> int:
    """The BLAS thread count the benchmark pins: at most 2, at most nproc."""
    return max(1, min(2, os.cpu_count() or 1))


def child_env() -> dict:
    """Environment for the benchmark's processes, with BLAS threads pinned."""
    n = str(blas_threads())
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = n
    return env
