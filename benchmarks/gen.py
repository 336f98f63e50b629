"""Deterministic synthetic inputs for the benchmark workloads.

Run as its own process, before the measured one, so that generation cost
and memory never show in the measured figures:

    python3 benchmarks/gen.py --workload ml1m-train --seed 3 --out DIR

It writes an ingested snapshot directory (``DIR/data/ratings.npz``, plus
``tags.npz`` for side information) and ``DIR/inputs.json`` with the input
properties the workload depends on.  The same seed gives the same files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import common

# Shapes of the data sets.  Item popularity and user activity are
# Zipf-distributed; ratings come from a planted rank-5 model plus noise on
# the 1..5 grid.
SHAPES = {
    "ml1m": dict(n_users=6040, n_items=3706, n_ratings=1_000_209,
                 min_per_user=20, user_zipf=1.0, item_zipf=0.9,
                 user_offset=50.0, item_offset=60.0),
    "sparse": dict(n_users=8000, n_items=3000, n_ratings=80_000,
                   min_per_user=2, user_zipf=0.8, item_zipf=0.8,
                   user_offset=30.0, item_offset=30.0),
}
RANK = 5
NOISE_SD = 0.5
N_TAGS = 1000
N_GROUPS = 40
TAGS_PER_USER = 6
# The planted model, popularity ranks and tag groups (the "world") are the
# same for every seed; the seed draws the ratings, split and tags from it.
# Over seeds the test RMSE then varies with the sample, not with the world.
WORLD_SEED = 1606_07659


def zipf_weights(n: int, exponent: float, offset: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Shuffled probabilities proportional to (rank + offset)^-exponent."""
    w = (np.arange(n) + offset) ** -exponent
    return rng.permutation(w / w.sum())


def make_world(n_users: int, n_items: int, user_zipf: float,
               item_zipf: float, user_offset: float, item_offset: float,
               **_sample) -> dict:
    rng = np.random.default_rng(WORLD_SEED)
    return {
        "p_user": zipf_weights(n_users, user_zipf, user_offset, rng),
        "p_item": zipf_weights(n_items, item_zipf, item_offset, rng),
        "u": rng.standard_normal((n_users, RANK)) / np.sqrt(RANK),
        "v": rng.standard_normal((n_items, RANK)),
        "user_bias": 0.3 * rng.standard_normal(n_users),
        "item_bias": 0.5 * rng.standard_normal(n_items),
        "group": rng.integers(N_GROUPS, size=n_users),
    }


def sample_pairs(rng: np.random.Generator, world: dict, n_ratings: int,
                 min_per_user: int):
    """Distinct (user, item) pairs: Zipf activity with a per-user floor."""
    p_user, p_item = world["p_user"], world["p_item"]
    n_users, n_items = p_user.size, p_item.size
    # No user rates more than 60% of the items; their excess goes to the rest.
    cap = int(0.6 * n_items)
    counts = np.full(n_users, min_per_user)
    while (short := n_ratings - counts.sum()) > 0:
        room = np.where(counts < cap, p_user, 0.0)
        counts = np.minimum(counts + rng.multinomial(short, room / room.sum()),
                            cap)
    users = np.repeat(np.arange(n_users), counts)
    items = rng.choice(n_items, size=users.size, p=p_item)
    # Redraw the items of repeated pairs until every pair is distinct.
    for _ in range(100):
        key = users * n_items + items
        _, first = np.unique(key, return_index=True)
        dup = np.ones(key.size, dtype=bool)
        dup[first] = False
        if not dup.any():
            break
        items[dup] = rng.choice(n_items, size=int(dup.sum()), p=p_item)
    else:
        raise RuntimeError("could not draw distinct pairs")
    return users, items


def planted_ratings(rng: np.random.Generator, world: dict, users,
                    items) -> np.ndarray:
    """Rank-5 scores plus biases and noise, mapped onto the 1..5 grid."""
    score = (np.einsum("ij,ij->i", world["u"][users], world["v"][items])
             + world["user_bias"][users] + world["item_bias"][items]
             + NOISE_SD * rng.standard_normal(users.size))
    return np.clip(np.round(3.6 + score), 1.0, 5.0)


def user_tags(rng: np.random.Generator, group: np.ndarray):
    """Tag counts that follow a latent user group, so the SVD has signal."""
    from cfdae import TagMatrix

    rows = np.repeat(np.arange(group.size), TAGS_PER_USER)
    own = rng.random(rows.size) < 0.7
    # Group g favours tags g*25 .. g*25+24; the rest are drawn uniformly.
    favoured = group[rows] * (N_TAGS // N_GROUPS) + rng.integers(
        N_TAGS // N_GROUPS, size=rows.size)
    cols = np.where(own, favoured, rng.integers(N_TAGS, size=rows.size))
    counts = sp.coo_matrix((np.ones(rows.size), (rows, cols)),
                           shape=(group.size, N_TAGS)).tocsr()
    return TagMatrix(counts, tuple(f"t{k}" for k in range(N_TAGS)))


def batch_shares(train_m, orientation: str, batch_size: int,
                 rng: np.random.Generator) -> dict:
    """Known-share and union-share of one epoch of random batches.

    known-share is the mean share of a batch's m x n cells that are known;
    union-share is the mean share of the n outputs that at least one
    sample in the batch knows.
    """
    by_user = orientation == "user"
    n = train_m.n_items if by_user else train_m.n_users
    entity = train_m.users if by_user else train_m.items
    other = train_m.items if by_user else train_m.users
    counts = np.bincount(entity, minlength=train_m.n_users if by_user
                         else train_m.n_items)
    pool = rng.permutation(np.flatnonzero(counts))
    order = np.argsort(entity, kind="stable")
    ptr = np.concatenate([[0], np.cumsum(counts)])
    known, union = [], []
    for lo in range(0, pool.size, batch_size):
        sel = pool[lo:lo + batch_size]
        cols = np.concatenate([other[order[ptr[e]:ptr[e + 1]]] for e in sel])
        known.append(cols.size / (sel.size * n))
        union.append(np.unique(cols).size / n)
    return {"batches": len(known), "batch_known_share": float(np.mean(known)),
            "batch_union_share": float(np.mean(union))}


def generate(workload: str, seed: int, out: Path) -> dict:
    from cfdae import (IdMaps, RatingMatrix, SplitSpec, infer_scale,
                       save_snapshot, save_tag_snapshot, split)

    spec = common.WORKLOADS[workload]
    shape = SHAPES[spec["data"]]
    world = make_world(**shape)
    rng = np.random.default_rng(seed)
    users, items = sample_pairs(rng, world, shape["n_ratings"],
                                shape["min_per_user"])
    ratings = planted_ratings(rng, world, users, items)
    matrix = RatingMatrix(shape["n_users"], shape["n_items"], users, items,
                          ratings)
    scale = infer_scale(ratings)
    ids = IdMaps(tuple(f"u{k}" for k in range(matrix.n_users)),
                 tuple(f"i{k}" for k in range(matrix.n_items)))
    data_dir = out / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    save_snapshot(data_dir / "ratings.npz", matrix, scale, ids)

    cfg = common.train_config(workload)
    if cfg.side_info != "none":
        save_tag_snapshot(data_dir / "tags.npz",
                          user_tags(rng, world["group"]), entity="user")

    train_m, test_m = split(matrix, SplitSpec(common.TRAIN_FRACTION,
                                              common.SPLIT_SEED))
    per_entity = (matrix.row_counts() if cfg.orientation == "user"
                  else matrix.col_counts())
    props = {
        "n_users": matrix.n_users, "n_items": matrix.n_items,
        "n_ratings": matrix.n_entries, "n_test": test_m.n_entries,
        "density": matrix.density,
        "orientation": cfg.orientation,
        "median_ratings_per_user": float(np.median(matrix.row_counts())),
        "median_ratings_per_item": float(np.median(matrix.col_counts())),
        "median_ratings_per_entity": float(np.median(per_entity)),
        "rating_mean": float(ratings.mean()),
    }
    props.update(batch_shares(train_m, cfg.orientation, cfg.batch_size, rng))
    with open(out / "inputs.json", "w", encoding="utf-8") as fh:
        json.dump(props, fh, indent=2)
    return props


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(common.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    common.import_cfdae()
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
