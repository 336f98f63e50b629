"""Acceptance gate: one test per criterion, one verdict line each.

Criteria 1-5 are pure property checks and always run.  Criteria 6-10
reproduce published-scale results on MovieLens-1M and are skipped with
download instructions when the dataset is not on disk (see conftest).
Criteria 6, 7, 9 and 10 also have a planted-world twin that always runs, on
ratings drawn from the benchmark's planted low-rank model.
Run `pytest tests/test_acceptance.py -v -s` for the per-criterion lines.
"""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from cfdae import (BiasPredictor, CorruptionMask, LossWeights, RatingMatrix,
                   SparseVector, SplitSpec, TagMatrix, TrainConfig,
                   build_report, build_side_info, complete_matrix, corrupt,
                   decompose, fit_bias, fit_scaler, forward, infer_scale,
                   init_params, inverse_transform, load_ratings, load_tags,
                   loss, loss_gradients, rmse, split, svd_embed,
                   sweep_training_ratio, train, transform)
from conftest import ML1M_HINT, make_synthetic
from test_model import finite_difference_gradients, max_relative_error
from test_train import CountingMatrix

PARAM_FIELDS = ("W1", "b1", "W2", "b2")
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _perturbed_network(rng, n, hidden, p_in, p_hidden, seed):
    params = init_params(n, hidden, p_in, p_hidden, seed=seed)
    params.W1 = params.W1 + rng.normal(scale=0.3, size=params.W1.shape)
    params.W2 = params.W2 + rng.normal(scale=0.3, size=params.W2.shape)
    params.b1 = rng.normal(scale=0.2, size=hidden)
    params.b2 = rng.normal(scale=0.2, size=n)
    return params


def _gradient_case(seed, with_side, with_corruption):
    """One random network/input/mask/weights tuple for the gradient check."""
    rng = np.random.default_rng([seed, int(with_side), int(with_corruption)])
    n = int(rng.integers(4, 10))
    hidden = int(rng.integers(2, 6))
    if with_side:
        p = int(rng.integers(1, 4))
        mode = rng.choice(["input_only", "hidden_only", "both"])
        p_in = p if mode in ("input_only", "both") else 0
        p_hidden = p if mode in ("hidden_only", "both") else 0
        side = rng.uniform(-1, 1, p)
    else:
        p_in = p_hidden = 0
        side = None
    params = _perturbed_network(rng, n, hidden, p_in, p_hidden, seed)

    n_known = int(rng.integers(2, n + 1))
    idx = np.sort(rng.choice(n, n_known, replace=False))
    x = SparseVector(n, idx, rng.uniform(-0.95, 0.95, n_known))
    ratio = 0.5 if with_corruption else 0.0
    x_tilde, mask = corrupt(x, ratio, rng)
    weights = LossWeights(float(rng.choice([0.5, 1.0, 2.0])),
                          float(rng.choice([0.0, 0.5, 1.3])),
                          float(rng.choice([0.0, 0.02])))
    return params, x, x_tilde, mask, weights, side


def test_criterion_01_gradient_check(monkeypatch):
    """Analytic gradients vs central differences, >=100 random setups,
    each with the kernel in one part and, with no work threshold, in two."""
    model = importlib.import_module("cfdae.model")
    worst = 0.0
    n_cases = 0
    n_corrupted = 0
    for seed in range(25):
        for with_side in (False, True):
            for with_corruption in (False, True):
                params, x, x_tilde, mask, weights, side = _gradient_case(
                    seed, with_side, with_corruption)
                if with_corruption:
                    assert mask.indices.size >= 1
                    n_corrupted += 1
                for work in (model._PART_WORK, 0):
                    monkeypatch.setattr(model, "_PART_WORK", work)
                    analytic = loss_gradients(params, x, x_tilde, mask,
                                              weights, side)
                    numeric = finite_difference_gradients(
                        params, x, x_tilde, mask, weights, side)
                    worst = max(worst, max_relative_error(analytic, numeric,
                                                          floor=1e-4))
                n_cases += 1
    assert n_cases >= 100 and n_corrupted == 50
    assert worst < 1e-5
    print(f"criterion 01 gradient check: PASS "
          f"({n_cases} configurations, max relative error {worst:.3e})")


def test_criterion_02_masking_inhibition():
    """Loss/gradients exactly independent of output units never observed."""
    checked = 0
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        hidden = int(rng.integers(2, 6))
        params = _perturbed_network(rng, n, hidden, 0, 0, seed)
        n_known = int(rng.integers(2, n))  # leave at least one unit unknown
        idx = np.sort(rng.choice(n, n_known, replace=False))
        x = SparseVector(n, idx, rng.uniform(-0.95, 0.95, n_known))
        x_tilde, mask = corrupt(x, 0.5, rng)
        weights = LossWeights(1.0, 0.5, 0.0)

        base_loss = loss(params, x, x_tilde, mask, weights)
        base_grads = loss_gradients(params, x, x_tilde, mask, weights)
        outside = np.setdiff1d(np.arange(n), idx)
        j = int(rng.choice(outside))
        params.W2[j, :] += rng.normal(scale=1e3, size=hidden)
        params.b2[j] += 1e3

        assert loss(params, x, x_tilde, mask, weights) == base_loss
        after = loss_gradients(params, x, x_tilde, mask, weights)
        keep = np.setdiff1d(np.arange(n), [j])
        np.testing.assert_array_equal(after.W1, base_grads.W1)
        np.testing.assert_array_equal(after.b1, base_grads.b1)
        np.testing.assert_array_equal(after.W2[keep], base_grads.W2[keep])
        np.testing.assert_array_equal(after.b2[keep], base_grads.b2[keep])
        assert np.all(after.W2[j] == 0.0) and after.b2[j] == 0.0
        checked += 1
    assert checked == 25
    print(f"criterion 02 masking inhibition: PASS "
          f"({checked} perturbed instances, exact equality)")


def test_criterion_03_factorization_equivalence():
    """decompose() rebuilds the forward pass as sigma(V @ u)."""
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        hidden = int(rng.integers(2, 7))
        params = _perturbed_network(rng, n, hidden, 0, 0, seed)
        n_known = int(rng.integers(1, n + 1))
        idx = np.sort(rng.choice(n, n_known, replace=False))
        x = SparseVector(n, idx, rng.uniform(-0.95, 0.95, n_known))
        u, v = decompose(params, x)
        diff = np.abs(np.tanh(v @ u) - forward(params, x)).max()
        worst = max(worst, float(diff))
    assert worst <= 1e-12
    print(f"criterion 03 factorization equivalence: PASS "
          f"(50 instances, max |difference| {worst:.3e})")


def test_criterion_04_preprocessing():
    """Centering/scaling round-trip and the tag embedding gram identity."""
    worst_rt = 0.0
    for seed in range(20):
        ratings, scale = make_synthetic(n_users=12 + seed, n_items=9 + seed,
                                        density=0.4, seed=seed)
        bias = fit_bias(ratings, "item")
        scaler = fit_scaler(scale, bias)
        unit = transform(ratings.ratings, ratings.items, bias, scaler)
        back = inverse_transform(unit, ratings.items, bias, scaler)
        worst_rt = max(worst_rt, float(np.abs(back - ratings.ratings).max()))
        # an entity's own mean must sit exactly at the centered origin
        assert transform(bias.means[3], 3, bias, scaler) == 0.0
    assert worst_rt <= 1e-12

    worst_svd = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        dense = rng.poisson(0.8, size=(20, 15)).astype(float)
        dense[0, 0] += 1  # keep the matrix nonzero
        tags = TagMatrix(sp.csr_matrix(dense),
                         tuple(f"t{j}" for j in range(15)))
        k = 10
        y = svd_embed(tags, k).features
        gram = y.T @ y
        singular = np.linalg.svd(dense, compute_uv=False)[:k]
        rel = np.abs(np.diag(gram) - singular) / singular
        off = np.abs(gram - np.diag(np.diag(gram))).max() / singular[0]
        worst_svd = max(worst_svd, float(rel.max()), float(off))
    assert worst_svd <= 1e-8
    print(f"criterion 04 preprocessing: PASS (round-trip max error "
          f"{worst_rt:.3e}, embedding gram max relative error {worst_svd:.3e})")


def test_criterion_05_evaluation_harness():
    """Scoring oracles, exact splitting, and no test reads in training."""
    for seed in range(20):
        ratings, scale = make_synthetic(n_users=5, n_items=5, density=0.6,
                                        seed=seed)
        predictor = BiasPredictor(fit_bias(ratings, "item"), scale)
        # per-item mean oracle
        for i in range(5):
            idx, vals = ratings.col(i)
            expected = vals.mean() if idx.size else ratings.ratings.mean()
            assert abs(predictor.predict(0, i) -
                       min(max(expected, 1.0), 5.0)) <= 1e-12
        # rmse oracle
        total = sum((predictor.predict(int(u), int(i)) - r) ** 2
                    for u, i, r in zip(ratings.users, ratings.items,
                                       ratings.ratings))
        oracle = math.sqrt(total / ratings.n_entries)
        assert abs(rmse(predictor, ratings) - oracle) <= 1e-12

    ratings, scale = make_synthetic(seed=3)
    triples = sorted(zip(ratings.users, ratings.items, ratings.ratings))
    for fraction in (0.1, 0.5, 0.9):
        for seed in range(3):
            train_m, test_m = split(ratings, SplitSpec(fraction, seed))
            assert train_m.n_entries == round(fraction * ratings.n_entries)
            got = sorted(zip(np.concatenate([train_m.users, test_m.users]),
                             np.concatenate([train_m.items, test_m.items]),
                             np.concatenate([train_m.ratings,
                                             test_m.ratings])))
            assert got == triples

    train_m, test_m = split(ratings, SplitSpec(0.8, 0))
    watched_train = CountingMatrix(train_m)
    watched_test = CountingMatrix(test_m)
    test_users, test_items = test_m.users.copy(), test_m.items.copy()
    cfg = TrainConfig(hidden=8, epochs=2, batch_size=16, seed=0)
    bias = fit_bias(watched_train, cfg.orientation)
    scaler = fit_scaler(scale, bias)
    state = train(watched_train, cfg, bias, scaler)
    completer = complete_matrix(watched_train, state, bias, scaler)
    completer.predict_many(test_users, test_items)
    assert watched_test.reads == 0 and watched_train.reads > 0
    print("criterion 05 evaluation harness: PASS (scoring oracles <=1e-12, "
          "splits partition exactly, zero test-set reads during training)")


# ---------------------------------------------------------- MovieLens-1M

@pytest.fixture(scope="session")
def ml1m_corpus(ml1m):
    """(ratings, scale, genre tag matrix) parsed once per session."""
    ratings, scale, ids = load_ratings(ml1m / "ratings.dat", "movielens_dat")
    movies = ml1m / "movies.dat"
    if not movies.is_file():
        pytest.skip(ML1M_HINT)
    tags = load_tags(movies, "genre_flags", ids, "item")
    return ratings, scale, tags


def _genre_side(tags: TagMatrix):
    """Low-rank embedding of the genre flags plus the raw binary columns."""
    k = min(15, tags.n_tags, tags.n_entities)
    return build_side_info(svd_embed(tags, k), tags.binary())


_RUNS: dict = {}


def _trained_run(corpus, orientation, seed, with_side=False, **overrides):
    """Train once per data set and configuration and cache the scored
    results."""
    key = (corpus[0].fingerprint(), orientation, seed, with_side,
           tuple(sorted(overrides.items())))
    if key not in _RUNS:
        ratings, scale, tags = corpus
        side = _genre_side(tags) if with_side else None
        cfg = TrainConfig(orientation=orientation, seed=seed,
                          side_info="both" if with_side else "none",
                          **overrides)
        train_m, test_m = split(ratings, SplitSpec(0.9, seed))
        bias = fit_bias(train_m, orientation)
        scaler = fit_scaler(scale, bias)
        state = train(train_m, cfg, bias, scaler, side=side)
        completer = complete_matrix(train_m, state, bias, scaler, side)
        report = build_report(completer, test_m, train_m, by=orientation)
        _RUNS[key] = {
            "rmse": report.rmse,
            "baseline": rmse(BiasPredictor(bias, scale), test_m),
            "clusters": [c.rmse for c in report.per_cluster],
        }
    return _RUNS[key]


def test_criterion_06_ml1m_rmse(ml1m_corpus):
    """Default hyperparameters reach the published accuracy band (90/10)."""
    item = _trained_run(ml1m_corpus, "item", 0)
    user = _trained_run(ml1m_corpus, "user", 0)
    assert item["rmse"] <= 0.85
    assert user["rmse"] <= 0.88
    print(f"criterion 06 ml1m rmse: PASS (item-oriented "
          f"{item['rmse']:.4f} <= 0.85, user-oriented "
          f"{user['rmse']:.4f} <= 0.88)")


def test_criterion_07_ml1m_ordering(ml1m_corpus):
    """Item orientation beats user orientation; both beat the bias means."""
    item = _trained_run(ml1m_corpus, "item", 0)
    user = _trained_run(ml1m_corpus, "user", 0)
    assert item["rmse"] < user["rmse"]
    assert item["baseline"] - item["rmse"] >= 0.05
    assert user["baseline"] - user["rmse"] >= 0.05
    print(f"criterion 07 ml1m ordering: PASS (item {item['rmse']:.4f} < "
          f"user {user['rmse']:.4f}; margins over baseline "
          f"{item['baseline'] - item['rmse']:.3f} / "
          f"{user['baseline'] - user['rmse']:.3f})")


def test_criterion_08_ml1m_cold_start(ml1m_corpus):
    """Sparse items score worse, and genre features help them most."""
    seeds = (0, 1, 2)
    plain = [_trained_run(ml1m_corpus, "item", s) for s in seeds]
    sided = [_trained_run(ml1m_corpus, "item", s, with_side=True) for s in seeds]
    assert all(None not in r["clusters"] for r in plain + sided)
    quintiles = np.mean([r["clusters"] for r in plain], axis=0)
    assert np.all(np.diff(quintiles) < 0), quintiles
    gains = [100.0 * (p["clusters"][0] - s["clusters"][0]) / p["clusters"][0]
             for p, s in zip(plain, sided)]
    assert np.mean(gains) > 0, gains
    print(f"criterion 08 ml1m cold start: PASS (mean quintile rmse "
          f"{np.round(quintiles, 4).tolist()} strictly decreasing; "
          f"lowest-quintile gain {np.mean(gains):.2f}% with genre features)")


def test_criterion_09_ml1m_reconstruction_ablation(ml1m_corpus):
    """Dropping the uncorrupted-entry term hurts accuracy."""
    default = _trained_run(ml1m_corpus, "item", 0)
    ablated = _trained_run(ml1m_corpus, "item", 0, reconstruction_weight=0.0)
    assert ablated["rmse"] > default["rmse"]
    print(f"criterion 09 ml1m reconstruction ablation: PASS "
          f"(weight 0 -> {ablated['rmse']:.4f} > default "
          f"{default['rmse']:.4f})")


def test_criterion_10_ml1m_training_ratio(ml1m_corpus):
    """More training data never hurts on a 20% subsample."""
    ratings, scale, _tags = ml1m_corpus
    subsample, _rest = split(ratings, SplitSpec(0.2, 0))
    rows = sweep_training_ratio(subsample, scale, [0.1, 0.5, 0.9],
                                TrainConfig(), seeds=[0])
    by_ratio = {row["ratio"]: row["rmse"] for row in rows}
    assert by_ratio[0.9] <= by_ratio[0.5] <= by_ratio[0.1]
    print(f"criterion 10 ml1m training ratio: PASS (rmse "
          f"{by_ratio[0.9]:.4f} @0.9 <= {by_ratio[0.5]:.4f} @0.5 <= "
          f"{by_ratio[0.1]:.4f} @0.1)")


# --------------------------------------------------------- planted world

# The world, sample, split and bounds of the twin were fixed before its
# first run; changing them to make a criterion pass defeats the check.
PLANTED_CONFIG = {"hidden": 200, "epochs": 10}


@pytest.fixture(scope="module")
def planted_world():
    """The benchmark generator, the one copy of the planted rank-5 model,
    and its world of 2000 users and 1000 items."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARKS))
        gen = importlib.import_module("gen")
    return gen, gen.make_world(n_users=2000, n_items=1000, user_zipf=0.8,
                               item_zipf=0.8, user_offset=30.0,
                               item_offset=30.0)


@pytest.fixture(scope="module")
def planted_corpus(planted_world):
    """2000 x 1000 ratings with 150k entries drawn from the planted world."""
    gen, world = planted_world
    rng = np.random.default_rng(0)
    users, items = gen.sample_pairs(rng, world, 150_000, 20)
    ratings = gen.planted_ratings(rng, world, users, items)
    return (RatingMatrix(2000, 1000, users, items, ratings),
            infer_scale(ratings), None)


def _oracle_rmse(world, test_m) -> float:
    """RMSE of the noise-free oracle clip(3.6 + u.v + user_bias +
    item_bias, 1, 5) on test_m: gen.planted_ratings without its noise and
    rounding, so no model of the ratings can be expected to beat it."""
    u, i = test_m.users, test_m.items
    score = (np.einsum("ij,ij->i", world["u"][u], world["v"][i])
             + world["user_bias"][u] + world["item_bias"][i])
    pred = np.clip(3.6 + score, 1.0, 5.0)
    return math.sqrt(np.mean((pred - test_m.ratings) ** 2))


def test_criterion_06_planted_twin(planted_corpus, planted_world):
    """Training beats each orientation's bias means by at least 0.2, and
    the item-oriented model comes within 0.25 of the noise-free oracle on
    the same test half."""
    item = _trained_run(planted_corpus, "item", 0, **PLANTED_CONFIG)
    user = _trained_run(planted_corpus, "user", 0, **PLANTED_CONFIG)
    _train_m, test_m = split(planted_corpus[0], SplitSpec(0.9, 0))
    gap = item["rmse"] - _oracle_rmse(planted_world[1], test_m)
    assert item["baseline"] - item["rmse"] >= 0.2
    assert user["baseline"] - user["rmse"] >= 0.2
    assert gap <= 0.25
    print(f"criterion 06 planted twin: PASS (item-oriented "
          f"{item['rmse']:.4f} vs bias {item['baseline']:.4f}, "
          f"user-oriented {user['rmse']:.4f} vs bias "
          f"{user['baseline']:.4f}; margins >= 0.2; item-oriented minus "
          f"noise-free oracle {gap:.4f} <= 0.25)")


def test_criterion_07_planted_twin(planted_corpus):
    """Item orientation beats user orientation on the planted world."""
    item = _trained_run(planted_corpus, "item", 0, **PLANTED_CONFIG)
    user = _trained_run(planted_corpus, "user", 0, **PLANTED_CONFIG)
    assert item["rmse"] < user["rmse"]
    print(f"criterion 07 planted twin: PASS (item {item['rmse']:.4f} < "
          f"user {user['rmse']:.4f})")


def test_criterion_09_planted_twin(planted_corpus):
    """Dropping the uncorrupted-entry term hurts accuracy at seeds 0-2, each
    seeding both the config and the split."""
    seeds = (0, 1, 2)
    default = [_trained_run(planted_corpus, "item", s, **PLANTED_CONFIG)
               for s in seeds]
    ablated = [_trained_run(planted_corpus, "item", s,
                            reconstruction_weight=0.0, **PLANTED_CONFIG)
               for s in seeds]
    gaps = [a["rmse"] - d["rmse"] for a, d in zip(ablated, default)]
    assert all(gap > 0 for gap in gaps), gaps
    print(f"criterion 09 planted twin: PASS (weight 0 minus default rmse "
          f"{', '.join(f'{g:+.4f}' for g in gaps)} at seeds 0, 1, 2)")


def test_criterion_10_planted_twin(planted_corpus):
    """More training data never hurts on the planted world."""
    ratings, scale, _tags = planted_corpus
    rows = sweep_training_ratio(ratings, scale, [0.1, 0.5, 0.9],
                                TrainConfig(**PLANTED_CONFIG), seeds=[0])
    by_ratio = {row["ratio"]: row["rmse"] for row in rows}
    assert by_ratio[0.9] <= by_ratio[0.5] <= by_ratio[0.1]
    print(f"criterion 10 planted twin: PASS (rmse {by_ratio[0.9]:.4f} @0.9 "
          f"<= {by_ratio[0.5]:.4f} @0.5 <= {by_ratio[0.1]:.4f} @0.1)")
