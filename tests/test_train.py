"""SGD loop, completer predictions, checkpoints, loss curve output."""

import csv
import dataclasses
import importlib
import math
import os
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc
import zipfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from cfdae import (BiasPredictor, BiasTable, CorruptionMask, DataError,
                   IdMaps, LossWeights, RatingMatrix, RatingScale,
                   SideInfoTable, SparseVector, SplitSpec, TagMatrix,
                   TrainConfig, TrainState, TrainingDiverged,
                   build_side_info, complete_matrix, fit_bias, fit_scaler,
                   forward, init_params, inverse_transform, learning_rate,
                   load_checkpoint, load_snapshot, loss, save_checkpoint,
                   save_snapshot, split, svd_embed, train, transform)
from cfdae import cli
from cfdae.model import batch_loss_gradients, corrupted_batch
from cfdae.train import SIDE_MODES, EpochRecord, MatrixCompleter

# cfdae re-exports the function train(), which hides the submodule attribute
train_module = importlib.import_module("cfdae.train")

PARAM_FIELDS = ("W1", "b1", "W2", "b2")
SPLIT = SplitSpec(0.9, 0)  # what a checkpoint records of the data


def small_config(**overrides):
    """Fast settings for the synthetic fixtures; defaults stay untouched."""
    base = dict(hidden=8, epochs=3, batch_size=8, seed=1)
    base.update(overrides)
    return TrainConfig(**base)


def fitted(ratings, scale, cfg):
    bias = fit_bias(ratings, cfg.orientation)
    return bias, fit_scaler(scale, bias)


class CountingMatrix(RatingMatrix):
    """Counts every per-entity read so tests can prove what was consulted:
    row, col and the counts all read through vectors."""

    def __init__(self, source: RatingMatrix):
        super().__init__(source.n_users, source.n_items, source.users,
                         source.items, source.ratings)
        self.reads = 0

    def vectors(self, by):
        self.reads += 1
        return super().vectors(by)


# ----------------------------------------------------------------- config

def test_config_defaults():
    cfg = TrainConfig()
    assert cfg.orientation == "item"
    assert cfg.hidden == 600
    assert (cfg.prediction_weight, cfg.reconstruction_weight) == (1.0, 0.5)
    assert cfg.mask_ratio == 0.25
    assert cfg.weight_decay is None
    assert (cfg.lr0, cfg.lr_decay) == (0.7, 0.3)
    assert (cfg.epochs, cfg.batch_size, cfg.seed) == (20, 32, 0)
    assert cfg.side_info == "none"


@pytest.mark.parametrize("bad", [
    dict(epochs=0),
    dict(mask_ratio=1.0),
    dict(mask_ratio=-0.1),
    dict(lr0=0.0),
    dict(lr0=-1.0),
    dict(lr_decay=-0.5),
    dict(hidden=0),
    dict(batch_size=0),
    dict(seed=-1),
    dict(weight_decay=-1e-6),
    dict(prediction_weight=-1.0),
    dict(prediction_weight=0.0, reconstruction_weight=0.0),
    dict(orientation="both"),
    dict(side_info="tags"),
    dict(orientation="movie"),
    dict(lr0=math.nan),
    dict(lr0=math.inf),
    dict(lr_decay=math.nan),
    dict(lr_decay=math.inf),
    dict(prediction_weight=math.nan),
    dict(reconstruction_weight=math.inf),
    dict(weight_decay=math.nan),
    dict(weight_decay=math.inf),
    dict(epochs=2.5),
    dict(hidden=True),
    dict(seed=0.5),
    dict(seed=np.int64(3)),
    dict(lr0="0.7"),
    dict(mask_ratio=False),
    dict(weight_decay="auto"),
    dict(side_info=None),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        TrainConfig(**bad)


def test_config_type_errors_name_the_field():
    # checked before any range, so a wrong type never raises TypeError and
    # never reaches a checkpoint's JSON; an int serves as a float
    with pytest.raises(ValueError, match="^seed must be int, not int64$"):
        TrainConfig(seed=np.int64(3))
    with pytest.raises(ValueError, match="^lr0 must be float, not str$"):
        TrainConfig(lr0="0.7")
    cfg = TrainConfig(lr0=1, weight_decay=0, prediction_weight=2)
    assert (cfg.lr0, cfg.weight_decay, cfg.prediction_weight) == (1, 0, 2)


def test_config_dict_round_trip():
    cfg = small_config(weight_decay=0.01, side_info="both")
    assert TrainConfig(**dataclasses.asdict(cfg)) == cfg
    with pytest.raises(TypeError, match="momentum"):
        TrainConfig(**{"hidden": 4, "momentum": 0.9})


def test_config_replace_is_nondestructive():
    cfg = TrainConfig()
    other = dataclasses.replace(cfg, hidden=12)
    assert other.hidden == 12 and cfg.hidden == 600


def test_weight_decay_resolution():
    assert TrainConfig().loss_weights(200).l2 == 0.5 / 200
    assert TrainConfig(weight_decay=0.02).loss_weights(200).l2 == 0.02
    w = TrainConfig(weight_decay=0.0).loss_weights(50)
    assert w.l2 == 0.0


def test_learning_rate_schedule():
    cfg = TrainConfig(lr0=0.7, lr_decay=0.3)
    assert learning_rate(cfg, 0) == 0.7
    assert learning_rate(cfg, 1) == 0.7 / 1.3
    rates = [learning_rate(cfg, e) for e in range(10)]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    flat = TrainConfig(lr_decay=0.0)
    assert learning_rate(flat, 9) == flat.lr0


# ------------------------------------------------------------ train loop

def test_train_is_deterministic(synthetic, sparse_synthetic):
    # on all coordinates (synthetic) and on each batch's active ones
    for ratings, scale in (synthetic, sparse_synthetic):
        cfg = small_config()
        runs = []
        for _ in range(2):
            bias, scaler = fitted(ratings, scale, cfg)
            runs.append(train(ratings, cfg, bias, scaler))
        a, b = runs
        for f in PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(a.params, f),
                                          getattr(b.params, f))
        assert ([r.mean_loss for r in a.history]
                == [r.mean_loss for r in b.history])


def test_train_updates_parameters(synthetic):
    ratings, scale = synthetic
    cfg = small_config(epochs=1)
    bias, scaler = fitted(ratings, scale, cfg)
    state = train(ratings, cfg, bias, scaler)
    fresh = init_params(ratings.n_users, cfg.hidden, seed=cfg.seed)
    assert not np.array_equal(state.params.W1, fresh.W1)
    assert state.epoch == 1 and len(state.history) == 1


def test_train_seed_changes_outcome(synthetic):
    ratings, scale = synthetic
    bias, scaler = fitted(ratings, scale, small_config())
    a = train(ratings, small_config(seed=1), bias, scaler)
    b = train(ratings, small_config(seed=2), bias, scaler)
    assert not np.array_equal(a.params.W1, b.params.W1)


def test_train_loss_decreases(synthetic):
    ratings, scale = synthetic
    cfg = small_config(epochs=8, hidden=16)
    bias, scaler = fitted(ratings, scale, cfg)
    state = train(ratings, cfg, bias, scaler)
    assert state.history[-1].mean_loss < state.history[0].mean_loss


def test_first_epoch_loss_matches_hand_computation(toy_ratings):
    # single batch + no corruption: the recorded epoch-0 loss is the mean
    # of per-vector losses evaluated at the freshly initialized network
    ratings = toy_ratings
    scale = RatingScale(1, 5, True, 1.0)
    cfg = TrainConfig(orientation="item", hidden=3, mask_ratio=0.0,
                      weight_decay=0.0, epochs=1, batch_size=64, seed=7)
    bias, scaler = fitted(ratings, scale, cfg)
    state = train(ratings, cfg, bias, scaler)

    params = init_params(ratings.n_users, cfg.hidden, seed=cfg.seed)
    weights = LossWeights(cfg.prediction_weight, cfg.reconstruction_weight, 0.0)
    total, count = 0.0, 0
    for i in range(ratings.n_items):
        idx, raw = ratings.col(i)
        if idx.size == 0:
            continue
        unit = np.atleast_1d(transform(raw, i, bias, scaler))
        x = SparseVector(ratings.n_users, idx, unit)
        total += loss(params, x, x, CorruptionMask([]), weights)
        count += 1
    assert state.history[0].mean_loss == pytest.approx(total / count,
                                                       rel=1e-12)


def test_train_skips_entities_without_ratings():
    # item 3 is never rated; training must not choke on the empty vector
    m = RatingMatrix(3, 4, [0, 1, 2], [0, 1, 2], [1.0, 3.0, 5.0])
    cfg = small_config(orientation="item", epochs=2, hidden=2)
    bias, scaler = fitted(m, RatingScale(1, 5, True, 1.0), cfg)
    state = train(m, cfg, bias, scaler)
    assert state.epoch == 2


def test_train_rejects_fully_empty_matrix():
    # fit_bias refuses the empty matrix outright, so hand it ready-made
    # preprocessing and check the trainer's own guard as well
    m = RatingMatrix(3, 3, [], [], [])
    with pytest.raises(ValueError, match="empty"):
        fit_bias(m, "item")
    cfg = small_config()
    bias = BiasTable("item", np.full(3, 3.0), 3.0)
    scaler = fit_scaler(RatingScale(1, 5, True, 1.0), bias)
    with pytest.raises(ValueError, match="no training vectors"):
        train(m, cfg, bias, scaler)


def test_train_orientation_mismatch(synthetic):
    ratings, scale = synthetic
    cfg = small_config(orientation="item")
    bias = fit_bias(ratings, "user")
    scaler = fit_scaler(scale, bias)
    with pytest.raises(ValueError, match="orientation"):
        train(ratings, cfg, bias, scaler)


def test_train_never_reads_test_entries(synthetic):
    ratings, scale = synthetic
    train_m, test_m = split(ratings, SplitSpec(0.8, 0))
    train_part = CountingMatrix(train_m)
    test_part = CountingMatrix(test_m)
    test_users = test_m.users.copy()
    test_items = test_m.items.copy()

    cfg = small_config(epochs=2)
    bias = fit_bias(train_part, cfg.orientation)
    scaler = fit_scaler(scale, bias)
    state = train(train_part, cfg, bias, scaler)
    completer = complete_matrix(train_part, state, bias, scaler)
    completer.predict_many(test_users, test_items)
    assert test_part.reads == 0
    assert train_part.reads > 0


def test_counting_matrix_counts_every_per_entity_read(synthetic):
    watched = CountingMatrix(synthetic[0])
    watched.row(0)
    watched.col(0)
    watched.row_counts()
    watched.col_counts()
    watched.vectors("item")
    assert watched.reads == 5


@pytest.mark.parametrize("orientation", ["user", "item"])
def test_entity_vectors_match_per_entity_reads(synthetic, orientation):
    # one bulk read and one transform give, bit for bit, what a row/col
    # read and a transform per entity give, empty entities included
    ratings, scale = synthetic
    keep = (ratings.users != 3) & (ratings.items != 5)
    ratings = RatingMatrix(ratings.n_users, ratings.n_items,
                           ratings.users[keep], ratings.items[keep],
                           ratings.ratings[keep])
    bias, scaler = fitted(ratings, scale, small_config(orientation=orientation))
    watched = CountingMatrix(ratings)
    vectors, _, _ = train_module._training_vectors(
        watched, small_config(orientation=orientation), bias, scaler, None)
    ptr, idx, vals = vectors.indptr, vectors.indices, vectors.data
    assert watched.reads == 1
    pull = ratings.row if orientation == "user" else ratings.col
    n_entities = ratings.n_users if orientation == "user" else ratings.n_items
    assert vectors.shape == (n_entities, ratings.n_items if orientation ==
                             "user" else ratings.n_users)
    for e in range(n_entities):
        want_idx, raw = pull(e)
        want = np.atleast_1d(transform(raw, e, bias, scaler))
        np.testing.assert_array_equal(idx[ptr[e]:ptr[e + 1]], want_idx)
        assert vals[ptr[e]:ptr[e + 1]].tobytes() == want.tobytes()
    empty = 3 if orientation == "user" else 5
    assert ptr[empty] == ptr[empty + 1]


@pytest.mark.parametrize("data,orientation,lr0,batch", [
    pytest.param("synthetic", "item", 1e308, 1, id="lr1e308"),
    pytest.param("synthetic", "item", 1e200, 1, id="lr1e200"),
    pytest.param("synthetic", "item", 1e30, 6, id="lr1e30"),
    pytest.param("sparse_synthetic", "item", 1e308, 1, id="sparse-lr1e308"),
    pytest.param("sparse_synthetic", "item", 1e30, 6, id="sparse-lr1e30"),
    pytest.param("sparse_synthetic", "user", 1e10, 22, id="sparse-user-lr1e10"),
])
def test_training_diverges_cleanly(request, data, orientation, lr0, batch):
    # the batch is where an explicit-decay SGD loop, checking every loss
    # and every entry of the gradient, first sees a non-finite value (on
    # sparse_synthetic every batch runs on its active coordinates)
    ratings, scale = request.getfixturevalue(data)
    cfg = small_config(lr0=lr0, epochs=2, batch_size=1,
                       orientation=orientation)
    bias, scaler = fitted(ratings, scale, cfg)
    with pytest.raises(TrainingDiverged) as err, \
            np.errstate(over="ignore", invalid="ignore"):
        train(ratings, cfg, bias, scaler)
    assert (err.value.epoch, err.value.batch) == (0, batch)
    assert np.isfinite(err.value.grad_max) and err.value.grad_max > 0
    assert np.isfinite(err.value.last_loss)
    assert err.value.param in PARAM_FIELDS
    message = str(err.value)
    assert "epoch" in message and err.value.param in message
    assert repr(err.value.last_loss) in message


@pytest.mark.parametrize("grad_max", [2.5, None])
def test_training_diverged_survives_pickling(grad_max):
    # a sweep worker's divergence reaches the parent process pickled
    err = TrainingDiverged(4, 7, grad_max, "W2", 0.125)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is TrainingDiverged
    assert ((back.epoch, back.batch, back.grad_max, back.param,
             back.last_loss) == (4, 7, grad_max, "W2", 0.125))
    assert str(back) == str(err)


def test_epoch_end_check_names_a_nonfinite_bias(synthetic, monkeypatch):
    # an infinite output bias saturates its unit, so no loss or gradient
    # shows it; only the parameter check at the epoch's end does
    ratings, scale = synthetic
    cfg = small_config(epochs=2)
    bias, scaler = fitted(ratings, scale, cfg)
    calls = []

    def spy(params, *args, **kwargs):
        out = batch_loss_gradients(params, *args, **kwargs)
        if not calls:
            params.b2[0] = np.inf
        calls.append(out)
        return out

    monkeypatch.setattr(train_module, "batch_loss_gradients", spy)
    with pytest.raises(TrainingDiverged) as err:
        train(ratings, cfg, bias, scaler)
    assert (err.value.epoch, err.value.batch) == (0, len(calls) - 1)
    assert err.value.grad_max is None and err.value.param == "b2"
    assert np.isfinite(err.value.last_loss)
    assert "not computed" in str(err.value)


def test_train_steps_the_initial_arrays_in_place(synthetic, monkeypatch):
    ratings, scale = synthetic
    cfg = small_config(epochs=1)
    bias, scaler = fitted(ratings, scale, cfg)
    made = []

    def spy(*args, **kwargs):
        made.append(init_params(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(train_module, "init_params", spy)
    state = train(ratings, cfg, bias, scaler)
    fresh = init_params(ratings.n_users, cfg.hidden, seed=cfg.seed)
    for f in PARAM_FIELDS:
        assert getattr(state.params, f) is getattr(made[0], f)
        assert not np.array_equal(getattr(state.params, f),
                                  getattr(fresh, f))


def _spy_on_steps(monkeypatch, ratings, orientation):
    """Records the batch of each SGD step that train() takes, and checks
    that the step moves only its batch's rows: the stored rows of W1
    outside the intact coordinates and of W2 outside the entities' known
    coordinates, read from the rating matrix, keep their bits, since the
    decay of every other row lives in the weight scale."""
    pull = ratings.col if orientation == "item" else ratings.row
    unions, steps = [], []

    def rows_spy(vectors, ids, *args):
        unions.append(np.unique(np.concatenate([pull(e)[0] for e in ids])))
        return corrupted_batch(vectors, ids, *args)

    def step_spy(params, x, hit, *args, **kwargs):
        steps.append((x, hit, *args))
        before = params.W1.copy(), params.W2.copy()
        out = batch_loss_gradients(params, x, hit, *args, **kwargs)
        known = unions[len(steps) - 1]
        np.testing.assert_array_equal(np.unique(x.indices), known)
        for w, was, rows in zip((params.W1, params.W2), before,
                                (np.unique(x.indices[~hit]), known)):
            still = np.setdiff1d(np.arange(params.n), rows)
            np.testing.assert_array_equal(w[still], was[still])
        return out

    monkeypatch.setattr(train_module, "corrupted_batch", rows_spy)
    monkeypatch.setattr(train_module, "batch_loss_gradients", step_spy)
    return steps


@pytest.mark.parametrize("data,orientation,side_info", [
    *(pytest.param("synthetic", o, "both", id=f"synthetic-{o}-both")
      for o in ("item", "user")),
    *(pytest.param("sparse_synthetic", o, s, id=f"{o}-{s}")
      for o in ("item", "user")
      for s in ("none", "input_only", "hidden_only", "both")),
])
def test_lazy_decay_matches_explicit_sgd_on_active_columns(
        request, monkeypatch, data, orientation, side_info):
    # train() against an SGD loop that decays every weight on each step,
    # over the kernel's gradient path; every step moves only the rows of
    # its batch's known coordinates
    ratings, scale = request.getfixturevalue(data)
    cfg = small_config(orientation=orientation, side_info=side_info,
                       epochs=3, weight_decay=0.02)
    bias, scaler = fitted(ratings, scale, cfg)
    by_item = cfg.orientation == "item"
    n = ratings.n_users if by_item else ratings.n_items
    side = None
    if cfg.side_info != "none":
        side = side_table(ratings.n_items if by_item else ratings.n_users, 3)
    steps = _spy_on_steps(monkeypatch, ratings, orientation)
    hooked = []

    def hook(state):
        hooked.append(state.params.copy())

    state = train(ratings, cfg, bias, scaler, side=side, eval_hook=hook)

    ref = init_params(n, cfg.hidden, state.params.p_in, state.params.p_hidden,
                      seed=cfg.seed)
    per_batch = len(steps) // cfg.epochs  # steps in each epoch
    per_epoch, sums, counts = [], np.zeros(cfg.epochs), np.zeros(cfg.epochs)
    for k, args in enumerate(steps):
        epoch = k // per_batch
        losses, grads = batch_loss_gradients(ref, *args)
        step = learning_rate(cfg, epoch) / losses.size
        for f in PARAM_FIELDS:
            setattr(ref, f, getattr(ref, f) - step * getattr(grads, f))
        sums[epoch] += losses.sum()
        counts[epoch] += losses.size
        if (k + 1) % per_batch == 0:
            per_epoch.append(ref.copy())

    assert len(per_epoch) == len(hooked) == cfg.epochs
    np.testing.assert_allclose([r.mean_loss for r in state.history],
                               sums / counts, rtol=1e-9, atol=0)
    for got, want in zip(hooked, per_epoch):
        for f in PARAM_FIELDS:
            np.testing.assert_allclose(getattr(got, f), getattr(want, f),
                                       rtol=1e-9, atol=0)
    for f in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(state.params, f),
                                      getattr(hooked[-1], f))


@pytest.mark.parametrize("data", ["synthetic", "sparse_synthetic"])
def test_batches_choose_their_coordinates(request, monkeypatch, data):
    # each SGD step moves only the rows of its batch's known coordinates,
    # and the completer's CSR blocks predict as forward does
    ratings, scale = request.getfixturevalue(data)
    cfg = small_config(epochs=1)
    bias, scaler = fitted(ratings, scale, cfg)
    steps = _spy_on_steps(monkeypatch, ratings, cfg.orientation)
    state = train(ratings, cfg, bias, scaler)
    assert steps
    got = complete_matrix(ratings, state, bias, scaler).predict_many(
        ratings.users, ratings.items)
    for k in range(0, ratings.n_entries, ratings.n_entries // 20):
        user, item = ratings.users[k], ratings.items[k]
        idx, raw = ratings.col(item)
        unit = np.atleast_1d(transform(raw, item, bias, scaler))
        out = forward(state.params, SparseVector(ratings.n_users, idx, unit))
        centered = scaler.from_unit(out[user:user + 1])[0]
        assert got[k] == pytest.approx(
            scale.clamp(centered + bias.means[item]), abs=1e-12)


def test_eval_hook_records_rmse(synthetic):
    ratings, scale = synthetic
    cfg = small_config(epochs=3)
    bias, scaler = fitted(ratings, scale, cfg)
    seen = []

    def hook(state: TrainState):
        seen.append(state.epoch)
        return None if state.epoch == 2 else 0.1 * state.epoch

    state = train(ratings, cfg, bias, scaler, eval_hook=hook)
    assert seen == [1, 2, 3]
    assert [r.rmse for r in state.history] == [0.1, None, pytest.approx(0.3)]


def test_per_epoch_checkpoints(tmp_path, monkeypatch, synthetic):
    # train() writes no file: a caller checkpoints each epoch from the
    # hook, and each file holds the state as of that epoch
    monkeypatch.chdir(tmp_path)
    ratings, scale = synthetic
    cfg = small_config(epochs=3)
    bias, scaler = fitted(ratings, scale, cfg)

    def hook(state):
        save_checkpoint(tmp_path / f"epoch_{state.epoch - 1:03d}.npz", state,
                        bias, scaler, SPLIT, ratings.fingerprint())

    state = train(ratings, cfg, bias, scaler, eval_hook=hook)
    files = sorted(tmp_path.iterdir())
    assert [f.name for f in files] == [f"epoch_{e:03d}.npz" for e in range(3)]
    assert [load_checkpoint(f).state.epoch for f in files] == [1, 2, 3]
    last = load_checkpoint(files[-1]).state
    assert last.history == state.history
    for f in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(last.params, f),
                                      getattr(state.params, f))


# ------------------------------------------------ threads of the SGD step

model_module = importlib.import_module("cfdae.model")
_BLAS = train_module._numpy_blas_threads()
needs_blas_control = pytest.mark.skipif(
    _BLAS is None, reason="numpy bundles no OpenBLAS with thread symbols")


def _train_in_parts(ratings, scale, monkeypatch):
    """train() with every step in two parts, and per part whether it ran
    on the calling thread."""
    monkeypatch.setattr(model_module, "_PART_WORK", 0)
    each_part = model_module._each_part
    ran = []

    def spy(fn, parts, pool):
        def traced(k):
            ran.append((parts, k, threading.current_thread()
                        is threading.main_thread()))
            return fn(k)
        return each_part(traced, parts, pool)

    monkeypatch.setattr(model_module, "_each_part", spy)
    cfg = small_config(epochs=2)
    state = train(ratings, cfg, *fitted(ratings, scale, cfg))
    assert {parts for parts, _, _ in ran} == {2}
    return state, ran


def _same_run(a: TrainState, b: TrainState):
    for f in PARAM_FIELDS:
        assert getattr(a.params, f).tobytes() == getattr(b.params, f).tobytes()
    assert a.history == b.history


@needs_blas_control
def test_step_parts_give_the_same_bits_on_a_pool_or_alone(synthetic,
                                                           monkeypatch):
    # the parts of a step are fixed by the batch, so a pool thread, the
    # calling thread alone, and a numpy whose BLAS threads cannot be set
    # all train the same bits
    ratings, scale = synthetic
    pools = []
    real_executor = train_module.ThreadPoolExecutor

    def counting_executor(max_workers):
        pools.append(max_workers)
        return real_executor(max_workers)

    monkeypatch.setattr(train_module, "ThreadPoolExecutor", counting_executor)
    monkeypatch.setattr(train_module, "_cpu_count", lambda: 4)
    pooled, ran = _train_in_parts(ratings, scale, monkeypatch)
    assert pools == [1]  # two parts: the calling thread and one more
    assert {(k, main) for _, k, main in ran} == {(0, True), (1, False)}
    monkeypatch.setattr(train_module, "_cpu_count", lambda: 1)
    alone, ran = _train_in_parts(ratings, scale, monkeypatch)
    assert pools == [1] and all(main for _, _, main in ran)
    _same_run(pooled, alone)
    # with the symbol gone nothing is set, and the parts stay on the
    # calling thread however many CPUs there are
    monkeypatch.setattr(train_module, "_cpu_count", lambda: 4)
    monkeypatch.setattr(train_module, "_numpy_blas_threads", lambda: None)
    unset, ran = _train_in_parts(ratings, scale, monkeypatch)
    assert pools == [1] and all(main for _, _, main in ran)
    _same_run(pooled, unset)


@needs_blas_control
@pytest.mark.parametrize("diverges", [False, True],
                         ids=["returns", "diverges"])
def test_train_holds_blas_at_one_thread_then_restores_it(synthetic,
                                                         diverges):
    ratings, scale = synthetic
    cfg = small_config(**({"lr0": 1e308, "batch_size": 1} if diverges
                          else {}))
    bias, scaler = fitted(ratings, scale, cfg)
    get, set_to = _BLAS
    was = get()
    during = []
    try:
        set_to(2)  # not 1, so that both the hold and the restore show
        before = get()
        if diverges:
            with pytest.raises(TrainingDiverged), \
                    np.errstate(over="ignore", invalid="ignore"):
                train(ratings, cfg, bias, scaler)
        else:
            train(ratings, cfg, bias, scaler,
                  eval_hook=lambda state: during.append(get()))
            assert during == [1] * cfg.epochs
        assert get() == before
    finally:
        set_to(was)


@needs_blas_control
def test_concurrent_runs_hold_blas_at_one_thread_then_restore_it(synthetic):
    # two train() calls on two threads of one process: the short run enters
    # first and returns while the long run trains, and the long run still
    # trains at one BLAS thread, to its solo run's bytes; the count after
    # both is the one before them
    ratings, scale = synthetic
    short, long = small_config(epochs=1), small_config(epochs=3, seed=2)
    bias, scaler = fitted(ratings, scale, long)
    solo = train(ratings, long, bias, scaler)
    get, set_to = _BLAS
    was = get()
    short_in, long_in, short_done = (threading.Event() for _ in range(3))
    during = []

    def short_hook(state):
        short_in.set()
        long_in.wait(60)

    def long_hook(state):
        long_in.set()
        during.append(short_done.wait(60) and get())

    def run_short():
        try:
            return train(ratings, short, bias, scaler, eval_hook=short_hook)
        finally:
            short_done.set()

    def run_long():
        short_in.wait(60)
        return train(ratings, long, bias, scaler, eval_hook=long_hook)

    try:
        set_to(2)  # not 1, so that both the hold and the restore show
        before = get()
        with ThreadPoolExecutor(2) as threads:
            runs = [threads.submit(run_short), threads.submit(run_long)]
            runs[0].result()
            concurrent = runs[1].result()
        assert during == [1] * long.epochs
        assert get() == before
    finally:
        set_to(was)
    _same_run(concurrent, solo)


_CHILD = """
import os, sys
if sys.argv[1] == "pin":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from cfdae import cli, model
model._PART_WORK = 0  # every step in two parts
sys.exit(cli.main(["train", "--data", sys.argv[2], "--out", sys.argv[3],
                   "--hidden", "16", "--epochs", "3", "--batch-size", "8"]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity on this platform")
def test_weights_do_not_depend_on_cpus_or_blas_threads(tmp_path,
                                                       snapshot_dir):
    # two processes, one pinned to one CPU with one BLAS thread, the other
    # unpinned with two, train the same bytes
    src = str(Path(train_module.__file__).resolve().parents[1])
    outs = []
    for pin, threads in (("pin", "1"), ("free", "2")):
        out = tmp_path / pin
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", _CHILD, pin, str(snapshot_dir),
                        str(out)], env=env, check=True, capture_output=True,
                       timeout=300)
        outs.append(out)
    pinned, free = (load_checkpoint(out / "checkpoint.npz").state
                    for out in outs)
    _same_run(pinned, free)
    assert ((outs[0] / "loss_curve.csv").read_bytes()
            == (outs[1] / "loss_curve.csv").read_bytes())


# -------------------------------------------------------------- side info

def side_table(n_entities, dim, seed=0):
    rng = np.random.default_rng(seed)
    return SideInfoTable(rng.uniform(-1, 1, (n_entities, dim)))


@pytest.mark.parametrize("mode,p_in,p_hidden", [
    ("input_only", 4, 0), ("hidden_only", 0, 4), ("both", 4, 4)])
def test_train_with_side_info(synthetic, mode, p_in, p_hidden):
    ratings, scale = synthetic
    cfg = small_config(orientation="item", side_info=mode, epochs=2)
    bias, scaler = fitted(ratings, scale, cfg)
    side = side_table(ratings.n_items, 4)
    state = train(ratings, cfg, bias, scaler, side=side)
    assert (state.params.p_in, state.params.p_hidden) == (p_in, p_hidden)
    completer = complete_matrix(ratings, state, bias, scaler, side=side)
    value = completer.predict(0, 0)
    assert scale.min_rating <= value <= scale.max_rating


@pytest.mark.parametrize("n_means", [40, 29])
def test_a_bias_table_of_other_data_is_refused(synthetic, n_means):
    # the synthetic matrix has 30 items; a table of more means used to
    # train and predict, and one of fewer raised IndexError
    ratings, scale = synthetic
    cfg = small_config()
    bias, scaler = fitted(ratings, scale, cfg)
    other = BiasTable("item", np.resize(bias.means, n_means), bias.global_mean)
    message = f"bias table has {n_means} means, expected 30"
    with pytest.raises(ValueError, match=message):
        train(ratings, cfg, other, scaler)
    params = init_params(ratings.n_users, cfg.hidden)
    with pytest.raises(ValueError, match=message):
        MatrixCompleter(ratings, params, cfg, other, scaler)


def test_side_info_mode_table_disagreements(synthetic):
    ratings, scale = synthetic
    bias, scaler = fitted(ratings, scale, small_config())
    with pytest.raises(ValueError, match="side"):
        train(ratings, small_config(side_info="input_only"), bias, scaler)
    with pytest.raises(ValueError, match="side"):
        train(ratings, small_config(), bias, scaler,
              side=side_table(ratings.n_items, 4))
    with pytest.raises(ValueError, match="rows"):
        train(ratings, small_config(side_info="both"), bias, scaler,
              side=side_table(ratings.n_items + 1, 4))


# -------------------------------------------------------------- completer

def test_completer_matches_straight_line_reference(synthetic):
    ratings, scale = synthetic
    cfg = small_config(orientation="item", epochs=2)
    bias, scaler = fitted(ratings, scale, cfg)
    state = train(ratings, cfg, bias, scaler)
    completer = complete_matrix(ratings, state, bias, scaler)

    for user, item in [(0, 0), (5, 3), (ratings.n_users - 1, 7)]:
        idx, raw = ratings.col(item)
        unit = np.atleast_1d(transform(raw, item, bias, scaler))
        x = SparseVector(ratings.n_users, idx, unit)
        out = float(forward(state.params, x)[user])
        # reference: undo the unit scaling then the centering, then clamp
        centered = scaler.from_unit(np.array([out]))[0]
        expected = scale.clamp(centered + bias.means[item])
        assert completer.predict(user, item) == pytest.approx(expected,
                                                              abs=1e-12)


def test_completer_user_orientation(synthetic):
    ratings, scale = synthetic
    cfg = small_config(orientation="user", epochs=2)
    bias, scaler = fitted(ratings, scale, cfg)
    state = train(ratings, cfg, bias, scaler)
    completer = complete_matrix(ratings, state, bias, scaler)
    idx, raw = ratings.row(4)
    unit = np.atleast_1d(transform(raw, 4, bias, scaler))
    x = SparseVector(ratings.n_items, idx, unit)
    out = float(forward(state.params, x)[2])
    expected = scale.clamp(scaler.from_unit(np.array([out]))[0]
                           + bias.means[4])
    assert completer.predict(4, 2) == pytest.approx(expected, abs=1e-12)


def test_completer_predictions_within_scale(synthetic):
    ratings, scale = synthetic
    cfg = small_config(epochs=1)
    bias, scaler = fitted(ratings, scale, cfg)
    state = train(ratings, cfg, bias, scaler)
    completer = complete_matrix(ratings, state, bias, scaler)
    users, items = np.meshgrid(np.arange(ratings.n_users),
                               np.arange(ratings.n_items))
    preds = completer.predict_many(users.ravel(), items.ravel())
    assert preds.min() >= scale.min_rating
    assert preds.max() <= scale.max_rating


def test_completer_bias_fallback_for_unrated_entity():
    # item 3 has no training ratings: prediction is the clamped global mean
    m = RatingMatrix(3, 4, [0, 1, 2], [0, 1, 2], [2.0, 3.0, 4.0])
    scale = RatingScale(1, 5, True, 1.0)
    cfg = small_config(orientation="item", epochs=1, hidden=2)
    bias, scaler = fitted(m, scale, cfg)
    state = train(m, cfg, bias, scaler)
    completer = complete_matrix(m, state, bias, scaler)
    for user in range(3):
        assert completer.predict(user, 3) == 3.0


def test_completer_index_validation(synthetic):
    ratings, scale = synthetic
    cfg = small_config(epochs=1)
    bias, scaler = fitted(ratings, scale, cfg)
    completer = complete_matrix(ratings, train(ratings, cfg, bias, scaler),
                                bias, scaler)
    with pytest.raises(IndexError):
        completer.predict(ratings.n_users, 0)
    with pytest.raises(IndexError):
        completer.predict(0, -1)
    with pytest.raises(ValueError):
        completer.predict_many([0, 1], [0])
    assert completer.predict_many([], []).shape == (0,)


@pytest.mark.parametrize("users,items,name", [
    ([1.7, 2.2], [0, 1], "users"),
    ([True, False], [0, 1], "users"),
    ([0, 1], np.array([0.0, 1.0]), "items"),
    ([0, 1], [False, True], "items"),
])
def test_completer_refuses_indices_that_are_not_integers(synthetic, users,
                                                         items, name):
    # a cast would turn 1.7 into entity 1 and True into entity 1
    ratings, scale = synthetic
    cfg = small_config()
    bias, scaler = fitted(ratings, scale, cfg)
    completer = MatrixCompleter(ratings, init_params(ratings.n_users,
                                                     cfg.hidden),
                                cfg, bias, scaler)
    with pytest.raises(ValueError, match=f"{name} must be integer indices"):
        completer.predict_many(users, items)
    assert completer.predict_many([], []).shape == (0,)


def test_completer_checks_the_network_against_the_data(synthetic):
    # one check names both sides' weight shapes; the bias table is checked
    # as train() checks it
    ratings, scale = synthetic
    cfg = small_config()
    bias, scaler = fitted(ratings, scale, cfg)
    narrow = init_params(ratings.n_users - 1, cfg.hidden)
    with pytest.raises(ValueError, match=re.escape(
            "((39, 8), (8,), (39, 8), (39,)) do not match the config and "
            "tables' ((40, 8), (8,), (40, 8), (40,))")):
        MatrixCompleter(ratings, narrow, cfg, bias, scaler)
    side_cfg = small_config(side_info="input_only")
    wide = init_params(ratings.n_users, cfg.hidden, p_in=4)
    with pytest.raises(ValueError, match=re.escape(
            "((44, 8), (8,), (40, 8), (40,)) do not match the config and "
            "tables' ((43, 8), (8,), (40, 8), (40,))")):
        MatrixCompleter(ratings, wide, side_cfg, bias, scaler,
                        side_table(ratings.n_items, 3))
    user_bias = fit_bias(ratings, "user")
    with pytest.raises(ValueError, match="bias table orientation"):
        MatrixCompleter(ratings, init_params(ratings.n_users, cfg.hidden),
                        cfg, user_bias, fit_scaler(scale, user_bias))


def test_completer_predict_many_consistent_with_scalar(synthetic):
    ratings, scale = synthetic
    cfg = small_config(epochs=1)
    bias, scaler = fitted(ratings, scale, cfg)
    completer = complete_matrix(ratings, train(ratings, cfg, bias, scaler),
                                bias, scaler)
    rng = np.random.default_rng(3)
    users = rng.integers(0, ratings.n_users, 25)
    items = rng.integers(0, ratings.n_items, 25)
    batch = completer.predict_many(users, items)
    singles = [completer.predict(int(u), int(i)) for u, i in zip(users, items)]
    np.testing.assert_array_equal(batch, singles)


@pytest.mark.parametrize("data,orientation,side_info,inits", [
    pytest.param("synthetic", "item", "none", 20, id="item"),
    pytest.param("synthetic", "user", "none", 20, id="user"),
    pytest.param("sparse_synthetic", "item", "none", 5, id="sparse-item"),
    pytest.param("sparse_synthetic", "user", "none", 5, id="sparse-user"),
    pytest.param("sparse_synthetic", "item", "both", 5, id="sparse-both-item"),
    pytest.param("sparse_synthetic", "user", "both", 5, id="sparse-both-user"),
])
def test_completer_predictions_do_not_depend_on_the_query(
        request, data, orientation, side_info, inits):
    # a prediction is the same bits alone, inside a batch, and in any order
    ratings, scale = request.getfixturevalue(data)
    cfg = small_config(orientation=orientation, side_info=side_info)
    bias, scaler = fitted(ratings, scale, cfg)
    by_item = orientation == "item"
    n = ratings.n_users if by_item else ratings.n_items
    side, p = None, 0
    if side_info != "none":
        side = side_table(ratings.n_items if by_item else ratings.n_users, 3)
        p = side.dim
    rng = np.random.default_rng(3)
    users = rng.integers(0, ratings.n_users, 25)
    items = rng.integers(0, ratings.n_items, 25)
    for seed in range(inits):
        params = init_params(n, cfg.hidden, p, p, seed=seed)
        completer = MatrixCompleter(ratings, params, cfg, bias, scaler, side)
        batch = completer.predict_many(users, items)
        singles = [completer.predict(int(u), int(i))
                   for u, i in zip(users, items)]
        np.testing.assert_array_equal(batch, singles)
        flipped = completer.predict_many(users[::-1], items[::-1])
        np.testing.assert_array_equal(batch, flipped[::-1])


def test_more_than_2_31_cells_build_split_and_predict():
    # 70,000 x 40,000 cells overflow int32 cell keys, though each index
    # fits: both tables, the split and the completer keep every entry
    n_users, n_items = 70_000, 40_000
    rng = np.random.default_rng(5)
    corners = [0, n_items - 1, (n_users - 1) * n_items, n_users * n_items - 1]
    keys = np.unique(np.concatenate(
        [rng.integers(0, n_users * n_items, 400), corners]))
    users, items = keys // n_items, keys % n_items
    values = rng.integers(1, 6, keys.size).astype(np.float64)
    ratings = RatingMatrix(n_users, n_items, users, items, values)
    np.testing.assert_array_equal(ratings.users, users)
    for by, (entity, other) in (("user", (users, items)),
                                ("item", (items, users))):
        ptr, idx, vals = ratings.vectors(by)
        order = np.lexsort((other, entity))
        np.testing.assert_array_equal(
            ptr, np.concatenate([[0], np.cumsum(np.bincount(
                entity, minlength=ptr.size - 1))]))
        np.testing.assert_array_equal(idx, other[order])
        np.testing.assert_array_equal(vals, values[order])
    train_m, test_m = split(ratings, SplitSpec(0.8, 0))
    assert train_m.n_entries + test_m.n_entries == ratings.n_entries
    assert (test_m.n_users, test_m.n_items) == (n_users, n_items)
    scale = RatingScale(1.0, 5.0, True, 1.0)
    for orientation in ("user", "item"):
        cfg = small_config(orientation=orientation, hidden=4, epochs=1)
        bias, scaler = fitted(train_m, scale, cfg)
        state = train(train_m, cfg, bias, scaler)
        completer = complete_matrix(train_m, state, bias, scaler)
        got = completer.predict_many(test_m.users, test_m.items)
        by_user = orientation == "user"
        pull = train_m.row if by_user else train_m.col
        for k, (u, i) in enumerate(zip(test_m.users, test_m.items)):
            entity, other = (u, i) if by_user else (i, u)
            idx, raw = pull(entity)
            unit = 0.0
            if idx.size:
                x = SparseVector(n_items if by_user else n_users, idx,
                                 np.atleast_1d(transform(raw, entity, bias,
                                                         scaler)))
                unit = float(forward(state.params, x)[other])
            want = inverse_transform(unit, entity, bias, scaler)
            assert got[k] == pytest.approx(want, abs=1e-12)


def test_read_path_peak_memory(tmp_path):
    # load_snapshot, split, fit_bias, complete_matrix and predict_many on
    # 200k entries must hold, at their end, 50 bytes an entry of arrays:
    # the matrix and its halves at 16 (int32 user and item, float64
    # rating), and for the 90% train half, its by-item table at 12 (int32
    # user, float64 rating) and the completer's scaled values at 8.  The
    # bound allows 16 bytes an entry more, one int64 index and one float64
    # value, for the temporaries of any one step.
    n_users, n_items, n = 2000, 1000, 200_000
    cfg = small_config()
    scale = RatingScale(1.0, 5.0, True, 1.0)
    params = init_params(n_users, cfg.hidden, 0, 0, seed=0)

    def read_path(path):
        ratings, scale, _ids = load_snapshot(path)
        train_m, test_m = split(ratings, SPLIT)
        bias = fit_bias(train_m, cfg.orientation)
        completer = complete_matrix(train_m, TrainState(params, cfg, []),
                                    bias, fit_scaler(scale, bias))
        return completer.predict_many(test_m.users, test_m.items)

    rng = np.random.default_rng(0)
    for size in (1000, n):  # the first run imports what the path uses
        keys = rng.choice(n_users * n_items, size, replace=False)
        ratings = RatingMatrix(n_users, n_items, keys // n_items,
                               keys % n_items,
                               rng.integers(1, 6, size).astype(np.float64))
        ids = IdMaps(tuple(map(str, range(n_users))),
                     tuple(map(str, range(n_items))))
        path = tmp_path / f"ratings_{size}.npz"
        save_snapshot(path, ratings, scale, ids)
        del ratings
        tracemalloc.start()
        try:
            read_path(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= (50 + 16) * n, f"peak {peak} bytes for {n} entries"


def _many_block_completer(ratings, scale, side_info, side=None, seed=0):
    """An untrained item-oriented completer and shuffled queries whose
    distinct items with training ratings make at least 4 chunks, one for
    each thread of a pool sized for 4 CPUs."""
    cfg = small_config(orientation="item", side_info=side_info)
    bias, scaler = fitted(ratings, scale, cfg)
    if side_info != "none" and side is None:
        side = side_table(ratings.n_items, 3)
    p = side.dim if side is not None else 0
    params = init_params(ratings.n_users, cfg.hidden,
                         p if side_info in ("input_only", "both") else 0,
                         p if side_info in ("hidden_only", "both") else 0,
                         seed=seed)
    completer = MatrixCompleter(ratings, params, cfg, bias, scaler, side)
    rng = np.random.default_rng(seed)
    users = rng.integers(0, ratings.n_users, 1000)
    items = rng.integers(0, ratings.n_items, 1000)
    rated = np.bincount(ratings.items, minlength=ratings.n_items) > 0
    assert np.count_nonzero(rated[np.unique(items)]) > 3 * completer._CHUNK
    return completer, users, items


def _spy_on_encodes(monkeypatch):
    """The ids of every _encode_block call, appended as they are made."""
    encoded = []
    encode = MatrixCompleter._encode_block

    def spy(self, ids):
        encoded.append(ids.copy())
        return encode(self, ids)

    monkeypatch.setattr(MatrixCompleter, "_encode_block", spy)
    return encoded


@pytest.mark.parametrize("side_info", ["none", "both"])
def test_completer_encodes_the_distinct_queried_entities_with_ratings(
        sparse_synthetic, monkeypatch, side_info):
    ratings, scale = sparse_synthetic
    completer, users, items = _many_block_completer(ratings, scale, side_info)
    encoded = _spy_on_encodes(monkeypatch)
    completer.predict_many(users, items)
    rated = np.bincount(ratings.items, minlength=ratings.n_items) > 0
    wanted = np.unique(items[rated[items]])
    assert sum(ids.size for ids in encoded) == wanted.size
    np.testing.assert_array_equal(np.sort(np.concatenate(encoded)), wanted)
    assert max(ids.size for ids in encoded) == MatrixCompleter._CHUNK
    encoded.clear()
    completer.predict(int(users[0]), int(wanted[0]))
    assert [ids.tolist() for ids in encoded] == [[wanted[0]]]


def test_entities_without_training_ratings_are_never_encoded(
        sparse_synthetic, monkeypatch):
    ratings, scale = sparse_synthetic
    completer, users, items = _many_block_completer(ratings, scale, "both")
    rated = np.bincount(ratings.items, minlength=ratings.n_items) > 0
    unrated = ~rated[items]
    assert unrated.any() and not unrated.all()
    encoded = _spy_on_encodes(monkeypatch)
    preds = completer.predict_many(users, items)
    assert not np.isin(np.concatenate(encoded), items[unrated]).any()
    # their predictions are the bias table's, the clamped global mean
    baseline = BiasPredictor(completer.bias, scale)
    np.testing.assert_array_equal(
        preds[unrated], baseline.predict_many(users[unrated], items[unrated]))
    encoded.clear()
    assert completer.predict(int(users[unrated][0]),
                             int(items[unrated][0])) == preds[unrated][0]
    assert encoded == []


@pytest.mark.parametrize("side_info", SIDE_MODES)
def test_threaded_predictions_equal_one_thread(sparse_synthetic, monkeypatch,
                                               side_info):
    ratings, scale = sparse_synthetic
    completer, users, items = _many_block_completer(ratings, scale, side_info)
    threads = []
    real_executor = train_module.ThreadPoolExecutor

    def counting_executor(max_workers):
        threads.append(max_workers)
        return real_executor(max_workers)

    monkeypatch.setattr(train_module, "ThreadPoolExecutor", counting_executor)
    monkeypatch.setattr(train_module, "_cpu_count", lambda: 4)
    pooled = completer.predict_many(users, items)
    assert threads == [3]
    monkeypatch.setattr(train_module, "_cpu_count", lambda: 1)
    alone = completer.predict_many(users, items)
    assert threads == [3]
    assert pooled.tobytes() == alone.tobytes()


def test_single_prediction_starts_no_thread(sparse_synthetic, monkeypatch):
    completer, _users, _items = _many_block_completer(*sparse_synthetic,
                                                      "none")

    def no_executor(*args, **kwargs):
        raise AssertionError("predict started a thread pool")

    monkeypatch.setattr(train_module, "ThreadPoolExecutor", no_executor)
    monkeypatch.setattr(train_module, "_cpu_count", lambda: 4)
    assert 1.0 <= completer.predict(3, 7) <= 5.0


def test_pool_thread_error_reaches_the_caller(sparse_synthetic, monkeypatch):
    completer, users, items = _many_block_completer(*sparse_synthetic,
                                                    "none")
    encode = MatrixCompleter._encode_block
    raised = threading.Event()
    lock = threading.Lock()

    def failing_encode(self, lo):
        if threading.current_thread() is threading.main_thread():
            # hold the caller back until a pool thread has taken a block
            assert raised.wait(timeout=30)
        else:
            with lock:
                first = not raised.is_set()
                raised.set()
            if first:
                raise RuntimeError("block failed")
        return encode(self, lo)

    monkeypatch.setattr(MatrixCompleter, "_encode_block", failing_encode)
    monkeypatch.setattr(train_module, "_cpu_count", lambda: 3)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="block failed"):
        completer.predict_many(users, items)
    assert set(threading.enumerate()) <= before


@pytest.mark.parametrize("binary", [False, True], ids=["svd", "svd+binary"])
def test_predictions_match_forward_with_side_features(sparse_synthetic,
                                                      monkeypatch, binary):
    # the completer sums the side inputs inside its sparse product and
    # forward in a dense one, so the two agree to rounding, not bit for bit
    ratings, scale = sparse_synthetic
    rng = np.random.default_rng(4)
    tags = TagMatrix(sp.random_array((ratings.n_items, 30), density=0.1,
                                     format="csr", rng=rng) * 5.0)
    side = build_side_info(svd_embed(tags, 4), tags.binary() if binary
                           else None)
    assert side.dim == (34 if binary else 4)
    completer, users, items = _many_block_completer(ratings, scale, "both",
                                                    side, seed=2)
    monkeypatch.setattr(train_module, "_cpu_count", lambda: 3)
    got = completer.predict_many(users, items)
    for k, (user, item) in enumerate(zip(users, items)):
        idx, raw = ratings.col(item)
        unit = 0.0
        if idx.size:
            x = SparseVector(ratings.n_users, idx,
                             transform(raw, item, completer.bias,
                                       completer.scaler))
            unit = forward(completer.params, x, side.features[item])[user]
        want = inverse_transform(unit, item, completer.bias, completer.scaler)
        assert abs(got[k] - want) <= 1e-12


# ------------------------------------------------------------- checkpoint

def test_checkpoint_round_trip(tmp_path, synthetic):
    ratings, scale = synthetic
    cfg = small_config(epochs=3, side_info="hidden_only")
    bias, scaler = fitted(ratings, scale, cfg)
    side = side_table(ratings.n_items, 5, seed=2)
    hook = lambda s: None if s.epoch == 2 else float(s.epoch)
    state = train(ratings, cfg, bias, scaler, side=side, eval_hook=hook)

    path = tmp_path / "model.npz"
    spec = SplitSpec(0.8, 2**53)  # the largest seed a float64 holds exactly
    save_checkpoint(path, state, bias, scaler, split=spec,
                    data_fingerprint=ratings.fingerprint(), side=side)
    ckpt = load_checkpoint(path)

    assert ckpt.state.config == cfg
    assert ckpt.state.params.W1.flags.c_contiguous
    for f in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(ckpt.state.params, f),
                                      getattr(state.params, f))
    assert ckpt.bias.orientation == bias.orientation
    np.testing.assert_array_equal(ckpt.bias.means, bias.means)
    assert ckpt.bias.global_mean == bias.global_mean
    assert ckpt.scaler == scaler
    assert [(r.epoch, r.mean_loss, r.rmse) for r in ckpt.state.history] == \
           [(r.epoch, r.mean_loss, r.rmse) for r in state.history]
    assert ckpt.split == spec
    assert ckpt.data_fingerprint == ratings.fingerprint()
    np.testing.assert_array_equal(ckpt.side.features, side.features)

    ours = complete_matrix(ratings, state, bias, scaler, side=side)
    theirs = complete_matrix(ratings, ckpt.state, ckpt.bias, ckpt.scaler,
                             side=ckpt.side)
    users = np.arange(ratings.n_users)
    items = np.arange(ratings.n_users) % ratings.n_items
    np.testing.assert_array_equal(ours.predict_many(users, items),
                                  theirs.predict_many(users, items))


def test_checkpoint_optional_fields_absent(tmp_path, synthetic):
    ratings, scale = synthetic
    cfg = small_config(epochs=1)
    bias, scaler = fitted(ratings, scale, cfg)
    state = train(ratings, cfg, bias, scaler)
    path = tmp_path / "bare.npz"
    save_checkpoint(path, state, bias, scaler, SPLIT, ratings.fingerprint())
    assert load_checkpoint(path).side is None
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    # the members earlier versions wrote for a missing split or fingerprint
    for member, absent in [("split", np.zeros(2)), ("data_fingerprint", "")]:
        np.savez(path, **{**arrays, member: absent})
        with pytest.raises(DataError) as err:
            load_checkpoint(path)
        assert str(err.value).count(str(path)) == 1
        assert "no train/test split or data fingerprint" in str(err.value)


def test_checkpoint_save_refuses_an_empty_fingerprint(tmp_path, synthetic):
    ratings, scale = synthetic
    cfg = small_config(epochs=1)
    bias, scaler = fitted(ratings, scale, cfg)
    state = train(ratings, cfg, bias, scaler)
    path = tmp_path / "model.npz"
    with pytest.raises(ValueError,
                       match="no train/test split or data fingerprint"):
        save_checkpoint(path, state, bias, scaler, SPLIT, "")
    assert not path.exists()


def test_checkpoint_is_stored_and_compressed_ones_still_load(tmp_path,
                                                             synthetic):
    ratings, scale = synthetic
    cfg = small_config(epochs=1)
    bias, scaler = fitted(ratings, scale, cfg)
    state = train(ratings, cfg, bias, scaler)
    path = tmp_path / "model.npz"
    save_checkpoint(path, state, bias, scaler, SPLIT, ratings.fingerprint())
    with zipfile.ZipFile(path) as zf:
        assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_STORED}
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    np.savez_compressed(path, **arrays)
    ckpt = load_checkpoint(path)
    for f in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(ckpt.state.params, f),
                                      getattr(state.params, f))
    assert ckpt.state.history == state.history


@pytest.mark.parametrize("side_info", ["none", "both"])
def test_checkpoint_in_the_earlier_layout_loads(tmp_path, synthetic,
                                                side_info):
    # w1 is stored as (hidden, n + p_in), the transpose of W1; a file that
    # holds it C-ordered, as earlier versions wrote it, loads to W1 = w1.T
    # and predicts what that w1 computes
    ratings, scale = synthetic
    cfg = small_config(epochs=1, side_info=side_info)
    bias, scaler = fitted(ratings, scale, cfg)
    side = side_table(ratings.n_items, 3) if side_info != "none" else None
    state = train(ratings, cfg, bias, scaler, side=side)
    path = tmp_path / "model.npz"
    save_checkpoint(path, state, bias, scaler, SPLIT, ratings.fingerprint(),
                    side)
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    width = ratings.n_users + (3 if side is not None else 0)
    assert arrays["w1"].shape == (cfg.hidden, width)
    w1 = np.random.default_rng(7).uniform(-0.3, 0.3, (cfg.hidden, width))
    arrays["w1"] = w1
    # earlier versions also stored the side table's SVD column count, each
    # record's epoch (its position) and whether a side table is present
    earlier = {"side_n_svd": np.array(0 if side is None else 3),
               "history_epoch": np.arange(len(state.history)),
               "has_side": np.array(side is not None)}
    assert not set(earlier) & set(arrays)
    np.savez(path, **arrays, **earlier)

    ckpt = load_checkpoint(path)
    assert ckpt.state.history == state.history
    if side is None:
        assert ckpt.side is None
    else:
        np.testing.assert_array_equal(ckpt.side.features, side.features)
    params = ckpt.state.params
    assert params.W1.flags.c_contiguous
    np.testing.assert_array_equal(params.W1, w1.T)
    completer = complete_matrix(ratings, ckpt.state, ckpt.bias, ckpt.scaler,
                                side=ckpt.side)
    for user, item in [(0, 0), (5, 3), (ratings.n_users - 1, 7)]:
        idx, raw = ratings.col(item)
        x = np.zeros(ratings.n_users)
        x[idx] = transform(raw, item, bias, scaler)
        s = [] if side is None else side.features[item]
        h = np.tanh(w1 @ np.concatenate([x, s]) + params.b1)
        out = np.tanh(params.W2 @ np.concatenate([h, s]) + params.b2)[user]
        want = scale.clamp(scaler.from_unit(np.array([out]))[0]
                           + bias.means[item])
        assert completer.predict(user, item) == pytest.approx(want,
                                                              abs=1e-12)


def test_checkpoint_version_gate(tmp_path, synthetic):
    ratings, scale = synthetic
    cfg = small_config(epochs=1)
    bias, scaler = fitted(ratings, scale, cfg)
    state = train(ratings, cfg, bias, scaler)
    path = tmp_path / "model.npz"
    save_checkpoint(path, state, bias, scaler, SPLIT, ratings.fingerprint())
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    arrays["format_version"] = np.array(99)
    np.savez_compressed(path, **arrays)
    with pytest.raises(DataError, match="version"):
        load_checkpoint(path)


def test_failed_checkpoint_write_keeps_the_previous_one(tmp_path, synthetic,
                                                        monkeypatch):
    ratings, scale = synthetic
    cfg = small_config(epochs=1)
    bias, scaler = fitted(ratings, scale, cfg)
    state = train(ratings, cfg, bias, scaler)
    path = tmp_path / "checkpoint.npz"
    save_checkpoint(path, state, bias, scaler, SPLIT, ratings.fingerprint())
    before = path.read_bytes()

    def fails_part_way(fh, **arrays):
        fh.write(before[:100])
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", fails_part_way)
    saved_w1 = state.params.W1.copy()
    state.params.W1 += 1.0
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, state, bias, scaler, SPLIT,
                        ratings.fingerprint())
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.npz"]
    assert path.read_bytes() == before
    np.testing.assert_array_equal(load_checkpoint(path).state.params.W1,
                                  saved_w1)


def test_checkpoint_path_is_used_as_given(tmp_path, synthetic):
    # np.savez given a path would append ".npz" to this one
    ratings, scale = synthetic
    cfg = small_config(epochs=1)
    bias, scaler = fitted(ratings, scale, cfg)
    state = train(ratings, cfg, bias, scaler)
    save_checkpoint(tmp_path / "model", state, bias, scaler, SPLIT,
                    ratings.fingerprint())
    assert [p.name for p in tmp_path.iterdir()] == ["model"]
    loaded = load_checkpoint(tmp_path / "model").state.params
    np.testing.assert_array_equal(loaded.W2, state.params.W2)


def test_write_loss_curve_parses_back(tmp_path, snapshot_dir, monkeypatch):
    # loss_curve.csv as cfdae train writes it, for a curve with an epoch
    # that was not scored
    history = [EpochRecord(0, 0.75), EpochRecord(1, 0.5, 1.25),
               EpochRecord(2, 1.0 / 3.0, 0.1 + 0.2)]
    real_train = cli.train

    def with_history(*args, **kwargs):
        return dataclasses.replace(real_train(*args, **kwargs),
                                   history=history)

    monkeypatch.setattr(cli, "train", with_history)
    assert cli.main(["train", "--data", str(snapshot_dir), "--out",
                     str(tmp_path / "model"), "--hidden", "4",
                     "--epochs", "1"]) == 0
    path = tmp_path / "model" / "loss_curve.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["epoch"] for r in rows] == ["0", "1", "2"]
    assert [float(r["loss"]) for r in rows] == [r.mean_loss for r in history]
    assert rows[0]["rmse"] == ""
    assert float(rows[2]["rmse"]) == 0.1 + 0.2
    assert path.read_bytes() == (b"epoch,loss,rmse\n0,0.75,\n1,0.5,1.25\n"
                                 b"2,0.3333333333333333,0.30000000000000004\n")
