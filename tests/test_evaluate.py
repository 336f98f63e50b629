"""RMSE, count-based cluster breakdowns, reports, and sweep tables."""

import csv
import dataclasses
import importlib
import json
import math
import multiprocessing
import multiprocessing.resource_tracker
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from cfdae import (BiasPredictor, ClusterStat, EvalReport, RatingMatrix,
                   RatingScale, SplitSpec, TrainConfig, build_report,
                   complete_matrix, config_digest, fit_bias, fit_scaler,
                   improvement_pct, rmse, split, summarize_ratio_sweep,
                   sweep_dae, sweep_training_ratio, train)
from cfdae import cli


class FixedPredictor:
    """Returns one constant for every query."""

    def __init__(self, value):
        self.value = value

    def predict_many(self, users, items):
        return np.full(len(users), self.value, dtype=float)


class LookupPredictor:
    """Replays a rating matrix exactly; unseen pairs get `default`."""

    def __init__(self, ratings: RatingMatrix, default=3.0):
        self.table = {(u, i): r for u, i, r in
                      zip(ratings.users, ratings.items, ratings.ratings)}
        self.default = default

    def predict_many(self, users, items):
        return np.array([self.table.get((u, i), self.default)
                         for u, i in zip(users, items)])


def quick_config(**overrides):
    base = dict(hidden=6, epochs=1, batch_size=16, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


# ------------------------------------------------------------------- rmse

def test_rmse_zero_for_perfect_predictor(toy_ratings):
    assert rmse(LookupPredictor(toy_ratings), toy_ratings) == 0.0


def test_rmse_constant_predictor_hand_value():
    test = RatingMatrix(2, 1, [0, 1], [0, 0], [3.0, 5.0])
    assert rmse(FixedPredictor(4.0), test) == 1.0


def test_rmse_matches_loop_oracle(synthetic):
    ratings, scale = synthetic
    predictor = BiasPredictor(fit_bias(ratings, "item"), scale)
    value = rmse(predictor, ratings)
    total = 0.0
    for u, i, r in zip(ratings.users, ratings.items, ratings.ratings):
        total += (predictor.predict(int(u), int(i)) - r) ** 2
    assert value == pytest.approx(math.sqrt(total / ratings.n_entries),
                                  rel=1e-12)


def test_rmse_rejects_empty_test_set():
    with pytest.raises(ValueError, match="empty"):
        rmse(FixedPredictor(3.0), RatingMatrix(2, 2, [], [], []))


# ---------------------------------------------------------- bias baseline

def test_bias_baseline_is_per_entity_mean():
    m = RatingMatrix(3, 2, [0, 1, 2, 0], [0, 0, 0, 1], [1.0, 2.0, 5.0, 4.0])
    scale = RatingScale(1, 5, True, 1.0)
    by_item = BiasPredictor(fit_bias(m, "item"), scale)
    assert by_item.predict(0, 0) == pytest.approx(8.0 / 3.0)
    assert by_item.predict(2, 1) == 4.0
    by_user = BiasPredictor(fit_bias(m, "user"), scale)
    assert by_user.predict(0, 1) == pytest.approx(2.5)


def test_bias_baseline_loop_oracle(synthetic):
    ratings, scale = synthetic
    predictor = BiasPredictor(fit_bias(ratings, "user"), scale)
    sums = np.zeros(ratings.n_users)
    counts = np.zeros(ratings.n_users)
    for u, r in zip(ratings.users, ratings.ratings):
        sums[u] += r
        counts[u] += 1
    means = np.where(counts > 0, sums / np.maximum(counts, 1),
                     ratings.ratings.mean())
    queried = predictor.predict_many(np.arange(ratings.n_users),
                                     np.zeros(ratings.n_users, dtype=int))
    np.testing.assert_allclose(queried, means, rtol=1e-12)


def test_bias_baseline_unseen_entity_gets_global_mean():
    m = RatingMatrix(2, 3, [0, 1], [0, 1], [2.0, 4.0])
    predictor = BiasPredictor(fit_bias(m, "item"),
                              RatingScale(1, 5, True, 1.0))
    assert predictor.predict(0, 2) == 3.0
    with pytest.raises(IndexError):
        predictor.predict(0, 3)


@pytest.mark.parametrize("orientation", ["user", "item"])
@pytest.mark.parametrize("users,items", [([0, 1], [0]), ([[0, 1]], [[0, 1]])])
def test_bias_baseline_takes_aligned_1d_queries_only(toy_ratings, orientation,
                                                     users, items):
    predictor = BiasPredictor(fit_bias(toy_ratings, orientation),
                              RatingScale(1.0, 5.0))
    with pytest.raises(ValueError,
                       match="users and items must be aligned 1-D arrays"):
        predictor.predict_many(users, items)


@pytest.mark.parametrize("users,items,name", [
    ([1.7, 2.2], [0, 1], "users"),
    ([True, False], [0, 1], "users"),
    ([0, 1], np.array([0.0, 1.0]), "items"),
    ([0, 1], [False, True], "items"),
])
def test_bias_baseline_refuses_indices_that_are_not_integers(
        toy_ratings, users, items, name):
    # a cast would turn 1.7 into entity 1 and True into entity 1
    predictor = BiasPredictor(fit_bias(toy_ratings, "user"),
                              RatingScale(1.0, 5.0))
    with pytest.raises(ValueError, match=f"{name} must be integer indices"):
        predictor.predict_many(users, items)
    assert predictor.predict_many([], []).shape == (0,)


# ---------------------------------------------------------------- cluster

def test_cluster_sizes_and_tie_break():
    # 10 items, all with one training rating: ties fall back to item index,
    # so clusters are consecutive index pairs
    users = [0] * 10
    items = list(range(10))
    train_m = RatingMatrix(1, 10, users, items, [3.0] * 10)
    test_m = RatingMatrix(1, 10, users, items, [3.0] * 10)
    stats = build_report(FixedPredictor(3.0), test_m, train_m,
                         by="item").per_cluster
    assert [c.n_entries for c in stats] == [2] * 5
    assert [c.label for c in stats] == ["0-20%", "20-40%", "40-60%",
                                        "60-80%", "80-100%"]
    assert all(c.rmse == 0.0 for c in stats)


def test_cluster_orders_by_ascending_count():
    # item 2 has 3 ratings, item 1 has 2, item 0 has 1; with 3 clusters the
    # first bucket must be the least-rated item
    users = [0, 0, 1, 0, 1, 2]
    items = [0, 1, 1, 2, 2, 2]
    train_m = RatingMatrix(3, 3, users, items, [3.0] * 6)
    test_m = RatingMatrix(3, 3, [0, 0, 0], [0, 1, 2], [1.0, 3.0, 5.0])
    stats = build_report(FixedPredictor(3.0), test_m, train_m, by="item",
                         n_clusters=3).per_cluster
    assert [c.n_entries for c in stats] == [1, 1, 1]
    assert stats[0].rmse == 2.0   # item 0, |1-3|
    assert stats[1].rmse == 0.0   # item 1
    assert stats[2].rmse == 2.0   # item 2, |5-3|


def test_cluster_recombination_is_exact(synthetic):
    ratings, scale = synthetic
    train_m, test_m = split(ratings, SplitSpec(0.8, 1))
    predictor = BiasPredictor(fit_bias(train_m, "item"), scale)
    stats = build_report(predictor, test_m, train_m, by="item").per_cluster
    total = sum(c.n_entries * c.rmse ** 2 for c in stats if c.rmse is not None)
    assert sum(c.n_entries for c in stats) == test_m.n_entries
    assert total == pytest.approx(test_m.n_entries * rmse(predictor, test_m) ** 2,
                                  rel=1e-12)


def test_cluster_empty_bucket_reports_none():
    train_m = RatingMatrix(1, 10, [0] * 10, list(range(10)), [3.0] * 10)
    test_m = RatingMatrix(1, 10, [0], [9], [3.0])  # only the top bucket
    stats = build_report(FixedPredictor(3.0), test_m, train_m,
                         by="item").per_cluster
    assert [(c.rmse, c.n_entries) for c in stats[:4]] == [(None, 0)] * 4
    assert stats[4] .n_entries == 1


def test_cluster_by_user(synthetic):
    ratings, scale = synthetic
    stats = build_report(BiasPredictor(fit_bias(ratings, "user"), scale),
                         ratings, ratings, by="user").per_cluster
    assert sum(c.n_entries for c in stats) == ratings.n_entries


def test_cluster_argument_validation(toy_ratings):
    predictor = FixedPredictor(3.0)
    with pytest.raises(ValueError, match="entity"):
        build_report(predictor, toy_ratings, toy_ratings, by="genre")
    with pytest.raises(ValueError, match="n_clusters"):
        build_report(predictor, toy_ratings, toy_ratings, n_clusters=0)
    empty = RatingMatrix(4, 5, [], [], [])
    with pytest.raises(ValueError, match="empty"):
        build_report(predictor, empty, toy_ratings)


# ------------------------------------------------------- report plumbing

def test_improvement_pct():
    assert improvement_pct(1.0, 0.9) == pytest.approx(10.0)
    assert improvement_pct(0.85, 0.885) < 0
    # an exact baseline leaves the gain undefined
    assert improvement_pct(0.0, 0.5) is None
    with pytest.raises(ValueError):
        improvement_pct(-1.0, 0.5)


def test_report_round_trips_through_json(synthetic):
    # report.json's other fields are the CLI's: see test_evaluate_artifacts
    ratings, scale = synthetic
    train_m, test_m = split(ratings, SplitSpec(0.8, 0))
    predictor = BiasPredictor(fit_bias(train_m, "item"), scale)
    report = build_report(predictor, test_m, train_m, by="item")
    assert report.n_test == sum(c.n_entries for c in report.per_cluster)
    assert report.rmse == rmse(predictor, test_m)

    loaded = json.loads(json.dumps(dataclasses.asdict(report)))
    assert list(loaded) == ["rmse", "n_test", "per_cluster"]
    assert loaded["rmse"] == report.rmse
    assert len(loaded["per_cluster"]) == 5
    assert loaded["per_cluster"][0]["label"] == "0-20%"
    assert EvalReport(loaded["rmse"], loaded["n_test"],
                      tuple(ClusterStat(**c) for c in loaded["per_cluster"])
                      ) == report


def test_report_predicts_each_test_entry_once(synthetic):
    ratings, scale = synthetic
    train_m, test_m = split(ratings, SplitSpec(0.8, 0))
    baseline = BiasPredictor(fit_bias(train_m, "item"), scale)
    calls = []

    class Counting:
        def predict_many(self, users, items):
            calls.append(len(users))
            return baseline.predict_many(users, items)

    report = build_report(Counting(), test_m, train_m, by="item")
    assert calls == [test_m.n_entries]
    assert report.rmse == rmse(baseline, test_m)


def test_write_cluster_csv(tmp_path, snapshot_dir, monkeypatch):
    # clusters.csv as cfdae evaluate writes it; None rmse must serialize as
    # an empty cell
    report = EvalReport(1.0, 3, (ClusterStat("0-50%", 0.5, 2),
                                 ClusterStat("50-100%", None, 0)))
    model = tmp_path / "model"
    assert cli.main(["train", "--data", str(snapshot_dir), "--out",
                     str(model), "--hidden", "4", "--epochs", "1"]) == 0
    monkeypatch.setattr(cli, "build_report", lambda *args, **kw: report)
    assert cli.main(["evaluate", "--model", str(model), "--data",
                     str(snapshot_dir)]) == 0
    path = model / "clusters.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0] == {"cluster": "0-50%", "rmse": "0.5", "n_entries": "2"}
    assert rows[1]["rmse"] == ""
    assert path.read_bytes() == (b"cluster,rmse,n_entries\n0-50%,0.5,2\n"
                                 b"50-100%,,0\n")


def test_config_digest_sensitivity(synthetic):
    ratings, _scale = synthetic
    cfg = TrainConfig()
    base = config_digest(cfg, SplitSpec(0.9, 0), ratings.fingerprint())
    assert base == config_digest(cfg, SplitSpec(0.9, 0), ratings.fingerprint())
    assert len(base) == 16 and all(c in "0123456789abcdef" for c in base)
    assert base != config_digest(dataclasses.replace(cfg, hidden=10),
                                 SplitSpec(0.9, 0), ratings.fingerprint())
    assert base != config_digest(cfg, SplitSpec(0.8, 0), ratings.fingerprint())
    assert base != config_digest(cfg, SplitSpec(0.9, 0), "other")


def test_config_digest_is_one_per_config():
    # a float field stores a float even when given an int, so a library
    # run and a CLI run (which parses floats) report one digest
    spec = SplitSpec(0.9, 0)
    as_int = TrainConfig(lr0=1, weight_decay=0)
    as_float = TrainConfig(lr0=1.0, weight_decay=0.0)
    assert type(as_int.lr0) is float and type(as_int.weight_decay) is float
    assert config_digest(as_int, spec, "x") == config_digest(as_float, spec,
                                                             "x")
    assert config_digest(TrainConfig(lr0=1), spec, "x") == "c203503f39d8892d"


# ------------------------------------------------------------------ sweeps

def test_ratio_sweep_matches_direct_run(synthetic):
    ratings, scale = synthetic
    cfg = quick_config()
    rows = sweep_training_ratio(ratings, scale, [0.5, 0.8], cfg, seeds=[3])
    assert [(r["ratio"], r["seed"]) for r in rows] == [(0.5, 3), (0.8, 3)]

    # one cell recomputed end to end by hand must agree exactly
    train_m, test_m = split(ratings, SplitSpec(0.8, 3))
    run_cfg = dataclasses.replace(cfg, seed=3)
    bias = fit_bias(train_m, run_cfg.orientation)
    scaler = fit_scaler(scale, bias)
    state = train(train_m, run_cfg, bias, scaler)
    expected = rmse(complete_matrix(train_m, state, bias, scaler), test_m)
    assert rows[1]["rmse"] == expected
    assert rows[1]["n_train"] == train_m.n_entries
    assert rows[1]["n_test"] == test_m.n_entries


def test_seed_summary_hand_values():
    rows = [{"ratio": 0.5, "seed": seed, "rmse": value}
            for seed, value in enumerate([1.0, 2.0, 3.0])]
    [stats] = summarize_ratio_sweep(rows)
    assert stats["mean_rmse"] == 2.0
    assert stats["plus_minus"] == 2.0      # 2 x sample stddev, ddof=1
    assert stats["n_seeds"] == 3
    assert "3 seeds" in stats["label"]
    [single] = summarize_ratio_sweep([{"ratio": 0.5, "seed": 0, "rmse": 0.9}])
    assert single["plus_minus"] == 0.0 and single["n_seeds"] == 1


def test_summarize_ratio_sweep_groups_by_ratio():
    rows = [{"ratio": 0.5, "seed": 0, "rmse": 1.0},
            {"ratio": 0.8, "seed": 0, "rmse": 0.7},
            {"ratio": 0.5, "seed": 1, "rmse": 1.2},
            {"ratio": 0.8, "seed": 1, "rmse": 0.9}]
    summary = summarize_ratio_sweep(rows)
    assert [s["ratio"] for s in summary] == [0.5, 0.8]
    assert summary[0]["mean_rmse"] == pytest.approx(1.1)
    assert summary[1]["mean_rmse"] == pytest.approx(0.8)
    assert all(s["n_seeds"] == 2 for s in summary)


def test_ratio_sweep_uses_fresh_split_per_seed(synthetic):
    ratings, scale = synthetic
    rows = sweep_training_ratio(ratings, scale, [0.8], quick_config(),
                                seeds=[0, 1])
    assert rows[0]["rmse"] != rows[1]["rmse"]
    assert rows[0]["n_train"] == rows[1]["n_train"]


def test_dae_sweep_grid(synthetic):
    ratings, scale = synthetic
    rows = sweep_dae(ratings, scale, [0.0, 0.25, 0.5, 1.0],
                     [0.0, 0.25, 0.5], quick_config(), SplitSpec(0.8, 3))
    assert len(rows) == 12
    cells = {(r["reconstruction_weight"], r["mask_ratio"]): r for r in rows}
    degenerate = cells[(0.0, 0.0)]
    assert degenerate["valid"] is False and degenerate["rmse"] is None
    for key, row in cells.items():
        if key != (0.0, 0.0):
            assert row["valid"] is True and row["rmse"] > 0
    assert all(row["seed"] == 3 for row in rows)


def test_dae_sweep_requires_unit_prediction_weight(synthetic):
    ratings, scale = synthetic
    with pytest.raises(ValueError, match="prediction weight"):
        sweep_dae(ratings, scale, [0.5], [0.25],
                  quick_config(prediction_weight=2.0), SplitSpec(0.8, 0))


@pytest.fixture(params=["fork", "spawn"])
def start_method(request):
    """Worker processes started by the given method; afterwards the
    resource tracker process that spawn starts is stopped, so that it does
    not outlive the tests, and the process's previous method comes back."""
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(request.param, force=True)
    yield request.param
    multiprocessing.resource_tracker._resource_tracker._stop()
    multiprocessing.set_start_method(before, force=True)


@pytest.mark.parametrize("sweep", [
    lambda ratings, scale, cfg, jobs: sweep_training_ratio(
        ratings, scale, [0.6, 0.8], cfg, seeds=[0], jobs=jobs),
    lambda ratings, scale, cfg, jobs: sweep_dae(
        ratings, scale, [0.0, 0.5], [0.0, 0.25], cfg, SplitSpec(0.8, 1),
        jobs=jobs),
], ids=["training-ratio", "dae"])
def test_parallel_sweep_matches_serial(synthetic, sweep, start_method):
    ratings, scale = synthetic
    cfg = quick_config(hidden=4)
    assert sweep(ratings, scale, cfg, 1) == sweep(ratings, scale, cfg, 2)


def _worker_view():
    """The sweep data and CPU count a worker process sees."""
    data = importlib.import_module("cfdae.evaluate")._worker_data
    return data, importlib.import_module("cfdae.train")._cpu_count()


def test_sweep_worker_holds_the_data_and_predicts_on_one_thread(
        synthetic, monkeypatch):
    ratings, scale = synthetic
    train_module = importlib.import_module("cfdae.train")
    evaluate_module = importlib.import_module("cfdae.evaluate")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    assert train_module._cpu_count() == 4
    with ProcessPoolExecutor(1, initializer=evaluate_module._init_worker,
                             initargs=(ratings, scale, None)) as pool:
        (held, held_scale, side), cpus = pool.submit(_worker_view).result(
            timeout=60)
    assert cpus == 1
    assert (held.users.tobytes(), held.items.tobytes(),
            held.ratings.tobytes()) == (ratings.users.tobytes(),
                                        ratings.items.tobytes(),
                                        ratings.ratings.tobytes())
    assert (held_scale, side) == (scale, None)
