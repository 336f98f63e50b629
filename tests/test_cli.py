"""End-to-end command-line workflow, exit codes, and manifests."""

import csv
import dataclasses
import hashlib
import importlib
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from cfdae import (SplitSpec, TrainConfig, config_digest, load_checkpoint,
                   load_snapshot, load_tag_snapshot, summarize_ratio_sweep,
                   sweep_dae, sweep_training_ratio)
from cfdae.cli import _merged_config, build_parser, main

# cfdae re-exports the function train(), which hides the submodule attribute
train_module = importlib.import_module("cfdae.train")

GENRES = ("Action", "Comedy", "Drama", "Horror", "Romance")


def write_corpus(root, n_users=30, n_items=20, seed=0):
    """Raw ratings CSV plus a genre file for every item."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n_users, 3)) @ rng.normal(size=(3, n_items))
    lines = ["user,item,rating"]
    for u in range(n_users):
        for i in range(n_items):
            if rng.random() < 0.35:
                r = int(np.clip(np.round(3 + base[u, i]), 1, 5))
                lines.append(f"{u + 1},{i + 1},{r}")
    ratings = root / "ratings.csv"
    ratings.write_text("\n".join(lines) + "\n")

    movie_lines = []
    for i in range(n_items):
        picks = rng.choice(len(GENRES), size=rng.integers(1, 3),
                           replace=False)
        names = "|".join(GENRES[p] for p in sorted(picks))
        movie_lines.append(f"{i + 1}::Movie {i + 1} (1999)::{names}")
    movies = root / "movies.dat"
    movies.write_text("\n".join(movie_lines) + "\n")
    return ratings, movies


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One ingested corpus and one small trained model, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw"
    raw.mkdir()
    ratings_csv, movies_dat = write_corpus(raw)
    data = root / "data"
    assert main(["ingest", "--ratings", str(ratings_csv), "--format", "csv",
                 "--tags", str(movies_dat), "--tag-format", "genre_flags",
                 "--out", str(data)]) == 0
    model = root / "model"
    assert main(["train", "--data", str(data), "--out", str(model),
                 "--hidden", "6", "--epochs", "2", "--batch-size", "16"]) == 0
    return {"root": root, "raw_ratings": ratings_csv, "raw_movies": movies_dat,
            "data": data, "model": model}


# ----------------------------------------------------------------- ingest

def test_ingest_artifacts(workspace):
    data = workspace["data"]
    for name in ("ratings.npz", "tags.npz", "stats.json",
                 "manifest_ingest.json"):
        assert (data / name).exists(), name
    stats = json.loads((data / "stats.json").read_text())
    assert stats["n_users"] == 30 and stats["n_items"] == 20
    assert 0 < stats["density"] < 1
    assert stats["scale"]["min"] == 1.0 and stats["scale"]["max"] == 5.0
    assert len(stats["fingerprint"]) == 64
    assert stats["tags"]["entity"] == "item"


def test_ingest_manifest_digests(workspace):
    manifest = json.loads(
        (workspace["data"] / "manifest_ingest.json").read_text())
    assert manifest["command"] == "ingest"
    raw = workspace["raw_ratings"]
    assert manifest["inputs"][str(raw)] == \
        hashlib.sha256(raw.read_bytes()).hexdigest()
    for out in manifest["outputs"]:
        assert Path(out).exists(), out
    assert manifest["started"] <= manifest["finished"]


def test_reingest_preserves_fingerprint(workspace, tmp_path):
    again = tmp_path / "data2"
    assert main(["ingest", "--ratings", str(workspace["raw_ratings"]),
                 "--format", "csv", "--out", str(again)]) == 0
    first, _, _ = load_snapshot(workspace["data"] / "ratings.npz")
    second, _, _ = load_snapshot(again / "ratings.npz")
    assert first.fingerprint() == second.fingerprint()
    assert first == second


def test_ingest_fingerprint_does_not_depend_on_snapshot_storage(workspace,
                                                                tmp_path):
    # the corpus's fingerprint as ingested by earlier versions, which
    # wrote compressed snapshots
    stats = json.loads((workspace["data"] / "stats.json").read_text())
    assert stats["fingerprint"] == (
        "74e9a337c92a566ff95ac6af0ee5f11577e67ec33cc2ccd1b23632fa4a5268c1")
    path = tmp_path / "ratings.npz"
    with np.load(workspace["data"] / "ratings.npz") as z:
        np.savez_compressed(path, **{k: z[k] for k in z.files})
    assert load_snapshot(path)[0].fingerprint() == stats["fingerprint"]


def test_ingest_adjacency_tags_describe_users_by_default(workspace,
                                                        tmp_path):
    # no --tag-entity: the format's default entity, "user", is recorded
    adjacency = tmp_path / "friends.csv"
    adjacency.write_text("1,2\n2,3\n")
    out = tmp_path / "data"
    assert main(["ingest", "--ratings", str(workspace["raw_ratings"]),
                 "--tags", str(adjacency), "--tag-format", "adjacency_csv",
                 "--out", str(out)]) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["tags"]["entity"] == "user"
    tags, entity = load_tag_snapshot(out / "tags.npz")
    assert entity == "user" and tags.n_entities == stats["n_users"]


def test_ingest_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("user,item,rating\n1,1\n")
    assert main(["ingest", "--ratings", str(bad), "--out",
                 str(tmp_path / "out")]) == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("which", ["ratings", "tags"])
def test_ingest_non_utf8_csv_exits_2(workspace, tmp_path, capsys, which):
    bad = tmp_path / "bad.csv"
    if which == "ratings":
        bad.write_bytes(b"user,item,rating\n1,2,\xff\xfe\n")
        argv = ["--ratings", str(bad)]
    else:
        bad.write_bytes(b"1,2\n\xff,3\n")
        argv = ["--ratings", str(workspace["raw_ratings"]), "--tags",
                str(bad), "--tag-format", "adjacency_csv"]
    out = tmp_path / "out"
    assert main(["ingest", *argv, "--out", str(out)]) == 2
    assert (f"{bad}: not UTF-8 text: invalid start byte 0xff"
            in capsys.readouterr().err)
    assert not out.exists()


def test_ingest_missing_file_exits_2(tmp_path):
    assert main(["ingest", "--ratings", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "out")]) == 2


# ------------------------------------------------------------------ train

def test_train_artifacts(workspace):
    model = workspace["model"]
    for name in ("checkpoint.npz", "loss_curve.csv", "manifest_train.json"):
        assert (model / name).exists(), name
    with open(model / "loss_curve.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 and rows[0]["rmse"] == ""

    manifest = json.loads((model / "manifest_train.json").read_text())
    assert manifest["config"]["train"]["hidden"] == 6
    assert manifest["config"]["train"]["epochs"] == 2
    assert manifest["config"]["train"]["orientation"] == "item"
    assert manifest["config"]["split"] == {"train_fraction": 0.9, "seed": 0}
    listed = {name.rsplit("/", 1)[-1] for name in manifest["outputs"]}
    assert {"checkpoint.npz", "loss_curve.csv"} <= listed

    ckpt = load_checkpoint(model / "checkpoint.npz")
    assert ckpt.state.epoch == 2
    assert ckpt.split is not None and ckpt.data_fingerprint


def test_train_with_eval_and_epoch_checkpoints(workspace, tmp_path):
    out = tmp_path / "model"
    assert main(["train", "--data", str(workspace["data"]), "--out", str(out),
                 "--hidden", "4", "--epochs", "2", "--eval-each-epoch",
                 "--checkpoint-each-epoch"]) == 0
    with open(out / "loss_curve.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["rmse"]) > 0 for r in rows)
    epoch_files = sorted((out / "epochs").glob("epoch_*.npz"))
    assert len(epoch_files) == 2
    manifest = json.loads((out / "manifest_train.json").read_text())
    assert any("epoch_000" in o for o in manifest["outputs"])


def test_epoch_checkpoints_are_complete(workspace, tmp_path):
    # each epoch file carries what checkpoint.npz does, so the last one
    # evaluates as the final checkpoint does
    def run(out, epochs):
        assert main(["train", "--data", str(workspace["data"]), "--out",
                     str(out), "--side", "both", "--side-svd-dim", "3",
                     "--hidden", "4", "--epochs", str(epochs),
                     "--eval-each-epoch", "--checkpoint-each-epoch"]) == 0
        return load_checkpoint(out / "checkpoint.npz")

    out = tmp_path / "model"
    final = run(out, 2)
    fingerprint = json.loads(
        (workspace["data"] / "stats.json").read_text())["fingerprint"]
    epoch_files = sorted((out / "epochs").iterdir())
    assert [f.name for f in epoch_files] == ["epoch_000.npz", "epoch_001.npz"]
    for k, path in enumerate(epoch_files):
        ckpt = load_checkpoint(path)
        assert ckpt.state.epoch == k + 1
        assert ckpt.state.history[-1].rmse > 0
        assert ckpt.split == SplitSpec(0.9, 0)
        assert ckpt.data_fingerprint == fingerprint
        np.testing.assert_array_equal(ckpt.side.features,
                                      final.side.features)

    with np.load(epoch_files[-1]) as last, \
            np.load(out / "checkpoint.npz") as whole:
        assert sorted(last.files) == sorted(whole.files)
        for key in whole.files:
            np.testing.assert_array_equal(last[key], whole[key], err_msg=key)

    first = run(tmp_path / "one_epoch", 1).state.params
    got = load_checkpoint(epoch_files[0]).state.params
    for name in ("W1", "b1", "W2", "b2"):
        np.testing.assert_array_equal(getattr(got, name), getattr(first, name))

    resumed = tmp_path / "from_epoch"
    resumed.mkdir()
    shutil.copy(epoch_files[-1], resumed / "checkpoint.npz")
    for model in (out, resumed):
        assert main(["evaluate", "--model", str(model), "--data",
                     str(workspace["data"])]) == 0
    assert ((resumed / "report.json").read_bytes()
            == (out / "report.json").read_bytes())


def test_train_missing_data_exits_2(tmp_path, capsys):
    assert main(["train", "--data", str(tmp_path / "ghost"),
                 "--out", str(tmp_path / "m")]) == 2
    assert "ingest" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exits_3(workspace, tmp_path, capsys):
    assert main(["train", "--data", str(workspace["data"]),
                 "--out", str(tmp_path / "m"), "--hidden", "4",
                 "--epochs", "1", "--batch-size", "1",
                 "--lr0", "1e308"]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_keeps_finished_epoch_checkpoints(
        workspace, tmp_path, capsys, monkeypatch):
    # the first epoch trains at the normal rate, the second at one that
    # diverges
    monkeypatch.setattr(train_module, "learning_rate",
                        lambda cfg, epoch: cfg.lr0 if epoch == 0 else 1e308)
    out = tmp_path / "m"
    assert main(["train", "--data", str(workspace["data"]), "--out",
                 str(out), "--hidden", "4", "--epochs", "2",
                 "--batch-size", "1", "--checkpoint-each-epoch"]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) \
        == ["epochs", "epochs/epoch_000.npz"]
    assert load_checkpoint(out / "epochs" / "epoch_000.npz").state.epoch == 1


def test_train_bad_hyperparameter_exits_1(workspace, tmp_path):
    assert main(["train", "--data", str(workspace["data"]),
                 "--out", str(tmp_path / "m"), "--epochs", "0"]) == 1


@pytest.mark.parametrize("argv,message", [
    pytest.param(["train", "--train-fraction", "1.5"], "train_fraction",
                 id="train-fraction"),
    pytest.param(["train", "--split-seed", "-1"], "seed must be nonnegative",
                 id="split-seed"),
    # a checkpoint stores the seed as a float64, which holds 2**53 + 1 as 2**53
    pytest.param(["train", "--split-seed", str(2**53 + 1)],
                 "seed must be at most 2**53", id="split-seed-above-2**53"),
    pytest.param(["sweep", "--kind", "ratio", "--ratios", "1.5"],
                 "train_fraction", id="ratios"),
    pytest.param(["sweep", "--kind", "dae", "--train-fraction", "0"],
                 "train_fraction", id="dae-train-fraction"),
    # the sweeps check every cell before the first one trains
    pytest.param(["sweep", "--kind", "ratio", "--seeds", "-1"],
                 "seed must be nonnegative", id="seeds"),
    pytest.param(["sweep", "--kind", "dae", "--mask-ratios", "1.5"],
                 "mask_ratio", id="mask-ratios"),
    pytest.param(["sweep", "--kind", "dae", "--recon-weights", "-1"],
                 "loss weights must be nonnegative", id="recon-weights"),
    pytest.param(["sweep", "--kind", "dae", "--prediction-weight", "2"],
                 "prediction weight", id="dae-prediction-weight"),
])
def test_bad_split_flags_exit_1(workspace, tmp_path, capsys, argv, message):
    assert main(argv + ["--data", str(workspace["data"]), "--out",
                        str(tmp_path / "m"), "--hidden", "4",
                        "--epochs", "1"]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("flags", [
    ["--lr0", "nan"], ["--lr0", "inf"], ["--lr-decay", "nan"],
    ["--prediction-weight", "nan"], ["--weight-decay", "inf"],
    ["--config", "{config}"]])
def test_train_non_finite_hyperparameter_exits_1(workspace, tmp_path, capsys,
                                                 flags):
    config = tmp_path / "train.cfg"
    config.write_text("lr0 = nan\n")
    flags = [flag.format(config=config) for flag in flags]
    out = tmp_path / "m"
    assert main(["train", "--data", str(workspace["data"]), "--out",
                 str(out), "--hidden", "4", "--epochs", "1", *flags]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_train_negative_side_svd_dim_exits_1(workspace, tmp_path, capsys):
    out = tmp_path / "m"
    assert main(["train", "--data", str(workspace["data"]), "--out",
                 str(out), "--side", "both", "--side-svd-dim", "-1",
                 "--side-binary", "--hidden", "4", "--epochs", "1"]) == 1
    assert "--side-svd-dim must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_train_side_info_without_tags_exits_2(workspace, tmp_path, capsys):
    plain = tmp_path / "data"
    assert main(["ingest", "--ratings", str(workspace["raw_ratings"]),
                 "--out", str(plain)]) == 0
    assert main(["train", "--data", str(plain), "--out", str(tmp_path / "m"),
                 "--side", "both", "--epochs", "1", "--hidden", "4"]) == 2
    assert "--tags" in capsys.readouterr().err


def test_train_side_info_runs(workspace, tmp_path):
    out = tmp_path / "side_model"
    assert main(["train", "--data", str(workspace["data"]), "--out", str(out),
                 "--side", "hidden_only", "--side-svd-dim", "3",
                 "--side-binary", "--hidden", "5", "--epochs", "1"]) == 0
    ckpt = load_checkpoint(out / "checkpoint.npz")
    assert ckpt.side is not None
    assert ckpt.state.params.p_hidden == ckpt.side.dim > 3
    assert ckpt.state.params.p_in == 0

    # the stored table must be enough to evaluate the model later
    assert main(["evaluate", "--model", str(out), "--data",
                 str(workspace["data"])]) == 0


# --------------------------------------------------------- config merging

def parse(argv):
    args = build_parser().parse_args(argv)
    args.raw_argv = argv
    return args


def test_defaults_match_documented_values():
    cfg = _merged_config(parse(["train", "--data", "d", "--out", "o"]))
    assert cfg == TrainConfig()


def test_flags_override_config_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("hidden = 4\nlr0 = 0.5  # tuned down\n\n"
                        "orientation = user\n")
    merged = _merged_config(parse(["train", "--data", "d", "--out", "o",
                                   "--config", str(cfg_file),
                                   "--hidden", "9"]))
    assert merged.hidden == 9          # flag beats file
    assert merged.lr0 == 0.5           # file beats default
    assert merged.orientation == "user"
    assert merged.epochs == 20         # untouched default


def test_orientation_aliases():
    assert _merged_config(parse(["train", "--data", "d", "--out", "o",
                                 "--orientation", "i"])).orientation == "item"
    assert _merged_config(parse(["train", "--data", "d", "--out", "o",
                                 "--orientation", "u"])).orientation == "user"


def test_weight_decay_flag_forms():
    argv = ["train", "--data", "d", "--out", "o", "--weight-decay"]
    assert _merged_config(parse(argv + ["auto"])).weight_decay is None
    assert _merged_config(parse(argv + ["0.01"])).weight_decay == 0.01


def test_config_file_sets_every_field(tmp_path):
    want = TrainConfig(orientation="user", hidden=7, prediction_weight=0.75,
                       reconstruction_weight=0.25, mask_ratio=0.5,
                       weight_decay=0.001, lr0=0.2, lr_decay=0.1, epochs=3,
                       batch_size=5, seed=4, side_info="both")
    assert all(getattr(want, f.name) != f.default
               for f in dataclasses.fields(TrainConfig))
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("".join(f"{key} = {value}\n" for key, value
                                in dataclasses.asdict(want).items()))
    got = _merged_config(parse(["train", "--data", "d", "--out", "o",
                                "--config", str(cfg_file)]))
    assert got == want
    assert ({k: type(v) for k, v in dataclasses.asdict(got).items()}
            == {k: type(v) for k, v in dataclasses.asdict(want).items()})
    cfg_file.write_text("weight_decay = auto\n")
    assert _merged_config(parse(["train", "--data", "d", "--out", "o",
                                 "--config", str(cfg_file)])) == TrainConfig()


def test_config_file_unknown_key_exits_1(workspace, tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("momentum = 0.9\n")
    assert main(["train", "--data", str(workspace["data"]),
                 "--out", str(tmp_path / "m"), "--config",
                 str(cfg_file)]) == 1
    assert "momentum" in capsys.readouterr().err


def test_config_file_syntax_error_mentions_line(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("hidden = 4\njust words\n")
    with pytest.raises(ValueError, match=r":2:"):
        _merged_config(parse(["train", "--data", "d", "--out", "o",
                              "--config", str(cfg_file)]))


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as err:
        main(["train", "--nonsense"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["train", "--data", "d", "--out", "o", "--orientation", "both"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1


# --------------------------------------------------------------- evaluate

def test_evaluate_artifacts(workspace, tmp_path):
    out = tmp_path / "report"
    assert main(["evaluate", "--model", str(workspace["model"]),
                 "--data", str(workspace["data"]), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["rmse"] > 0 and report["n_test"] > 0
    assert list(report) == ["rmse", "n_test", "per_cluster", "config_digest",
                            "seed", "baseline_rmse",
                            "improvement_pct_vs_baseline"]
    assert report["baseline_rmse"] > 0
    ckpt = load_checkpoint(workspace["model"] / "checkpoint.npz")
    assert report["config_digest"] == config_digest(
        ckpt.state.config, ckpt.split, ckpt.data_fingerprint)
    assert report["seed"] == ckpt.state.config.seed
    assert len(report["per_cluster"]) == 5
    assert sum(c["n_entries"] for c in report["per_cluster"]) == \
        report["n_test"]
    with open(out / "clusters.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["cluster"] for r in rows[:2]] == ["0-20%", "20-40%"]
    assert (out / "manifest_evaluate.json").exists()


def test_evaluate_prints_summary(workspace, capsys):
    assert main(["evaluate", "--model", str(workspace["model"]),
                 "--data", str(workspace["data"])]) == 0
    captured = capsys.readouterr().out
    assert "test rmse" in captured and "bias baseline" in captured
    assert "0-20%" in captured


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_evaluate_fingerprint_mismatch_exits_2(workspace, tmp_path, capsys,
                                               command):
    other_raw = tmp_path / "raw"
    other_raw.mkdir()
    ratings_csv, _movies = write_corpus(other_raw, seed=9)
    other_data = tmp_path / "data"
    assert main(["ingest", "--ratings", str(ratings_csv),
                 "--out", str(other_data)]) == 0
    capsys.readouterr()
    argv = [command, "--model", str(workspace["model"]),
            "--data", str(other_data)]
    if command == "predict":
        argv += ["--user", "1", "--item", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "different data" in err
    assert str(other_data / "ratings.npz") in err


def test_evaluate_missing_checkpoint_exits_2(workspace, tmp_path):
    assert main(["evaluate", "--model", str(tmp_path),
                 "--data", str(workspace["data"])]) == 2


def _with_nan(w):
    w = w.copy()
    w.flat[0] = np.nan
    return w


@pytest.mark.parametrize("key,change,message", [
    pytest.param("w2", _with_nan, "parameters must be finite: W2 is not",
                 id="nan-w2"),
    pytest.param("w1", _with_nan, "parameters must be finite: W1 is not",
                 id="nan-w1"),
    pytest.param("w1", lambda w: w[:, :-1], "narrower", id="narrow-w1"),
    pytest.param("b1", lambda b: b[:-1], "disagree", id="short-b1"),
])
def test_evaluate_bad_weights_exit_2(workspace, tmp_path, capsys, key,
                                     change, message):
    with np.load(workspace["model"] / "checkpoint.npz") as z:
        arrays = {k: z[k] for k in z.files}
    arrays[key] = change(arrays[key])
    np.savez(tmp_path / "checkpoint.npz", **arrays)
    assert main(["evaluate", "--model", str(tmp_path),
                 "--data", str(workspace["data"])]) == 2
    assert message in capsys.readouterr().err


def _stored_config(edit):
    """A change to a checkpoint's members that rewrites its stored config."""
    def change(arrays):
        arrays["config_json"] = edit(json.loads(str(arrays["config_json"])))
    return change


@pytest.mark.parametrize("command", ["evaluate", "predict"])
@pytest.mark.parametrize("change,message", [
    pytest.param(_stored_config(lambda c: json.dumps({**c, "mask_ratio": 1.5})),
                 "mask_ratio", id="mask-ratio"),
    pytest.param(_stored_config(lambda c: json.dumps({**c, "dropout": 0.1})),
                 "dropout", id="unknown-key"),
    pytest.param(_stored_config(lambda c: json.dumps(c)[:-1]), "Expecting",
                 id="malformed"),
    pytest.param(_stored_config(
        lambda c: json.dumps({**c, "orientation": "movie"})),
                 "unknown orientation 'movie': the entity kind is 'user' or "
                 "'item'", id="orientation"),
    pytest.param(_stored_config(lambda c: json.dumps({**c, "lr0": math.nan})),
                 "lr0 must be positive and finite", id="nan-lr0"),
    # the same check as --train-fraction, but the file is at fault
    pytest.param(lambda a: a.update(split=np.array([1.5, 0.0])),
                 "train_fraction", id="split"),
])
def test_bad_stored_config_exits_2(workspace, tmp_path, capsys, command,
                                   change, message):
    with np.load(workspace["model"] / "checkpoint.npz") as z:
        arrays = {k: z[k] for k in z.files}
    change(arrays)
    np.savez(tmp_path / "checkpoint.npz", **arrays)
    argv = [command, "--model", str(tmp_path), "--data",
            str(workspace["data"])]
    if command == "predict":
        argv += ["--user", "1", "--item", "1"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def _wider_w1(arrays):
    w1 = arrays["w1"]
    arrays["w1"] = np.hstack([w1, np.zeros((w1.shape[0], 2))])


@pytest.mark.parametrize("change,message", [
    pytest.param(_stored_config(lambda c: json.dumps({**c, "hidden": 9})),
                 "(hidden, p_in, p_hidden) (6, 0, 0) do not match the "
                 "config's (9, 0, 0)", id="hidden"),
    pytest.param(_stored_config(
        lambda c: json.dumps({**c, "side_info": "both"})),
                 "side_info mode 'both' needs a side table", id="side-info"),
    pytest.param(lambda a: a.update(bias_orientation=np.array("user")),
                 "bias table orientation 'user' does not match config "
                 "orientation 'item'", id="bias-orientation"),
    pytest.param(_wider_w1, "(hidden, p_in, p_hidden) (6, 2, 0) do not "
                 "match the config's (6, 0, 0)", id="wider-w1"),
])
def test_checkpoint_that_contradicts_itself_exits_2(workspace, tmp_path,
                                                    capsys, change, message):
    with np.load(workspace["model"] / "checkpoint.npz") as z:
        arrays = {k: z[k] for k in z.files}
    change(arrays)
    model, out = tmp_path / "model", tmp_path / "report"
    model.mkdir()
    np.savez(model / "checkpoint.npz", **arrays)
    assert main(["evaluate", "--model", str(model), "--data",
                 str(workspace["data"]), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "predict"])
@pytest.mark.parametrize("absent", [
    pytest.param({"data_fingerprint": ""}, id="no-fingerprint"),
    pytest.param({"has_split": False, "split": np.zeros(2)}, id="no-split"),
])
def test_checkpoint_without_split_or_fingerprint_exits_2(
        workspace, tmp_path, capsys, command, absent):
    # the members earlier versions wrote for a checkpoint saved without them
    with np.load(workspace["model"] / "checkpoint.npz") as z:
        arrays = {k: z[k] for k in z.files}
    path = tmp_path / "checkpoint.npz"
    np.savez(path, **{**arrays, "has_split": True, **absent})
    argv = [command, "--model", str(tmp_path), "--data",
            str(workspace["data"])]
    if command == "predict":
        argv += ["--user", "1", "--item", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count(str(path)) == 1
    assert "no train/test split or data fingerprint" in err
    assert not (tmp_path / "report.json").exists()


def test_evaluate_with_an_exact_baseline_reports_no_improvement(tmp_path):
    # every rating equal, as unary feedback gives: the bias baseline is
    # exact, so the gain over it is undefined
    rng = np.random.default_rng(0)
    cells = rng.choice(40 * 30, size=400, replace=False)
    ratings_csv = tmp_path / "ratings.csv"
    ratings_csv.write_text("user,item,rating\n" + "".join(
        f"{c // 30},{c % 30},1\n" for c in cells))
    data, model = tmp_path / "data", tmp_path / "model"
    assert main(["ingest", "--ratings", str(ratings_csv),
                 "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--out", str(model),
                 "--hidden", "4", "--epochs", "1"]) == 0
    assert main(["evaluate", "--model", str(model), "--data", str(data)]) == 0
    report = json.loads((model / "report.json").read_text())
    assert report["baseline_rmse"] == 0.0
    assert report["improvement_pct_vs_baseline"] is None


def _truncate(path):
    whole = path.read_bytes()
    path.write_bytes(whole[:len(whole) // 2])


def _as_text(path):
    path.write_text("not an archive\n")


def _drop(member):
    def damage(path):
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files if k != member}
        np.savez(path, **arrays)
    return damage


@pytest.mark.parametrize("command,target,member", [
    pytest.param("evaluate", "model/checkpoint.npz", "bias_means",
                 id="evaluate"),
    pytest.param("train", "data/ratings.npz", "values", id="train"),
])
@pytest.mark.parametrize("damage", ["truncated", "text", "missing-member"])
def test_damaged_npz_exits_2(workspace, tmp_path, capsys, command, target,
                             member, damage):
    for name in ("data", "model"):
        shutil.copytree(workspace[name], tmp_path / name)
    path = tmp_path / target
    {"truncated": _truncate, "text": _as_text,
     "missing-member": _drop(member)}[damage](path)
    if command == "evaluate":
        argv = ["evaluate", "--model", str(tmp_path / "model")]
    else:
        argv = ["train", "--out", str(tmp_path / "out"), "--hidden", "4",
                "--epochs", "1"]
    assert main(argv + ["--data", str(tmp_path / "data")]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "predict"])
@pytest.mark.parametrize("member", ["user_ids", "item_ids"])
def test_snapshot_ids_that_disagree_with_the_matrix_exit_2(
        workspace, tmp_path, capsys, command, member):
    for name in ("data", "model"):
        shutil.copytree(workspace[name], tmp_path / name)
    path = tmp_path / "data" / "ratings.npz"
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    arrays[member] = np.append(arrays[member], "extra")
    np.savez(path, **arrays)
    argv = [command, "--model", str(tmp_path / "model"),
            "--data", str(tmp_path / "data")]
    if command == "predict":
        argv += ["--user", "extra", "--item", "extra"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "ids for a 30 x 20 matrix" in err


# ---------------------------------------------------------------- predict

def test_predict_known_pair(workspace, capsys):
    assert main(["predict", "--model", str(workspace["model"]),
                 "--data", str(workspace["data"]),
                 "--user", "1", "--item", "1"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert 1.0 <= value <= 5.0


def test_predict_unknown_id_falls_back(workspace, capsys):
    assert main(["predict", "--model", str(workspace["model"]),
                 "--data", str(workspace["data"]),
                 "--user", "no-such-user", "--item", "1"]) == 0
    captured = capsys.readouterr()
    assert "unknown user" in captured.err
    ckpt = load_checkpoint(workspace["model"] / "checkpoint.npz")
    _, scale, _ = load_snapshot(workspace["data"] / "ratings.npz")
    expected = float(scale.clamp(ckpt.bias.global_mean))
    assert captured.out.strip() == f"{expected:.4f}"


# ------------------------------------------------------------------ sweep

def test_sweep_ratio_cli(workspace, tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    # one CPU in the affinity mask, whatever os.cpu_count() says
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    out = tmp_path / "sweep"
    assert main(["sweep", "--kind", "ratio", "--data", str(workspace["data"]),
                 "--out", str(out), "--ratios", "0.5,0.8", "--seeds", "0,1",
                 "--hidden", "4", "--epochs", "1"]) == 0
    with open(out / "sweep_ratio.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["ratio"], r["seed"]) for r in rows] == \
        [("0.5", "0"), ("0.5", "1"), ("0.8", "0"), ("0.8", "1")]
    assert all(float(r["rmse"]) > 0 for r in rows)
    # the library's rows, with \n line ends and floats as their repr
    ratings, scale, _ids = load_snapshot(workspace["data"] / "ratings.npz")
    cells = sweep_training_ratio(ratings, scale, [0.5, 0.8],
                                 TrainConfig(hidden=4, epochs=1), [0, 1])
    assert (out / "sweep_ratio.csv").read_bytes() == "".join(
        ["ratio,seed,rmse,n_train,n_test\n"]
        + [f"{c['ratio']!r},{c['seed']},{c['rmse']!r},{c['n_train']},"
           f"{c['n_test']}\n" for c in cells]).encode()

    with open(out / "sweep_ratio_summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert [s["ratio"] for s in summary] == ["0.5", "0.8"]
    assert all(s["n_seeds"] == "2" for s in summary)
    assert all("2 seeds" in s["label"] for s in summary)
    seeds_05 = [float(r["rmse"]) for r in rows if r["ratio"] == "0.5"]
    assert float(summary[0]["mean_rmse"]) == \
        pytest.approx(sum(seeds_05) / 2, rel=1e-12)
    # \n line ends and floats as their repr, so the rows parse back exactly
    want = summarize_ratio_sweep([{"ratio": float(r["ratio"]),
                                   "rmse": float(r["rmse"])} for r in rows])
    assert (out / "sweep_ratio_summary.csv").read_bytes() == "".join(
        ["ratio,n_seeds,mean_rmse,plus_minus,label\n"]
        + [f"{s['ratio']!r},2,{s['mean_rmse']!r},{s['plus_minus']!r},"
           f"{s['label']}\n" for s in want]).encode()

    manifest = json.loads((out / "manifest_sweep.json").read_text())
    assert manifest["config"]["kind"] == "ratio"
    assert manifest["config"]["ratios"] == [0.5, 0.8]
    # J x BLAS threads can be read off the manifest
    assert manifest["config"]["jobs"] == 1
    assert manifest["config"]["cpu_count"] == 1
    assert manifest["config"]["OPENBLAS_NUM_THREADS"] == "1"
    assert manifest["config"]["OMP_NUM_THREADS"] is None
    assert any("sweep_ratio_summary" in o for o in manifest["outputs"])


def test_sweep_dae_cli(workspace, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--kind", "dae", "--data", str(workspace["data"]),
                 "--out", str(out), "--recon-weights", "0,0.5",
                 "--mask-ratios", "0,0.25", "--hidden", "4",
                 "--epochs", "1"]) == 0
    with open(out / "sweep_dae.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    invalid = [r for r in rows if r["valid"] == "False"]
    assert len(invalid) == 1
    assert invalid[0]["reconstruction_weight"] == "0.0"
    assert invalid[0]["mask_ratio"] == "0.0"
    assert invalid[0]["rmse"] == ""
    # the library's rows, with a blank field for the invalid cell's rmse
    ratings, scale, _ids = load_snapshot(workspace["data"] / "ratings.npz")
    cells = sweep_dae(ratings, scale, [0.0, 0.5], [0.0, 0.25],
                      TrainConfig(hidden=4, epochs=1), SplitSpec(0.9, 0))
    assert (out / "sweep_dae.csv").read_bytes() == "".join(
        ["reconstruction_weight,mask_ratio,valid,rmse,seed\n",
         "0.0,0.0,False,,0\n"]
        + [f"{c['reconstruction_weight']!r},{c['mask_ratio']!r},True,"
           f"{c['rmse']!r},0\n" for c in cells[1:]]).encode()


def test_sweep_divergence_exits_3_in_parallel_too(workspace, tmp_path,
                                                  capsys):
    # a diverging cell reports the same error whether it ran in this
    # process or in a worker
    errors = []
    for jobs in ("1", "2"):
        argv = ["sweep", "--kind", "ratio", "--data", str(workspace["data"]),
                "--out", str(tmp_path / jobs), "--ratios", "0.5,0.8",
                "--seeds", "0", "--hidden", "8", "--epochs", "2",
                "--lr0", "1e308", "--jobs", jobs]
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(argv) == 3
        errors.append(capsys.readouterr().err.strip().splitlines()[-1])
    assert errors[0].startswith("error: non-finite training signal in ")
    assert errors[1] == errors[0]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_exits_1(workspace, tmp_path, capsys, jobs):
    out = tmp_path / "sweep"
    assert main(["sweep", "--kind", "ratio", "--data", str(workspace["data"]),
                 "--out", str(out), "--ratios", "0.5", "--seeds", "0",
                 "--hidden", "4", "--epochs", "1", "--jobs", jobs]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind,flag", [
    ("ratio", "--ratios"), ("ratio", "--seeds"),
    ("dae", "--recon-weights"), ("dae", "--mask-ratios")])
def test_sweep_empty_grid_exits_1(workspace, tmp_path, capsys, kind, flag):
    out = tmp_path / "sweep"
    assert main(["sweep", "--kind", kind, "--data", str(workspace["data"]),
                 "--out", str(out), flag, ",", "--hidden", "4",
                 "--epochs", "1"]) == 1
    assert f"{flag} lists no values" in capsys.readouterr().err
    assert not out.exists()
