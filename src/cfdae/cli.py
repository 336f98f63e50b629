"""Command-line workflow: ingest, train, evaluate, sweep, predict.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numeric failure during training.  Hyperparameter flags override the
optional key=value config file, which overrides the built-in defaults.
Every command that writes artifacts also writes a manifest listing its
inputs (with content digests), outputs, and full configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import logging
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from .data import (DataError, ENTITIES, SplitSpec, RATING_FORMATS,
                   TAG_FORMATS, load_ratings, load_snapshot,
                   load_tag_snapshot, load_tags, save_snapshot,
                   save_tag_snapshot, split, write_csv, write_json)
from .evaluate import (BiasPredictor, build_report, config_digest,
                       improvement_pct, rmse, summarize_ratio_sweep,
                       sweep_dae, sweep_training_ratio)
from .preprocess import (build_side_info, fit_bias, fit_scaler, svd_embed)
from .train import (SIDE_MODES, TrainConfig, TrainingDiverged, _config_type,
                    _cpu_count, complete_matrix, load_checkpoint,
                    save_checkpoint, train)

log = logging.getLogger(__name__)

# field name -> (its type, whether it admits None)
_CONFIG_TYPES = {f.name: _config_type(f.type)
                 for f in dataclasses.fields(TrainConfig)}
_ORIENT_ALIAS = {"u": "user", "i": "item"}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures exiting 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _coerce_config_value(key: str, value):
    """value as TrainConfig's field type; "auto"/"none" is None if optional."""
    if key not in _CONFIG_TYPES:
        raise ValueError(f"unknown config key {key!r}")
    kind, optional = _CONFIG_TYPES[key]
    if optional and str(value).lower() in ("auto", "none"):
        return None
    return kind(value)


def _read_config_file(path) -> dict:
    """Flat `key = value` lines; '#' starts a comment."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, text = (part.strip() for part in line.split("=", 1))
            values[key] = _coerce_config_value(key, text)
    return values


def _merged_config(args) -> TrainConfig:
    merged = dataclasses.asdict(TrainConfig())
    if getattr(args, "config", None):
        merged.update(_read_config_file(args.config))
    for key in _CONFIG_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = _coerce_config_value(key, value)
    merged["orientation"] = _ORIENT_ALIAS.get(merged["orientation"],
                                              merged["orientation"])
    return TrainConfig(**merged)


def _sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _write_manifest(out_dir: Path, command: str, args, config: dict,
                    inputs, outputs, started: str):
    manifest = {
        "command": command,
        "argv": list(args.raw_argv),
        "config": config,
        "inputs": {str(p): _sha256_file(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "started": started,
        "finished": _now(),
    }
    path = out_dir / f"manifest_{command}.json"
    write_json(path, manifest)
    return path


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _build_side(cfg: TrainConfig, data_dir: Path, svd_dim: int,
                use_binary: bool):
    """Side-information table for the configured entity, or None."""
    if svd_dim < 0:
        raise ValueError(f"--side-svd-dim must be nonnegative, got {svd_dim}")
    if cfg.side_info == "none":
        return None
    tag_path = data_dir / "tags.npz"
    if not tag_path.exists():
        raise DataError(f"side information requested but {tag_path} is "
                        "missing; re-run ingest with --tags")
    tags, entity = load_tag_snapshot(tag_path)
    if entity != cfg.orientation:
        raise DataError(f"ingested tags describe each {entity}, but the "
                        f"model is {cfg.orientation}-oriented")
    if tags.n_tags == 0:
        raise DataError(f"{tag_path} holds no tags; re-run ingest with a "
                        "tag file that names known entities")
    svd_part = None
    if svd_dim > 0:
        limit = min(tags.n_entities, tags.n_tags)
        k = min(svd_dim, limit)
        if k < svd_dim:
            log.warning("reducing SVD dimension from %d to %d for a %dx%d "
                        "tag matrix", svd_dim, k, tags.n_entities, tags.n_tags)
        svd_part = svd_embed(tags, k)
    binary_part = tags.binary() if use_binary else None
    if svd_part is None and binary_part is None:
        raise ValueError("side information enabled but --side-svd-dim is 0 "
                         "and --side-binary is not set")
    return build_side_info(svd_part, binary_part)


def _load_data_dir(data_dir: Path):
    path = data_dir / "ratings.npz"
    if not path.exists():
        raise DataError(f"{path} not found; run ingest first")
    return load_snapshot(path), path


def _set_up_run(args):
    """The start train and sweep share, which writes nothing: (config,
    ratings, scale, side table or None, the inputs their manifest lists)."""
    cfg = _merged_config(args)
    data_dir = Path(args.data)
    (ratings, scale, _ids), ratings_path = _load_data_dir(data_dir)
    side = _build_side(cfg, data_dir, args.side_svd_dim, args.side_binary)
    tags = [] if side is None else [data_dir / "tags.npz"]
    return cfg, ratings, scale, side, [ratings_path, *tags]


# ---------------------------------------------------------------- commands

def cmd_ingest(args) -> int:
    started = _now()
    ratings, scale, ids = load_ratings(args.ratings, args.format)
    inputs = [args.ratings]

    stats = {
        "n_users": ratings.n_users,
        "n_items": ratings.n_items,
        "n_ratings": ratings.n_entries,
        "density": ratings.density,
        "scale": {"min": scale.min_rating, "max": scale.max_rating,
                  "is_discrete": scale.is_discrete, "step": scale.step},
        "fingerprint": ratings.fingerprint(),
    }
    if args.tags:
        entity = args.tag_entity or TAG_FORMATS[args.tag_format]
        tags = load_tags(args.tags, args.tag_format, ids, entity)
        inputs.append(args.tags)
        stats["tags"] = {"entity": entity, "n_tags": tags.n_tags,
                         "nnz": int(tags.counts.nnz)}

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_snapshot(out / "ratings.npz", ratings, scale, ids)
    outputs = [out / "ratings.npz"]
    if args.tags:
        save_tag_snapshot(out / "tags.npz", tags, entity)
        outputs.append(out / "tags.npz")
    write_json(out / "stats.json", stats)
    outputs.append(out / "stats.json")
    _write_manifest(out, "ingest", args,
                    {"format": args.format, "tag_format": args.tag_format,
                     "tag_entity": args.tag_entity},
                    inputs, outputs, started)
    print(f"ingested {ratings.n_entries} ratings: {ratings.n_users} users x "
          f"{ratings.n_items} items, density {ratings.density:.4%}")
    return 0


def cmd_train(args) -> int:
    started = _now()
    split_spec = SplitSpec(args.train_fraction, args.split_seed)
    cfg, ratings, scale, side, inputs = _set_up_run(args)

    train_m, test_m = split(ratings, split_spec)
    bias = fit_bias(train_m, cfg.orientation)
    scaler = fit_scaler(scale, bias)

    fingerprint = ratings.fingerprint()
    epoch_paths = []
    # --out appears with its first file, so a run that diverges before
    # then leaves none
    out = Path(args.out)

    def eval_hook(state):
        """Scores and checkpoints the epoch just finished, as flagged."""
        record = state.history[-1]
        if args.eval_each_epoch:
            completer = complete_matrix(train_m, state, bias, scaler, side)
            record.rmse = rmse(completer, test_m)
        if args.checkpoint_each_epoch:
            path = out / "epochs" / f"epoch_{record.epoch:03d}.npz"
            path.parent.mkdir(parents=True, exist_ok=True)
            save_checkpoint(path, state, bias, scaler, split_spec,
                            fingerprint, side)
            epoch_paths.append(path)
        return record.rmse

    state = train(train_m, cfg, bias, scaler, side=side, eval_hook=eval_hook)

    out.mkdir(parents=True, exist_ok=True)
    ckpt_path = out / "checkpoint.npz"
    save_checkpoint(ckpt_path, state, bias, scaler, split_spec, fingerprint,
                    side)
    curve_path = write_csv(out / "loss_curve.csv",
                           [{"epoch": r.epoch, "loss": r.mean_loss,
                             "rmse": r.rmse} for r in state.history])
    outputs = [ckpt_path, curve_path, *epoch_paths]
    _write_manifest(out, "train", args,
                    {"train": dataclasses.asdict(cfg),
                     "split": {"train_fraction": split_spec.train_fraction,
                               "seed": split_spec.seed},
                     "side_svd_dim": args.side_svd_dim,
                     "side_binary": args.side_binary},
                    inputs, outputs, started)
    last = state.history[-1]
    tail = "" if last.rmse is None else f", test rmse {last.rmse:.4f}"
    print(f"trained {state.epoch} epochs ({cfg.orientation}-oriented); "
          f"final mean loss {last.mean_loss:.6f}{tail}")
    print(f"checkpoint: {ckpt_path}")
    return 0


def _load_model(args):
    """The checkpoint under --model, the snapshot under --data that it was
    trained on, and that snapshot split as the checkpoint records.

    Returns (ckpt, scale, ids, train, test, [checkpoint path, ratings path]).
    """
    ckpt_path = Path(args.model) / "checkpoint.npz"
    if not ckpt_path.exists():
        raise DataError(f"{ckpt_path} not found")
    ckpt = load_checkpoint(ckpt_path)
    (ratings, scale, ids), ratings_path = _load_data_dir(Path(args.data))
    if ckpt.data_fingerprint != ratings.fingerprint():
        raise DataError(f"{ckpt_path} was trained on different data than "
                        f"{ratings_path}")
    train_m, test_m = split(ratings, ckpt.split)
    return ckpt, scale, ids, train_m, test_m, [ckpt_path, ratings_path]


def cmd_evaluate(args) -> int:
    started = _now()
    ckpt, scale, _ids, train_m, test_m, inputs = _load_model(args)
    cfg = ckpt.state.config
    completer = complete_matrix(train_m, ckpt.state, ckpt.bias, ckpt.scaler,
                                ckpt.side)
    by = args.clusters or cfg.orientation
    report = build_report(completer, test_m, train_m, by=by,
                          n_clusters=args.n_clusters)
    base_rmse = rmse(BiasPredictor(ckpt.bias, scale), test_m)

    out = Path(args.out) if args.out else Path(args.model)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    write_json(report_path, {
        **dataclasses.asdict(report),
        "config_digest": config_digest(cfg, ckpt.split,
                                       ckpt.data_fingerprint),
        "seed": cfg.seed,
        "baseline_rmse": base_rmse,
        "improvement_pct_vs_baseline": improvement_pct(base_rmse,
                                                       report.rmse)})
    clusters_path = write_csv(out / "clusters.csv",
                              [{"cluster": c.label, "rmse": c.rmse,
                                "n_entries": c.n_entries}
                               for c in report.per_cluster])
    _write_manifest(out, "evaluate", args,
                    {"train": dataclasses.asdict(cfg), "clusters_by": by,
                     "n_clusters": args.n_clusters},
                    inputs, [report_path, clusters_path], started)

    print(f"test rmse {report.rmse:.4f} on {report.n_test} entries "
          f"(bias baseline {base_rmse:.4f})")
    for c in report.per_cluster:
        shown = "n/a" if c.rmse is None else f"{c.rmse:.4f}"
        print(f"  {by}s by training-rating count {c.label}: rmse {shown} "
              f"({c.n_entries} entries)")
    return 0


def cmd_predict(args) -> int:
    ckpt, scale, ids, train_m, _test_m, _inputs = _load_model(args)
    u = ids.user_index.get(args.user)
    i = ids.item_index.get(args.item)
    if u is None or i is None:
        which = "user" if u is None else "item"
        raw = args.user if u is None else args.item
        print(f"warning: unknown {which} id {raw!r}; falling back to the "
              "global training mean", file=sys.stderr)
        value = float(scale.clamp(ckpt.bias.global_mean))
    else:
        completer = complete_matrix(train_m, ckpt.state, ckpt.bias,
                                    ckpt.scaler, ckpt.side)
        value = completer.predict(u, i)
    print(f"{value:.4f}")
    return 0


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.kind == "ratio":
        grid = {"ratios": _parse_grid(args, "ratios", float),
                "seeds": _parse_grid(args, "seeds", int)}
    else:
        split_spec = SplitSpec(args.train_fraction, args.split_seed)
        grid = {"recon_weights": _parse_grid(args, "recon_weights", float),
                "mask_ratios": _parse_grid(args, "mask_ratios", float),
                "split": [split_spec.train_fraction, split_spec.seed]}
    started = _now()
    cfg, ratings, scale, side, inputs = _set_up_run(args)

    if args.kind == "ratio":
        rows = sweep_training_ratio(ratings, scale, grid["ratios"], cfg,
                                    grid["seeds"], side=side, jobs=args.jobs)
        tables = {"sweep_ratio.csv": rows,
                  "sweep_ratio_summary.csv": summarize_ratio_sweep(rows)}
    else:
        rows = sweep_dae(ratings, scale, grid["recon_weights"],
                         grid["mask_ratios"], cfg, split_spec, side=side,
                         jobs=args.jobs)
        tables = {"sweep_dae.csv": rows}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = [write_csv(out / name, table) for name, table in tables.items()]

    # workers train at one BLAS thread; record what sizes their other pools
    parallel = {"jobs": args.jobs, "cpu_count": _cpu_count(),
                **{var: os.environ.get(var)
                   for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}
    _write_manifest(out, "sweep", args,
                    {"kind": args.kind, "train": dataclasses.asdict(cfg),
                     **grid, **parallel},
                    inputs, outputs, started)
    print(f"swept {len(rows)} cells -> {outputs[0]}")
    return 0


def _parse_grid(args, axis: str, kind) -> list:
    """The comma-separated values of one sweep axis's flag; an empty axis
    is a usage error, so every sweep has at least one cell."""
    values = [kind(tok) for tok in getattr(args, axis).split(",")
              if tok.strip()]
    if not values:
        raise ValueError(f"--{axis.replace('_', '-')} lists no values")
    return values


# ------------------------------------------------------------------ parser

def _add_config_flags(p: argparse.ArgumentParser):
    g = p.add_argument_group("hyperparameters (defaults in parentheses)")
    g.add_argument("--config", metavar="FILE",
                   help="key=value config file; explicit flags override it")
    g.add_argument("--orientation", choices=[*ENTITIES, *_ORIENT_ALIAS],
                   help="feed user rows or item columns (item)")
    g.add_argument("--hidden", type=int, help="hidden-layer width (600)")
    g.add_argument("--prediction-weight", dest="prediction_weight", type=float,
                   help="loss weight on corrupted entries (1.0)")
    g.add_argument("--reconstruction-weight", dest="reconstruction_weight",
                   type=float, help="loss weight on intact entries (0.5)")
    g.add_argument("--mask-ratio", dest="mask_ratio", type=float,
                   help="fraction of known entries corrupted per sample (0.25)")
    g.add_argument("--weight-decay", dest="weight_decay", metavar="X|auto",
                   help="L2 coefficient; 'auto' = 0.5/input_width (auto)")
    g.add_argument("--lr0", type=float, help="initial learning rate (0.7)")
    g.add_argument("--lr-decay", dest="lr_decay", type=float,
                   help="hyperbolic learning-rate decay (0.3)")
    g.add_argument("--epochs", type=int, help="training epochs (20)")
    g.add_argument("--batch-size", dest="batch_size", type=int,
                   help="minibatch size (32)")
    g.add_argument("--seed", type=int, help="RNG seed (0)")
    g.add_argument("--side", dest="side_info", choices=list(SIDE_MODES),
                   help="where to inject side information (none)")
    p.add_argument("--side-svd-dim", dest="side_svd_dim", type=int, default=50,
                   help="SVD embedding dimension for tags; 0 disables (50)")
    p.add_argument("--side-binary", dest="side_binary", action="store_true",
                   help="append raw 0/1 tag columns to the side features")
    p.add_argument("--train-fraction", dest="train_fraction", type=float,
                   default=0.9, help="train split fraction (0.9)")
    p.add_argument("--split-seed", dest="split_seed", type=int, default=0,
                   help="seed of the train/test shuffle (0)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cfdae",
                     description="Rating-matrix completion with a denoising "
                                 "autoencoder trained on incomplete vectors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a dataset into a snapshot dir")
    p.add_argument("--ratings", required=True, help="ratings file")
    p.add_argument("--format", choices=list(RATING_FORMATS), default="csv")
    p.add_argument("--tags", help="optional tag/attribute file")
    p.add_argument("--tag-format", dest="tag_format",
                   choices=list(TAG_FORMATS), default="genre_flags")
    p.add_argument("--tag-entity", dest="tag_entity", choices=ENTITIES,
                   help="which entity the tags describe (format default)")
    p.add_argument("--out", required=True, help="snapshot directory")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="split, fit preprocessing, run SGD")
    p.add_argument("--data", required=True, help="ingested snapshot directory")
    p.add_argument("--out", required=True, help="model output directory")
    _add_config_flags(p)
    p.add_argument("--eval-each-epoch", dest="eval_each_epoch",
                   action="store_true",
                   help="record test RMSE on the loss curve after each epoch")
    p.add_argument("--checkpoint-each-epoch", dest="checkpoint_each_epoch",
                   action="store_true", help="write a checkpoint per epoch")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on its test split")
    p.add_argument("--model", required=True, help="directory with checkpoint.npz")
    p.add_argument("--data", required=True, help="ingested snapshot directory")
    p.add_argument("--clusters", choices=ENTITIES,
                   help="cluster entities for the per-bucket table "
                        "(default: the model orientation)")
    p.add_argument("--n-clusters", dest="n_clusters", type=int, default=5)
    p.add_argument("--out", help="report directory (default: model dir)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="predict one rating by raw ids")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--user", required=True, help="raw user id")
    p.add_argument("--item", required=True, help="raw item id")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sweep", help="grid of retrain-and-score runs")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=["ratio", "dae"], required=True)
    p.add_argument("--ratios", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
                   help="train fractions for --kind ratio")
    p.add_argument("--seeds", default="0,1,2",
                   help="repetition seeds for --kind ratio; the summary CSV "
                        "reports mean +/- 2*stddev across them")
    p.add_argument("--recon-weights", dest="recon_weights",
                   default="0,0.25,0.5,1",
                   help="reconstruction weights for --kind dae")
    p.add_argument("--mask-ratios", dest="mask_ratios", default="0,0.25,0.5",
                   help="mask ratios for --kind dae")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel training processes")
    _add_config_flags(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    args.raw_argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
