"""A measured process: one workload run through cfdae's public API.

    python3 benchmarks/worker.py --workload W --seed S --dir WORK \
        --spawned T --mode {full,repeat} [--tag NAME] [--trace] \
        [--seconds N] --out R.json

WORK holds the generated ``data/`` snapshot.  ``--spawned`` is the
parent's ``time.monotonic()`` just before it started this process, so
setup_s includes interpreter start and imports.

Mode ``full`` does the whole workflow: set-up, one SGD epoch, the
checkpoint write, test_rmse, then rounds of in-process ``cfdae evaluate``
and ``predict_many`` until ``--seconds`` have passed since the first batch
(at least one round), and the output checks.  With ``--trace`` the calls
into cfdae are traced and the per-layer metrics are added to the result.

Mode ``repeat`` runs after a full run, in the same WORK.  It does the
same set-up and PREFIX_BATCHES + STEP_SAMPLES SGD steps, then one
checkpoint write, one ``cfdae evaluate`` and one ``predict_many`` on the
full run's checkpoint.  Its figures are further samples of the same
metrics from a fresh process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import common
import tracing

STEP_SAMPLES = 12
ORACLE_SAMPLE = 64
TOLERANCE = 1e-12


class _StopTraining(Exception):
    pass


class StepProbe:
    """Times train()'s SGD steps and hashes the weights after a prefix.

    It replaces cfdae.train's bindings of init_params (to keep the weights
    it returns, then puts it back) and of batch_loss_gradients, where it
    records the start of every step: one clock read per batch.  With
    ``stop_at`` it ends training when that many steps have started.  A
    binding a refactor removed leaves the probe's fields empty.
    """

    def __init__(self, stop_at: int | None):
        self.mod = sys.modules["cfdae.train"]
        self.stop_at = stop_at
        self.starts: list[float] = []
        self.params = None
        self.prefix_sha = "absent"
        self.has_step = False

    def install(self):
        mod = self.mod
        init = getattr(mod, "init_params", None)
        step = getattr(mod, "batch_loss_gradients", None)
        if init is not None:
            def init_probe(*args, **kwargs):
                mod.init_params = init
                self.params = init(*args, **kwargs)
                return self.params
            mod.init_params = init_probe
        if step is not None:
            def step_probe(*args, **kwargs):
                if (len(self.starts) == common.PREFIX_BATCHES
                        and self.params is not None):
                    self.prefix_sha = common.params_sha256(self.params)
                self.starts.append(time.monotonic())
                if len(self.starts) == self.stop_at:
                    raise _StopTraining
                return step(*args, **kwargs)
            mod.batch_loss_gradients = step_probe
            self.has_step = True


def step_intervals(starts: list[float], epoch_ends: list[float]) -> list:
    """Each step's time, from its start to the next step or epoch end.

    The first PREFIX_BATCHES steps are left out: they warm up, and the
    weight hash sits between them and the rest.
    """
    events = sorted([(t, True) for t in starts[common.PREFIX_BATCHES:]]
                    + [(t, False) for t in epoch_ends])
    return [b - a for (a, is_step), (b, _) in zip(events, events[1:])
            if is_step]


def array_sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def oracle_gap(cf, completer, state, train_m, test_m, bias, scaler, side,
               orientation: str, seed: int) -> float:
    """Largest |predict_many - (forward + inverse_transform)| on a sample."""
    rng = np.random.default_rng(seed)
    pick = rng.choice(test_m.n_entries, size=min(ORACLE_SAMPLE,
                                                 test_m.n_entries),
                      replace=False)
    users, items = test_m.users[pick], test_m.items[pick]
    got = completer.predict_many(users, items)
    by_user = orientation == "user"
    n_out = train_m.n_items if by_user else train_m.n_users
    pull = train_m.row if by_user else train_m.col
    gap = 0.0
    for k, (u, i) in enumerate(zip(users, items)):
        entity, other = (u, i) if by_user else (i, u)
        idx, raw = pull(entity)
        unit = 0.0
        if idx.size:
            x = cf.SparseVector(n_out, idx, cf.transform(raw, entity, bias,
                                                         scaler))
            row = side.features[entity] if side is not None else None
            unit = cf.forward(state.params, x, row)[other]
        want = cf.inverse_transform(unit, entity, bias, scaler)
        gap = max(gap, abs(float(got[k]) - float(want)))
    return gap


def timed(fn, *args):
    t0 = time.monotonic()
    out = fn(*args)
    return out, time.monotonic() - t0


def evaluate_round(cli, argv, report_dir: Path):
    """One in-process `cfdae evaluate`: (seconds, exit code, report rmse)."""
    with contextlib.redirect_stdout(io.StringIO()):
        code, seconds = timed(cli.main, argv)
    report_rmse = float("nan")
    if code == 0:
        with open(report_dir / "report.json", encoding="utf-8") as fh:
            report_rmse = json.load(fh)["rmse"]
    return seconds, code, report_rmse


def run(args) -> dict:
    cf = common.import_cfdae()
    cli = importlib.import_module("cfdae.cli")
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    region = tracer.region if tracer is not None else (
        lambda name: contextlib.nullcontext())
    repeat = args.mode == "repeat"
    probe = StepProbe(common.PREFIX_BATCHES + STEP_SAMPLES + 1
                      if repeat else None)
    probe.install()

    work = Path(args.dir)
    data_dir, model_dir = work / "data", work / "model"
    own_dir = work / args.tag
    ratings, scale, _ids = cf.load_snapshot(data_dir / "ratings.npz")
    split_spec = cf.SplitSpec(common.TRAIN_FRACTION, common.SPLIT_SEED)
    train_m, test_m = cf.split(ratings, split_spec)
    cfg = common.train_config(args.workload)
    bias = cf.fit_bias(train_m, cfg.orientation)
    scaler = cf.fit_scaler(scale, bias)
    side = None
    if cfg.side_info != "none":
        tags, _entity = cf.load_tag_snapshot(data_dir / "tags.npz")
        side = cf.build_side_info(cf.svd_embed(tags, common.SVD_DIM), None)

    epoch_ends: list[float] = []

    def eval_hook(state):
        with region(tracing.BENCH_EPOCH_HOOK):
            epoch_ends.append(time.monotonic())

    train_called = time.monotonic()
    state = None
    if probe.has_step or not repeat:
        try:
            state = cf.train(train_m, cfg, bias, scaler, side=side,
                             eval_hook=eval_hook)
        except _StopTraining:
            pass
    # Without the probe, set-up ends where train() is called.
    first = probe.starts[0] if probe.starts else train_called
    result = {"setup_s": first - args.spawned,
              "prefix_sha": probe.prefix_sha}
    own_dir.mkdir(parents=True, exist_ok=True)
    eval_argv = ["evaluate", "--model", str(model_dir), "--data",
                 str(data_dir), "--out", str(own_dir)]
    if repeat:
        result["step_s"] = list(np.diff(
            probe.starts[common.PREFIX_BATCHES:]))
        ckpt = cf.load_checkpoint(model_dir / "checkpoint.npz")
        _, write_s = timed(cf.save_checkpoint, own_dir / "checkpoint.npz",
                           ckpt.state, ckpt.bias, ckpt.scaler, ckpt.split,
                           ckpt.data_fingerprint, ckpt.side)
        seconds, code, report_rmse = evaluate_round(cli, eval_argv, own_dir)
        completer = cf.complete_matrix(train_m, ckpt.state, ckpt.bias,
                                       ckpt.scaler, ckpt.side)
        pred, predict_s = timed(completer.predict_many, test_m.users,
                                test_m.items)
        result.update(checkpoint_write_s=[write_s], evaluate_s=[seconds],
                      exit_code=code, report_rmse=report_rmse,
                      predict_per_s=[test_m.n_entries / predict_s],
                      pred_sha=array_sha256(pred))
        return result

    checks = []  # one (name, ok, detail) per measured operation

    def check(name: str, ok, detail: str):
        checks.append((name, bool(ok), detail))

    result["step_s"] = step_intervals(probe.starts, epoch_ends)
    result["steps_per_epoch"] = len(probe.starts) / len(epoch_ends)
    result["epoch_wall_s"] = [end - start for start, end in
                              zip([first] + epoch_ends[:-1], epoch_ends)]
    for k, rec in enumerate(state.history):
        check(f"epoch[{k}]", np.isfinite(rec.mean_loss),
              f"mean loss {rec.mean_loss!r}")

    fingerprint = ratings.fingerprint()
    ckpt_path = model_dir / "checkpoint.npz"
    model_dir.mkdir(parents=True, exist_ok=True)
    _, write_s = timed(cf.save_checkpoint, ckpt_path, state, bias, scaler,
                       split_spec, fingerprint, side)
    result["checkpoint_write_s"] = [write_s]
    result["checkpoint_bytes"] = ckpt_path.stat().st_size
    weights_sha = common.params_sha256(state.params)
    reloaded = common.params_sha256(cf.load_checkpoint(ckpt_path).state.params)
    result["weights_sha"] = weights_sha
    check("checkpoint_write", reloaded == weights_sha,
          "weights read back bit for bit" if reloaded == weights_sha
          else "weights read back differ")

    completer = cf.complete_matrix(train_m, state, bias, scaler, side)
    test_rmse = cf.rmse(completer, test_m)
    result["test_rmse"] = test_rmse
    check("test_rmse", np.isfinite(test_rmse), repr(test_rmse))

    evaluate_s, predict_per_s, reference = [], [], None
    while not evaluate_s or time.monotonic() - first < args.seconds:
        k = len(evaluate_s)
        seconds, code, report_rmse = evaluate_round(cli, eval_argv, own_dir)
        evaluate_s.append(seconds)
        check(f"evaluate[{k}]",
              code == 0 and abs(report_rmse - test_rmse) <= TOLERANCE,
              f"exit {code}, report rmse {report_rmse!r} vs "
              f"evaluate.rmse {test_rmse!r}")
        pred, predict_s = timed(completer.predict_many, test_m.users,
                                test_m.items)
        predict_per_s.append(test_m.n_entries / predict_s)
        if reference is None:
            reference = pred
        check(f"predict_many[{k}]",
              np.all(np.isfinite(pred)) and np.array_equal(pred, reference),
              "finite and equal to the first round")
    result.update(evaluate_s=evaluate_s, predict_per_s=predict_per_s,
                  pred_sha=array_sha256(reference), n_test=test_m.n_entries)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(
            tracer.spans, test_m.n_entries, result["checkpoint_bytes"])
        result["layers"]["trace.span_overhead_pct"] = 100.0 * len(
            tracer.spans) * tracing.wrapper_cost_s() / (
                time.monotonic() - args.spawned)
        result["absent"] = tracer.absent
        result["n_spans"] = len(tracer.spans)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)

    gap = oracle_gap(cf, completer, state, train_m, test_m, bias, scaler,
                     side, cfg.orientation, args.seed)
    check("oracle", gap <= TOLERANCE,
          f"max |predict_many - forward oracle| = {gap!r}")
    result["checks"] = checks
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(common.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--mode", choices=["full", "repeat"], required=True)
    p.add_argument("--tag", default="full",
                   help="subdirectory of --dir for this process's outputs")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--spans", help="where a traced run writes its raw spans")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    result = run(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
