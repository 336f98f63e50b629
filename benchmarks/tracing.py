"""Spans around the calls into cfdae's modules, and the per-layer metrics.

The tracer replaces each hooked function or method with a wrapper that
records (name, start, end, parent, size of an ndarray result).  Wrappers
take any signature and never look at the arguments, so a refactor that
changes a signature does not break them; a hook point that no longer
exists is reported as absent and its metrics read 0.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

import numpy as np

# Hook points: span name -> "module:attribute path".  Each one feeds a
# metric, or is a child that a self time must not count (fingerprint, rmse
# and bias_baseline inside cfdae evaluate).
HOOKS = {
    "data.load_snapshot": "cfdae.data:load_snapshot",
    "data.split": "cfdae.data:split",
    "data.row": "cfdae.data:RatingMatrix.row",
    "data.col": "cfdae.data:RatingMatrix.col",
    "data.fingerprint": "cfdae.data:RatingMatrix.fingerprint",
    "preprocess.fit_bias": "cfdae.preprocess:fit_bias",
    "preprocess.fit_scaler": "cfdae.preprocess:fit_scaler",
    "preprocess.transform": "cfdae.preprocess:transform",
    "preprocess.inverse_transform": "cfdae.preprocess:inverse_transform",
    "preprocess.svd_embed": "cfdae.preprocess:svd_embed",
    "model.batch_loss_gradients": "cfdae.model:batch_loss_gradients",
    "model.max_abs": "cfdae.model:Gradients.max_abs",
    "model.forward_batch": "cfdae.model:forward_batch",
    "train.train": "cfdae.train:train",
    "train.load_checkpoint": "cfdae.train:load_checkpoint",
    "train.complete_matrix": "cfdae.train:complete_matrix",
    "train.predict_many": "cfdae.train:MatrixCompleter.predict_many",
    "evaluate.rmse": "cfdae.evaluate:rmse",
    "evaluate.build_report": "cfdae.evaluate:build_report",
    "evaluate.bias_baseline": "cfdae.evaluate:bias_baseline",
    "cli.main": "cfdae.cli:main",
}

# Spans the benchmark records around its own code inside a traced call.
BENCH_EPOCH_HOOK = "bench.eval_hook"

# name: (unit, better, what it is, end-to-end metrics and workloads it
# should move).  The names, units and directions match BENCHMARK.json.
LAYER_METRICS = {
    "data.load_snapshot_s": (
        "s", "lower", "median seconds per load_snapshot call",
        "setup_s (all); evaluate_s (all)"),
    "data.split_s": (
        "s", "lower", "median seconds per split call",
        "setup_s (all); evaluate_s (all)"),
    "data.row_col_calls": (
        "count", "lower", "exact count of RatingMatrix.row/col calls",
        "setup_s (all); evaluate_s (all)"),
    "preprocess.fit_s": (
        "s", "lower", "median fit_bias plus median fit_scaler seconds",
        "setup_s (all)"),
    "preprocess.transform_calls": (
        "count", "lower", "exact count of per-entity transform calls",
        "setup_s (all); evaluate_s (all)"),
    "preprocess.transform_s": (
        "s", "lower", "total seconds in transform",
        "setup_s (all); evaluate_s (all)"),
    "preprocess.inverse_transform_s": (
        "s", "lower", "median seconds per inverse_transform call",
        "predict_per_s (all)"),
    "preprocess.svd_embed_s": (
        "s", "lower", "median seconds per svd_embed call (0 if not called)",
        "setup_s (sparse-side-train)"),
    "model.loss_grad_calls": (
        "count", "lower", "exact count of batch_loss_gradients calls",
        "train_epoch_s (all)"),
    "model.loss_grad_ms_p50": (
        "ms", "lower", "median ms per batch_loss_gradients call",
        "train_epoch_s (all)"),
    "model.loss_grad_ms_p90": (
        "ms", "lower", "90th percentile ms per batch_loss_gradients call",
        "train_epoch_s (all)"),
    "model.max_abs_ms": (
        "ms", "lower", "median ms per Gradients.max_abs call",
        "train_epoch_s (all; ROADMAP 2b)"),
    "model.forward_batch_ms": (
        "ms", "lower", "median ms per forward_batch call",
        "predict_per_s (all); evaluate_s (all)"),
    "model.decoded_per_prediction": (
        "ratio", "lower",
        "output cells forward_batch returns per entry predict_many returns",
        "predict_per_s (all; ROADMAP 3 sparse outputs)"),
    "train.prep_s": (
        "s", "lower", "train() time before its first batch",
        "setup_s (all)"),
    "train.step_self_ms": (
        "ms", "lower",
        "epoch-loop time of train() outside the model spans, per batch",
        "train_epoch_s (all, mostly ml1m-train; ROADMAP 2a/2c/2d)"),
    "train.checkpoint_mb": (
        "MB", "lower", "size of the checkpoint the run writes",
        "checkpoint_write_s (all)"),
    "train.checkpoint_load_s": (
        "s", "lower", "median seconds per load_checkpoint call",
        "evaluate_s (all)"),
    "train.completer_build_s": (
        "s", "lower", "median seconds per complete_matrix call",
        "evaluate_s (all)"),
    "train.predict_many_s": (
        "s", "lower", "median seconds per MatrixCompleter.predict_many call",
        "predict_per_s (all); evaluate_s (all)"),
    "evaluate.build_report_s": (
        "s", "lower", "median seconds per build_report call",
        "evaluate_s (all)"),
    "evaluate.predictions_per_test_entry": (
        "ratio", "lower",
        "predict_many entries inside build_report per test entry",
        "evaluate_s (all)"),
    "cli.evaluate_self_s": (
        "s", "lower",
        "median cfdae evaluate time outside traced child spans "
        "(manifest hashing, report writes)",
        "evaluate_s (all)"),
    "trace.epoch_overhead_pct": (
        "%", "lower", "traced train_epoch_s over untraced, minus 1",
        "none: cost of tracing"),
    "trace.evaluate_overhead_pct": (
        "%", "lower", "traced evaluate_s over untraced, minus 1",
        "none: cost of tracing"),
    "trace.span_overhead_pct": (
        "%", "lower",
        "spans x wrapper cost per call (timed on a no-op), over the traced "
        "process's wall time",
        "none: cost of tracing"),
}

NAME, START, END, PARENT, SIZE = range(5)


def _resolve(path: str):
    """(owner, attribute, function) for a hook path, or None if absent."""
    modname, _, attrs = path.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *chain, attr = attrs.split(".")
    for part in chain:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = vars(owner).get(attr) if inspect.isclass(owner) else getattr(
        owner, attr, None)
    if not inspect.isfunction(fn):
        return None
    return owner, attr, fn


class Tracer:
    """Installs span-recording wrappers at HOOKS; spans stay in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = clock()
            if isinstance(out, np.ndarray):
                rec[SIZE] = out.size
            return out

        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cfdae" or n.startswith("cfdae."))]
        for name, path in HOOKS.items():
            found = _resolve(path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(name, fn)
            if inspect.isclass(owner):
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            # Rebind every name a cfdae module imported the function under.
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    @contextlib.contextmanager
    def region(self, name: str):
        """Record a span around the benchmark's own code."""
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[END] = time.perf_counter()


def wrapper_cost_s(calls: int = 20000) -> float:
    """Seconds a span wrapper adds to one call, timed on a no-op."""
    def noop():
        return None

    wrapped = Tracer()._wrap("calibrate", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        wrapped()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def _durations(spans, name):
    return np.array([s[END] - s[START] for s in spans if s[NAME] == name])


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _inside(spans, idx: int, ancestor: str) -> bool:
    parent = spans[idx][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == ancestor:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans, n_test: int, checkpoint_bytes: int) -> dict:
    """Per-layer values (without the overhead pair) from a traced run."""
    d = {name: _durations(spans, name) for name in HOOKS}
    count = {name: len(v) for name, v in d.items()}
    out = {
        "data.load_snapshot_s": _median(d["data.load_snapshot"]),
        "data.split_s": _median(d["data.split"]),
        "data.row_col_calls": count["data.row"] + count["data.col"],
        "preprocess.fit_s": (_median(d["preprocess.fit_bias"])
                             + _median(d["preprocess.fit_scaler"])),
        "preprocess.transform_calls": count["preprocess.transform"],
        "preprocess.transform_s": float(d["preprocess.transform"].sum()),
        "preprocess.inverse_transform_s": _median(
            d["preprocess.inverse_transform"]),
        "preprocess.svd_embed_s": _median(d["preprocess.svd_embed"]),
        "model.loss_grad_calls": count["model.batch_loss_gradients"],
        "model.loss_grad_ms_p50": 1e3 * _median(
            d["model.batch_loss_gradients"]),
        "model.loss_grad_ms_p90": 1e3 * (
            float(np.percentile(d["model.batch_loss_gradients"], 90))
            if count["model.batch_loss_gradients"] else 0.0),
        "model.max_abs_ms": 1e3 * _median(d["model.max_abs"]),
        "model.forward_batch_ms": 1e3 * _median(d["model.forward_batch"]),
        "train.checkpoint_mb": checkpoint_bytes / 1e6,
        "train.checkpoint_load_s": _median(d["train.load_checkpoint"]),
        "train.completer_build_s": _median(d["train.complete_matrix"]),
        "train.predict_many_s": _median(d["train.predict_many"]),
        "evaluate.build_report_s": _median(d["evaluate.build_report"]),
    }

    decoded = sum(s[SIZE] for s in spans if s[NAME] == "model.forward_batch")
    predicted = sum(s[SIZE] for s in spans if s[NAME] == "train.predict_many")
    out["model.decoded_per_prediction"] = decoded / predicted if predicted else 0.0
    in_report = sum(s[SIZE] for k, s in enumerate(spans)
                    if s[NAME] == "train.predict_many"
                    and _inside(spans, k, "evaluate.build_report"))
    reports = count["evaluate.build_report"]
    out["evaluate.predictions_per_test_entry"] = (
        in_report / (n_test * reports) if reports else 0.0)

    out.update(_train_split(spans))
    children = np.zeros(len(spans))
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]] += s[END] - s[START]
    out["cli.evaluate_self_s"] = _median(
        [s[END] - s[START] - children[k] for k, s in enumerate(spans)
         if s[NAME] == "cli.main"])
    return out


def _train_split(spans) -> dict:
    """train.prep_s and train.step_self_ms from each train() span.

    The epoch loop runs from the first batch to the end of train(); its
    self time is that interval minus the model spans and the benchmark's
    own epoch hook, divided by the number of batches.
    """
    prep, self_time, batches = [], 0.0, 0
    for k, s in enumerate(spans):
        if s[NAME] != "train.train":
            continue
        kids = [c for c in spans[k + 1:] if c[PARENT] == k]
        first = next((c[START] for c in kids
                      if c[NAME] == "model.batch_loss_gradients"), None)
        if first is None:
            continue
        prep.append(first - s[START])
        loop = s[END] - first
        loop -= sum(c[END] - c[START] for c in kids if c[START] >= first)
        n = sum(1 for c in kids if c[NAME] == "model.batch_loss_gradients")
        self_time += loop
        batches += n
    return {"train.prep_s": _median(prep),
            "train.step_self_ms": 1e3 * self_time / batches if batches else 0.0}
