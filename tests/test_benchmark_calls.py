"""What the benchmark under benchmarks/ calls in cfdae still exists.

The benchmark reports a hook whose target is gone as absent and reads its
metrics as 0, and its step probe records nothing when a binding it
replaces is gone, so a refactor that deletes one would pass unnoticed.
These tests read the benchmark's files and edit none of them.
"""

import ast
import importlib
import inspect
import sys
import threading
from pathlib import Path

import numpy as np

import cfdae
from cfdae import (MatrixCompleter, RatingMatrix, SideInfoTable, TrainConfig,
                   fit_bias, fit_scaler, init_params)
from conftest import make_synthetic

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

# Hooks whose targets earlier refactors deleted; the benchmark still lists
# them, and a change to the benchmark may mend or drop them.
KNOWN_DEAD_HOOKS = {"model.max_abs", "model.forward_batch",
                    "evaluate.bias_baseline"}


def _resolves(path: str) -> bool:
    """Whether a "module:attribute path" hook names a function."""
    modname, _, attrs = path.partition(":")
    owner = importlib.import_module(modname)
    for part in attrs.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_tracing_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    hooks = importlib.import_module("tracing").HOOKS
    dead = {name for name, path in hooks.items() if not _resolves(path)}
    assert dead <= KNOWN_DEAD_HOOKS


def test_names_the_benchmark_imports_exist():
    wanted = set()
    for source in sorted(BENCHMARKS.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "cfdae":
                wanted.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "cf"):
                wanted.add(node.attr)
    assert {"train", "save_checkpoint", "TrainConfig"} <= wanted
    assert sorted(name for name in wanted if not hasattr(cfdae, name)) == []


def test_bindings_the_benchmark_reads_or_replaces_exist():
    # gen.py counts ratings per entity, and the oracle reads single vectors
    for name in ("row", "col", "row_counts", "col_counts"):
        assert callable(getattr(RatingMatrix, name, None)), name
    # the step probe rebinds these two names in cfdae.train
    train_module = importlib.import_module("cfdae.train")
    for name in ("init_params", "batch_loss_gradients"):
        assert callable(getattr(train_module, name, None)), name
    assert callable(getattr(importlib.import_module("cfdae.cli"), "main",
                            None))


def test_hooked_calls_stay_on_the_calling_thread(monkeypatch):
    # the tracer's span stack is not thread-safe: whatever HOOKS target
    # predict_many reaches must run on the thread that called it
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    hooks = importlib.import_module("tracing").HOOKS
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "cfdae" or n.startswith("cfdae."))]
    calls = []

    def recorder(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    for name, path in hooks.items():
        modname, _, attrs = path.partition(":")
        *chain, attr = attrs.split(".")
        owner = importlib.import_module(modname)
        for part in chain:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if not callable(fn):
            continue  # a known dead hook
        if inspect.isclass(owner):
            monkeypatch.setattr(owner, attr, recorder(name, fn))
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, recorder(name, fn))

    # the query's 709 distinct items with training ratings make 6 chunks;
    # force a pool of 3 threads
    train_module = importlib.import_module("cfdae.train")
    monkeypatch.setattr(train_module, "_cpu_count", lambda: 3)
    block_threads = set()
    encode = MatrixCompleter._encode_block
    # the calling thread, or the first pool thread while the caller starts
    # the others, can take every block of a small query: each side holds
    # on its first block until the other has taken one
    on_main, on_pool = threading.Event(), threading.Event()

    def traced_encode(self, lo):
        block_threads.add(threading.get_ident())
        mine, other = ((on_main, on_pool) if threading.current_thread()
                       is threading.main_thread() else (on_pool, on_main))
        mine.set()
        other.wait(timeout=30)
        return encode(self, lo)

    monkeypatch.setattr(MatrixCompleter, "_encode_block", traced_encode)
    ratings, scale = make_synthetic(n_users=300, n_items=800, density=0.01)
    cfg = TrainConfig(hidden=8, side_info="both")
    bias = fit_bias(ratings, cfg.orientation)
    scaler = fit_scaler(scale, bias)
    side = SideInfoTable(np.random.default_rng(0).uniform(-1, 1, (800, 3)))
    params = init_params(ratings.n_users, cfg.hidden, 3, 3)
    completer = MatrixCompleter(ratings, params, cfg, bias, scaler, side)
    calls.clear()
    rng = np.random.default_rng(1)
    completer.predict_many(rng.integers(0, 300, 2000),
                           rng.integers(0, 800, 2000))
    assert len(block_threads) > 1  # the pool predicted some blocks
    names = {name for name, _ in calls}
    assert {"train.predict_many", "preprocess.inverse_transform"} <= names
    assert {ident for _, ident in calls} == {threading.main_thread().ident}
