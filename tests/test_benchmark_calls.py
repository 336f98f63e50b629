"""What the benchmark under benchmarks/ calls in cfdae still exists.

The benchmark reports a hook whose target is gone as absent and reads its
metrics as 0, and its step probe records nothing when a binding it
replaces is gone, so a refactor that deletes one would pass unnoticed.
These tests read the benchmark's files and edit none of them.
"""

import ast
import importlib
from pathlib import Path

import cfdae
from cfdae import RatingMatrix

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
