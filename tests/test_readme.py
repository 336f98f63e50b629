"""The README's examples run as written, and its defaults are the code's."""

import argparse
import dataclasses
import re
from pathlib import Path

import numpy as np

from cfdae import TrainConfig, load_checkpoint
from cfdae.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(section: str) -> str:
    """The first ```python block under the README heading `section`."""
    text = README.read_text(encoding="utf-8")
    body = text[text.index(f"\n{section}\n"):]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(0)
    cells = rng.choice(30 * 20, size=200, replace=False)
    (tmp_path / "ratings.csv").write_text("user,item,rating\n" + "".join(
        f"u{c // 20},i{c % 20},{rng.integers(1, 6)}\n" for c in cells))
    monkeypatch.chdir(tmp_path)
    exec(compile(_python_block("## Library use"), "README.md", "exec"), {})
    model_rmse, base_rmse = map(float, capsys.readouterr().out.split())
    assert model_rmse > 0 and base_rmse > 0
    ckpt = load_checkpoint(tmp_path / "checkpoint.npz")
    assert ckpt.split.train_fraction == 0.9 and ckpt.split.seed == 0


def test_hyperparameter_defaults_agree_in_config_flags_and_readme():
    # TrainConfig(), the "(600)" suffix of each flag's help and the README
    # table each state every default; None shows as "auto"
    defaults = {key: "auto" if value is None else str(value)
                for key, value in dataclasses.asdict(TrainConfig()).items()}
    text = README.read_text(encoding="utf-8")
    start = text.index("\n### Hyperparameters\n")
    table = dict(re.findall(r"^\| (\w+) \| ([^|]+?) \|",
                            text[start:text.index("\n## ", start)], re.M))
    assert table.pop("key") == "default"
    assert table == defaults
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    for command in ("train", "sweep"):
        shown = {action.dest: re.search(r"\((\S+)\)$", action.help).group(1)
                 for action in commands[command]._actions
                 if action.dest in defaults}
        assert shown == defaults, command
