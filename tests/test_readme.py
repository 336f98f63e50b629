"""The README's examples run as written."""

import re
from pathlib import Path

import numpy as np

from cfdae import load_checkpoint

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
