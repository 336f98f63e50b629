"""Benchmark entry point: one run of one workload, measured and checked.

    python3 benchmarks/run.py --workload ml1m-train --seed 1 --seconds 20 \
        --trace 0

Run it from the root of a checkout.  It generates the workload's inputs
from the seed in a process of their own, then starts the measured
processes (benchmarks/worker.py) with BLAS threads pinned:

* ``--trace 0``: one full run, then REPEATS repeat processes that set up,
  take a few SGD steps and do one checkpoint write, one ``cfdae
  evaluate`` and one ``predict_many`` on the full run's model.  Each
  timing is the median over the processes of each process's own median,
  so one slow process moves it little.
* ``--trace 1``: an untraced and a traced full run of the same fixed work
  (no ``--seconds`` extension).  The per-layer metrics come from the traced
  run; the two are compared for the tracing overhead and for identical
  trained weights.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it describe
the environment, the inputs, every sample and every check.  Intermediate
files live under ``.bench_work/`` in the checkout; each run removes its
own inputs when it ends, and keeps its summary (and, traced, its raw
spans) under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common

REPEATS = 3
DEADLINE_S = 175.0
WORK = common.ROOT / ".bench_work"
HERE = Path(__file__).resolve().parent


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": common.blas_threads()}


class Runner:
    """Starts the benchmark's processes within one overall deadline."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.env = common.child_env()
        self.deadline = time.monotonic() + DEADLINE_S

    def _call(self, argv, what: str):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time before {what}")
        try:
            proc = subprocess.run(argv, env=self.env, cwd=common.ROOT,
                                  capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{what} did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(f"{what} exited {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")

    def generate(self) -> dict:
        self._call([sys.executable, str(HERE / "gen.py"),
                    "--workload", self.args.workload,
                    "--seed", str(self.args.seed), "--out", str(self.work)],
                   "input generation")
        with open(self.work / "inputs.json", encoding="utf-8") as fh:
            return json.load(fh)

    def worker(self, tag: str, mode: str, trace: bool = False,
               seconds: float = 0.0, spans: Path | None = None) -> dict:
        out = self.work / f"result-{tag}.json"
        argv = [sys.executable, str(HERE / "worker.py"),
                "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--dir", str(self.work),
                "--mode", mode, "--tag", tag, "--seconds", str(seconds),
                "--out", str(out)]
        if trace:
            argv.append("--trace")
        if spans is not None:
            argv += ["--spans", str(spans)]
        argv += ["--spawned", repr(time.monotonic())]
        self._call(argv, f"worker {tag}")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(procs: list[dict]) -> dict:
    """Metrics from a full run and any repeats: medians of process medians."""
    full = procs[0]

    def across(key: str) -> float:
        return _median([_median(p[key]) for p in procs if p[key]])

    steps = [_median(p["step_s"]) for p in procs if p["step_s"]]
    return {
        "setup_s": _median([p["setup_s"] for p in procs]),
        # Without step times (no probe), fall back to the epoch wall time.
        "train_epoch_s": (_median(steps) * full["steps_per_epoch"] if steps
                          else _median(full["epoch_wall_s"])),
        "checkpoint_write_s": across("checkpoint_write_s"),
        "test_rmse": full["test_rmse"],
        "evaluate_s": across("evaluate_s"),
        "predict_per_s": across("predict_per_s"),
        "peak_rss_mb": full["peak_rss_mb"],
    }


def repeat_checks(k: int, rep: dict, full: dict) -> list:
    """A repeat process must reproduce the full run bit for bit."""
    same_steps = rep["prefix_sha"] == full["prefix_sha"]
    rmse_gap = abs(rep["report_rmse"] - full["test_rmse"])
    same_pred = rep["pred_sha"] == full["pred_sha"]
    return [
        (f"repeat[{k}].steps", same_steps,
         f"weights after {common.PREFIX_BATCHES} batches "
         + ("match the full run" if same_steps else "differ")),
        (f"repeat[{k}].evaluate",
         rep["exit_code"] == 0 and rmse_gap <= 1e-12,
         f"exit {rep['exit_code']}, report rmse off by {rmse_gap!r}"),
        (f"repeat[{k}].predict_many", same_pred,
         "predictions equal the full run's" if same_pred else
         "predictions differ from the full run's"),
    ]


def measure(runner: Runner, trace: bool):
    """(metrics, checks, detail) for one invocation."""
    args = runner.args
    if not trace:
        full = runner.worker("full", "full", seconds=args.seconds)
        repeats = [runner.worker(f"repeat{k}", "repeat")
                   for k in range(REPEATS)]
        checks = full.pop("checks")
        for k, rep in enumerate(repeats):
            checks += repeat_checks(k, rep, full)
        return end_to_end([full] + repeats), checks, {
            "full": full, "repeats": repeats}

    spans = WORK / "results" / f"{args.workload}-seed{args.seed}-spans.json"
    plain = runner.worker("plain", "full")
    traced = runner.worker("traced", "full", trace=True, spans=spans)
    checks = plain.pop("checks") + traced.pop("checks")
    same = (traced["weights_sha"] == plain["weights_sha"]
            and traced["test_rmse"] == plain["test_rmse"])
    checks.append(("determinism", same,
                   "traced and untraced runs trained identical weights"
                   if same else "trained weights differ between runs"))
    layers = dict(traced["layers"])
    base, with_trace = end_to_end([plain]), end_to_end([traced])
    layers["trace.epoch_overhead_pct"] = 100.0 * (
        with_trace["train_epoch_s"] / base["train_epoch_s"] - 1.0)
    layers["trace.evaluate_overhead_pct"] = 100.0 * (
        with_trace["evaluate_s"] / base["evaluate_s"] - 1.0)
    epochs = max(1, len(traced["epoch_wall_s"]))
    accounted = (layers["model.loss_grad_calls"] / epochs) * 1e-3 * (
        layers["model.loss_grad_ms_p50"] + layers["model.max_abs_ms"]
        + layers["train.step_self_ms"])
    detail = {"untraced": base, "traced": with_trace,
              "absent_hooks": traced["absent"], "n_spans": traced["n_spans"],
              "spans_file": str(spans.relative_to(common.ROOT)),
              "epoch_accounted_s": accounted,
              "epoch_accounted_vs_untraced_pct": 100.0 * (
                  accounted / base["train_epoch_s"] - 1.0)}
    return layers, checks, detail


def declared_metrics(trace: bool) -> dict:
    """name -> unit from BENCHMARK.json, the list this run must print."""
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(common.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be nonnegative")
    if not (common.SRC / "cfdae" / "__init__.py").is_file():
        print(f"benchmark: no cfdae package under {common.SRC}; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))

    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (WORK / "results").mkdir(exist_ok=True)
    runner = Runner(args, work)
    try:
        inputs = runner.generate()
        values, checks, detail = measure(runner, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        print(f"benchmark: computed metrics {sorted(values)} do not match "
              f"BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1

    failed = sum(1 for _name, ok, _detail in checks if not ok)
    summary = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "environment": environment(), "inputs": inputs,
               "checks": checks, "detail": detail}
    with open(WORK / "results" / f"{args.workload}-seed{args.seed}"
              f"-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(summary["environment"]))
    print("inputs " + json.dumps(inputs))
    print(f"checks {len(checks) - failed} ok, {failed} failed")
    for name, ok, text in checks:
        if not ok:
            print(f"check FAIL {name}: {text}")
    print("detail " + json.dumps(detail))
    for name in units:
        print(f"{name:40s} {values[name]!r:>24} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(checks), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
