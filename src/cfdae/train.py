"""Minibatch SGD over user rows or item columns, and trained-model prediction.

Each training sample is one entity's incomplete rating vector (a user's row
or an item's column), centered and rescaled to [-1, 1].  Every epoch draws a
fresh corruption mask per sample, and the per-epoch RNG is derived from
(seed, epoch) so runs are bitwise reproducible and the schedule never
depends on how earlier epochs consumed randomness.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import json
import logging
import math
import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_array, hstack

from .data import (RatingMatrix, RatingScale, SplitSpec, aligned_query,
                   by_entity, open_versioned_npz, write_versioned_npz)
from .model import (_PARTS, AutoencoderParams, LazyDecay, LossWeights,
                    _each_part, batch_loss_gradients, corrupted_batch,
                    corrupted_flags, encode_batch, first_nonfinite,
                    init_params)
from .preprocess import (BiasTable, Scaler, SideInfoTable, inverse_transform,
                         transform)

log = logging.getLogger(__name__)

SIDE_MODES = ("none", "input_only", "hidden_only", "both")
CHECKPOINT_VERSION = 1
# numpy's BLAS thread count before the first active train(), once per run
_blas_before: list[int] = []
_blas_lock = threading.Lock()


def _config_type(annotation: str) -> tuple[type, bool]:
    """The type a TrainConfig field annotation such as "int" or "float |
    None" names, and whether the field admits None."""
    kind, _, optional = annotation.partition(" | ")
    return {"int": int, "float": float, "str": str}[kind], optional == "None"


@dataclass(frozen=True)
class TrainConfig:
    """Loss weights, network width, SGD schedule, and sampling seed.

    weight_decay=None resolves at train time to 0.5 / input_width, keeping
    the summed Frobenius penalty comparable to the data term regardless of
    the vector dimension.
    """

    orientation: str = "item"
    hidden: int = 600
    prediction_weight: float = 1.0
    reconstruction_weight: float = 0.5
    mask_ratio: float = 0.25
    weight_decay: float | None = None
    lr0: float = 0.7
    lr_decay: float = 0.3
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0
    side_info: str = "none"

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            kind, optional = _config_type(field.type)
            if value is None and optional:
                continue
            if isinstance(value, bool) or not isinstance(
                    value, (int, float) if kind is float else kind):
                raise ValueError(f"{field.name} must be {field.type}, not "
                                 f"{type(value).__name__}")
            if kind is float:  # lr0=1 and lr0=1.0 get one config_digest
                object.__setattr__(self, field.name, float(value))
        by_entity(self.orientation)
        if self.side_info not in SIDE_MODES:
            raise ValueError(f"unknown side_info mode {self.side_info!r}")
        if self.hidden < 1:
            raise ValueError("hidden width must be at least 1")
        LossWeights(self.prediction_weight, self.reconstruction_weight,
                    self.weight_decay or 0.0)
        corrupted_flags(np.zeros(0, dtype=np.int64), self.mask_ratio, None)
        if not 0 < self.lr0 < math.inf:
            raise ValueError("lr0 must be positive and finite")
        if not 0 <= self.lr_decay < math.inf:
            raise ValueError("lr_decay must be nonnegative and finite")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def loss_weights(self, input_width: int) -> LossWeights:
        decay = (0.5 / input_width if self.weight_decay is None
                 else self.weight_decay)
        return LossWeights(self.prediction_weight, self.reconstruction_weight,
                           decay)


def learning_rate(cfg: TrainConfig, epoch: int) -> float:
    """Hyperbolically decayed rate for a zero-based epoch index."""
    return cfg.lr0 / (1.0 + cfg.lr_decay * epoch)


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    rmse: float | None = None


@dataclass
class TrainState:
    """Parameters plus the per-epoch loss curve; epoch = len(history)."""

    params: AutoencoderParams
    config: TrainConfig
    history: list[EpochRecord]

    @property
    def epoch(self) -> int:
        return len(self.history)


class TrainingDiverged(RuntimeError):
    """Raised when a loss, gradient or parameter stops being finite.

    param names the first of W1, b1, W2, b2 whose value, gradient or
    squared norm is not finite ("loss" if none is).  grad_max is None when
    the check at an epoch's end found the parameters non-finite, after the
    step that made them so.  last_loss is the mean loss over the samples
    stepped so far in the epoch, else the previous epoch's, else None.
    """

    def __init__(self, epoch: int, batch: int, grad_max: float | None,
                 param: str = "loss", last_loss: float | None = None):
        self.epoch = epoch
        self.batch = batch
        self.grad_max = grad_max
        self.param = param
        self.last_loss = last_loss
        grad = "not computed" if grad_max is None else grad_max
        super().__init__(
            f"non-finite training signal in {param} at epoch {epoch}, "
            f"batch {batch} (max |gradient| = {grad}, last finite mean "
            f"loss = {last_loss})")

    def __reduce__(self):
        # pickled by its fields, so a sweep worker's error reaches the parent
        return type(self), (self.epoch, self.batch, self.grad_max, self.param,
                            self.last_loss)


def _nonfinite_param(params: AutoencoderParams,
                     grads: AutoencoderParams) -> str:
    """First parameter whose value, gradient or squared norm is not finite."""
    name = first_nonfinite(params, grads)
    if name is not None:
        return name
    for name in ("W1", "W2"):
        w = getattr(params, name)
        if not np.isfinite(np.vdot(w, w)):
            return name
    return "loss"


def _side_widths(cfg: TrainConfig, bias: BiasTable,
                 side: SideInfoTable | None, n_entities: int):
    """(p_in, p_hidden) of cfg's side_info mode, once the bias table and
    the side table, of n_entities rows each, are checked against cfg."""
    if bias.orientation != cfg.orientation:
        raise ValueError(f"bias table orientation {bias.orientation!r} does "
                         f"not match config orientation {cfg.orientation!r}")
    if bias.means.size != n_entities:
        raise ValueError(f"bias table has {bias.means.size} means, expected "
                         f"{n_entities}")
    if cfg.side_info == "none":
        if side is not None:
            raise ValueError("side table given but side_info mode is 'none'")
        return 0, 0
    if side is None:
        raise ValueError(f"side_info mode {cfg.side_info!r} needs a side table")
    if side.n_entities != n_entities:
        raise ValueError(f"side table has {side.n_entities} rows, "
                         f"expected {n_entities}")
    return (side.dim if cfg.side_info in ("input_only", "both") else 0,
            side.dim if cfg.side_info in ("hidden_only", "both") else 0)


def _check_network(params: AutoencoderParams, cfg: TrainConfig,
                   bias: BiasTable, side: SideInfoTable | None, n: int):
    """The one shape rule, for n outputs: W1 (n + p_in, hidden), b1
    (hidden,), W2 (n, hidden + p_hidden) and b2 (n,), with cfg's hidden and
    the side widths of its side_info mode.  Reads no weight value."""
    p_in, p_hidden = _side_widths(cfg, bias, side, bias.means.size)
    k = cfg.hidden
    need = ((n + p_in, k), (k,), (n, k + p_hidden), (n,))
    have = tuple(w.shape for w in (params.W1, params.b1, params.W2, params.b2))
    if have != need:
        raise ValueError(f"weight shapes (W1, b1, W2, b2) {have} do not match "
                         f"the config and tables' {need}")


def _training_vectors(train_data: RatingMatrix, cfg: TrainConfig,
                      bias: BiasTable, scaler: Scaler,
                      side: SideInfoTable | None):
    """Every entity's training vector, centered and rescaled, as one
    (entities x counterparts) CSR array; the side features; and the
    (p_in, p_hidden) widths."""
    ptr, idx, raw = train_data.vectors(cfg.orientation)
    n_entities = ptr.size - 1
    widths = _side_widths(cfg, bias, side, n_entities)
    entities = np.repeat(np.arange(n_entities, dtype=np.int32), np.diff(ptr))
    n = by_entity(cfg.orientation, train_data.n_items, train_data.n_users)
    vectors = csr_array((transform(raw, entities, bias, scaler), idx, ptr),
                        shape=(n_entities, n))
    return vectors, None if side is None else side.features, widths


def train(train_data: RatingMatrix, cfg: TrainConfig, bias: BiasTable,
          scaler: Scaler, side: SideInfoTable | None = None,
          eval_hook=None) -> TrainState:
    """Run the full SGD schedule and return the final state; write no file.

    Samples with no known entries are skipped.  eval_hook, if given, is
    called with the state after each epoch and may return an RMSE to
    record on that epoch's curve point.  It is the one per-epoch hook, so
    a caller that keeps per-epoch checkpoints writes them from it.  The
    run holds numpy's BLAS at one thread and runs each step's parts on
    _step_threads' pool (see batch_loss_gradients).
    """
    vectors, features, (p_in, p_hidden) = _training_vectors(
        train_data, cfg, bias, scaler, side)
    n = vectors.shape[1]
    rated = np.flatnonzero(np.diff(vectors.indptr))
    if rated.size == 0:
        raise ValueError("no training vectors with known entries")

    params = init_params(n, cfg.hidden, p_in, p_hidden, seed=cfg.seed)
    weights = cfg.loss_weights(n + p_in)
    state = TrainState(params, cfg, [])

    with _step_threads() as step_pool:
        for epoch in range(cfg.epochs):
            rng = np.random.default_rng([cfg.seed, epoch])
            order = rng.permutation(rated)
            lr = learning_rate(cfg, epoch)
            sgd = LazyDecay(params, lr)
            loss_sum, seen = 0.0, 0
            last_loss = state.history[-1].mean_loss if state.history else None
            for batch, start in enumerate(range(0, order.size,
                                                cfg.batch_size)):
                sel = order[start:start + cfg.batch_size]
                x, hit = corrupted_batch(vectors, sel, cfg.mask_ratio, rng)
                batch_side = features[sel] if features is not None else None
                losses, grads = batch_loss_gradients(
                    params, x, hit, weights, batch_side, sgd=sgd,
                    pool=step_pool)
                if grads is not None:
                    grad_max = max(float(np.max(np.abs(g))) for g in
                                   (grads.W1, grads.b1, grads.W2, grads.b2))
                    raise TrainingDiverged(epoch, batch, grad_max,
                                           _nonfinite_param(params, grads),
                                           last_loss)
                loss_sum += float(losses.sum())
                seen += sel.size
                last_loss = loss_sum / seen
            sgd.fold()
            bad = first_nonfinite(params)
            if bad is not None:
                raise TrainingDiverged(epoch, batch, None, bad, last_loss)

            record = EpochRecord(epoch, loss_sum / order.size)
            state.history.append(record)
            if eval_hook is not None:
                record.rmse = eval_hook(state)
            log.info("epoch %d: lr=%.5f mean_loss=%.6f%s", epoch, lr,
                     record.mean_loss,
                     "" if record.rmse is None else f" rmse={record.rmse:.4f}")
    return state


@functools.cache
def _numpy_blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, through
    ctypes, or None where numpy bundles no such library or it lacks either
    symbol."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas64_-*.so"))
    if not found:
        return None
    lib = ctypes.CDLL(str(found[0]))
    try:
        get = lib.scipy_openblas_get_num_threads64_
        set_to = lib.scipy_openblas_set_num_threads64_
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_to.argtypes, set_to.restype = [ctypes.c_int], None
    return get, set_to


@contextlib.contextmanager
def _step_threads():
    """Hold numpy's OpenBLAS at one thread while any train() runs, the last
    to end restoring its count, and yield the pool that runs a step's parts
    beside the calling thread: min(_cpu_count(), _PARTS) threads in all, as
    predict_many sizes its own.  Where the thread count cannot be set nothing
    is, and the yield is None: every part runs on the calling thread, because
    a BLAS thread pool would contend with the pool's threads."""
    blas = _numpy_blas_threads()
    if blas is None:
        yield None
        return
    get, set_to = blas
    with _blas_lock:
        _blas_before.append(_blas_before[0] if _blas_before else get())
        set_to(1)
    threads = min(_cpu_count(), _PARTS)
    try:
        with (ThreadPoolExecutor(threads - 1) if threads > 1
              else contextlib.nullcontext()) as pool:
            yield pool
    finally:
        with _blas_lock:
            before = _blas_before.pop()
            if not _blas_before:
                set_to(before)


def _cpu_count() -> int:
    """CPUs this process may run on: the most threads predict_many or a
    training run uses.
    A process that multiprocessing started, such as a sweep's worker, runs
    beside its siblings and counts one."""
    if multiprocessing.parent_process() is not None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


class MatrixCompleter:
    """Predicts any (user, item) rating from a trained network.

    A prediction feeds the entity's training vector forward and reads the
    counterpart coordinate, then undoes centering/rescaling and clamps to
    the rating scale.  Entities with no training ratings fall back to the
    bias table (their mean is the global mean).
    """

    _CHUNK = 128   # distinct entities encoded together
    _DECODE = 256  # predictions decoded together

    def __init__(self, train_data: RatingMatrix, params: AutoencoderParams,
                 cfg: TrainConfig, bias: BiasTable, scaler: Scaler,
                 side: SideInfoTable | None = None):
        vectors, features, (p_in, p_hidden) = _training_vectors(
            train_data, cfg, bias, scaler, side)
        _check_network(params, cfg, bias, side, vectors.shape[1])
        self._counts = np.diff(vectors.indptr)
        # the side inputs as coordinates n..n+p_in-1, so that a chunk
        # encodes in one sparse product with all of W1
        self._vectors = (hstack([vectors, csr_array(features)], format="csr")
                         if p_in else vectors)
        self._side = features if p_hidden else None
        self.params = params
        self.bias = bias
        self.scaler = scaler
        self.n_users = train_data.n_users
        self.n_items = train_data.n_items

    def predict(self, user: int, item: int) -> float:
        return float(self.predict_many([user], [item])[0])

    def predict_many(self, users, items) -> np.ndarray:
        """Clamped rating predictions for aligned index arrays.

        The calling thread and a thread pool, one thread per CPU the process
        may run on in all, take the chunks of queried entities from one
        shared queue.
        """
        users, items = aligned_query(users, items)
        if users.size and (users.min() < 0 or users.max() >= self.n_users):
            raise IndexError("user index out of range")
        if items.size and (items.min() < 0 or items.max() >= self.n_items):
            raise IndexError("item index out of range")
        entities, counterparts = by_entity(self.bias.orientation,
                                           (users, items), (items, users))

        # A chunk encodes up to _CHUNK of the distinct queried entities
        # with training ratings; the others keep unit 0, the bias fallback.
        # An encoder row sums in column order whatever the other rows, and
        # each output is its own row-wise dot product, so a prediction
        # depends neither on the rest of the query nor on the thread that
        # runs its chunk.  Each chunk writes only its own queries' slots.
        unit = np.zeros(entities.size)
        order = np.argsort(entities, kind="stable")
        order = order[self._counts[entities[order]] > 0]
        starts = np.flatnonzero(np.diff(entities[order], prepend=-1))
        chunks = (np.split(order, starts[self._CHUNK::self._CHUNK])
                  if order.size else [])
        threads = min(_cpu_count(), len(chunks))
        # next() on a list iterator runs under the GIL as one C call, so
        # each chunk goes to exactly one thread
        queue = iter(chunks)

        def run():
            for queries in queue:
                self._predict_block(queries, entities, counterparts, unit)

        if threads > 1:
            # Pool threads call no BLAS (an idle BLAS helper thread spins
            # against them) and nothing outside this class, so every other
            # call stays on the calling thread.
            with ThreadPoolExecutor(threads - 1) as pool:
                _each_part(lambda _: run(), threads, pool)
        else:
            run()
        return inverse_transform(unit, entities, self.bias, self.scaler)

    def _predict_block(self, queries: np.ndarray, entities: np.ndarray,
                       counterparts: np.ndarray, unit: np.ndarray):
        """unit[queries] for queries sorted by entity, one chunk's worth."""
        ranked = entities[queries]
        ids = ranked[np.diff(ranked, prepend=-1) != 0]
        hin = self._encode_block(ids)
        rows = np.searchsorted(ids, ranked)
        cuts = np.arange(self._DECODE, queries.size, self._DECODE)
        for part, at in zip(np.split(queries, cuts), np.split(rows, cuts)):
            cols = counterparts[part]
            dots = np.einsum("ij,ij->i", hin[at], self.params.W2[cols])
            unit[part] = np.tanh(dots + self.params.b2[cols])

    def _encode_block(self, ids: np.ndarray) -> np.ndarray:
        """Hidden codes (side columns appended) of the entities ids, sorted
        and distinct, encoded from their rows of the CSR training vectors,
        side inputs included.  The product runs on the gathered rows in CSC
        form, which reads each encoder row once per chunk, not once per
        known entry, and sums each row in the same column order."""
        side = self._side[ids] if self._side is not None else None
        return encode_batch(self.params, self._vectors[ids].tocsc(), side)


def complete_matrix(train_data: RatingMatrix, state: TrainState,
                    bias: BiasTable, scaler: Scaler,
                    side: SideInfoTable | None = None) -> MatrixCompleter:
    return MatrixCompleter(train_data, state.params, state.config, bias,
                           scaler, side)


@dataclass
class Checkpoint:
    """Everything needed to rebuild predictions from a finished run."""

    state: TrainState
    bias: BiasTable
    scaler: Scaler
    split: SplitSpec
    data_fingerprint: str
    side: SideInfoTable | None = None


def _check_split_and_fingerprint(train_fraction: float, data_fingerprint: str):
    """A checkpoint names the split and the data that tie its model to a
    test set.  Earlier versions wrote fraction 0 and "" for a missing one;
    a real split never has fraction 0."""
    if train_fraction == 0 or not data_fingerprint:
        raise ValueError("no train/test split or data fingerprint")


def save_checkpoint(path, state: TrainState, bias: BiasTable, scaler: Scaler,
                    split: SplitSpec, data_fingerprint: str,
                    side: SideInfoTable | None = None):
    """Versioned .npz with params, config, preprocessing, the curve, and
    the split and data fingerprint that tie the model to its test set.  An
    empty fingerprint, or a config or table that the weight shapes
    contradict, raises ValueError and writes nothing."""
    _check_split_and_fingerprint(split.train_fraction, data_fingerprint)
    _check_network(state.params, state.config, bias, side, state.params.n)
    write_versioned_npz(
        path, CHECKPOINT_VERSION,
        config_json=json.dumps(dataclasses.asdict(state.config)),
        w1=state.params.W1.T,  # (hidden, n + p_in), in Fortran order
        b1=state.params.b1,
        w2=state.params.W2,
        b2=state.params.b2,
        bias_orientation=bias.orientation,
        bias_means=bias.means,
        bias_global=bias.global_mean,
        scale=scaler.scale.to_array(),
        centered_range=np.array([scaler.centered_low, scaler.centered_high]),
        history_loss=np.array([r.mean_loss for r in state.history]),
        history_rmse=np.array([np.nan if r.rmse is None else r.rmse
                               for r in state.history]),
        split=np.array([split.train_fraction, float(split.seed)]),
        data_fingerprint=data_fingerprint,
        side_features=side.features if side is not None else np.zeros((0, 0)),
    )


def load_checkpoint(path) -> Checkpoint:
    """Inverse of save_checkpoint; round-trips bit-exactly.  What
    save_checkpoint refuses, a stored config that does not parse, and
    weights that are not finite (checked on load alone) raise DataError."""
    with open_versioned_npz(path, CHECKPOINT_VERSION, "checkpoint") as z:
        params = AutoencoderParams(np.ascontiguousarray(z["w1"].T), z["b1"],
                                   z["w2"], z["b2"])
        cfg = TrainConfig(**json.loads(str(z["config_json"])))
        lo, hi = z["centered_range"]
        scaler = Scaler(RatingScale.from_array(z["scale"]), float(lo), float(hi))
        means = z["bias_means"]
        means.setflags(write=False)
        bias = BiasTable(str(z["bias_orientation"]), means,
                         float(z["bias_global"]))
        features = z["side_features"]
        side = SideInfoTable(features) if features.size else None
        _check_network(params, cfg, bias, side, params.n)
        bad = first_nonfinite(params)
        if bad is not None:
            raise ValueError(f"parameters must be finite: {bad} is not")
        # a record's epoch is its position; earlier versions also stored it
        history = [EpochRecord(e, float(l), None if np.isnan(r) else float(r))
                   for e, (l, r) in enumerate(zip(z["history_loss"],
                                                  z["history_rmse"]))]
        frac, seed = z["split"]
        fingerprint = str(z["data_fingerprint"])
        _check_split_and_fingerprint(frac, fingerprint)
        split = SplitSpec(float(frac), int(seed))
    return Checkpoint(TrainState(params, cfg, history), bias, scaler, split,
                      fingerprint, side)
