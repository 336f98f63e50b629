"""One-hidden-layer tanh autoencoder over incomplete vectors.

Missing entries are fed as zeros and excluded from the loss.  Training
corrupts (zeroes) a random subset of the known entries; the squared error
on corrupted entries is weighted separately from the error on the entries
left intact, plus an L2 penalty on both weight matrices (never the biases).
An optional side-information vector can be appended to the input, to the
hidden layer, or to both.
"""

from __future__ import annotations

import math
from concurrent.futures import wait
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import _sparsetools


@dataclass(frozen=True)
class SparseVector:
    """Fixed-dimension vector with values known only at sorted indices."""

    dim: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.ascontiguousarray(self.indices, dtype=np.int64)
        val = np.ascontiguousarray(self.values, dtype=np.float64)
        if idx.ndim != 1 or val.ndim != 1 or idx.size != val.size:
            raise ValueError("indices and values must be aligned 1-D arrays")
        if idx.size:
            if idx[0] < 0 or idx[-1] >= self.dim:
                raise ValueError("index out of range")
            if np.any(np.diff(idx) <= 0):
                raise ValueError("indices must be strictly increasing")
        if not np.all(np.isfinite(val)):
            raise ValueError("values must be finite")
        idx.setflags(write=False)
        val.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @property
    def n_known(self) -> int:
        return self.indices.size

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.dim)
        dense[self.indices] = self.values
        return dense


@dataclass(frozen=True)
class CorruptionMask:
    """Indices zeroed in the corrupted input; a subset of the known set."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.unique(np.ascontiguousarray(self.indices, dtype=np.int64))
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)


@dataclass(frozen=True)
class LossWeights:
    """Error weights: corrupted entries vs intact known entries, plus L2."""

    prediction: float       # corrupted entries (errors stand in for predictions)
    reconstruction: float   # known entries left intact
    l2: float = 0.0

    def __post_init__(self):
        if not all(0 <= w < math.inf
                   for w in (self.prediction, self.reconstruction, self.l2)):
            raise ValueError("loss weights must be nonnegative and finite")
        if self.prediction == 0 and self.reconstruction == 0:
            raise ValueError("prediction and reconstruction weights are both zero")


@dataclass
class AutoencoderParams:
    """Encoder/decoder weights; side info adds W1 rows and W2 columns."""

    W1: np.ndarray  # (n + p_in, hidden): one row per input coordinate
    b1: np.ndarray  # (hidden,)
    W2: np.ndarray  # (n, hidden + p_hidden)
    b2: np.ndarray  # (n,)

    @property
    def n(self) -> int:
        return self.b2.size

    @property
    def hidden(self) -> int:
        return self.b1.size

    @property
    def p_in(self) -> int:
        return self.W1.shape[0] - self.n

    @property
    def p_hidden(self) -> int:
        return self.W2.shape[1] - self.hidden

    def copy(self) -> "AutoencoderParams":
        return AutoencoderParams(self.W1.copy(), self.b1.copy(),
                                 self.W2.copy(), self.b2.copy())


def first_nonfinite(*params: AutoencoderParams) -> str | None:
    """First of W1, b1, W2, b2 that is not finite in one of params."""
    for name in ("W1", "b1", "W2", "b2"):
        if not all(np.all(np.isfinite(getattr(p, name))) for p in params):
            return name
    return None


def init_params(n: int, hidden: int, p_in: int = 0, p_hidden: int = 0,
                seed: int = 0) -> AutoencoderParams:
    """Uniform init on [-1/sqrt(fan_in), 1/sqrt(fan_in)]; zero biases."""
    if n < 1 or hidden < 1:
        raise ValueError("n and hidden must be at least 1")
    if p_in < 0 or p_hidden < 0:
        raise ValueError("side-info widths must be nonnegative")
    rng = np.random.default_rng(seed)
    bound1 = 1.0 / np.sqrt(n + p_in)
    bound2 = 1.0 / np.sqrt(hidden + p_hidden)
    return AutoencoderParams(
        W1=rng.uniform(-bound1, bound1, size=(hidden, n + p_in)).T.copy(),
        b1=np.zeros(hidden),
        W2=rng.uniform(-bound2, bound2, size=(n, hidden + p_hidden)),
        b2=np.zeros(n),
    )


def _check_side(params: AutoencoderParams, side) -> np.ndarray | None:
    needs = params.p_in > 0 or params.p_hidden > 0
    if not needs:
        if side is not None:
            raise ValueError("side_info given but the network has no side columns")
        return None
    if side is None:
        raise ValueError("network expects side_info")
    side = np.asarray(side, dtype=np.float64)
    p = side.shape[-1]
    if params.p_in not in (0, p) or params.p_hidden not in (0, p):
        raise ValueError(f"side_info dim {p} does not match the network widths")
    return side


def encode_batch(params: AutoencoderParams, xin,
                 side: np.ndarray | None = None) -> np.ndarray:
    """Hidden codes of a batch of inputs, with the side columns the
    decoder reads appended.  xin, a dense array or a scipy sparse array,
    holds each input over all n + p_in coordinates, the side inputs last,
    as the training kernel's CSC input and the completer's chunks do."""
    width = params.W1.shape[0]
    if xin.shape[1] != width:
        raise ValueError(f"input dim {xin.shape[1]} != network input dim "
                         f"{width}")
    h = np.tanh(xin @ params.W1 + params.b1)
    return np.hstack([h, side]) if params.p_hidden else h


def forward(params: AutoencoderParams, x: SparseVector,
            side_info=None) -> np.ndarray:
    """Dense output vector for one incomplete input vector."""
    side = _check_side(params, side_info)
    batch_side = side[None, :] if side is not None else None
    xin = x.to_dense()[None, :]
    if params.p_in:
        xin = np.hstack([xin, batch_side])
    hin = encode_batch(params, xin, batch_side)
    return np.tanh(hin @ params.W2.T + params.b2)[0]


def corrupted_flags(counts: np.ndarray, mask_ratio: float,
                    rng: np.random.Generator | None) -> np.ndarray:
    """One flag per entry of rows of counts entries each, row after row,
    True on each row's rint(mask_ratio * count) entries with the smallest
    of one uniform key per entry.  rng is unused when there are no entries."""
    if not 0.0 <= mask_ratio < 1.0:
        raise ValueError("mask_ratio must be in [0, 1)")
    row = np.repeat(np.arange(counts.size), counts)
    key = rng.random(row.size) if row.size else 0.0
    # row + key lies in [row, row + 1]; where it rounds up to row + 1 it ties
    # the next row's smallest sums, and the stable sort still puts it first,
    # so each row's entries stay together and its count stays exact
    order = np.argsort(row + key, kind="stable")
    rank = np.arange(row.size) - (np.cumsum(counts) - counts)[row]
    flags = np.empty(row.size, dtype=bool)
    flags[order] = rank < np.rint(mask_ratio * counts)[row]
    return flags


class _Compressed(NamedTuple):
    """A CSR or CSC array as scipy stores one, for the kernel's products:
    building one runs none of the checks of scipy's constructor, which
    take longer than a small batch's products."""

    format: str
    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def T(self) -> "_Compressed":
        return _Compressed({"csr": "csc", "csc": "csr"}[self.format],
                           self.shape[::-1], self.indptr, self.indices,
                           self.data)


def corrupted_batch(vectors, ids: np.ndarray, mask_ratio: float,
                    rng: np.random.Generator):
    """(x, hit), the batch that batch_loss_gradients takes: x rows ids of
    the scipy CSR array vectors as an (ids.size, n) CSR _Compressed, and
    hit the corrupted_flags(counts, mask_ratio, rng) of their entries."""
    ptr = vectors.indptr
    # a flat gather on the CSR arrays: scipy's vectors[ids] takes up to 4x
    # as long on a 32-row batch
    counts = ptr[ids + 1] - ptr[ids]
    starts = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    at = np.arange(starts[-1]) + np.repeat(ptr[ids] - starts[:-1], counts)
    x = _Compressed("csr", (ids.size, vectors.shape[1]), starts,
                    vectors.indices[at], vectors.data[at])
    return x, corrupted_flags(counts, mask_ratio, rng)


def corrupt(x: SparseVector, mask_ratio: float, rng: np.random.Generator):
    """x with round(mask_ratio * n_known) known entries, drawn by
    corrupted_flags, removed from its known set, and the mask of them."""
    hit = corrupted_flags(np.array([x.n_known]), mask_ratio, rng)
    x_tilde = (SparseVector(x.dim, x.indices[~hit], x.values[~hit])
               if hit.any() else x)
    return x_tilde, CorruptionMask(x.indices[hit])


# A weight scale outside [1/_RESCALE, _RESCALE] is folded into its matrix,
# so that neither the scale nor the stored matrix over- or underflows.
_RESCALE = 1e32

# A step splits its coordinates into _PARTS contiguous row ranges of each
# weight matrix once its decoder work, m * |cols| * (hidden + p_hidden)
# multiply-adds, reaches _PART_WORK; a smaller step runs as one part.  Both
# are constants, so the parts of a step, and so its bits, depend on the
# batch alone and never on the machine.
_PARTS = 2
_PART_WORK = 20_000_000


def _part_rows(rows: int, parts: int, k: int) -> tuple[int, int]:
    """Bounds (lo, hi) of part k of rows rows split into parts ranges."""
    return rows * k // parts, rows * (k + 1) // parts


def _each_part(fn, parts: int, pool) -> list:
    """[fn(0), ..., fn(parts - 1)], part 0 on the calling thread and the
    rest on pool, or all on the calling thread without one.  Every part
    has finished when this returns or raises."""
    if pool is None:
        return [fn(k) for k in range(parts)]
    later = [pool.submit(fn, k) for k in range(1, parts)]
    try:
        first = fn(0)
    finally:
        wait(later)
    return [first] + [future.result() for future in later]


def _add_product(v: np.ndarray, a, b: np.ndarray, lo: int = 0,
                 hi: int | None = None):
    """v += a @ b in place, for a CSR or CSC array a (a _Compressed or a
    scipy array) and a dense b, over a's compressed coordinates lo:hi
    alone: for CSR, rows lo:hi of a and v, of which only the rows where a
    has entries are read or written; for CSC, columns lo:hi of a and rows
    lo:hi of b.  scipy has no public in-place sparse product, so this
    calls the kernel behind its sparse @ dense one, which raises unless v
    is float64 like a and b."""
    hi = a.indptr.size - 1 if hi is None else hi
    if a.format == "csr":
        shape, v = (hi - lo, a.shape[1]), v[lo:hi]
    else:
        shape, b = (a.shape[0], hi - lo), b[lo:hi]
    getattr(_sparsetools, a.format + "_matvecs")(
        *shape, b.shape[1], a.indptr[lo:hi + 1], a.indices, a.data,
        np.ravel(b), np.reshape(v, -1, copy=False))


def _by_coordinate(x, hit: np.ndarray):
    """(row, col, value, hit) of each entry of the CSR array x, listed by
    coordinate, each coordinate's in row order: one stable sort."""
    order = np.argsort(x.indices, kind="stable")
    row = np.repeat(np.arange(x.shape[0]), np.diff(x.indptr))
    return row[order], x.indices[order], x.data[order], hit[order]


def _csc_batch(data: np.ndarray, row: np.ndarray, col: np.ndarray, m: int,
               width: int, side: np.ndarray | None = None) -> _Compressed:
    """(m, width) CSC array of the entries (row, col) of data, listed by
    coordinate, each coordinate's in row order; side's columns, if given,
    are the last coordinates (as the completer's encoder input has them)."""
    counts = np.bincount(col, minlength=width)
    if side is not None:
        p = side.shape[1]
        counts[width - p:] = m
        data = np.concatenate([data, side.T.ravel()])
        row = np.concatenate([row, np.tile(np.arange(m), p)])
    ptr = np.zeros(width + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return _Compressed("csc", (m, width), ptr, row, data)


class LazyDecay:
    """Scalar half of in-place SGD that keeps the L2 decay out of the weights.

    While it steps, params.W1 and params.W2 hold matrices V with W = s*V,
    so the decay W <- (1 - 2*lr*l2) W multiplies the scalar s and touches
    no weight (the scaled-weights trick of Bottou, "Stochastic Gradient
    Descent Tricks", 2012).  sq_norms tracks ||V||^2 from the rank-m
    inner products of each step, so the L2 loss term needs no pass over
    the weights either.  fold() multiplies the scales back in; after it
    the arrays hold the true weights.  It keeps the scales and squared
    norms only: batch_loss_gradients updates V and the biases in place.
    Both matrices must be C-contiguous, so that a step writes into them
    and not into a copy.
    """

    def __init__(self, params: AutoencoderParams, lr: float):
        for name in ("W1", "W2"):
            if not getattr(params, name).flags.c_contiguous:
                raise ValueError(f"{name} must be C-contiguous to step in "
                                 f"place")
        self.params = params
        self.lr = lr
        self.scales = [1.0, 1.0]
        self.sq_norms = [0.0, 0.0]
        self.fold()

    def fold(self):
        for k, w in enumerate((self.params.W1, self.params.W2)):
            self._fold(k, w, self.scales[k])

    def _fold(self, k: int, w: np.ndarray, scale: float):
        if scale != 1.0:
            w *= scale
        self.scales[k] = 1.0
        self.sq_norms[k] = float(np.vdot(w, w))

    def step(self, l2: float, losses: np.ndarray, ips, ggs) -> list | None:
        """Decay the scales and update sq_norms for one SGD step, and
        return each weight matrix's step factor, which batch_loss_gradients
        multiplies into its data gradient g and adds to V in place; None,
        with nothing changed, if the losses, ips (<V, g>) or ggs (||g||^2)
        are not finite.  A scale that leaves [1/_RESCALE, _RESCALE] is
        folded into its matrix first."""
        if not (np.all(np.isfinite(losses))
                and all(map(math.isfinite, (*ips, *ggs)))):
            return None
        rate = self.lr / losses.size
        decay = 1.0 - 2.0 * l2 * self.lr
        factors = []
        for k, v in enumerate((self.params.W1, self.params.W2)):
            scale, ip = self.scales[k] * decay, ips[k]
            if not 1.0 / _RESCALE <= abs(scale) <= _RESCALE:
                self._fold(k, v, scale)
                ip *= scale
                scale = 1.0
            step = rate / scale
            factors.append(-step)
            self.scales[k] = scale
            self.sq_norms[k] += step * (step * ggs[k] - 2.0 * ip)
        return factors


def batch_loss_gradients(params, x, hit, weights, side=None, *,
                         sgd: LazyDecay | None = None, pool=None):
    """Per-sample losses and, as an AutoencoderParams, the gradient summed
    over the batch.

    x holds the batch's known values as an (m, n) CSR array and hit flags
    each entry of x.data corrupted (True) or intact (False), as
    corrupted_batch returns them; the input is x on its intact entries.
    The passes read only the weights of the batch's active coordinates
    cols, the sorted union of x's indices, since missing inputs are zero
    and missing outputs carry no error.  The encoder multiplies the input,
    sparse over its intact entries and the side inputs, with W1 in place;
    the decoder reads a gathered copy of W2's rows of cols.  The two
    squared-error sums (over corrupted and over intact known entries) are
    accumulated separately and only then weighted, so the loss is exactly
    linear in the two weights.

    A step with at least _PART_WORK decoder multiply-adds runs in _PARTS
    parts, contiguous row ranges of W1 and of W2, else in one.  Each part
    computes its share of the encoder product, whose partial sums are
    added in part order, and the decoder, output deltas and backprop of
    its coordinates; the parts of an SGD step write their own rows.  With
    a pool, the parts run on its threads beside the calling one.

    With ``sgd``, params holds sgd's scaled matrices and the kernel takes
    the SGD step itself, in place: sgd.step decays the scales and gives
    the step factors, the parts add their rows' updates, and then both
    biases move at rate sgd.lr / batch size.  It returns (losses, None).
    If the losses or the step are not finite it takes no step, folds sgd,
    and returns the gradient at the true weights instead.
    """
    s1, s2 = (1.0, 1.0) if sgd is None else sgd.scales
    m, n, width = x.shape[0], params.n, params.W1.shape[0]
    # the entries listed by coordinate: the intact ones make the encoder
    # input, and the entries of each part's coordinates are one slice
    row, col, val, hit = _by_coordinate(x, hit)
    kept = ~hit
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(col, minlength=n), out=ptr[1:])
    counts = np.diff(ptr)
    cols = np.flatnonzero(counts)
    pos = np.repeat(np.arange(cols.size), counts[cols])  # places in cols
    xin = _csc_batch(val[kept], row[kept], col[kept], m, width,
                     side if params.p_in else None)

    parts = (_PARTS if m * cols.size * params.W2.shape[1] >= _PART_WORK
             else 1)
    outs = [_part_rows(n, parts, k) for k in range(parts)]
    at = np.searchsorted(cols, [lo for lo, _ in outs] + [n])

    # each part's decoder rows, in buffers made here and not in a pool
    # thread's malloc arena; mode="raise" would copy out (cols are valid)
    w2s = [np.empty((at[k + 1] - at[k], params.W2.shape[1]))
           for k in range(parts)]

    def encode(k):
        z = np.zeros((m, params.hidden))
        _add_product(z, xin, params.W1, *_part_rows(width, parts, k))
        np.take(params.W2, cols[at[k]:at[k + 1]], axis=0, out=w2s[k],
                mode="clip")
        return z

    z1 = sum(_each_part(encode, parts, pool))
    h = np.tanh(s1 * z1 + params.b1)
    hin = np.hstack([h, side]) if params.p_hidden else h
    two_w = (2.0 * weights.prediction, 2.0 * weights.reconstruction)

    def decode(k):
        e = slice(ptr[outs[k][0]], ptr[outs[k][1]])
        r, p, w2 = row[e], pos[e] - at[k], w2s[k]
        z2 = hin @ w2.T
        out = s2 * z2
        out += params.b2[cols[at[k]:at[k + 1]]]
        np.tanh(out, out=out)
        o = out[r, p]
        err = o - val[e]
        # delta2 = 2 w (out - target) (1 - out^2) on the known entries, w
        # each entry's error weight; the backprop reads it dense
        d2 = (1.0 - o * o) * err * np.where(hit[e], *two_w)
        delta2 = np.zeros_like(out)
        delta2[r, p] = d2
        # the part's shares of <V2, g2> and of the two grams of ||g||^2
        x_in = np.zeros_like(out)
        x_in[r[kept[e]], p[kept[e]]] = val[e][kept[e]]
        return (err * err, d2, delta2 @ w2[:, :params.hidden],
                float(np.vdot(delta2, z2)), delta2 @ delta2.T,
                x_in @ x_in.T)

    sqs, d2s, dhs, ip2s, dds, xxs = zip(*_each_part(decode, parts, pool))
    sq = np.concatenate(sqs)
    pred_sum = np.bincount(row[hit], sq[hit], minlength=m)
    recon_sum = np.bincount(row[kept], sq[kept], minlength=m)
    losses = weights.prediction * pred_sum + weights.reconstruction * recon_sum
    delta1 = s2 * sum(dhs) * (1.0 - h ** 2)

    if weights.l2:
        if sgd is None:
            sq_w = np.sum(params.W1 ** 2) + np.sum(params.W2 ** 2)
        else:
            sq_w = s1 * s1 * sgd.sq_norms[0] + s2 * s2 * sgd.sq_norms[1]
        losses = losses + weights.l2 * sq_w
    # the weight gradients are a1 @ delta1 and a2 @ hin, with a1 the input
    # and a2 delta2 on the known entries, both transposed to CSR; the bias
    # gradients are delta1's sums over the batch and a2's over its columns
    d2 = np.concatenate(d2s)
    a1, a2 = xin.T, _Compressed("csr", (n, m), ptr, row, d2)
    bias_grads = delta1.sum(axis=0), np.bincount(col, d2, minlength=n)
    if sgd is not None:
        # <V, g> is sum(delta * z) for the layer's delta and pre-activation
        # z, and ||a @ b||^2 is sum((a.T a) * (b b.T)), from dense grams
        gram1 = sum(xxs) + (side @ side.T if params.p_in else 0.0)
        ips = (float(np.vdot(delta1, z1)), sum(ip2s))
        ggs = (float(np.vdot(gram1, delta1 @ delta1.T)),
               float(np.vdot(sum(dds), hin @ hin.T)))
        factors = sgd.step(weights.l2, losses, ips, ggs)
        if factors is not None:
            # only the rows where a has entries move; scales decay the rest
            steps = ((params.W1, a1, factors[0] * delta1),
                     (params.W2, a2, factors[1] * hin))

            def update(k):
                for v, a, b in steps:
                    _add_product(v, a, b, *_part_rows(v.shape[0], parts, k))

            _each_part(update, parts, pool)
            rate = sgd.lr / m
            params.b1 -= rate * bias_grads[0]
            params.b2 -= rate * bias_grads[1]
            return losses, None
        sgd.fold()

    grads = AutoencoderParams(np.zeros(params.W1.shape), bias_grads[0],
                              np.zeros(params.W2.shape), bias_grads[1])
    _add_product(grads.W1, a1, delta1)
    _add_product(grads.W2, a2, hin)
    if weights.l2:
        grads.W1 += (2.0 * weights.l2 * m) * params.W1
        grads.W2 += (2.0 * weights.l2 * m) * params.W2
    return losses, grads


def _single_vector(params: AutoencoderParams, x: SparseVector,
                   x_tilde: SparseVector, mask: CorruptionMask,
                   weights: LossWeights, side_info):
    """batch_loss_gradients on one checked corrupted vector."""
    side = _check_side(params, side_info)
    if x_tilde.dim != x.dim:
        raise ValueError("corrupted vector has a different dimension")
    if not np.all(np.isin(mask.indices, x.indices)):
        raise ValueError("mask contains indices that are not known in x")
    if np.any(np.isin(mask.indices, x_tilde.indices)):
        raise ValueError("corrupted indices must be absent from x_tilde")
    intact = x.to_dense()
    intact[mask.indices] = 0.0
    if not np.array_equal(x_tilde.to_dense(), intact):
        raise ValueError("x_tilde must be x with the mask's entries zeroed")
    batch = _Compressed("csr", (1, x.dim), np.array([0, x.n_known]),
                        x.indices, x.values)
    hit = np.isin(x.indices, mask.indices)
    batch_side = side[None, :] if side is not None else None
    return batch_loss_gradients(params, batch, hit, weights, batch_side)


def loss(params: AutoencoderParams, x: SparseVector, x_tilde: SparseVector,
         mask: CorruptionMask, weights: LossWeights, side_info=None) -> float:
    """Weighted masked squared error of one corrupted vector, plus L2."""
    losses, _ = _single_vector(params, x, x_tilde, mask, weights, side_info)
    return float(losses[0])


def loss_gradients(params: AutoencoderParams, x: SparseVector,
                   x_tilde: SparseVector, mask: CorruptionMask,
                   weights: LossWeights,
                   side_info=None) -> AutoencoderParams:
    """Exact gradient of ``loss`` with respect to every parameter.

    No error flows from output units outside the known set; the L2 term
    contributes 2*l2*W to the weight matrices and nothing to the biases.
    """
    return _single_vector(params, x, x_tilde, mask, weights, side_info)[1]


def decompose(params: AutoencoderParams, x: SparseVector):
    """Factor the forward pass as sigma(V u).

    u stacks the hidden activation over the output bias; V is the decoder
    matrix with an identity block appended, so sigma(V u) reproduces
    forward(x) entry for entry.  Requires a network without side columns.
    """
    if params.p_in or params.p_hidden:
        raise ValueError("decompose requires a network without side columns")
    h = encode_batch(params, x.to_dense()[None, :])[0]
    u = np.concatenate([h, params.b2])
    v = np.hstack([params.W2, np.eye(params.n)])
    return u, v
