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
from dataclasses import dataclass

import numpy as np


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

    def validate(self):
        k, n = self.hidden, self.n
        if self.W1.ndim != 2 or self.W2.ndim != 2:
            raise ValueError("weight matrices must be 2-D")
        if self.W1.shape[1] != k or self.W2.shape[0] != n:
            raise ValueError("weight/bias shapes disagree")
        if self.p_in < 0 or self.p_hidden < 0:
            raise ValueError("weight matrices narrower than the data dimension")
        bad = first_nonfinite(self)
        if bad is not None:
            raise ValueError(f"parameters must be finite: {bad} is not")

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


def _active(params: AutoencoderParams, cols: np.ndarray):
    """Rows of W1 and of W2 (and b2) that a batch on the coordinates cols
    reads: W1's of cols and of the side inputs, W2's of cols."""
    side = np.arange(params.n, params.W1.shape[0])
    return np.concatenate([cols, side]), cols


def encode_batch(params: AutoencoderParams, x,
                 side: np.ndarray | None = None) -> np.ndarray:
    """Hidden codes of a batch of rows over all n coordinates, x a dense
    array or a scipy sparse array, with the side columns the decoder reads
    appended."""
    if x.shape[1] != params.n:
        raise ValueError(f"input dim {x.shape[1]} != network dim {params.n}")
    z = x @ params.W1[:params.n]
    if params.p_in:
        z += side @ params.W1[params.n:]
    h = np.tanh(z + params.b1)
    return np.hstack([h, side]) if params.p_hidden else h


def forward(params: AutoencoderParams, x: SparseVector,
            side_info=None) -> np.ndarray:
    """Dense output vector for one incomplete input vector."""
    side = _check_side(params, side_info)
    batch_side = side[None, :] if side is not None else None
    hin = encode_batch(params, x.to_dense()[None, :], batch_side)
    return np.tanh(hin @ params.W2.T + params.b2)[0]


def draw_corrupted(n_known: int, mask_ratio: float,
                   rng: np.random.Generator | None) -> np.ndarray:
    """Positions of round(mask_ratio * n_known) of n_known known entries,
    drawn uniformly without replacement; rng is unused when none are."""
    if not 0.0 <= mask_ratio < 1.0:
        raise ValueError("mask_ratio must be in [0, 1)")
    n_corrupt = int(round(mask_ratio * n_known))
    if n_corrupt == 0:
        return np.empty(0, dtype=np.int64)
    return rng.choice(n_known, size=n_corrupt, replace=False)


def dense_rows(vectors, ids: np.ndarray, mask_ratio: float,
               rng: np.random.Generator):
    """Rows ids of the scipy CSR array vectors, corrupted, dense over the
    batch's active coordinates cols: the sorted union of their indices.

    Returns (cols, x, code), the batch that batch_loss_gradients takes
    with cols=cols.  Each row in turn corrupts draw_corrupted(n_known,
    mask_ratio, rng) of its entries, and code marks every entry unknown
    (0), intact (1) or corrupted (2).
    """
    ptr, idx, vals = vectors.indptr, vectors.indices, vectors.data
    n = vectors.shape[1]
    # a flat gather on the CSR arrays: scipy's vectors[ids] takes up to 4x
    # as long on a 32-row batch
    counts = ptr[ids + 1] - ptr[ids]
    starts = np.cumsum(counts) - counts  # of each row in the flat entries
    at = np.arange(counts.sum()) + np.repeat(ptr[ids] - starts, counts)
    row, col = np.repeat(np.arange(ids.size), counts), idx[at]
    known_any = np.zeros(n, dtype=bool)
    known_any[col] = True
    cols = np.flatnonzero(known_any)
    pos = np.searchsorted(cols, col)
    x = np.zeros((ids.size, cols.size))
    x[row, pos] = vals[at]
    code = np.zeros(x.shape, dtype=np.uint8)
    code[row, pos] = 1
    hit = np.concatenate([start + draw_corrupted(k, mask_ratio, rng)
                          for start, k in zip(starts, counts)])
    code[row[hit], pos[hit]] = 2
    return cols, x, code


def corrupt(x: SparseVector, mask_ratio: float, rng: np.random.Generator):
    """Zero out round(mask_ratio * n_known) known entries, chosen uniformly.

    Returns the corrupted vector (those entries removed from its known set)
    and the mask of corrupted indices.
    """
    hit = np.sort(draw_corrupted(x.n_known, mask_ratio, rng))
    if hit.size == 0:
        return x, CorruptionMask(hit)
    keep = np.setdiff1d(np.arange(x.n_known), hit, assume_unique=True)
    corrupted = SparseVector(x.dim, x.indices[keep], x.values[keep])
    return corrupted, CorruptionMask(x.indices[hit])


# A weight scale outside [1/_RESCALE, _RESCALE] is folded into its matrix,
# so that neither the scale nor the stored matrix over- or underflows.
_RESCALE = 1e32

# The SGD update subtracts the gradient from blocks of this many weight
# rows, so no temporary outgrows a block; 1024-2048 measured fastest.
UPDATE_ROWS = 1024


class LazyDecay:
    """In-place minibatch SGD that keeps the L2 decay out of the weights.

    While it steps, params.W1 and params.W2 hold matrices V with W = s*V,
    so the decay W <- (1 - 2*lr*l2) W multiplies the scalar s and touches
    no weight (the scaled-weights trick of Bottou, "Stochastic Gradient
    Descent Tricks", 2012).  sq_norms tracks ||V||^2 from the rank-m
    inner products of each step, so the L2 loss term needs no pass over
    the weights either.  fold() multiplies the scales back in; after it
    the arrays hold the true weights.
    """

    def __init__(self, params: AutoencoderParams, lr: float):
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

    def step(self, l2: float, losses: np.ndarray, factors) -> bool:
        """Apply one SGD step in place; False, with nothing changed, if the
        losses or the step are not finite.

        factors holds (at, w, a, b, ip) per weight matrix, w = V[at] being
        the rows of V that the batch read (see _active).  The data gradient
        is zero outside them and rank m inside them, g = a.T @ b, so only
        w's rows move: the decay of the rest lives in the scale.  ip is
        <V, g>, which is sum(delta * z) for the layer's delta and its
        pre-activation z, both from the forward pass, and ||g||^2 is
        sum((a a.T) * (b b.T)); neither reads V.
        """
        ips = [ip for *_, ip in factors]
        ggs = [float(np.vdot(a @ a.T, b @ b.T)) for _, _, a, b, _ in factors]
        if not (np.all(np.isfinite(losses))
                and all(map(math.isfinite, ips + ggs))):
            return False
        params = self.params
        rate = self.lr / losses.size
        decay = 1.0 - 2.0 * l2 * self.lr
        for k, (v, (at, w, a, b, _)) in enumerate(zip((params.W1, params.W2),
                                                      factors)):
            scale = self.scales[k] * decay
            if not 1.0 / _RESCALE <= abs(scale) <= _RESCALE:
                self._fold(k, v, scale)
                ips[k] *= scale
                scale = 1.0
                w = v[at]
            step = rate / scale
            b_step = step * b
            for lo in range(0, w.shape[0], UPDATE_ROWS):
                rows = slice(lo, lo + UPDATE_ROWS)
                w[rows] -= a[:, rows].T @ b_step
            v[at] = w
            self.scales[k] = scale
            self.sq_norms[k] += step * (step * ggs[k] - 2.0 * ips[k])
        (_, _, _, delta1, _), (at2, _, delta2, _, _) = factors
        params.b1 -= rate * delta1.sum(axis=0)
        params.b2[at2] -= rate * delta2.sum(axis=0)
        return True


def batch_loss_gradients(params, x, code, weights, side=None, *,
                         cols: np.ndarray, sgd: LazyDecay | None = None):
    """Per-sample losses and, as an AutoencoderParams, the gradient summed
    over the batch.

    x holds the known values and code marks each entry unknown (0), intact
    (1) or corrupted (2); the input is x on the intact entries.  Both are
    dense over the sorted coordinates cols, as dense_rows returns them;
    the passes read only the weights of those coordinates, since missing
    inputs are zero and missing outputs carry no error.  The two
    squared-error sums (over corrupted and over intact known entries) are
    accumulated separately and only then weighted, so the loss is exactly
    linear in the two weights.

    With ``sgd``, params holds sgd's scaled matrices and the kernel takes
    the SGD step itself, in place, at rate sgd.lr / batch size: it returns
    (losses, None).  If the losses or the step are not finite it takes no
    step, folds sgd, and returns the gradient at the true weights instead.
    """
    s1, s2 = (1.0, 1.0) if sgd is None else sgd.scales
    at1, at2 = _active(params, cols)
    w1, w2 = params.W1[at1], params.W2[at2]
    intact, corrupted = code == 1, code == 2
    x_in = np.where(intact, x, 0.0)
    xin = np.hstack([x_in, side]) if params.p_in else x_in
    z1 = xin @ w1
    h = np.tanh(s1 * z1 + params.b1)
    hin = np.hstack([h, side]) if params.p_hidden else h
    z2 = hin @ w2.T
    out = s2 * z2
    out += params.b2[at2]
    np.tanh(out, out=out)

    err = out - x
    sq = err * err
    pred_sum = np.einsum("ij,ij->i", sq, corrupted)
    recon_sum = np.einsum("ij,ij->i", sq, intact)
    losses = weights.prediction * pred_sum + weights.reconstruction * recon_sum

    # delta2 = 2 w (out - target) (1 - out^2), in sq's buffer; w is each
    # entry's error weight, looked up from its code
    delta2 = np.multiply(out, out, out=sq)
    np.subtract(1.0, delta2, out=delta2)
    delta2 *= err
    table = np.array([0.0, 2.0 * weights.reconstruction,
                      2.0 * weights.prediction])
    delta2 *= table[code]
    dh = s2 * (delta2 @ w2[:, :params.hidden])
    delta1 = dh * (1.0 - h ** 2)

    if weights.l2:
        if sgd is None:
            sq_w = np.sum(params.W1 ** 2) + np.sum(params.W2 ** 2)
        else:
            sq_w = s1 * s1 * sgd.sq_norms[0] + s2 * s2 * sgd.sq_norms[1]
        losses = losses + weights.l2 * sq_w
    if sgd is not None:
        factors = ((at1, w1, xin, delta1, float(np.vdot(delta1, z1))),
                   (at2, w2, delta2, hin, float(np.vdot(delta2, z2))))
        if sgd.step(weights.l2, losses, factors):
            return losses, None
        sgd.fold()

    grads = AutoencoderParams(np.zeros_like(params.W1), delta1.sum(axis=0),
                              np.zeros_like(params.W2), np.zeros(params.n))
    grads.W1[at1] = xin.T @ delta1
    grads.W2[at2] = delta2.T @ hin
    grads.b2[at2] = delta2.sum(axis=0)
    if weights.l2:
        n_samples = x.shape[0]
        grads.W1 += (2.0 * weights.l2 * n_samples) * params.W1
        grads.W2 += (2.0 * weights.l2 * n_samples) * params.W2
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
    dims = np.arange(x.dim)[None, :]
    code = np.isin(dims, x.indices).astype(np.uint8) + np.isin(dims, mask.indices)
    dense = x.to_dense()[None, :]
    if not np.array_equal(x_tilde.to_dense(), np.where(code == 1, dense, 0)[0]):
        raise ValueError("x_tilde must be x with the mask's entries zeroed")
    batch_side = side[None, :] if side is not None else None
    return batch_loss_gradients(params, dense, code, weights, batch_side,
                                cols=np.arange(x.dim))


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
