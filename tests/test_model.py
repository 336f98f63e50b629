"""Autoencoder forward pass, masked loss, exact gradients, decomposition."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from cfdae import (AutoencoderParams, CorruptionMask, LossWeights,
                   SparseVector, corrupt, decompose, forward, init_params,
                   loss, loss_gradients)
import cfdae
from cfdae import model
from cfdae.model import LazyDecay, batch_loss_gradients, corrupted_batch

PARAM_FIELDS = ("W1", "b1", "W2", "b2")


def _random_instance(seed, n=None, hidden=None, side_mode=None, p=None):
    """A perturbed network plus a random sparse input and side vector."""
    rng = np.random.default_rng(seed)
    n = n if n is not None else int(rng.integers(3, 9))
    hidden = hidden if hidden is not None else int(rng.integers(2, 6))
    p = p if p is not None else int(rng.integers(1, 4))
    side_mode = side_mode if side_mode is not None else (
        rng.choice(["none", "input_only", "hidden_only", "both"]))
    p_in = p if side_mode in ("input_only", "both") else 0
    p_hidden = p if side_mode in ("hidden_only", "both") else 0
    params = init_params(n, hidden, p_in, p_hidden, seed=seed)
    params.W1 = params.W1 + rng.normal(scale=0.3, size=params.W1.shape)
    params.W2 = params.W2 + rng.normal(scale=0.3, size=params.W2.shape)
    params.b1 = rng.normal(scale=0.2, size=hidden)
    params.b2 = rng.normal(scale=0.2, size=n)
    n_known = int(rng.integers(1, n + 1))
    idx = np.sort(rng.choice(n, n_known, replace=False))
    x = SparseVector(n, idx, rng.uniform(-0.95, 0.95, n_known))
    side = rng.uniform(-1, 1, p) if side_mode != "none" else None
    return params, x, side, rng


def finite_difference_gradients(params, x, x_tilde, mask, weights, side,
                                h=1e-5):
    """Central differences of the loss over every parameter entry."""
    out = {}
    for name in PARAM_FIELDS:
        arr = getattr(params, name)
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ij = it.multi_index
            orig = arr[ij]
            arr[ij] = orig + h
            up = loss(params, x, x_tilde, mask, weights, side)
            arr[ij] = orig - h
            down = loss(params, x, x_tilde, mask, weights, side)
            arr[ij] = orig
            grad[ij] = (up - down) / (2 * h)
        out[name] = grad
    return out


def max_relative_error(analytic, numeric, floor):
    """Worst |a - n| / max(|a| + |n|, floor) over all parameter entries.

    The floor keeps entries whose true gradient is ~0 from being judged
    by pure finite-difference rounding noise.
    """
    worst = 0.0
    for name in PARAM_FIELDS:
        a = getattr(analytic, name)
        n = numeric[name]
        rel = np.abs(a - n) / np.maximum(np.abs(a) + np.abs(n), floor)
        worst = max(worst, float(rel.max()))
    return worst


# ------------------------------------------------------------- containers

def test_sparse_vector_validation():
    SparseVector(4, [0, 2], [0.5, -0.5])
    with pytest.raises(ValueError):
        SparseVector(4, [2, 0], [0.5, -0.5])  # not increasing
    with pytest.raises(ValueError):
        SparseVector(4, [0, 4], [0.5, -0.5])  # out of range
    with pytest.raises(ValueError):
        SparseVector(4, [0, 1], [0.5])  # misaligned
    with pytest.raises(ValueError):
        SparseVector(4, [0], [np.inf])


def test_sparse_vector_to_dense():
    x = SparseVector(5, [1, 4], [0.25, -1.0])
    np.testing.assert_array_equal(x.to_dense(), [0, 0.25, 0, 0, -1.0])
    assert x.n_known == 2


def test_corruption_mask_sorted_unique():
    mask = CorruptionMask(np.array([3, 1, 3]))
    np.testing.assert_array_equal(mask.indices, [1, 3])


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(-1.0, 0.5)
    with pytest.raises(ValueError):
        LossWeights(0.0, 0.0)
    LossWeights(1.0, 0.0)
    LossWeights(0.0, 0.5)


def test_params_widths():
    params = init_params(7, 3, p_in=2, p_hidden=4, seed=0)
    assert (params.n, params.hidden) == (7, 3)
    assert (params.p_in, params.p_hidden) == (2, 4)
    assert params.W1.shape == (9, 3) and params.W2.shape == (7, 7)


# ------------------------------------------------------------ init_params

def test_init_bounds_and_zero_biases():
    params = init_params(50, 20, p_in=5, p_hidden=3, seed=1)
    assert np.abs(params.W1).max() <= 1.0 / np.sqrt(55)
    assert np.abs(params.W2).max() <= 1.0 / np.sqrt(23)
    assert not params.b1.any() and not params.b2.any()


@pytest.mark.parametrize("n,hidden,p_in,p_hidden,seed", [
    (7, 3, 2, 4, 0), (50, 20, 5, 3, 1), (6, 4, 0, 0, 42)])
def test_init_w1_is_the_transposed_draw(n, hidden, p_in, p_hidden, seed):
    # one row per input coordinate, holding the values of a (hidden,
    # n + p_in) draw; W2's draw follows it in the same stream
    params = init_params(n, hidden, p_in, p_hidden, seed=seed)
    rng = np.random.default_rng(seed)
    bound1, bound2 = 1.0 / np.sqrt(n + p_in), 1.0 / np.sqrt(hidden + p_hidden)
    w1 = rng.uniform(-bound1, bound1, size=(hidden, n + p_in))
    w2 = rng.uniform(-bound2, bound2, size=(n, hidden + p_hidden))
    assert params.W1.shape == (n + p_in, hidden)
    assert params.W1.flags.c_contiguous
    np.testing.assert_array_equal(params.W1, w1.T)
    np.testing.assert_array_equal(params.W2, w2)


def test_init_deterministic():
    a = init_params(10, 4, seed=42)
    b = init_params(10, 4, seed=42)
    c = init_params(10, 4, seed=43)
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert not np.array_equal(a.W1, c.W1)


# ---------------------------------------------------------------- forward

def test_forward_zero_network_is_zero():
    params = AutoencoderParams(np.zeros((5, 3)), np.zeros(3),
                               np.zeros((5, 3)), np.zeros(5))
    x = SparseVector(5, [0, 3], [0.7, -0.2])
    np.testing.assert_array_equal(forward(params, x), np.zeros(5))


def test_forward_matches_straight_line_formula():
    params, x, _side, _rng = _random_instance(5, side_mode="none")
    expected = np.tanh(params.W2 @ np.tanh(params.W1.T @ x.to_dense()
                                           + params.b1) + params.b2)
    np.testing.assert_allclose(forward(params, x), expected, atol=1e-15)


def test_forward_hidden_injection_term_by_term():
    # with side info at the hidden layer, the output pre-activation is
    # (decoder block) @ h + (side block) @ s + b2, evaluated explicitly
    params, x, side, _rng = _random_instance(8, side_mode="hidden_only", p=3)
    k = params.hidden
    h = np.tanh(params.W1.T @ x.to_dense() + params.b1)
    pre = params.W2[:, :k] @ h + params.W2[:, k:] @ side + params.b2
    np.testing.assert_allclose(forward(params, x, side), np.tanh(pre),
                               atol=1e-15)


def test_forward_input_injection_term_by_term():
    params, x, side, _rng = _random_instance(9, side_mode="both", p=2)
    n = params.n
    h = np.tanh(params.W1[:n].T @ x.to_dense()
                + params.W1[n:].T @ side + params.b1)
    pre = (params.W2[:, :params.hidden] @ h
           + params.W2[:, params.hidden:] @ side + params.b2)
    np.testing.assert_allclose(forward(params, x, side), np.tanh(pre),
                               atol=1e-15)


def test_forward_output_in_open_interval():
    params, x, side, _rng = _random_instance(12)
    out = forward(params, x, side)
    assert np.all(np.abs(out) < 1.0)


def test_forward_side_requirements():
    plain = init_params(4, 2, seed=0)
    x = SparseVector(4, [1], [0.5])
    with pytest.raises(ValueError):
        forward(plain, x, np.ones(3))
    augmented = init_params(4, 2, p_in=3, seed=0)
    with pytest.raises(ValueError):
        forward(augmented, x)
    with pytest.raises(ValueError):
        forward(augmented, x, np.ones(2))


@pytest.mark.parametrize("side_info", [
    pytest.param([np.nan, 1.0], id="nan"),
    pytest.param([np.inf, 0.0], id="inf"),
    pytest.param([[0.5, 1.0]], id="one-row-block"),
])
def test_side_info_must_be_a_finite_vector(side_info):
    # forward, loss and loss_gradients refuse a side vector that is not
    # finite or not 1-D, instead of returning NaN outputs or a loss that
    # ignores it, or failing inside numpy
    params = init_params(4, 2, p_in=2, p_hidden=2, seed=0)
    x = SparseVector(4, [1, 3], [0.5, -0.25])
    x_tilde, mask = SparseVector(4, [3], [-0.25]), CorruptionMask([1])
    weights = LossWeights(1.0, 0.5)
    with pytest.raises(ValueError, match="side_info"):
        forward(params, x, side_info)
    for fn in (loss, loss_gradients):
        with pytest.raises(ValueError, match="side_info"):
            fn(params, x, x_tilde, mask, weights, side_info)


def test_forward_dimension_mismatch():
    params = init_params(4, 2, seed=0)
    with pytest.raises(ValueError):
        forward(params, SparseVector(5, [0], [0.1]))


@pytest.mark.parametrize("dim,indices", [(4, [0, 3]), (7, [1, 4]),
                                         (7, [2, 6])])
@pytest.mark.parametrize("entry", ["forward", "loss", "loss_gradients"])
def test_every_entry_point_refuses_a_wrong_input_dim(entry, dim, indices):
    # the shared encoder checks the width, so the loss and its gradients
    # refuse what forward refuses, with the same message, whether the
    # indices fit the network or not
    params = init_params(5, 3, seed=0)
    x = SparseVector(dim, indices, [0.5, -0.25])
    weights = LossWeights(prediction=1.0, reconstruction=0.5)
    calls = {"forward": lambda: forward(params, x),
             "loss": lambda: loss(params, x, x, CorruptionMask([]), weights),
             "loss_gradients": lambda: loss_gradients(
                 params, x, x, CorruptionMask([]), weights)}
    with pytest.raises(ValueError,
                       match=f"input dim {dim} != network input dim 5"):
        calls[entry]()


def test_forward_is_pure():
    params, x, side, _rng = _random_instance(21)
    before = {f: getattr(params, f).copy() for f in PARAM_FIELDS}
    first = forward(params, x, side)
    second = forward(params, x, side)
    np.testing.assert_array_equal(first, second)
    for f in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(params, f), before[f])


# ---------------------------------------------------------------- corrupt

def test_corrupt_quarter_of_eight():
    x = SparseVector(10, np.arange(8), np.linspace(-1, 1, 8))
    x_tilde, mask = corrupt(x, 0.25, np.random.default_rng(0))
    assert mask.indices.size == 2
    assert x_tilde.n_known == 6
    assert not np.isin(mask.indices, x_tilde.indices).any()


def test_corrupt_zero_ratio_is_identity():
    x = SparseVector(6, [1, 3], [0.5, 0.5])
    x_tilde, mask = corrupt(x, 0.0, np.random.default_rng(0))
    assert x_tilde is x and mask.indices.size == 0


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), ratio=st.floats(0.0, 0.99))
def test_corrupt_subset_property(seed, ratio):
    rng = np.random.default_rng(seed)
    n_known = int(rng.integers(1, 12))
    idx = np.sort(rng.choice(20, n_known, replace=False))
    x = SparseVector(20, idx, rng.uniform(-1, 1, n_known))
    x_tilde, mask = corrupt(x, ratio, rng)
    assert mask.indices.size == round(ratio * n_known)
    assert np.isin(mask.indices, x.indices).all()
    assert np.array_equal(np.union1d(x_tilde.indices, mask.indices), x.indices)


def test_corrupted_flags_keep_rows_apart_where_the_sum_rounds_up():
    # row 1's last key is the largest below 1, so its row + key rounds to
    # 2.0 and ties row 2's first, whose key is 0; each row still corrupts
    # exactly rint(0.5 * count) of its own entries, those with the
    # smallest keys
    key = np.array([0.7, 0.1, 0.4,
                    0.3, 0.9, 0.2, np.nextafter(1.0, 0.0),
                    0.0, 0.5])
    assert 1.0 + key[6] == 2.0 + key[7]

    class Keys:
        def random(self, size):
            assert size == key.size
            return key.copy()

    hit = model.corrupted_flags(np.array([3, 4, 2]), 0.5, Keys())
    np.testing.assert_array_equal(np.flatnonzero(hit), [1, 2, 3, 5, 7])


def test_corrupted_flags_draw_each_position_alike():
    # 20000 rows of 7 entries at ratio 0.3 corrupt 2 each; every position's
    # share is within 5 binomial standard deviations (0.016) of 2/7
    hit = model.corrupted_flags(np.full(20000, 7), 0.3,
                                np.random.default_rng(0)).reshape(-1, 7)
    assert (hit.sum(axis=1) == 2).all()
    np.testing.assert_allclose(hit.mean(axis=0), 2 / 7, rtol=0, atol=0.016)


def test_corrupt_ratio_bounds():
    x = SparseVector(4, [0], [0.5])
    with pytest.raises(ValueError):
        corrupt(x, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        corrupt(x, -0.1, np.random.default_rng(0))


# ------------------------------------------------------------------- loss

def test_loss_frozen_hand_value():
    # zero network outputs 0 everywhere; errors are the targets themselves
    params = AutoencoderParams(np.zeros((4, 2)), np.zeros(2),
                               np.zeros((4, 2)), np.zeros(4))
    x = SparseVector(4, [0, 1], [0.5, -0.5])
    x_tilde = SparseVector(4, [1], [-0.5])
    mask = CorruptionMask([0])
    value = loss(params, x, x_tilde, mask, LossWeights(1.0, 0.5, 0.0))
    assert value == 0.375


def test_loss_zero_for_perfect_reconstruction():
    params = AutoencoderParams(np.zeros((4, 2)), np.zeros(2),
                               np.zeros((4, 2)), np.zeros(4))
    x = SparseVector(4, [0, 2], [0.0, 0.0])
    value = loss(params, x, x, CorruptionMask([]), LossWeights(1.0, 0.5))
    assert value == 0.0


def test_loss_equal_weights_collapse_to_plain_squared_error():
    params, x, side, rng = _random_instance(33)
    x_tilde, mask = corrupt(x, 0.5, rng)
    w = 0.7
    value = loss(params, x, x_tilde, mask, LossWeights(w, w, 0.0), side)
    out = forward(params, x_tilde, side)
    plain = w * np.sum((out[x.indices] - x.values) ** 2)
    assert value == pytest.approx(plain, rel=1e-14)


def test_loss_exactly_linear_in_weights():
    params, x, side, rng = _random_instance(44)
    x_tilde, mask = corrupt(x, 0.4, rng)
    l_pred = loss(params, x, x_tilde, mask, LossWeights(1.0, 0.0, 0.0), side)
    l_rec = loss(params, x, x_tilde, mask, LossWeights(0.0, 1.0, 0.0), side)
    fro = np.sum(params.W1 ** 2) + np.sum(params.W2 ** 2)
    for a, b, l2 in [(0.25, 1.5, 0.0), (2.0, 0.125, 0.03), (1.0, 0.5, 1e-4)]:
        combined = loss(params, x, x_tilde, mask, LossWeights(a, b, l2), side)
        assert combined == a * l_pred + b * l_rec + l2 * fro


def test_loss_l2_counts_weights_not_biases():
    params = AutoencoderParams(np.full((3, 2), 2.0), np.full(2, 100.0),
                               np.full((3, 2), 1.0), np.full(3, 100.0))
    x = SparseVector(3, [], [])
    value = loss(params, x, x, CorruptionMask([]), LossWeights(1.0, 1.0, 0.5))
    assert value == 0.5 * (4.0 * 6 + 1.0 * 6)


def test_loss_mask_consistency_checks():
    params = init_params(4, 2, seed=0)
    x = SparseVector(4, [0, 1], [0.5, -0.5])
    with pytest.raises(ValueError):
        # mask index 2 is not known in x
        loss(params, x, SparseVector(4, [1], [-0.5]), CorruptionMask([2]),
             LossWeights(1.0, 0.5))
    with pytest.raises(ValueError):
        # corrupted index still present in the corrupted vector
        loss(params, x, x, CorruptionMask([0]), LossWeights(1.0, 0.5))
    for x_tilde in (SparseVector(4, [1], [0.25]), SparseVector(4, [], []),
                    SparseVector(4, [1, 3], [-0.5, 0.1])):
        with pytest.raises(ValueError, match="zeroed"):
            # x_tilde is not x with the mask's entries zeroed
            loss(params, x, x_tilde, CorruptionMask([0]),
                 LossWeights(1.0, 0.5))


# -------------------------------------------------------------- gradients

def test_gradients_match_finite_differences_on_reference_instance():
    params, x, side, rng = _random_instance(7, n=7, hidden=3,
                                            side_mode="none")
    x_tilde, mask = corrupt(x, 0.3, rng)
    weights = LossWeights(1.0, 0.5, 0.01)
    analytic = loss_gradients(params, x, x_tilde, mask, weights)
    numeric = finite_difference_gradients(params, x, x_tilde, mask, weights,
                                          None)
    assert max_relative_error(analytic, numeric, floor=1e-3) < 1e-6


def test_gradient_of_output_bias_outside_known_is_zero():
    params, x, side, rng = _random_instance(3)
    x_tilde, mask = corrupt(x, 0.5, rng)
    grads = loss_gradients(params, x, x_tilde, mask, LossWeights(1.0, 0.5),
                           side)
    outside = np.setdiff1d(np.arange(params.n), x.indices)
    assert np.all(grads.b2[outside] == 0.0)
    assert np.all(grads.W2[outside, :] == 0.0)


def test_gradient_empty_known_is_pure_regularizer():
    params, _x, side, _rng = _random_instance(15)
    x = SparseVector(params.n, [], [])
    weights = LossWeights(1.0, 0.5, 0.25)
    grads = loss_gradients(params, x, x, CorruptionMask([]), weights, side)
    np.testing.assert_allclose(grads.W1, 2 * 0.25 * params.W1, atol=1e-15)
    np.testing.assert_allclose(grads.W2, 2 * 0.25 * params.W2, atol=1e-15)
    assert not grads.b1.any() and not grads.b2.any()


def test_loss_and_gradients_independent_of_unknown_outputs():
    params, x, side, rng = _random_instance(27)
    outside = np.setdiff1d(np.arange(params.n), x.indices)
    if outside.size == 0:
        x = SparseVector(params.n, x.indices[:-1], x.values[:-1])
        outside = x.indices[-1:]
    x_tilde, mask = corrupt(x, 0.5, rng)
    weights = LossWeights(1.3, 0.4, 0.0)

    base_loss = loss(params, x, x_tilde, mask, weights, side)
    base_grads = loss_gradients(params, x, x_tilde, mask, weights, side)
    j = int(outside[0])
    params.W2[j, :] += rng.normal(scale=2.0, size=params.W2.shape[1])
    params.b2[j] += 5.0
    assert loss(params, x, x_tilde, mask, weights, side) == base_loss
    after = loss_gradients(params, x, x_tilde, mask, weights, side)
    keep = np.setdiff1d(np.arange(params.n), [j])
    np.testing.assert_array_equal(after.W1, base_grads.W1)
    np.testing.assert_array_equal(after.b1, base_grads.b1)
    np.testing.assert_array_equal(after.W2[keep], base_grads.W2[keep])
    np.testing.assert_array_equal(after.b2[keep], base_grads.b2[keep])
    assert np.all(after.W2[j] == 0.0) and after.b2[j] == 0.0


# ------------------------------------------------------- batched internals

def test_batch_matches_single_vector_path():
    rng = np.random.default_rng(99)
    n, hidden, p, batch = 9, 4, 3, 6
    params = init_params(n, hidden, p_in=p, p_hidden=p, seed=2)
    weights = LossWeights(1.0, 0.5, 0.02)
    side_rows = rng.uniform(-1, 1, (batch, p))

    singles = []
    for r in range(batch):
        n_known = int(rng.integers(1, n + 1))
        idx = np.sort(rng.choice(n, n_known, replace=False))
        x = SparseVector(n, idx, rng.uniform(-1, 1, n_known))
        x_tilde, mask = corrupt(x, 0.4, rng)
        singles.append((x, x_tilde, mask))
    x_b = _csr([(x.indices, x.values) for x, _, _ in singles], n)
    hit = np.concatenate([np.isin(x.indices, mask.indices)
                          for x, _, mask in singles])

    losses, grads = batch_loss_gradients(params, x_b, hit, weights, side_rows)
    total = {f: np.zeros_like(getattr(params, f)) for f in PARAM_FIELDS}
    for r, (x, x_tilde, mask) in enumerate(singles):
        single = loss(params, x, x_tilde, mask, weights, side_rows[r])
        assert losses[r] == pytest.approx(single, rel=1e-12)
        g = loss_gradients(params, x, x_tilde, mask, weights, side_rows[r])
        for f in PARAM_FIELDS:
            total[f] += getattr(g, f)
    for f in PARAM_FIELDS:
        np.testing.assert_allclose(getattr(grads, f), total[f],
                                   rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("mask_ratio", [0.0, 0.3, 0.9])
def test_training_rows_match_per_row_corrupt(mask_ratio):
    # the batch builder draws each row's corruption exactly as corrupt()
    # does, in row order, from the same stream, whether the rows' known
    # coordinates cover all of n (12) or few of them (200)
    rng = np.random.default_rng(8)
    vectors = []
    for n_known in (0, 1, 5, 12, 7):
        idx = np.sort(rng.choice(12, n_known, replace=False))
        vectors.append((idx, rng.uniform(-1, 1, n_known)))
    ids = np.array([3, 0, 4, 1, 2])
    for n in (12, 200):
        built = np.random.default_rng(3)
        x_b, hit = corrupted_batch(_csr(vectors, n), ids, mask_ratio, built)
        assert x_b.format == "csr" and x_b.shape == (ids.size, n)
        assert hit.dtype == bool and hit.shape == x_b.data.shape
        oracle = np.random.default_rng(3)
        for r, e in enumerate(ids):
            idx, vals = vectors[e]
            x = SparseVector(n, idx, vals)
            x_tilde, mask = corrupt(x, mask_ratio, oracle)
            at = slice(x_b.indptr[r], x_b.indptr[r + 1])
            got_idx, got_hit = x_b.indices[at], hit[at]
            np.testing.assert_array_equal(got_idx, idx)
            np.testing.assert_array_equal(x_b.data[at], vals)
            np.testing.assert_array_equal(got_idx[got_hit], mask.indices)
            np.testing.assert_array_equal(got_idx[~got_hit],
                                          x_tilde.indices)
        assert built.random() == oracle.random()  # both streams at one point


def _csr(vectors, n):
    """CSR array, n columns wide, of a list of (indices, values) vectors."""
    ptr = np.cumsum([0] + [idx.size for idx, _ in vectors])
    return csr_array((np.concatenate([vals for _, vals in vectors]),
                      np.concatenate([idx for idx, _ in vectors]), ptr),
                     shape=(len(vectors), n))


def test_csc_lists_each_coordinate_in_row_order():
    # the one transpose of the encoders and the SGD step lists each
    # coordinate's entries in row order, exactly as scipy's conversion of
    # the same entries does: that order fixes the bits of the encoder
    # product and of both updates
    rng = np.random.default_rng(12)
    n, m = 11, 6
    x = _csr([(np.sort(rng.choice(n, k, replace=False)),
               rng.uniform(-1, 1, k)) for k in rng.integers(0, 6, m)], n)
    got = model._csc(x, x.data)
    want = csr_array(x.toarray()).tocsc()
    assert got.format == "csc" and got.shape == (m, n)
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)
    # an arange payload is the permutation of x's entries: it carries each
    # hit flag with its entry, and the payload keeps its dtype
    hit = x.data > 0
    order = model._csc(x, np.arange(x.data.size)).data
    assert order.dtype == np.int64
    np.testing.assert_array_equal(x.data[order], want.data)
    np.testing.assert_array_equal(hit[order], want.data > 0)


def test_package_exports_resolve():
    assert [name for name in cfdae.__all__ if not hasattr(cfdae, name)] == []


# The order the weights arrive in.  LazyDecay steps C-ordered matrices
# only: Fortran-ordered ones are read by the gradient path alone, which
# takes any layout.
ORDERS = [pytest.param("C", id="C"), pytest.param("F", id="F")]


def _in_order(params, order):
    params.W1 = np.asarray(params.W1, order=order)
    params.W2 = np.asarray(params.W2, order=order)
    return params


# Learning rate, L2 weight, and whether the weight scale ends three steps
# folded.  The decay 1 - 2*lr*l2 is 0.988 per step, exactly 0 (the scale
# folds on every step), and 1e-12, which takes the scale below 1/_RESCALE
# and folds it on the third step while the gradient step still dominates
# the decayed weights.
STEP_DECAYS = [pytest.param(0.3, 0.02, False, id="decay"),
               pytest.param(2.0, 0.25, True, id="decay-to-zero"),
               pytest.param(1.0, 0.5 - 5e-13, True, id="scale-folded")]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("lr,l2,folded", STEP_DECAYS)
def test_sgd_step_matches_explicit_update(lr, l2, folded, order, monkeypatch):
    # three in-place lazy-decay steps against W -= lr/m * (full gradient),
    # the gradient read from a reference model held in the given order;
    # each batch knows a few of the n coordinates, so the step moves only
    # those rows and decays the rest through the scale.  The steps run as
    # one part, then, with no work threshold, in two parts on a pool, on
    # networks with side inputs at the input, at the hidden layer and both
    for work in (model._PART_WORK, 0):
        monkeypatch.setattr(model, "_PART_WORK", work)
        with ThreadPoolExecutor(1) as pool:
            for p_in, p_hidden in ((2, 0), (0, 2), (2, 2)):
                _check_sgd_steps(lr, l2, folded, order, pool, p_in, p_hidden)


def _check_sgd_steps(lr, l2, folded, order, pool, p_in, p_hidden):
    rng = np.random.default_rng(5)
    n, hidden, p, m = 30, 4, 2, 5
    params = init_params(n, hidden, p_in=p_in, p_hidden=p_hidden, seed=3)
    ref = _in_order(params.copy(), order)
    arrays = [getattr(params, f) for f in PARAM_FIELDS]
    weights = LossWeights(1.0, 0.5, l2)
    sgd = LazyDecay(params, lr=lr)
    for _ in range(3):
        vectors = [(np.sort(rng.choice(n, k, replace=False)),
                    rng.uniform(-1, 1, k)) for k in rng.integers(1, 6, m)]
        x, hit = corrupted_batch(_csr(vectors, n), np.arange(m), 0.4, rng)
        assert 0 < hit.sum() < hit.size and np.unique(x.indices).size < n
        args = (x, hit, weights, rng.uniform(-1, 1, (m, p)))
        want, grads = batch_loss_gradients(ref, *args)
        got, stepped = batch_loss_gradients(params, *args, sgd=sgd,
                                            pool=pool)
        assert stepped is None
        np.testing.assert_allclose(got, want, rtol=1e-9)
        for f in PARAM_FIELDS:
            setattr(ref, f, getattr(ref, f) - lr / m * getattr(grads, f))
        _in_order(ref, order)
        for k, v in enumerate((params.W1, params.W2)):
            assert sgd.sq_norms[k] == pytest.approx(np.vdot(v, v), rel=1e-9)
    assert (sgd.scales == [1.0, 1.0]) == folded
    sgd.fold()
    assert sgd.scales == [1.0, 1.0]
    for f, arr in zip(PARAM_FIELDS, arrays):
        assert getattr(params, f) is arr
        np.testing.assert_allclose(arr, getattr(ref, f), rtol=1e-9,
                                   atol=1e-12)


@pytest.mark.parametrize("name", ["W1", "W2"])
def test_lazy_decay_refuses_non_c_contiguous_weights(name):
    # a step writes through a flat view of each matrix; on any other
    # layout the view would be a copy and the step would be lost
    params = init_params(9, 4, p_in=2, p_hidden=2, seed=3)
    setattr(params, name, np.asfortranarray(getattr(params, name)))
    before = getattr(params, name).copy()
    with pytest.raises(ValueError, match=f"{name} must be C-contiguous"):
        LazyDecay(params, lr=0.1)
    np.testing.assert_array_equal(getattr(params, name), before)


# <V, g> and ||g||^2 of the two weight matrices, for steps called directly
STEP_IPS, STEP_GGS = (0.5, -0.25), (2.0, 3.0)


@pytest.mark.parametrize("l2,folded", [pytest.param(0.02, False, id="decay"),
                                       pytest.param(2.0, True,
                                                    id="decay-to-zero")])
def test_lazy_decay_step_returns_the_step_factors(l2, folded):
    # an accepted step decays both scales and returns -lr/m / scale per
    # matrix; at lr 0.25 and l2 2 the decay is exactly 0, so each scale
    # folds (the weights become 0) and the step runs at scale 1
    params = init_params(9, 4, p_in=2, p_hidden=2, seed=3)
    before = [params.W1.copy(), params.W2.copy()]
    lr, m = 0.25, 4
    sgd = LazyDecay(params, lr=lr)
    sq_norms = list(sgd.sq_norms)
    factors = sgd.step(l2, np.ones(m), STEP_IPS, STEP_GGS)
    rate, decay = lr / m, 1.0 - 2.0 * l2 * lr
    scale = 1.0 if folded else decay
    assert factors == [-rate / scale, -rate / scale]
    assert sgd.scales == [scale, scale]
    for k, (v, w) in enumerate(zip((params.W1, params.W2), before)):
        ip = STEP_IPS[k] * (decay if folded else 1.0)
        step = rate / scale
        want = ((0.0 if folded else sq_norms[k])
                + step * (step * STEP_GGS[k] - 2.0 * ip))
        assert sgd.sq_norms[k] == want
        np.testing.assert_array_equal(v, w * decay if folded else w)


@pytest.mark.parametrize("losses,ips,ggs", [
    pytest.param([1.0, np.nan, 1.0, 1.0], STEP_IPS, STEP_GGS, id="nan-loss"),
    pytest.param([1.0] * 4, STEP_IPS, (2.0, np.inf), id="inf-gg"),
    pytest.param([1.0] * 4, (np.nan, -0.25), STEP_GGS, id="nan-ip"),
])
def test_refused_step_changes_nothing(losses, ips, ggs):
    # a step whose losses, <V, g> or ||g||^2 are not finite returns None and
    # leaves the scales, the squared norms and the weights' bytes as they
    # were; the first step moves the scales off 1, and the refused one
    # would fold them (decay exactly 0) and zero the weights if taken
    params = init_params(9, 4, p_in=2, p_hidden=2, seed=3)
    sgd = LazyDecay(params, lr=0.25)
    assert sgd.step(0.02, np.ones(4), STEP_IPS, STEP_GGS) is not None
    scales, sq_norms = list(sgd.scales), list(sgd.sq_norms)
    w1, w2 = params.W1.tobytes(), params.W2.tobytes()
    assert sgd.step(2.0, np.array(losses), ips, ggs) is None
    assert sgd.scales == scales and sgd.sq_norms == sq_norms
    assert params.W1.tobytes() == w1 and params.W2.tobytes() == w2


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("case", ["no-entries", "entries"])
def test_add_product_adds_in_place(case, index_dtype):
    # the SGD step's one update kernel, a private scipy routine, against a
    # dense product: v += a @ b lands in v itself, and rows of v where a
    # has no entry keep their bits
    rng = np.random.default_rng(11)
    n, m, k = 8, 3, 4
    keep = rng.random((m, n)) < (0.0 if case == "no-entries" else 0.5)
    x = csr_array(np.where(keep, rng.uniform(-1, 1, (m, n)), 0.0))
    a = model._csc(x, x.data).T
    assert a.format == "csr" and a.shape == (n, m)
    assert a.indices.dtype in (np.int32, np.int64)  # what the step passes
    a = a._replace(indptr=a.indptr.astype(index_dtype),
                   indices=a.indices.astype(index_dtype))
    v = rng.uniform(-1, 1, (n, k))
    b = rng.uniform(-1, 1, (m, k))
    before = v.copy()
    dense = csr_array((a.data, a.indices, a.indptr), shape=a.shape).toarray()
    want = v + dense @ b
    assert model._add_product(v, a, b) is None
    np.testing.assert_allclose(v, want, rtol=1e-14, atol=1e-15)
    empty = np.diff(a.indptr) == 0
    assert empty.all() == (case == "no-entries")
    np.testing.assert_array_equal(v[empty], before[empty])
    with pytest.raises(ValueError):  # no silent copy of another layout
        model._add_product(np.asfortranarray(v), a, b)


# -------------------------------------------------------------- decompose

def test_decompose_reproduces_forward():
    params, x, _side, _rng = _random_instance(61, side_mode="none")
    u, v = decompose(params, x)
    assert u.shape == (params.hidden + params.n,)
    assert v.shape == (params.n, params.hidden + params.n)
    np.testing.assert_allclose(np.tanh(v @ u), forward(params, x),
                               atol=1e-14)


def test_decompose_zero_params():
    params = AutoencoderParams(np.zeros((4, 2)), np.zeros(2),
                               np.zeros((4, 2)), np.zeros(4))
    u, v = decompose(params, SparseVector(4, [0], [0.5]))
    assert not u.any()
    np.testing.assert_array_equal(np.tanh(v @ u), np.zeros(4))


def test_decompose_rejects_side_info():
    params = init_params(4, 2, p_in=1, seed=0)
    with pytest.raises(ValueError):
        decompose(params, SparseVector(4, [0], [0.5]))
