"""Centering/rescaling and side-information feature construction."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import cfdae
from cfdae import (BiasTable, RatingMatrix, RatingScale, Scaler,
                   SideInfoTable, TagMatrix, build_side_info, fit_bias,
                   fit_scaler, inverse_transform, svd_embed, transform)


def _scale15():
    return RatingScale(1.0, 5.0, True, 1.0)


# --------------------------------------------------------------- fit_bias

def test_fit_bias_simple_mean():
    train = RatingMatrix(2, 2, [0, 0], [0, 1], [4.0, 2.0])
    bias = fit_bias(train, "user")
    assert bias.means[0] == 3.0


def test_fit_bias_empty_entity_gets_global_mean(toy_ratings):
    train = RatingMatrix(3, 2, [0, 0, 2], [0, 1, 1], [4.0, 2.0, 5.0])
    bias = fit_bias(train, "user")
    expected_global = (4.0 + 2.0 + 5.0) / 3.0
    assert bias.global_mean == pytest.approx(expected_global, abs=1e-15)
    assert bias.means[1] == bias.global_mean


def test_fit_bias_matches_loop_oracle(synthetic):
    ratings, _scale = synthetic
    for orientation in ("user", "item"):
        bias = fit_bias(ratings, orientation)
        n = ratings.n_users if orientation == "user" else ratings.n_items
        for e in range(n):
            _, values = (ratings.row(e) if orientation == "user"
                         else ratings.col(e))
            expected = values.mean() if values.size else bias.global_mean
            assert bias.means[e] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("orientation", ["user", "item"])
def test_fit_bias_is_bitwise_the_entry_order_sums(orientation):
    # entries given shuffled, user 2 and item 3 without ratings: the means
    # equal, bit for bit, per-entity sums over the stored entries in
    # (user, item) order divided by the counts
    rng = np.random.default_rng(5)
    users, items = np.nonzero(rng.random((30, 20)) < 0.4)
    keep = (users != 2) & (items != 3)
    users, items = users[keep], items[keep]
    values = rng.uniform(0.5, 5.0, users.size)
    order = rng.permutation(users.size)
    m = RatingMatrix(30, 20, users[order], items[order], values[order])
    idx, n = ((m.users, m.n_users) if orientation == "user"
              else (m.items, m.n_items))
    counts = np.bincount(idx, minlength=n).astype(np.float64)
    sums = np.bincount(idx, weights=m.ratings, minlength=n)
    want = np.full(n, float(m.ratings.mean()))
    seen = counts > 0
    want[seen] = sums[seen] / counts[seen]
    bias = fit_bias(m, orientation)
    assert bias.means.tobytes() == want.tobytes()
    assert bias.means[2 if orientation == "user" else 3] == bias.global_mean


def test_fit_bias_validation(toy_ratings):
    with pytest.raises(ValueError):
        fit_bias(toy_ratings, "diagonal")
    with pytest.raises(ValueError):
        fit_bias(RatingMatrix(2, 2, [], [], []), "user")


# ------------------------------------------------------ transform/inverse

def test_transform_worked_example():
    # means span the whole scale, so the centered range is [-4, 4];
    # a rating of 5 for an entity with mean 3 lands at +0.5
    train = RatingMatrix(3, 3, [0, 1, 2], [0, 1, 2], [1.0, 3.0, 5.0])
    bias = fit_bias(train, "user")
    scaler = fit_scaler(_scale15(), bias)
    assert (scaler.centered_low, scaler.centered_high) == (-4.0, 4.0)
    assert transform(5.0, 1, bias, scaler) == 0.5


def test_transform_of_own_mean_is_zero(synthetic):
    ratings, scale = synthetic
    bias = fit_bias(ratings, "item")
    scaler = fit_scaler(scale, bias)
    for e in range(ratings.n_items):
        assert transform(bias.means[e], e, bias, scaler) == 0.0


def test_uniform_matrix_transforms_to_zero():
    train = RatingMatrix(2, 2, [0, 0, 1, 1], [0, 1, 0, 1], [4.0] * 4)
    bias = fit_bias(train, "user")
    scaler = fit_scaler(_scale15(), bias)
    assert np.all(bias.means == 4.0)
    for e in (0, 1):
        assert transform(4.0, e, bias, scaler) == 0.0


def test_round_trip_every_scale_value():
    train = RatingMatrix(2, 3, [0, 0, 1], [0, 1, 2], [2.0, 5.0, 1.0])
    bias = fit_bias(train, "user")
    scaler = fit_scaler(_scale15(), bias)
    for r in np.arange(1.0, 5.5, 0.5):
        for e in (0, 1):
            back = inverse_transform(transform(r, e, bias, scaler),
                                     e, bias, scaler)
            assert back == pytest.approx(r, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(mean=st.floats(1.0, 5.0), r=st.floats(1.0, 5.0),
       other=st.floats(1.0, 5.0))
def test_round_trip_property(mean, r, other):
    bias = BiasTable("user", np.array([mean, other]), (mean + other) / 2)
    scaler = fit_scaler(RatingScale(1.0, 5.0), bias)
    y = transform(r, 0, bias, scaler)
    assert -1.0 <= y <= 1.0
    assert inverse_transform(y, 0, bias, scaler) == pytest.approx(r, abs=1e-12)


def test_unit_interval_round_trip():
    scaler = Scaler(RatingScale(1.0, 5.0), -3.0, 3.0)
    ys = np.linspace(-1, 1, 17)
    np.testing.assert_allclose(scaler.to_unit(scaler.from_unit(ys)), ys,
                               atol=1e-14)


def test_inverse_transform_clamps():
    train = RatingMatrix(1, 2, [0, 0], [0, 1], [5.0, 4.0])
    bias = fit_bias(train, "user")
    scaler = fit_scaler(_scale15(), bias)
    assert inverse_transform(1.0, 0, bias, scaler) == 5.0
    assert inverse_transform(-1.0, 0, bias, scaler) == 1.0


def test_transform_rejects_non_finite():
    bias = BiasTable("user", np.array([3.0]), 3.0)
    scaler = Scaler(_scale15(), -4.0, 4.0)
    with pytest.raises(ValueError):
        transform(np.nan, 0, bias, scaler)
    with pytest.raises(ValueError):
        inverse_transform(np.inf, 0, bias, scaler)


# -------------------------------------------------------------- svd_embed

def _tag_matrix(dense):
    return TagMatrix(sp.csr_matrix(np.asarray(dense, dtype=np.float64)))


def test_svd_diagonal_matrix_by_hand():
    table = svd_embed(_tag_matrix(np.diag([4.0, 1.0])), k_prime=1)
    np.testing.assert_allclose(table.features, [[2.0], [0.0]], atol=1e-12)


def test_svd_zero_matrix():
    table = svd_embed(_tag_matrix(np.zeros((3, 2))), k_prime=2)
    np.testing.assert_array_equal(table.features, np.zeros((3, 2)))


def test_svd_gram_matches_dense_oracle():
    # Y scales each left singular vector by sqrt(singular value), so the
    # Gram matrix of Y is diag of the top singular values themselves.
    rng = np.random.default_rng(11)
    counts = rng.poisson(1.0, size=(20, 15)).astype(float)
    table = svd_embed(_tag_matrix(counts), k_prime=5)
    gram = table.features.T @ table.features
    singular = np.linalg.svd(counts, compute_uv=False)[:5]
    np.testing.assert_allclose(np.diag(gram), singular, rtol=1e-8, atol=1e-10)
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() <= 1e-8 * singular[0]


def test_svd_sparse_path_matches_dense_oracle():
    # 420x410 exceeds the dense cutoff, forcing the iterative solver
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 420, 4000)
    cols = rng.integers(0, 410, 4000)
    counts = sp.coo_matrix((np.ones(4000), (rows, cols)),
                           shape=(420, 410)).tocsr()
    table = svd_embed(TagMatrix(counts), k_prime=4)
    gram = table.features.T @ table.features
    singular = np.linalg.svd(counts.toarray(), compute_uv=False)[:4]
    np.testing.assert_allclose(np.diag(gram), singular, rtol=1e-8)
    assert np.all(np.diff(np.diag(gram)) <= 1e-9)


_BLAS = importlib.import_module("cfdae.model")._numpy_blas_threads()


@pytest.mark.skipif(_BLAS is None,
                    reason="numpy bundles no OpenBLAS with thread symbols")
def test_svd_sparse_path_holds_blas_at_one_thread(monkeypatch):
    # ARPACK's products run at one BLAS thread whatever the count around
    # them, so the embedding has the same bits at one thread or two, and
    # the count is back when svd_embed returns
    from scipy.sparse import linalg
    counts = sp.random_array((900, 450), density=0.01, format="csr",
                             rng=np.random.default_rng(3))
    get, set_to = _BLAS
    svds = linalg.svds
    during = []

    def spy(*args, **kwargs):
        during.append(get())
        return svds(*args, **kwargs)

    monkeypatch.setattr(linalg, "svds", spy)
    was = get()
    tables = []
    try:
        for threads in (2, 1):
            set_to(threads)
            tables.append(svd_embed(TagMatrix(counts), k_prime=20).features)
            assert get() == threads
    finally:
        set_to(was)
    assert during == [1, 1]
    assert tables[0].tobytes() == tables[1].tobytes()


def test_importing_the_package_leaves_the_sparse_solvers_unloaded():
    # only svd_embed's iterative branch needs scipy.sparse.linalg, which
    # takes over 0.1 s to import, so a run without tags never pays for it
    src = str(Path(cfdae.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, cfdae, cfdae.cli; "
            "print('scipy.sparse.linalg' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.strip() == "False"


def test_svd_rank_deficient_pads_with_zeros(caplog):
    rank1 = np.outer([1.0, 2.0, 3.0, 0.0], [1.0, 1.0, 0.0])
    with caplog.at_level("WARNING"):
        table = svd_embed(_tag_matrix(rank1), k_prime=3)
    assert np.abs(table.features[:, 1:]).max() == 0.0
    assert any("rank" in r.getMessage() for r in caplog.records)


def test_svd_k_prime_bounds():
    tags = _tag_matrix(np.ones((4, 3)))
    with pytest.raises(ValueError):
        svd_embed(tags, 0)
    with pytest.raises(ValueError):
        svd_embed(tags, 4)


def test_svd_deterministic():
    rng = np.random.default_rng(0)
    counts = rng.poisson(0.8, size=(25, 12)).astype(float)
    a = svd_embed(_tag_matrix(counts), 3)
    b = svd_embed(_tag_matrix(counts), 3)
    np.testing.assert_array_equal(a.features, b.features)


# --------------------------------------------------------- build_side_info

def test_build_side_info_dims():
    svd_part = SideInfoTable(np.zeros((5, 50)))
    binary = _tag_matrix(np.ones((5, 18)))
    table = build_side_info(svd_part, binary)
    assert table.dim == 68


def test_build_side_info_passthrough_and_order():
    svd_part = SideInfoTable(np.full((2, 2), 7.0))
    assert build_side_info(svd_part, None).dim == 2
    empty_binary = TagMatrix(sp.csr_matrix((2, 0)))
    assert build_side_info(svd_part, empty_binary).dim == 2
    binary = _tag_matrix([[1.0], [0.0]])
    combined = build_side_info(svd_part, binary)
    np.testing.assert_array_equal(combined.features[:, :2], 7.0)
    np.testing.assert_array_equal(combined.features[:, 2], [1.0, 0.0])


def test_build_side_info_mismatch():
    svd_part = SideInfoTable(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        build_side_info(svd_part, _tag_matrix(np.ones((4, 2))))
    with pytest.raises(ValueError):
        build_side_info(None, None)


def test_zero_tag_entity_gets_zero_row():
    counts = np.array([[2.0, 1.0], [0.0, 0.0]])
    table = build_side_info(svd_embed(_tag_matrix(counts), 2),
                            _tag_matrix(counts > 0))
    assert np.all(table.features[1] == 0.0)

