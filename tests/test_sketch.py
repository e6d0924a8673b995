"""Tests for the factorizations of the data routes: the seeded randomized
range finder ``numcore.svd``, against the exact SVD of ``np.linalg.svd``
called directly, and the Q-DEIM rows ``databt._interpolation_rows``,
against scipy's column-pivoted QR."""

import numpy as np
import scipy.linalg as spla

from conftest import random_stable_system
from lqobt import (
    collect_time_data,
    compute_gramians,
    h2_error,
    intrusive_bt,
    log_trapezoid,
    lqo_qbt,
    lqo_qbt_auto,
    synthesize_system,
)
from lqobt import databt
from lqobt.databt import _interpolation_rows
from lqobt.numcore import SKETCH, _resolvable_rank, svd
from test_numcore import _loop_sign_fix


def _of_rank(rank, shape, seed, dtype=float):
    """A random matrix of exactly `rank` with geometrically spread values,
    from 1 down to 1e-6: every one is resolvable, and the subspaces are
    determined to about 1e-10. A complex one has complex factors."""
    rng = np.random.default_rng(seed)

    def basis(n):
        G = rng.standard_normal((n, rank))
        if dtype is complex:
            G = G + 1j * rng.standard_normal((n, rank))
        return np.linalg.qr(G)[0]

    return (basis(shape[0]) * np.logspace(0, -6, rank)) @ basis(shape[1]).conj().T


def _count_svd_calls(monkeypatch):
    # the sketch's projections are factored by numpy's LAPACK, transposed
    calls, exact = [], np.linalg.svd

    def counted(M, *args, **kwargs):
        calls.append(M.shape)
        return exact(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls, exact


def _assert_leading_triplets_match(got, X, exact=np.linalg.svd):
    Z, S, Yh = exact(X, full_matrices=False)
    rank = _resolvable_rank(S)
    assert _resolvable_rank(got.S) == rank
    assert np.abs(got.S[:rank] - S[:rank]).max() <= 1e-13 * S[0]
    # the same subspaces on both sides, through their projectors
    for a, b in ((got.Z, Z), (got.Y, Yh.conj().T)):
        a, b = a[:, :rank], b[:, :rank]
        assert np.abs(a.conj().T @ a - np.eye(rank)).max() <= 1e-12
        assert np.linalg.norm(a @ a.conj().T - b @ b.conj().T, 2) <= 1e-8


def test_low_rank_matches_the_exact_svd(monkeypatch):
    calls, exact = _count_svd_calls(monkeypatch)
    for rank, shape, dtype in ((1, (300, 200), float), (20, (300, 200), float),
                               (40, (150, 900), float), (20, (300, 200), complex)):
        X = _of_rank(rank, shape, seed=rank, dtype=dtype)
        calls.clear()
        res = svd(X)
        # one sketch, and an SVD of its small projection only
        assert calls == [(shape[1], SKETCH)]
        assert res.S.size == SKETCH
        _assert_leading_triplets_match(res, X, exact)


def test_rank_near_the_sketch_width_doubles_it(monkeypatch):
    calls, exact = _count_svd_calls(monkeypatch)
    X = _of_rank(60, (400, 300), seed=60)
    res = svd(X)
    assert calls == [(300, SKETCH), (300, 2 * SKETCH)]
    assert res.S.size == 2 * SKETCH
    _assert_leading_triplets_match(res, X, exact)


def test_full_rank_takes_the_exact_path():
    # the exact economy SVD of X', with the lead entry of each left vector
    # made positive
    rng = np.random.default_rng(5)
    # no wider than the sketch, and wider than it but of full rank
    for shape in ((200, 50), (100, 70), (90, 300)):
        X = rng.standard_normal(shape)
        res = svd(X)
        Y, S, Zt = np.linalg.svd(X.T, full_matrices=False)
        Z, Y = _loop_sign_fix(Zt.T, Y)
        for got, want in zip((res.Z, res.S, res.Y), (Z, S, Y)):
            assert np.array_equal(got, want)


def test_zero_matrix_gives_zero_values_and_orthonormal_factors():
    res = svd(np.zeros((200, 100)))
    assert res.S.size == SKETCH and not res.S.any()
    assert _resolvable_rank(res.S) == 0
    for F in (res.Z, res.Y):
        assert np.abs(F.T @ F - np.eye(SKETCH)).max() <= 1e-14


def test_sketch_is_seeded_apart_from_the_global_state():
    X = _of_rank(30, (250, 180), seed=9)
    np.random.seed(123)
    state = np.random.get_state()
    a, b = svd(X), svd(X)
    after = np.random.get_state()
    assert all(np.array_equal(u, v) for u, v in zip(state, after))
    for u, v in zip((a.Z, a.S, a.Y), (b.Z, b.S, b.Y)):
        assert np.array_equal(u, v)


def _scipy_rows(V):
    """The Q-DEIM rows from scipy's column-pivoted QR (LAPACK ``geqp3``)."""
    return np.sort(spla.qr(V.T, mode="r", pivoting=True)[1][: V.shape[1]])


def _assert_scipy_rows(V):
    rows = _interpolation_rows(V)
    assert np.array_equal(rows, _scipy_rows(V))
    assert np.linalg.matrix_rank(V[rows]) == V.shape[1]
    assert np.linalg.cond(V[rows]) <= 1e3


def test_interpolation_rows_are_scipys_pivots():
    rng = np.random.default_rng(3)
    for shape in ((400, 50), (200, 1), (160, 40)):
        _assert_scipy_rows(np.linalg.qr(rng.standard_normal(shape))[0])


def test_interpolation_rows_on_two_input_bases(monkeypatch):
    # the k-mode rows (k, a) of a two-input route pick inputs as well as
    # nodes; both of its bases pivot as scipy's QR does
    seen = []

    def spied(V):
        seen.append(V)
        return _interpolation_rows(V)

    monkeypatch.setattr(databt, "_interpolation_rows", spied)
    sys_ = random_stable_system(np.random.default_rng(8), n=12, m=2, p=2)
    rule = log_trapezoid(1e-2, 20.0, 40)
    lqo_qbt_auto(sys_, rule, rule, [4])
    assert len(seen) == 2 and seen[0].shape[0] == 2 * len(rule)
    for V in seen:
        _assert_scipy_rows(V)


def test_data_routes_call_no_scipy_factorization(monkeypatch):
    # every factorization of the sketches and the Q-DEIM rows runs in
    # numpy's LAPACK, whose BLAS pool the routes' products share, and so
    # does the intrusive route's one SVD of L'U per system
    def refused(*args, **kwargs):
        raise AssertionError("a route called a scipy factorization")

    monkeypatch.setattr(spla, "svd", refused)
    monkeypatch.setattr(spla, "qr", refused)
    sys_ = synthesize_system(10, damping=(0.1, 3.0), gain_decay=0.85, seed=21)
    rule = log_trapezoid(1e-2, 1e2, 200)
    lqo_qbt_auto(sys_, rule, rule, [4])
    shift = (1e4) ** (0.5 / 59)
    lqo_qbt_auto(sys_, log_trapezoid(1e-2, 1e2, 60),
                 log_trapezoid(1e-2 * shift, 1e2 * shift, 60), [4], domain="freq")
    rule = log_trapezoid(1e-2, 1e2, 2 * SKETCH)
    lqo_qbt(collect_time_data(sys_, rule, rule), 4)
    # an intrusive order sweep on a system whose Gramians are not kept yet
    sys_ = synthesize_system(12, damping=(0.1, 3.0), gain_decay=0.85, seed=5)
    for r in (2, 4, 6):
        assert h2_error(sys_, intrusive_bt(sys_, r)) > 0.0
    assert compute_gramians(sys_).hankel.S.size == 12
