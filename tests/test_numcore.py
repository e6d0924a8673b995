"""Tests for the dense numerical kernels: matrix exponential, Lyapunov
solver and square-root factor, semidefinite square-root factors, and the
deterministic SVD."""

import math

import numpy as np
import pytest
import scipy.linalg as spla

from lqobt import numcore
from lqobt.errors import IndefiniteMatrixError, LyapunovError
from lqobt.numcore import (
    expm,
    lyapunov_factor,
    psd_sqrt_factor,
    solve_lyapunov,
    svd,
)


# ---------------------------------------------------------------- expm


def test_expm_zero_matrix_is_identity():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
    assert expm(np.zeros((0, 0))).shape == (0, 0)
    A = np.random.default_rng(2).standard_normal((5, 5))
    assert np.array_equal(expm(A, 0.0), np.eye(5))
    assert np.array_equal(expm(A, -0.0), np.eye(5))


def _rel_onenorm(X, Y):
    return np.abs(X - Y).sum(axis=0).max() / np.abs(Y).sum(axis=0).max()


def test_expm_matches_scipy_on_every_pade_degree(monkeypatch):
    # A = t G with G ~ N(0, 1/n), so the spectral radius of A is about t;
    # t from 1e-3 to 3 spans the range where lower Pade degrees would
    # serve, yet every call reaches the one degree-13 approximant, both
    # with and without squarings
    reached = []
    pade13 = numcore._pade13

    def spied13(A, *powers):
        reached.append("13 scaled" if np.abs(A).sum() < np.abs(At).sum() else 13)
        return pade13(A, *powers)

    monkeypatch.setattr(numcore, "_pade13", spied13)
    rng = np.random.default_rng(5)
    calls = 0
    for t in (1e-3, 2e-2, 0.1, 0.3, 0.8, 3.0):
        for n in (1, 2, 3, 5, 8, 16, 33, 64):
            for _ in range(3):
                G = rng.standard_normal((n, n)) / np.sqrt(n)
                At = G * t
                assert _rel_onenorm(expm(G, t), spla.expm(At)) <= 1e-12
                calls += 1
    assert len(reached) == calls
    assert set(reached) == {13, "13 scaled"}


def test_expm_extra_squarings_follow_their_definition():
    # ell(A, m) = max(ceil(log2(alpha / u) / (2m)), 0), u = 2^-53, with
    # alpha = |c_{2m+1}| || |A|^{2m+1} ||_1 / ||A||_1 and
    # |c_{2m+1}| = m!^2 / ((2m)! (2m+1)!), evaluated here without the
    # kernel's normalization of |A|
    def ell(A, m):
        c = math.factorial(m) ** 2 / (math.factorial(2 * m) * math.factorial(2 * m + 1))
        power = np.linalg.matrix_power(np.abs(A), 2 * m + 1)
        alpha = c * np.abs(power).sum(axis=0).max() / np.abs(A).sum(axis=0).max()
        return max(math.ceil(math.log2(alpha / 2.0**-53) / (2 * m)), 0)

    rng = np.random.default_rng(11)
    cases = [np.array([[1.0, 1e4], [0.0, -1.0]]) * t for t in (0.1, 1.0, 5.0)]
    cases += [rng.standard_normal((6, 6)) * t for t in (0.01, 0.5, 3.0)]
    values = [[numcore._ell(A, m) for m in (3, 5, 7, 9, 13)] for A in cases]
    assert values == [[ell(A, m) for m in (3, 5, 7, 9, 13)] for A in cases]
    assert any(v > 0 for row in values for v in row)
    assert numcore._ell(np.zeros((3, 3)), 13) == 0


@pytest.mark.parametrize("t", [1e-2, 1.0, 10.0])
def test_expm_non_normal_triangular_closed_form(t):
    # |a_12| = 1e4 puts ||A t|| far above the spectral radius; squarings
    # chosen from ||A t|| alone cost accuracy (1.2e-13 at t = 1, 2e-12 at
    # t = 10), which the norms of powers, ||(A t)^k||^(1/k), avoid
    A = np.array([[-1.0, 1e4], [0.0, -2.0]])
    e1, e2 = np.exp(-t), np.exp(-2 * t)
    want = np.array([[e1, 1e4 * (e1 - e2)], [0.0, e2]])
    assert _rel_onenorm(expm(A, t), want) <= 1e-14


def test_expm_diagonal_closed_form():
    A = np.diag([-1.0, -2.0, 0.5])
    for t in (0.0, 0.3, 1.0, 2.5):
        want = np.diag(np.exp(np.diag(A) * t))
        assert np.allclose(expm(A, t), want, rtol=1e-13, atol=1e-14)


def test_expm_nilpotent_truncates():
    # exp of a strictly upper-triangular matrix is the finite Taylor sum
    A = np.array([[0.0, 2.0], [0.0, 0.0]])
    want = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert np.allclose(expm(A), want, rtol=0, atol=1e-15)


def test_expm_semigroup_property():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 13))
        A = rng.standard_normal((n, n))
        s, t = rng.uniform(0.1, 1.5, 2)
        left = expm(A, s + t)
        right = expm(A, s) @ expm(A, t)
        assert np.allclose(left, right, rtol=1e-11, atol=1e-11)


def test_expm_rejects_bad_input():
    with pytest.raises(ValueError, match="expected a square matrix"):
        expm(np.ones((2, 3)))
    with pytest.raises(ValueError, match="non-finite input to expm"):
        expm(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ------------------------------------------------------- solve_lyapunov


def test_lyapunov_scalar():
    X = solve_lyapunov(np.array([[-1.0]]), np.array([[1.0]]))
    assert abs(X[0, 0] - 0.5) <= 1e-14


def test_lyapunov_diagonal_closed_form():
    # A' X + X A + W = 0 with diagonal A: X_ij = -W_ij / (a_i + a_j)
    a = np.array([-1.0, -2.0, -5.0])
    A = np.diag(a)
    rng = np.random.default_rng(3)
    W = rng.standard_normal((3, 3))
    W = 0.5 * (W + W.T)
    X = solve_lyapunov(A, W)
    want = W / -(a[:, None] + a[None, :])
    assert np.allclose(X, want, rtol=1e-12, atol=1e-13)


def test_lyapunov_zero_rhs_gives_zero():
    A = np.array([[-1.0, 0.5], [0.0, -2.0]])
    X = solve_lyapunov(A, np.zeros((2, 2)))
    assert np.abs(X).max() <= 1e-14


def test_lyapunov_residual_and_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 25))
        G = rng.standard_normal((n, n)) / np.sqrt(n)
        A = G - (np.linalg.eigvals(G).real.max() + rng.uniform(0.3, 1.0)) * np.eye(n)
        W = rng.standard_normal((n, n))
        W = W @ W.T
        X = solve_lyapunov(A, W)
        res = A.T @ X + X @ A + W
        assert np.linalg.norm(res) <= 1e-9 * max(1.0, np.linalg.norm(W))
        assert np.abs(X - X.T).max() <= 1e-12 * (1.0 + np.abs(X).max())


def test_lyapunov_unstable_coefficient_fails():
    with pytest.raises(LyapunovError):
        solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))


def test_lyapunov_unstable_complex_pair_fails():
    # a 2x2 Schur block: the real part sits on the diagonal of the block
    with pytest.raises(LyapunovError):
        solve_lyapunov(np.array([[0.1, 1.0], [-1.0, 0.1]]), np.eye(2))


def test_lyapunov_imaginary_axis_pair_fails():
    with pytest.raises(LyapunovError):
        solve_lyapunov(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))


def test_lyapunov_shape_errors():
    with pytest.raises(ValueError, match="expected a square matrix"):
        solve_lyapunov(np.ones((2, 3)), np.eye(2))
    with pytest.raises(ValueError, match="shape mismatch"):
        solve_lyapunov(-np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match="non-finite input to solve_lyapunov"):
        solve_lyapunov(-np.eye(2), np.diag([1.0, np.nan]))


def test_lyapunov_of_an_empty_matrix_is_empty():
    X = solve_lyapunov(np.zeros((0, 0)), np.zeros((0, 0)))
    assert X.shape == (0, 0)


def test_sylvester_raises_when_eigenvalues_cancel():
    # A X + X (-A) + W = 0: every eigenvalue of A meets its negative in
    # -A, so the Sylvester operator is singular and trsyl reports it
    A = _hurwitz(np.random.default_rng(5), 4)
    with pytest.raises(LyapunovError, match="nearly cancel"):
        numcore._sylvester(spla.schur(A)[0], spla.schur(-A)[0], np.eye(4), "N", "N")


# ----------------------------------------- complex Schur form, lyapunov_factor


@pytest.mark.parametrize("spectrum", ["real", "mixed", "scalar"])
def test_complex_schur_form_from_the_real_one(spectrum):
    # the unitary of each standard 2x2 block makes the real form upper
    # triangular with the block's eigenvalues on the diagonal, and no
    # other factorization is made
    rng = np.random.default_rng(61)
    if spectrum == "real":
        Q = np.linalg.qr(rng.standard_normal((7, 7)))[0]
        A = Q @ np.triu(rng.standard_normal((7, 7))) @ Q.T
    elif spectrum == "mixed":
        A = rng.standard_normal((9, 9))
    else:
        A = np.array([[-2.5]])
    T, Z = numcore._schur(A)
    blocks = np.count_nonzero(T.diagonal(-1))
    assert (blocks > 0) == (spectrum == "mixed")
    Tc, Zc = numcore._complex_schur(T, Z)
    n = A.shape[0]
    assert np.array_equal(Tc, np.triu(Tc))
    assert np.abs(Zc.conj().T @ Zc - np.eye(n)).max() <= 1e-14 * n
    assert np.abs(Zc @ Tc @ Zc.conj().T - A).max() <= 1e-13 * np.linalg.norm(A, 2)
    assert np.array_equal(Tc.diagonal(), numcore._schur_eigenvalues(T))
    assert np.count_nonzero(Tc.diagonal().imag) == 2 * blocks


def _hurwitz(rng, n):
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    return G - (np.linalg.eigvals(G).real.max() + rng.uniform(0.3, 1.0)) * np.eye(n)


def test_lyapunov_factor_reproduces_gramian():
    rng = np.random.default_rng(47)
    for _ in range(10):
        n, m = int(rng.integers(1, 25)), int(rng.integers(1, 4))
        A, B = _hurwitz(rng, n), rng.standard_normal((n, m))
        R = lyapunov_factor(A, B)
        P = solve_lyapunov(A.T, B @ B.T)
        assert R.shape == (n, n)
        assert np.abs(R @ R.conj().T - P).max() <= 1e-12 * np.abs(P).max()


def test_lyapunov_factor_closed_forms():
    # diagonal A, one input: P_ij = -b_i b_j / (a_i + a_j); the state with
    # b_i = 0 is uncontrollable, so its row of the factor vanishes
    a, b = np.array([-1.0, -2.0, -5.0]), np.array([1.0, 0.0, 2.0])
    R = lyapunov_factor(np.diag(a), b[:, None])
    P = -np.outer(b, b) / (a[:, None] + a[None, :])
    assert np.allclose(R @ R.conj().T, P, rtol=0, atol=1e-15)
    assert not R[1].any()
    assert np.array_equal(lyapunov_factor(-np.eye(2), np.zeros((2, 1))),
                          np.zeros((2, 2)))


def test_lyapunov_factor_keeps_rank_deficient_directions_exact():
    # P of a duplicated state is singular; its computed factor must still
    # annihilate the difference of the copies to round-off, which a
    # factorization of the computed P only does to about sqrt(eps)
    rng = np.random.default_rng(53)
    A, B = _hurwitz(rng, 6), rng.standard_normal((6, 2))
    R = lyapunov_factor(np.kron(np.eye(2), A), np.vstack([B, B]))
    diff = R[:6] - R[6:]
    assert np.abs(diff).max() <= 1e-13 * np.abs(R).max()


def test_lyapunov_factor_rejects_bad_input():
    with pytest.raises(ValueError, match="expected a square matrix"):
        lyapunov_factor(np.ones((3, 2)), np.ones((3, 1)))
    with pytest.raises(ValueError, match="shape mismatch"):
        lyapunov_factor(-np.eye(3), np.ones((2, 1)))
    with pytest.raises(ValueError, match="non-finite input to lyapunov_factor"):
        lyapunov_factor(-np.eye(2), np.full((2, 1), np.nan))
    with pytest.raises(LyapunovError):
        lyapunov_factor(np.diag([-1.0, 0.5]), np.ones((2, 1)))
    with pytest.raises(LyapunovError):
        lyapunov_factor(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.ones((2, 1)))


# ------------------------------------------------------ psd_sqrt_factor


def test_psd_sqrt_identity():
    F = psd_sqrt_factor(np.eye(3))
    assert F.shape == (3, 3)
    assert np.allclose(F @ F.T, np.eye(3), rtol=0, atol=1e-14)


def test_psd_sqrt_drops_null_space():
    X = np.diag([4.0, 0.0])
    F = psd_sqrt_factor(X)
    assert F.shape == (2, 1)
    assert np.allclose(F @ F.T, X, rtol=0, atol=1e-13)


def test_psd_sqrt_zero_matrix():
    F = psd_sqrt_factor(np.zeros((4, 4)))
    assert F.shape == (4, 0)


def test_psd_sqrt_roundtrip_random():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 20))
        k = int(rng.integers(1, n + 1))
        G = rng.standard_normal((n, k))
        X = G @ G.T
        F = psd_sqrt_factor(X)
        assert F.shape[1] <= k
        scale = 1.0 + np.abs(X).max()
        assert np.abs(F @ F.T - X).max() <= 1e-10 * scale


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(IndefiniteMatrixError):
        psd_sqrt_factor(np.diag([1.0, -1.0]))


def test_psd_sqrt_rejects_asymmetric():
    with pytest.raises(ValueError):
        psd_sqrt_factor(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="non-finite input to psd_sqrt_factor"):
        psd_sqrt_factor(np.diag([1.0, np.inf]))


def test_psd_sqrt_tiny_negative_dust_is_clipped():
    # round-off sized negative eigenvalues must not trip the definiteness check
    X = np.diag([1.0, -1e-15])
    F = psd_sqrt_factor(X)
    assert F.shape == (2, 1)


# ----------------------------------------------------------------- svd


def test_svd_diagonal():
    res = svd(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(res.S, [3.0, 2.0, 1.0], rtol=0, atol=1e-14)


def test_svd_rank_one_outer_product():
    u = np.array([[2.0], [0.0], [0.0]])
    v = np.array([[5.0, 0.0]])
    res = svd(u @ v)
    assert abs(res.S[0] - 10.0) <= 1e-13
    assert np.abs(res.S[1:]).max() <= 1e-13


def test_svd_zero_matrix():
    res = svd(np.zeros((3, 2)))
    assert np.abs(res.S).max() == 0.0


def test_svd_of_an_empty_matrix_is_empty():
    for shape in ((0, 5), (4, 0)):
        res = svd(np.zeros(shape))
        assert res.S.shape == (0,)
        assert (res.Z @ (res.S[:, None] * res.Y.T)).shape == shape


def _check_svd(M):
    # no wider than the sketch, every value, as scipy's SVD gives them
    res = svd(M)
    k = res.S.size
    assert k == min(M.shape)
    assert np.abs(res.S - spla.svdvals(M)).max() <= 1e-13 * res.S[0]
    assert np.all(np.diff(res.S) <= 1e-12 * (res.S[0] + 1.0))
    recon = res.Z @ (res.S[:, None] * res.Y.conj().T)
    scale = 1.0 + np.abs(M).max()
    assert np.abs(recon - M).max() <= 1e-11 * scale
    assert np.abs(res.Z.conj().T @ res.Z - np.eye(k)).max() <= 1e-11
    assert np.abs(res.Y.conj().T @ res.Y - np.eye(k)).max() <= 1e-11


def test_svd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(17)
    # square, wide and tall
    for shape in [(6, 6), (4, 9), (50, 7), (201, 3)]:
        _check_svd(rng.standard_normal(shape))


def test_svd_complex_input():
    rng = np.random.default_rng(19)
    M = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    _check_svd(M)


def test_svd_deterministic_across_calls():
    rng = np.random.default_rng(23)
    for shape in [(7, 7), (40, 4)]:
        M = rng.standard_normal(shape)
        a, b = svd(M), svd(M)
        assert np.array_equal(a.Z, b.Z)
        assert np.array_equal(a.S, b.S)
        assert np.array_equal(a.Y, b.Y)


def test_svd_sign_convention_pins_left_vectors():
    # the first sizable entry of every left vector is made real positive,
    # so negating the input negates Y, not the convention on Z
    rng = np.random.default_rng(29)
    M = rng.standard_normal((6, 4))
    a, b = svd(M), svd(-M)
    assert np.allclose(a.Z, b.Z, rtol=0, atol=1e-13)
    assert np.allclose(a.Y, -b.Y, rtol=0, atol=1e-13)


def _loop_sign_fix(Z, Y):
    """The column-by-column sign fix the vectorized one replaced."""
    Z, Y = Z.copy(), Y.copy()
    for j in range(Z.shape[1]):
        col = Z[:, j]
        big = np.nonzero(np.abs(col) > 1e-12)[0]
        if big.size == 0:
            continue
        lead = col[big[0]]
        phase = lead / abs(lead)
        if phase != 1.0:
            Z[:, j] = col / phase
            Y[:, j] = Y[:, j] * np.conj(phase)
    return Z, Y


def test_svd_sign_fix_matches_column_loop():
    # no wider than the sketch, svd is the exact SVD of M' with the sign
    # fix: real phases are +-1, so the arithmetic is the loop's and the
    # result bit for bit the same; numpy's array and scalar complex
    # divisions round differently, so complex vectors agree to a few ulps.
    # The zero rows leave some columns' lead entry past the first row, and
    # the zero matrix has none at all
    rng = np.random.default_rng(31)
    real = rng.standard_normal((6, 5))
    real[:2] = 0.0
    cases = [(real, 0.0), (rng.standard_normal((4, 9)), 0.0),
             (np.zeros((3, 2)), 0.0),
             (real + 1j * rng.standard_normal((6, 5)), 4 * np.finfo(float).eps)]
    for M, tol in cases:
        Y, S, Zh = np.linalg.svd(M.conj().T, full_matrices=False)
        Z_want, Y_want = _loop_sign_fix(Zh.conj().T, Y)
        res = svd(M)
        assert np.abs(res.Z - Z_want).max(initial=0.0) <= tol
        assert np.abs(res.Y - Y_want).max(initial=0.0) <= tol


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        svd(np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError, match="expected a matrix"):
        svd(np.zeros((2, 2, 2)))
