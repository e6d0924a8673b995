"""Dense linear-algebra kernels used throughout the package.

Thin, contract-checked wrappers around LAPACK-backed routines, including
Bartels-Stewart Lyapunov and Sylvester solvers and a Hammarling
square-root Lyapunov factor. Everything operates on plain numpy arrays.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla

from .errors import IndefiniteMatrixError, LyapunovError

# lyapunov_factor and psd_sqrt_factor serve lqobt.gramians only
__all__ = ["expm", "solve_lyapunov", "solve_sylvester", "svd", "SvdResult"]

# psd_sqrt_factor: relative eigenvalue cut of the factor's rank, and the
# relative negative eigenvalue still taken for rounding and clipped to zero
PSD_RANK_TOL = 1e-13
PSD_DUST_TOL = 1e-12


def _square(A):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def expm(A, t=1.0):
    """Matrix exponential ``exp(A*t)`` via scaling-and-squaring with Pade
    approximants.

    Parameters
    ----------
    A
        Square matrix with finite entries.
    t
        Real scalar time; may be negative or zero.

    Returns
    -------
    Dense array of the same shape as `A`.
    """
    A = _square(A)
    if not np.isfinite(A).all() or not np.isfinite(t):
        raise ValueError("non-finite input to expm")
    if A.shape[0] == 0:
        return np.zeros((0, 0))
    return spla.expm(A * float(t))


def _hurwitz_schur(A, output="real"):
    """Schur form ``A = U T U'`` (``U T U^H`` with `output` ``"complex"``).
    In the real form LAPACK puts each 2x2 block of `T` in standard form
    (equal diagonal entries), so in either form ``Re diag(T)`` holds the
    real parts of the eigenvalues; a nonnegative one raises
    LyapunovError."""
    T, U = spla.schur(A, output=output)
    abscissa = T.diagonal().real.max(initial=-np.inf)
    if abscissa >= 0.0:
        raise LyapunovError(f"coefficient has an eigenvalue of real part {abscissa:.3e} >= 0")
    return T, U


def _solve_quasi_triangular(S, R, C, trana, tranb):
    """``op(S) Y + Y op(R) = C`` for real Schur forms `S` and `R` (LAPACK
    ``trsyl``; ``op`` transposes where the flag is ``"T"``)."""
    if C.size == 0:
        return C
    Y, scale, info = spla.lapack.dtrsyl(S, R, C, trana=trana, tranb=tranb)
    if info != 0:
        raise LyapunovError(f"trsyl failed (info={info}): eigenvalues nearly cancel")
    return Y / scale


def solve_lyapunov(A, W):
    """Solve the observability-side Lyapunov equation ``A' X + X A + W = 0``.

    Bartels-Stewart: one real Schur factorization ``A = U T U'`` turns the
    equation into ``T' Y + Y T = -U' W U``, which LAPACK ``trsyl`` solves by
    back substitution. `A` must be Hurwitz (all eigenvalues in the open left
    half plane); otherwise a :class:`~lqobt.errors.LyapunovError` is raised.
    The solution is symmetrized on exit.

    For the controllability-side equation ``A P + P A' + W = 0`` call
    ``solve_lyapunov(A.T, W)``.
    """
    A, W = _square(A), np.asarray(W, dtype=float)
    if W.shape != A.shape:
        raise ValueError(f"shape mismatch: A is {A.shape}, W is {W.shape}")
    if not (np.isfinite(A).all() and np.isfinite(W).all()):
        raise ValueError("non-finite input to solve_lyapunov")
    T, U = _hurwitz_schur(A)
    X = U @ _solve_quasi_triangular(T, T, -(U.T @ W @ U), "T", "N") @ U.T
    return 0.5 * (X + X.T)


def solve_sylvester(A, F, W):
    """Solve the Sylvester equation ``A X + X F' + W = 0``.

    Bartels-Stewart on the real Schur forms ``A = U S U'`` and
    ``F = V R V'``: ``S Y + Y R' = -U' W V`` with ``X = U Y V'``. `A` is
    n x n, `F` is r x r and `W` is n x r. Both `A` and `F` must be Hurwitz,
    which makes the solution unique; otherwise a
    :class:`~lqobt.errors.LyapunovError` is raised.
    """
    A, F, W = _square(A), _square(F), np.asarray(W, dtype=float)
    if W.shape != (A.shape[0], F.shape[0]):
        raise ValueError(f"shape mismatch: A is {A.shape}, F is {F.shape}, W is {W.shape}")
    if not (np.isfinite(A).all() and np.isfinite(F).all() and np.isfinite(W).all()):
        raise ValueError("non-finite input to solve_sylvester")
    S, U = _hurwitz_schur(A)
    R, V = _hurwitz_schur(F)
    return U @ _solve_quasi_triangular(S, R, -(U.T @ W @ V), "N", "T") @ V.T


def lyapunov_factor(A, B):
    """Square-root factor ``R`` (complex, n x n) with ``R R^H = P`` for the
    controllability-side equation ``A P + P A' + B B' = 0``.

    Hammarling's method on the complex Schur form ``A = Z T Z^H``: the
    upper triangular factor of ``Z^H P Z`` is found column by column from
    the last, each step one triangular solve and a rank-one update of the
    right-hand side. `P` is never formed, so the factor keeps its accuracy
    where `P` is (nearly) rank deficient, which a factorization of a
    computed `P` cannot. `A` must be Hurwitz; otherwise a
    :class:`~lqobt.errors.LyapunovError` is raised.
    """
    A, B = _square(A), np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != A.shape[0]:
        raise ValueError(f"shape mismatch: A is {A.shape}, B is {B.shape}")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("non-finite input to lyapunov_factor")
    T, Z = _hurwitz_schur(A, output="complex")
    n = A.shape[0]
    W = Z.conj().T @ B
    U = np.zeros((n, n), dtype=complex)
    for k in range(n - 1, -1, -1):
        lam = T[k, k]
        alpha = np.sqrt(-2.0 * lam.real)
        norm = np.linalg.norm(W[k])
        U[k, k] = norm / alpha
        if k == 0 or norm == 0.0:
            continue
        w = W[k] / norm
        rhs = alpha * (W[:k] @ w.conj()) + T[:k, k] * U[k, k]
        u = -spla.solve_triangular(T[:k, :k] + np.conj(lam) * np.eye(k), rhs)
        U[:k, k] = u
        W[:k] -= alpha * np.outer(u, w)
    return Z @ U


def psd_sqrt_factor(X):
    """Square-root factor ``F`` with ``F F' = X`` of a symmetric PSD matrix.

    Computed from the symmetric eigendecomposition. Eigenvalues below
    ``PSD_RANK_TOL * lambda_max`` are truncated, so `F` has ``n x k`` shape
    with ``k`` the numerical rank. Small negative eigenvalues (down to
    ``-PSD_DUST_TOL * ||X||_2``) are tolerated and clipped to zero; anything
    more negative raises :class:`~lqobt.errors.IndefiniteMatrixError`.
    """
    X = _square(X)
    if not np.isfinite(X).all():
        raise ValueError("non-finite input to psd_sqrt_factor")
    if not np.allclose(X, X.T, rtol=0.0, atol=1e-12 * max(1.0, abs(X).max())):
        raise ValueError("input matrix is not symmetric")
    n = X.shape[0]
    if n == 0:
        return np.zeros((0, 0))

    lam, V = np.linalg.eigh(0.5 * (X + X.T))
    lam, V = lam[::-1], V[:, ::-1]
    norm2 = abs(lam).max() if n else 0.0
    if norm2 == 0.0:
        return np.zeros((n, 0))
    if lam.min() < -PSD_DUST_TOL * norm2:
        raise IndefiniteMatrixError(
            f"matrix has eigenvalue {lam.min():.3e} below -{PSD_DUST_TOL:.0e} * ||X||"
        )
    lam = np.clip(lam, 0.0, None)
    k = int(np.count_nonzero(lam > PSD_RANK_TOL * lam[0]))
    return V[:, :k] * np.sqrt(lam[:k])


@dataclass
class SvdResult:
    """Singular value decomposition ``M = Z @ diag(S) @ Y.conj().T``.

    `Z` and `Y` have orthonormal columns; `S` is nonincreasing and
    nonnegative. Column signs (phases, in the complex case) are fixed
    deterministically: the first entry of each left singular vector with
    magnitude above 1e-12 is made real and positive.
    """

    Z: np.ndarray
    S: np.ndarray
    Y: np.ndarray


def svd(M):
    """Economy SVD (LAPACK ``gesdd``) with a deterministic sign convention.

    The intrusive route factors its whole ``L'U`` through it. The data
    routes factor their sketches' projections with numpy's LAPACK
    (:func:`lqobt.databt._leading_svd`) and call it only on a matrix no
    wider than the sketch.

    Parameters
    ----------
    M
        Real or complex matrix (may have zero rows or columns).

    Returns
    -------
    :class:`SvdResult`
    """
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {M.shape}")
    if M.size and not np.isfinite(M).all():
        raise ValueError("non-finite input to svd")
    Z, S, Yh = spla.svd(M, full_matrices=False)
    Y = Yh.conj().T
    phase = _lead_phases(Z)
    Z /= phase
    Y *= phase.conj()
    return SvdResult(Z=Z, S=S, Y=Y)


def _lead_phases(X):
    """Phase of the first entry above 1e-12 in magnitude of each column of
    `X` (1 for a column without one)."""
    big = np.abs(X) > 1e-12
    if not big.size:
        return np.ones(X.shape[1], dtype=X.dtype)
    lead = np.where(big.any(axis=0), X[big.argmax(axis=0), np.arange(X.shape[1])], 1.0)
    return lead / np.abs(lead)
