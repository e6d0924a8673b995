"""Dense linear-algebra kernels used throughout the package.

Thin, contract-checked wrappers around LAPACK-backed routines, including
one Schur factorization, :func:`_schur`, whose real form every
Lyapunov and Sylvester solve and every stability query reads, and whose
complex form :func:`_complex_schur` makes from it without another
factorization; one triangular Sylvester solve, :func:`_sylvester`, real
or complex, which the Bartels-Stewart Lyapunov solver
:func:`solve_lyapunov` and :func:`lqobt.gramians.h2_error` (on the Schur
forms its systems keep) both call; and one Hammarling recursion,
:func:`_hammarling`, which gives the square-root Lyapunov factor
:func:`lyapunov_factor` and each scored system's part of an H2 error.
Everything operates on plain numpy arrays. The package's one SVD,
:func:`svd`, a seeded range finder that returns the leading triplets, and
the matrix exponential, which the time-domain samplers call at every
node, run in numpy's BLAS and LAPACK alone; the intrusive kernels also
call scipy's (Schur forms, ``trsyl`` and ``trtrs``). :func:`_read_only`
is the package's one rule for an array it keeps, and :func:`_real` its
one check that a system or rule is real.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla

from .errors import IndefiniteMatrixError, LyapunovError

# not exported: psd_sqrt_factor serves lqobt.gramians, and lyapunov_factor,
# a whole system's factor, serves the tests as an oracle
__all__ = ["expm", "solve_lyapunov", "svd", "SvdResult"]

# psd_sqrt_factor: relative eigenvalue cut of the factor's rank, and the
# relative negative eigenvalue still taken for rounding and clipped to zero
PSD_RANK_TOL = 1e-13
PSD_DUST_TOL = 1e-12
# svd: the singular values above RANK_TOL times the largest are resolvable;
# the sketch's first width, and the values past that rank it must hold
RANK_TOL = 1e-13
SKETCH, SKETCH_MARGIN = 64, 8


def _read_only(arr):
    """`arr` made read-only together with every ndarray on its ``.base``
    chain, so that no other view of the same memory can write to it. Memory
    that a writable buffer other than an ndarray owns (a ``bytearray``, a
    writable ``mmap``) cannot be locked that way; such an array is copied.
    Every array the package keeps (a system's matrices, a rule's nodes and
    weights, a dataset's samples, a Gramians record, a cached node
    exponential) goes through here, so what was checked or cached cannot
    change."""
    owner = arr
    while isinstance(owner, np.ndarray):
        owner.flags.writeable = False
        owner = owner.base
    if owner is not None and _writable_buffer(owner):
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


def _writable_buffer(obj):
    try:
        return not memoryview(obj).readonly
    except TypeError:  # no buffer interface to ask: assume it can change
        return True


def _real(x, name):
    """`x` as a float array. Complex input raises, naming `x`, where numpy
    would keep the real part with only a ``ComplexWarning``."""
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise ValueError(f"{name} must be an array of real numbers, got {x.dtype}")
    return x.astype(float, copy=False)


def _square(A):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


# Al-Mohy & Higham (2009): the bound eta on ||A^k||^(1/k) at which the
# [13/13] Pade approximant of exp(A) meets double precision's backward
# error. It takes 4.25, below the bound of 5.37, as scipy's own
# implementation of the algorithm does.
_THETA13 = 4.25
# [13/13] Pade coefficients of exp scaled to integers,
# b_j = (26-j)!/(j!(13-j)!), exact in double precision
_B13 = [float(math.factorial(26 - j) // (math.factorial(j) * math.factorial(13 - j)))
        for j in range(14)]


def _onenorm(X):
    return np.abs(X).sum(axis=0).max()


def _ell(A, m):
    """Al-Mohy & Higham's extra squarings ``ell(A, m)``: how many halvings
    of `A` bring the leading term of the [m/m] approximant's backward error,
    ``|c_{2m+1}| || |A|^{2m+1} ||_1 / ||A||_1``, to unit roundoff. The
    bounds ``eta`` on the norms of powers may understate that error; a
    positive ``ell`` then adds squarings. It is 0 for most matrices.
    ``|A|`` is divided by its norm first, so that its power cannot
    overflow."""
    norm = _onenorm(A)
    if norm == 0.0:
        return 0
    B = np.abs(A) / norm
    v, B2 = B.sum(axis=0), B @ B
    for _ in range(m):
        v = v @ B2  # ends as the column sums of B^(2m+1)
    if not v.any():
        return 0
    # log2 |c_{2m+1}| = log2 (m!^2 / ((2m)! (2m+1)!))
    log2_c = 2 * math.log2(math.factorial(m)) - math.log2(
        math.factorial(2 * m) * math.factorial(2 * m + 1))
    log2_alpha = log2_c + 2 * m * math.log2(norm) + math.log2(v.max())
    return max(math.ceil((log2_alpha + 53) / (2 * m)), 0)


def _pade13(A, I, A2, A4, A6):
    """The [13/13] approximant, in Higham's (2005) evaluation with three
    products beyond the powers."""
    b = _B13
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I)
    return np.linalg.solve(V - U, V + U)


def expm(A, t=1.0):
    """Matrix exponential ``exp(A*t)`` by scaling and squaring with Pade
    approximants (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 2009,
    Algorithm 6.1).

    One approximant, the [13/13] Pade quotient, serves every `A` and `t`;
    the number of squarings ``s`` follows from the 1-norms of powers,
    ``eta = min(max(d6, d8), max(d8, d10))`` with ``d_k = ||(A t)^k||^(1/k)``,
    which for a matrix far from normal lie well below ``||A t||`` and so
    avoid the overscaling a bound by ``||A t||`` causes; the correction
    ``ell`` (:func:`_ell`) adds squarings where those norms understate the
    error. The lower degrees of the algorithm would save up to three
    products at the smallest nodes only, where degree 13 meets the same
    backward-error bound. The products and the Pade quotient
    (``np.linalg.solve``) run in numpy's BLAS and LAPACK, so that the
    samplers built on it share one thread pool with the rest of the time
    routes: scipy links its own OpenBLAS, and on two cores the idle,
    spinning workers of two pools took turns with each other.

    Parameters
    ----------
    A
        Square matrix with finite entries.
    t
        Real scalar time; may be negative or zero. ``t = 0`` and a zero `A`
        give the identity exactly.

    Returns
    -------
    Dense array of the same shape as `A`.
    """
    A = _square(A)
    if not np.isfinite(A).all() or not np.isfinite(t):
        raise ValueError("non-finite input to expm")
    A = A * float(t)
    if not A.any():  # exactly, where LAPACK's quotient would round
        return np.eye(A.shape[0])
    I = np.eye(A.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    d6, d8 = _onenorm(A6) ** (1 / 6), _onenorm(A4 @ A4) ** (1 / 8)
    eta = min(max(d6, d8), max(d8, _onenorm(A4 @ A6) ** (1 / 10)))
    s = math.ceil(math.log2(eta / _THETA13)) if eta > _THETA13 else 0
    s += _ell(A / 2**s, 13)
    X = _pade13(A / 2**s, I, A2 / 4**s, A4 / 16**s, A6 / 64**s)
    for _ in range(s):
        X = X @ X
    return X


def _schur(A):
    """The real Schur form ``(T, Z)`` of ``A = Z T Z'``, read-only: the
    package's one Schur factorization. LAPACK puts each 2x2 block of the
    quasi-triangular `T` in standard form (equal diagonal entries), so
    ``diag(T)`` holds the real parts of the eigenvalues."""
    return tuple(map(_read_only, spla.schur(A)))


def _schur_eigenvalues(T):
    """The eigenvalues of a matrix, read off the diagonal blocks of its
    real Schur form `T` (:func:`_schur`): LAPACK's standard 2x2 block
    ``[[a, b], [c, a]]`` holds ``a +- i sqrt(-bc)``, and outside the blocks
    the subdiagonal is zero."""
    w = np.sqrt(np.abs(T.diagonal(1) * T.diagonal(-1)))
    return T.diagonal() + 1j * (np.append(w, 0.0) - np.insert(w, 0, 0.0))


def _hurwitz_schur(A):
    """:func:`_schur` of `A`, which must be Hurwitz: an eigenvalue of real
    part >= 0 raises LyapunovError."""
    T, Z = _schur(A)
    abscissa = T.diagonal().max(initial=-np.inf)
    if abscissa >= 0.0:
        raise LyapunovError(f"coefficient has an eigenvalue of real part {abscissa:.3e} >= 0")
    return T, Z


def _complex_schur(T, Z):
    """The complex Schur form ``(T_c, Z_c)`` of ``A = Z T Z'``, made from
    the real one (:func:`_schur`) with no further factorization: LAPACK's
    standard 2x2 block ``[[a, b], [c, a]]`` is made upper triangular by the
    unitary with columns ``[b, i w] / s`` and ``[i w, b] / s``, where
    ``w = sqrt(-bc)`` and ``s = sqrt(b^2 - bc)``. ``A = Z_c T_c Z_c^H``,
    and ``diag(T_c)`` is :func:`_schur_eigenvalues` of `T`."""
    Q = np.eye(len(T), dtype=complex)
    i = np.flatnonzero(T.diagonal(-1))
    b, w = T[i, i + 1], np.sqrt(-T[i, i + 1] * T[i + 1, i])
    s = np.hypot(b, w)
    Q[i, i] = Q[i + 1, i + 1] = b / s
    Q[i, i + 1] = Q[i + 1, i] = 1j * w / s
    Tc = np.triu(Q.conj().T @ T @ Q)
    np.fill_diagonal(Tc, _schur_eigenvalues(T))
    return Tc, Z @ Q


def _sylvester(T, Tr, W, trana, tranb):
    """``Y`` with ``op(T) Y + Y op(Tr) + W = 0`` for upper (quasi-)triangular
    Schur forms `T` and `Tr`, real or complex, ``op`` taking the conjugate
    transpose where the flag is ``"C"``: LAPACK ``trsyl``'s back
    substitution. The package's one Sylvester solve. Raises
    :class:`~lqobt.errors.LyapunovError` when ``trsyl`` reports that
    eigenvalues of ``op(T)`` and ``-op(Tr)`` nearly coincide."""
    if not W.size:
        return -W
    Y, scale, info = spla.get_lapack_funcs("trsyl", (T, Tr, W))(T, Tr, -W, trana, tranb)
    if info != 0:
        raise LyapunovError(f"trsyl failed (info={info}): eigenvalues nearly cancel")
    return Y / scale


def solve_lyapunov(A, W):
    """Solve the observability-side Lyapunov equation ``A' X + X A + W = 0``.

    Bartels-Stewart: one real Schur factorization ``A = Z T Z'``
    (:func:`_hurwitz_schur`) serves as both forms of :func:`_sylvester`,
    which solves ``T' Y + Y T + Z' W Z = 0``, and ``X = Z Y Z'``. `A` must
    be Hurwitz (all eigenvalues in the open left half plane); otherwise a
    :class:`~lqobt.errors.LyapunovError` is raised. The solution is
    symmetrized on exit.

    For the controllability-side equation ``A P + P A' + W = 0`` call
    ``solve_lyapunov(A.T, W)``.
    """
    A, W = _square(A), np.asarray(W, dtype=float)
    if W.shape != A.shape:
        raise ValueError(f"shape mismatch: A is {A.shape}, W is {W.shape}")
    if not (np.isfinite(A).all() and np.isfinite(W).all()):
        raise ValueError("non-finite input to solve_lyapunov")
    T, Z = _hurwitz_schur(A)
    X = Z @ _sylvester(T, T, Z.T @ W @ Z, "C", "N") @ Z.T
    return 0.5 * (X + X.T)


def _hammarling(T, W):
    """Hammarling's recursion (IMA J. Numer. Anal. 2, 1982) on a complex
    upper triangular, Hurwitz `T` and an input `W`: the upper triangular
    ``U`` with ``T U U^H + U U^H T^H + W W^H = 0``, found column by column
    from the last, each step one triangular solve (LAPACK ``trtrs``) and a
    rank-one update of the input rows above. Also returns ``V``, whose row
    `k` is the input row that step `k` consumed, ``alpha_k w_k`` with
    ``alpha_k = sqrt(-2 Re T_kk)`` and ``w_k`` of unit norm (zero where
    the row vanished): the coupling that rows appended above `T` in a
    block-diagonal system would see (:func:`lqobt.gramians.h2_error`)."""
    W, U, work = W.astype(complex), np.zeros_like(T), np.array(T, order="F")
    V, lam = np.zeros_like(W), T.diagonal()
    for k in range(len(T) - 1, -1, -1):
        alpha, norm = np.sqrt(-2.0 * lam[k].real), np.linalg.norm(W[k])
        U[k, k] = norm / alpha
        if norm == 0.0:
            continue
        V[k] = alpha / norm * W[k]
        if k == 0:
            break
        rhs = W[:k] @ V[k].conj() + T[:k, k] * U[k, k]
        work[range(k), range(k)] = lam[:k] + lam[k].conj()
        U[:k, k] = -spla.lapack.ztrtrs(work[:, :k], rhs[:, None])[0][:, 0]
        W[:k] -= np.outer(U[:k, k], V[k])
    return U, V


def lyapunov_factor(A, B):
    """Square-root factor ``R`` (complex, n x n) with ``R R^H = P`` for the
    controllability-side equation ``A P + P A' + B B' = 0``.

    Hammarling's method (:func:`_hammarling`) on the complex Schur form
    ``A = Z T Z^H`` (:func:`_complex_schur` of :func:`_hurwitz_schur`):
    ``R = Z U`` with ``U`` the upper triangular factor of ``Z^H P Z``.
    `P` is never formed, so the factor keeps its accuracy where `P` is
    (nearly) rank deficient, which a factorization of a computed `P`
    cannot. `A` must be Hurwitz; otherwise a
    :class:`~lqobt.errors.LyapunovError` is raised.
    """
    A, B = _square(A), np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != A.shape[0]:
        raise ValueError(f"shape mismatch: A is {A.shape}, B is {B.shape}")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("non-finite input to lyapunov_factor")
    T, Z = _complex_schur(*_hurwitz_schur(A))
    return Z @ _hammarling(T, Z.conj().T @ B)[0]


def psd_sqrt_factor(X):
    """Square-root factor ``F`` with ``F F' = X`` of a symmetric PSD matrix.

    Computed from the symmetric eigendecomposition. Eigenvalues below
    ``PSD_RANK_TOL * lambda_max`` are truncated, so `F` has ``n x k`` shape
    with ``k`` the numerical rank. Small negative eigenvalues (down to
    ``-PSD_DUST_TOL * ||X||_2``) are tolerated and clipped to zero; anything
    more negative raises :class:`~lqobt.errors.IndefiniteMatrixError`.
    `X` must have at least one entry. A :class:`~lqobt.gramians.Gramians`
    record makes two calls, on ``P`` and on the whole ``Q``.
    """
    X = _square(X)
    if not np.isfinite(X).all():
        raise ValueError("non-finite input to psd_sqrt_factor")
    if not np.allclose(X, X.T, rtol=0.0, atol=1e-12 * max(1.0, abs(X).max())):
        raise ValueError("input matrix is not symmetric")
    lam, V = np.linalg.eigh(0.5 * (X + X.T))
    lam, V = lam[::-1], V[:, ::-1]
    norm2 = abs(lam).max()
    if norm2 == 0.0:
        return np.zeros((len(X), 0))
    if lam.min() < -PSD_DUST_TOL * norm2:
        raise IndefiniteMatrixError(
            f"matrix has eigenvalue {lam.min():.3e} below -{PSD_DUST_TOL:.0e} * ||X||"
        )
    lam = np.clip(lam, 0.0, None)
    k = int(np.count_nonzero(lam > PSD_RANK_TOL * lam[0]))
    return V[:, :k] * np.sqrt(lam[:k])


@dataclass
class SvdResult:
    """Leading singular triplets ``(Z, S, Y)`` of a matrix ``M``, the
    factors of ``Z @ diag(S) @ Y.conj().T`` (:func:`svd`).

    `Z` and `Y` have orthonormal columns; `S` is nonincreasing and
    nonnegative. Column signs (phases, in the complex case) are fixed
    deterministically (:func:`svd`).
    """

    Z: np.ndarray
    S: np.ndarray
    Y: np.ndarray


def _resolvable_rank(S):
    """How many of the singular values `S` exceed ``RANK_TOL * S[0]``."""
    return int(np.count_nonzero(S > RANK_TOL * S[:1]))


def svd(M):
    """Leading singular triplets of `M` by a seeded range finder on numpy's
    LAPACK: the package's one SVD.

    ``Q = orth(M W)`` and ``Q^H M = Z_B S Y^H`` give ``Z = Q Z_B``
    (Halko-Martinsson-Tropp, SIAM Rev. 2011, Alg. 4.1/4.2). The Gaussian
    `W`, from a fresh seed-0 generator (the global state is untouched),
    has `k` = ``SKETCH`` columns, doubled while ``k - SKETCH_MARGIN`` or
    more of the `k` values are resolvable (above ``RANK_TOL`` times the
    largest). So the result holds every resolvable value and at least
    ``SKETCH_MARGIN`` more. Once `k` reaches ``min(M.shape)`` (at once
    when that is at most ``SKETCH``, or when the rank is too high for the
    sketch) the factorization is the exact economy SVD of ``M^H``, which
    gives every value, with ``Z_B = Z``.

    Signs: the first entry above 1e-12 in magnitude of each column of
    ``Z_B`` is made real and positive (a column without one is kept).
    On the exact path that is a column of `Z`; on the sketch path it is
    a column of the factor in the basis ``Q``, not of `Z`.

    Parameters
    ----------
    M
        Real or complex matrix with finite entries (may have zero rows or
        columns).

    Returns
    -------
    :class:`SvdResult`
    """
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {M.shape}")
    if M.size and not np.isfinite(M).all():
        raise ValueError("non-finite input to svd")
    # numpy's LAPACK, not scipy's, so that one OpenBLAS thread pool runs
    # both the products and the factorizations: scipy loads its own, and
    # two pools of spinning threads alternating on two cores left the
    # time route at N=400 at 0.95 s a pass against 0.58 s in one pool.
    # The tall transpose (Q^H M)^H = Y S Z_B^H is the faster layout.
    rng, k = np.random.default_rng(0), SKETCH
    while k < min(M.shape):
        Q = np.linalg.qr(M @ rng.standard_normal((M.shape[1], k)))[0]
        Y, S, ZBh = np.linalg.svd((Q.conj().T @ M).conj().T, full_matrices=False)
        if _resolvable_rank(S) < k - SKETCH_MARGIN:
            break
        k *= 2
    else:  # as wide as M: the exact SVD, with Z_B = Z
        Q, (Y, S, ZBh) = None, np.linalg.svd(M.conj().T, full_matrices=False)
    phase = _lead_phases(ZBh.conj().T)
    ZB = ZBh.conj().T / phase
    return SvdResult(ZB if Q is None else Q @ ZB, S, Y * phase.conj())


def _lead_phases(X):
    """Phase of the first entry above 1e-12 in magnitude of each column of
    `X` (1 for a column without one)."""
    big = np.abs(X) > 1e-12
    if not big.size:
        return np.ones(X.shape[1], dtype=X.dtype)
    lead = np.where(big.any(axis=0), X[big.argmax(axis=0), np.arange(X.shape[1])], 1.0)
    return lead / np.abs(lead)
