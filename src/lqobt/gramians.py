"""System Gramians, Hankel singular values and intrusive balanced truncation.

The observability Gramian of a quadratic-output system splits into a linear
part (driven by ``C'C``) and a quadratic part (driven by ``M_q P M_q``, one
term per channel); balancing uses their sum. All solvers here require access
to the state-space matrices; the data-driven counterpart lives in
:mod:`lqobt.databt`.
"""

import functools
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from .databt import DataMatrices, reduce_from_matrices
from .errors import UnstableSystemError
from .numcore import (
    lyapunov_factor,
    psd_sqrt_factor,
    solve_lyapunov,
    solve_sylvester,
    svd,
)

__all__ = [
    "Gramians",
    "compute_gramians",
    "hankel_singular_values",
    "intrusive_bt",
    "h2_norm",
    "h2_error",
]


@dataclass(frozen=True)
class Gramians:
    """Controllability and (split) observability Gramians with factors.

    ``P`` solves ``A P + P A' + B B' = 0``. The observability Gramian is
    ``Q = Q1 + Q2`` where ``Q1`` solves ``A' Q1 + Q1 A + C'C = 0`` and ``Q2``
    solves ``A' Q2 + Q2 A + sum_q M_q P M_q = 0``. ``U``, ``L1``, ``L2`` are
    square-root factors of ``P``, ``Q1``, ``Q2``; ``L = [L1, L2]`` so that
    ``L L' = Q``.

    :attr:`hankel`, the SVD of ``L'U``, is computed on first use and kept,
    so :func:`hankel_singular_values` and every :func:`intrusive_bt` given
    the same instance as ``gramians=`` share one factorization. The
    instance is frozen so that the kept SVD cannot go stale.
    """

    P: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray
    Q: np.ndarray
    U: np.ndarray
    L1: np.ndarray
    L2: np.ndarray
    L: np.ndarray

    @functools.cached_property
    def hankel(self):
        """:class:`~lqobt.numcore.SvdResult` of ``L'U``, read-only; its
        singular values are the Hankel singular values."""
        res = svd(self.L.T @ self.U)
        for X in (res.Z, res.S, res.Y):
            X.flags.writeable = False
        return res


def _require_stable(sys, what="system"):
    if not sys.is_stable:
        raise UnstableSystemError(
            f"{what} has spectral abscissa {sys.spectral_abscissa():.3e} >= 0; "
            "its Gramians are undefined"
        )


def compute_gramians(sys):
    """Solve the three Lyapunov equations of `sys` and factor the results.

    Raises :class:`~lqobt.errors.UnstableSystemError` for systems that are
    not asymptotically stable (the Gramians do not exist then).
    """
    _require_stable(sys)
    A = sys.A
    P = solve_lyapunov(A.T, sys.B @ sys.B.T)
    Q1 = solve_lyapunov(A, sys.C.T @ sys.C)
    Q2 = solve_lyapunov(A, sum((M @ P @ M for M in sys.Ms), np.zeros_like(P)))
    U, L1, L2 = (psd_sqrt_factor(X) for X in (P, Q1, Q2))
    return Gramians(P=P, Q1=Q1, Q2=Q2, Q=Q1 + Q2, U=U, L1=L1, L2=L2, L=np.hstack([L1, L2]))


# Q of each system object, dropped with the system. A system's matrices are
# read-only (as its cache of node exponentials also assumes), so a stored Q
# cannot go stale.
_Q_MEMO = weakref.WeakKeyDictionary()


def _observability_gramian(sys, what="system"):
    """``Q = Q1 + Q2`` of a stable `sys` from two Lyapunov solves: ``P``,
    then ``Q``, which is linear in its source ``C'C + sum_q M_q P M_q``.
    Solved once per system object and kept in ``_Q_MEMO``."""
    Q = _Q_MEMO.get(sys)
    if Q is None:
        _require_stable(sys, what)
        P = solve_lyapunov(sys.A.T, sys.B @ sys.B.T)
        Q = solve_lyapunov(sys.A, sys.C.T @ sys.C + sum(M @ P @ M for M in sys.Ms))
        Q.flags.writeable = False
        _Q_MEMO[sys] = Q
    return Q


def hankel_singular_values(gramians):
    """Singular values of ``L' U``: the Hankel singular values of the
    quadratic-output system, nonincreasing. They come from
    ``gramians.hankel``, the one factorization that :func:`intrusive_bt`
    shares when given the same `gramians`."""
    return gramians.hankel.S


def intrusive_bt(sys, r, gramians=None):
    """Balanced truncation using explicit Gramian factors.

    The data matrices of :mod:`lqobt.databt` are, in exact quadrature, the
    factor products ``H = L'U``, ``M = L'AU``, ``h = L'B``, ``g = CU`` and
    ``K_q = U'M_qU``. This forms those products from the exact factors and
    reduces them with :func:`~lqobt.databt.reduce_from_matrices`, so every
    route shares one truncation and projection: with ``L'U = Z S Y'``
    truncated at order `r`, ``A_r = S^{-1/2} Z' L'AU Y S^{-1/2}``, which in
    exact arithmetic is the Petrov-Galerkin model ``(W'AV, W'B, CV,
    {V'M_qV})`` of ``W = L Z S^{-1/2}`` and ``V = U Y S^{-1/2}``.

    Parameters
    ----------
    sys
        Stable :class:`~lqobt.model.LqoSystem`.
    r
        Reduced order, within the numerical rank of ``L'U``.
    gramians
        Optional precomputed :class:`Gramians`. Pass the same instance to
        every order of a sweep: the SVD of ``L'U`` (``gramians.hankel``)
        is computed once and shared.

    Returns
    -------
    :class:`~lqobt.model.ReducedLqoSystem` with provenance ``"intrusive-bt"``.
    """
    if gramians is None:
        gramians = compute_gramians(sys)
    L, U = gramians.L, gramians.U
    dm = DataMatrices(H=L.T @ U, M=L.T @ sys.A @ U, h=L.T @ sys.B,
                      g=sys.C @ U, K=[U.T @ M @ U for M in sys.Ms])
    rom = reduce_from_matrices(dm, r, factors=gramians.hankel)
    rom.provenance = "intrusive-bt"
    return rom


def h2_norm(sys, gramians=None):
    """H2-type norm ``sqrt(trace(B' Q B))`` with ``Q`` the full
    observability Gramian.

    Equals the L2 norm of the kernel family: the squared norm is the
    integral of ``||h1||_F^2`` plus the double integral of the squared
    quadratic kernels summed over channels.

    Without `gramians`, ``Q`` is solved once per system object and kept
    while the object lives (:func:`h2_error` shares it); this relies on the
    system's matrices being read-only.
    """
    Q = _observability_gramian(sys) if gramians is None else gramians.Q
    val = np.trace(sys.B.T @ Q @ sys.B)
    return float(np.sqrt(max(val, 0.0)))


def h2_error(sys, rom):
    """H2-type norm of the difference system between `sys` and `rom`.

    The difference system has dynamics ``diag(A, A_r)``, stacked inputs,
    outputs ``[C, -C_r]`` and quadratic terms ``diag(M_q, -M_r,q)``. Its
    Gramians are never formed whole: with ``X`` and ``K`` the n x r cross
    blocks of its controllability and observability Gramians,

    * ``A X + X A_r' + B B_r' = 0``,
    * ``A' K + K A_r - C'C_r - sum_q M_q X M_r,q = 0``,

    and the squared error is
    ``trace(B'QB) + 2 trace(B'K B_r) + trace(B_r'Q_r B_r)``. That sum
    cancels, so its round-off is about ``eps ||sys||^2``; when it falls
    below ``1e-12 trace(B'QB)`` (an error under 1e-6 of the norm, such as a
    reduced model that only changes coordinates) the error is taken instead
    from a square-root factor ``R = [R_1; R_2]`` of the difference system's
    controllability Gramian as the sum of squares
    ``||C R_1 - C_r R_2||_F^2 + sum_q ||R_1^H M_q R_1 - R_2^H M_r,q R_2||_F^2``,
    which resolves errors down to about ``eps ||sys||``.

    ``Q`` and ``Q_r`` are each solved once per system object and kept
    while the object lives, so scoring several ROMs against one `sys` (an
    order sweep) solves the full model's ``Q`` once; this relies on the
    systems' matrices being read-only.

    Raises :class:`~lqobt.errors.UnstableSystemError` if `sys` or `rom` is
    unstable; data-driven reduction can produce an unstable `rom`.
    """
    if (sys.m, sys.p) != (rom.m, rom.p):
        raise ValueError(
            f"input/output dimensions differ: ({sys.m}, {sys.p}) vs "
            f"({rom.m}, {rom.p})"
        )
    Qr = _observability_gramian(rom, "reduced model")
    Q = _observability_gramian(sys)
    B, Br = sys.B, rom.B
    X = solve_sylvester(sys.A, rom.A, B @ Br.T)
    W = -sys.C.T @ rom.C - sum(M @ X @ Mr for M, Mr in zip(sys.Ms, rom.Ms))
    K = solve_sylvester(sys.A.T, rom.A.T, W)
    full = np.trace(B.T @ Q @ B)
    val = full + 2.0 * np.trace(B.T @ K @ Br) + np.trace(Br.T @ Qr @ Br)
    if val <= 1e-12 * full:
        R = lyapunov_factor(block_diag(sys.A, rom.A), np.vstack([B, Br]))
        R1, R2 = R[: sys.n], R[sys.n:]
        val = np.linalg.norm(sys.C @ R1 - rom.C @ R2) ** 2 + sum(
            np.linalg.norm(R1.conj().T @ M @ R1 - R2.conj().T @ Mr @ R2) ** 2
            for M, Mr in zip(sys.Ms, rom.Ms)
        )
    return float(np.sqrt(max(val, 0.0)))
