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
from .numcore import (_read_only, _sylvester, lyapunov_factor, psd_sqrt_factor,
                      solve_lyapunov, svd)

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
    """Controllability and (split) observability Gramians of one system:
    four n x n arrays.

    ``P`` solves ``A P + P A' + B B' = 0``. The observability Gramian is
    ``Q = Q1 + Q2`` where ``Q1`` solves ``A' Q1 + Q1 A + C'C = 0`` and ``Q2``
    solves ``A' Q2 + Q2 A + sum_q M_q P M_q = 0``. The real Schur form of
    ``A`` is the system's own (:attr:`lqobt.model.LqoSystem.schur`).

    The square-root factors ``U``, ``L1``, ``L2`` of ``P``, ``Q1``, ``Q2``,
    ``L = [L1, L2]`` (so ``L L' = Q``) and :attr:`hankel`, the SVD of
    ``L'U``, are computed on first use and kept, so a system that is only
    scored by :func:`h2_error` is never factored, and every
    :func:`intrusive_bt` of an order sweep shares one SVD. Every array is
    read-only and the instance is frozen, so nothing kept can go stale.
    """

    P: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray
    Q: np.ndarray

    U = functools.cached_property(lambda g: _read_only(psd_sqrt_factor(g.P)))
    L1 = functools.cached_property(lambda g: _read_only(psd_sqrt_factor(g.Q1)))
    L2 = functools.cached_property(lambda g: _read_only(psd_sqrt_factor(g.Q2)))
    L = functools.cached_property(lambda g: _read_only(np.hstack([g.L1, g.L2])))

    @functools.cached_property
    def hankel(self):
        """:class:`~lqobt.numcore.SvdResult` of ``L'U``
        (:func:`~lqobt.numcore.svd`), read-only; its singular values are
        the leading Hankel singular values."""
        res = svd(self.L.T @ self.U)
        res.Z, res.S, res.Y = map(_read_only, (res.Z, res.S, res.Y))
        return res


def _require_stable(sys, what="system"):
    if not sys.is_stable:
        raise UnstableSystemError(
            f"{what} has spectral abscissa {sys.spectral_abscissa():.3e} >= 0; "
            "its Gramians are undefined"
        )


# the Gramians of each system object, dropped with the system; a system's
# matrices are read-only (as its cache of node exponentials also assumes),
# so a kept record cannot go stale
_RECORDS = weakref.WeakKeyDictionary()


def compute_gramians(sys):
    """The :class:`Gramians` of `sys`: three Lyapunov solves on the first
    call for a system object, the same record from then on while the
    object lives. Its stability is read off the system's kept Schur form;
    each :func:`~lqobt.numcore.solve_lyapunov` still makes its own, as it
    takes the matrix ``A``.

    Raises :class:`~lqobt.errors.UnstableSystemError` for systems that are
    not asymptotically stable (the Gramians do not exist then), and keeps
    nothing for them.
    """
    if sys not in _RECORDS:
        _require_stable(sys)
        A = sys.A
        P = solve_lyapunov(A.T, sys.B @ sys.B.T)
        Q1 = solve_lyapunov(A, sys.C.T @ sys.C)
        Q2 = solve_lyapunov(A, sum((M @ P @ M for M in sys.Ms), np.zeros_like(P)))
        _RECORDS[sys] = Gramians(*map(_read_only, (P, Q1, Q2, Q1 + Q2)))
    return _RECORDS[sys]


def hankel_singular_values(gramians):
    """Singular values of ``L' U``: the Hankel singular values of the
    quadratic-output system, nonincreasing. They come from
    ``gramians.hankel``, the one factorization that :func:`intrusive_bt`
    shares for the same system, by :func:`~lqobt.numcore.svd`. Up to
    system order 64 (``L'U`` has at most ``n`` columns) they are all
    there. Past n = 64 the tail below ``RANK_TOL`` (``1e-13``) of the
    largest is omitted, but for at least 8 values: it is round-off, which
    the CLI drops as well."""
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
        The :class:`Gramians` of `sys`; by default ``compute_gramians(sys)``,
        the same kept record, so every order of a sweep shares one SVD of
        ``L'U`` (``gramians.hankel``) either way.

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

    ``Q`` comes from `gramians`, by default ``compute_gramians(sys)``, the
    record that :func:`h2_error` also reads.
    """
    Q = (compute_gramians(sys) if gramians is None else gramians).Q
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

    ``Q`` and ``Q_r`` come from :func:`compute_gramians`, which keeps them
    per system object, and :func:`~lqobt.numcore._sylvester` solves both
    Sylvester equations (the second through its transpose flags) on the
    real Schur forms that `sys` and `rom` keep
    (:attr:`~lqobt.model.LqoSystem.schur`): scoring several ROMs against
    one `sys` (an order sweep) solves and factors the full model once.

    Raises :class:`~lqobt.errors.UnstableSystemError` if `sys` or `rom` is
    unstable; data-driven reduction can produce an unstable `rom`.
    """
    if (sys.m, sys.p) != (rom.m, rom.p):
        raise ValueError(
            f"input/output dimensions differ: ({sys.m}, {sys.p}) vs "
            f"({rom.m}, {rom.p})"
        )
    _require_stable(rom, "reduced model")
    g, gr = compute_gramians(sys), compute_gramians(rom)
    B, Br = sys.B, rom.B
    X = _sylvester(sys.schur, rom.schur, B @ Br.T, "N", "T")
    W = -sys.C.T @ rom.C - sum(M @ X @ Mr for M, Mr in zip(sys.Ms, rom.Ms))
    K = _sylvester(sys.schur, rom.schur, W, "T", "N")
    full = np.trace(B.T @ g.Q @ B)
    val = full + 2.0 * np.trace(B.T @ K @ Br) + np.trace(Br.T @ gr.Q @ Br)
    if val <= 1e-12 * full:
        R = lyapunov_factor(block_diag(sys.A, rom.A), np.vstack([B, Br]))
        R1, R2 = R[: sys.n], R[sys.n:]
        val = np.linalg.norm(sys.C @ R1 - rom.C @ R2) ** 2 + sum(
            np.linalg.norm(R1.conj().T @ M @ R1 - R2.conj().T @ Mr @ R2) ** 2
            for M, Mr in zip(sys.Ms, rom.Ms)
        )
    return float(np.sqrt(max(val, 0.0)))
