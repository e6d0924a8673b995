"""System Gramians, Hankel singular values, intrusive balanced truncation
and the H2-type norm and error.

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

from .databt import DataMatrices, reduce_from_matrices
from .errors import UnstableSystemError
from .numcore import (_complex_schur, _hammarling, _read_only, _sylvester,
                      psd_sqrt_factor, solve_lyapunov, svd)

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
    the three n x n arrays :func:`compute_gramians` solves.

    ``P`` solves ``A P + P A' + B B' = 0``. The observability Gramian is
    ``Q = Q1 + Q2`` where ``Q1`` solves ``A' Q1 + Q1 A + C'C = 0`` and ``Q2``
    solves ``A' Q2 + Q2 A + sum_q M_q P M_q = 0``. The real Schur form of
    ``A`` is the system's own (:attr:`lqobt.model.LqoSystem.schur`).

    ``Q``, the square-root factors ``U`` of ``P`` and ``L`` of ``Q`` (so
    ``U U' = P`` and ``L L' = Q``, each as wide as its Gramian's numerical
    rank) and :attr:`hankel`, the SVD of ``L'U``, are derived on first use
    and kept, so every :func:`intrusive_bt` of an order sweep shares one
    SVD. Every array is read-only and the instance is frozen, so nothing
    kept can go stale. :func:`h2_error` reads no Gramians: a model it
    scores needs none, and the full model's part is Hammarling's factor
    (:class:`_ErrorFactor`).
    """

    P: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray

    Q = functools.cached_property(lambda g: _read_only(g.Q1 + g.Q2))
    U = functools.cached_property(lambda g: _read_only(psd_sqrt_factor(g.P)))
    L = functools.cached_property(lambda g: _read_only(psd_sqrt_factor(g.Q)))

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
    call for a system object, whose solutions ``P``, ``Q1`` and ``Q2`` are
    all the record holds, and the same record from then on while the
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
        _RECORDS[sys] = Gramians(*map(_read_only, (P, Q1, Q2)))
    return _RECORDS[sys]


def hankel_singular_values(gramians):
    """Singular values of ``L' U``: the Hankel singular values of the
    quadratic-output system, the square roots of the eigenvalues of
    ``P Q``, nonincreasing. ``L`` factors the whole ``Q = Q1 + Q2``, so
    ``L'U`` is at most n x n. They come from ``gramians.hankel``, the one
    factorization that :func:`intrusive_bt` shares for the same system,
    by :func:`~lqobt.numcore.svd`. Up to system order 64 they are all
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

    Equals the L^2 norm of the kernel family: the squared norm is the
    integral of ``||h1||_F^2`` plus the double integral of the squared
    quadratic kernels summed over channels.

    ``Q`` comes from `gramians`, by default ``compute_gramians(sys)``, the
    record that :func:`intrusive_bt` also reads.
    """
    Q = (compute_gramians(sys) if gramians is None else gramians).Q
    val = np.trace(sys.B.T @ Q @ sys.B)
    return float(np.sqrt(max(val, 0.0)))


@dataclass(frozen=True)
class _ErrorFactor:
    """The full model's part of Hammarling's recursion on every error
    system it is scored in (:func:`h2_error`), all read-only: on its complex
    Schur form ``A = Z T Z^H`` (:func:`~lqobt.numcore._complex_schur` of
    the system's own real form), :func:`~lqobt.numcore._hammarling` of
    ``(T, Z^H B)`` gives the factor ``U`` and the rows ``V`` (``alpha_k
    w_k``). Kept: ``S = diag(T) - triu(V V^H, 1)``, whose conjugate
    transpose couples the reduced rows of the full model's columns;
    ``V``; ``CU = C Z U``; and ``K_q = U^H Z^H M_q Z U``."""

    S: np.ndarray
    V: np.ndarray
    CU: np.ndarray
    K: tuple


# each system's _ErrorFactor, dropped with the system, as _RECORDS is
_ERROR_FACTORS = weakref.WeakKeyDictionary()


def _error_factor(sys):
    if sys not in _ERROR_FACTORS:
        _require_stable(sys)
        T, Z = _complex_schur(*sys.schur)
        U, V = _hammarling(T, Z.conj().T @ sys.B)
        ZU = Z @ U
        S = np.diag(T.diagonal()) - np.triu(V @ V.conj().T, 1)
        K = tuple(_read_only(ZU.conj().T @ M @ ZU) for M in sys.Ms)
        _ERROR_FACTORS[sys] = _ErrorFactor(*map(_read_only, (S, V, sys.C @ ZU)), K)
    return _ERROR_FACTORS[sys]


def h2_error(sys, rom):
    """H2-type norm of the difference system between `sys` and `rom`.

    The difference system has dynamics ``diag(A_r, A)``, stacked inputs,
    outputs ``[-C_r, C]`` and quadratic terms ``diag(-M_r,q, M_q)``. With
    ``R R^H`` its controllability Gramian, the squared error is the sum of
    squares ``||C_e R||_F^2 + sum_q ||R^H M_e,q R||_F^2``, which resolves
    errors down to about ``eps ||sys||``: nothing cancels. ``R`` is
    Hammarling's factor on the complex Schur forms ``(T_r, Z_r)`` of
    ``A_r`` and ``(T, Z)`` of ``A``, with the reduced states first, so it
    is ``[[R_r, X], [0, U]]`` in those coordinates:

    * ``U`` and the rows ``V`` that its recursion consumed depend on `sys`
      alone and are kept once per system object (:class:`_ErrorFactor`);
    * ``X`` (r x n) solves ``T_r X + X S^H + Z_r^H B_r V^H = 0``;
    * ``Y = R_r R_r^H`` solves ``T_r Y + Y T_r^H + W W^H = 0`` with the
      input left over, ``W = Z_r^H B_r - X V``.

    Then, with ``C~_r = C_r Z_r`` and ``M~_r,q = Z_r^H M_r,q Z_r``,
    ``err^2 = ||CU - C~_r X||^2 + tr(C~_r Y C~_r^H) + sum_q (||K_q -
    X^H M~_r,q X||^2 + tr(M~_r,q Y M~_r,q Y) + 2 tr(X^H M~_r,q Y M~_r,q X))``,
    every term nonnegative. Both solves go through
    :func:`~lqobt.numcore._sylvester`. So scoring several ROMs against one
    `sys` (an order sweep) runs the full model's recursion once, and a
    scored ROM needs no Gramians of its own: the complex form of its kept
    real Schur form, one r x n and one r x r triangular solve.

    Raises :class:`~lqobt.errors.UnstableSystemError` if `sys` or `rom` is
    unstable; data-driven reduction can produce an unstable `rom`.
    """
    if (sys.m, sys.p) != (rom.m, rom.p):
        raise ValueError(f"input/output dimensions differ: {sys.m, sys.p} vs {rom.m, rom.p}")
    _require_stable(rom, "reduced model")
    f = _error_factor(sys)
    Tr, Zr = _complex_schur(*rom.schur)
    W = Zr.conj().T @ rom.B
    X = _sylvester(Tr, f.S, W @ f.V.conj().T, "N", "C")
    W = W - X @ f.V
    Y = _sylvester(Tr, Tr, W @ W.conj().T, "N", "C")
    Cr = rom.C @ Zr
    val = np.linalg.norm(f.CU - Cr @ X) ** 2 + np.vdot(Cr, Cr @ Y)
    for K, Mr in zip(f.K, (Zr.conj().T @ M @ Zr for M in rom.Ms)):
        MX, MY = Mr @ X, Mr @ Y
        val += (np.linalg.norm(K - X.conj().T @ MX) ** 2 + np.sum(MY * MY.T)
                + 2 * np.vdot(MX, Y @ MX))
    return float(np.sqrt(max(val.real, 0.0)))
