"""Shared test helpers: random stable systems, random rules, the pointwise
kernel and transfer-function oracles, explicit quadrature-factor oracles,
and the complex frequency matrices.

The pointwise kernels and the factor builders are deliberately naive (one
matrix exponential or resolvent solve per point or node, uncached, columns
assembled with hstack; the exponentials are scipy's, not the package's own
``numcore.expm``) so that they form an independent oracle for the
system's grid evaluators and the vectorized sample-matrix assembly in the
package: agreement between the two is the central correctness property of
the data-driven route. Whole-matrix oracles factor with
:func:`exact_svd`, ``np.linalg.svd`` called directly, never with the
package's own range finder.
"""

import numpy as np
import scipy.linalg as spla

from lqobt import LqoSystem, QuadratureRule, compute_gramians, h2_norm
from lqobt.databt import DataMatrices, _io_blocks, _loewner, reduce_from_matrices
from lqobt.numcore import SvdResult


def random_stable_system(rng, n=None, m=1, p=1, ms_scale=1.0):
    """Random asymptotically stable system with dense matrices.

    `A` is a scaled Ginibre matrix shifted left of the imaginary axis by a
    random margin, so the spectral abscissa is strictly negative.
    """
    if n is None:
        n = int(rng.integers(2, 21))
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    margin = rng.uniform(0.3, 1.2)
    A = G - (np.linalg.eigvals(G).real.max() + margin) * np.eye(n)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    Ms = []
    for _ in range(p):
        R = rng.standard_normal((n, n))
        Ms.append(ms_scale * 0.5 * (R + R.T))
    return LqoSystem(A, B, C, Ms)


def random_rule(rng, max_nodes=8, lo=0.05, hi=3.0, avoid=None):
    """Random quadrature rule with well-separated positive nodes.

    With `avoid` (an existing rule) the nodes are also kept away from that
    rule's nodes, as divided differences need disjoint node sets.
    """
    n = int(rng.integers(2, max_nodes + 1))
    for _ in range(100):
        nodes = np.sort(rng.uniform(lo, hi, n))
        if np.diff(nodes).min() < 1e-2 * (hi - lo) / n:
            continue
        if avoid is not None:
            dist = np.abs(nodes[:, None] - avoid.nodes[None, :]).min()
            if dist < 1e-2 * (hi - lo) / n:
                continue
        break
    sw = rng.uniform(0.4, 1.3, n)
    return QuadratureRule(nodes, sw)


def _pointwise(fn, points, tail, dtype=float):
    """`fn` at each point of the broadcast arrays `points`, one call per
    point, shaped ``points.shape + tail``."""
    points = np.broadcast_arrays(*(np.asarray(z, dtype=dtype) for z in points))
    vals = [fn(*pt) for pt in zip(*(z.ravel() for z in points))]
    return np.array(vals, dtype=dtype).reshape(points[0].shape + tail)


def _linear_kernel(sys_, z, shift):
    CA = sys_.C @ sys_.A if shift else sys_.C
    return _pointwise(lambda t: CA @ spla.expm(sys_.A * t) @ sys_.B,
                      (z,), (sys_.p, sys_.m))


def h1(sys_, z):
    """Linear impulse-response kernel ``C exp(A z) B`` at each entry of `z`,
    shape ``z.shape + (p, m)``."""
    return _linear_kernel(sys_, z, shift=False)


def dh1(sys_, z):
    """Derivative of :func:`h1`, ``C A exp(A z) B``."""
    return _linear_kernel(sys_, z, shift=True)


def _quadratic_kernel(sys_, z1, z2, shift):
    def at(a, b):
        S = (spla.expm(sys_.A * a) @ sys_.B).T
        E = spla.expm(sys_.A * b) @ sys_.B
        if shift:
            E = sys_.A @ E
        return [S @ M @ E for M in sys_.Ms]

    return _pointwise(at, (z1, z2), (sys_.p, sys_.m, sys_.m))


def h2(sys_, z1, z2):
    """Quadratic-output kernel ``B' exp(A' z1) M_q exp(A z2) B``, all
    channels stacked in an axis of length `p` before the trailing
    ``(m, m)`` block. Scalars broadcast."""
    return _quadratic_kernel(sys_, z1, z2, shift=False)


def dh2_dz2(sys_, z1, z2):
    """Partial derivative of :func:`h2` in its second argument,
    ``B' exp(A' z1) M_q A exp(A z2) B``."""
    return _quadratic_kernel(sys_, z1, z2, shift=True)


def tf2(sys_, s1, s2):
    """Two-variable transfer function of the quadratic output term,
    ``B' (s1 I - A')^{-1} M_q (s2 I - A)^{-1} B``, with two solves per
    point; channels and broadcasting as in :func:`h2`."""
    A, B, I = sys_.A, sys_.B, np.eye(sys_.n)

    def at(a, b):
        X = np.linalg.solve(b * I - A, B)
        return [B.T @ np.linalg.solve(a * I - A.T, M @ X) for M in sys_.Ms]

    return _pointwise(at, (s1, s2), (sys_.p, sys_.m, sys_.m), dtype=complex)


def time_factors(sys_, rule_p, rule_q):
    """Explicit time-domain quadrature factors ``(U, L)``.

    ``U`` has one ``rho_i exp(A t_i) B`` block column per node of `rule_p`;
    ``L = [L1, L2]`` stacks ``phi_j exp(A' tau_j) C'`` and, ordered with the
    output channel outermost and the `rule_p` node in the middle,
    ``rho_k phi_j exp(A' tau_j) M_q exp(A t_k) B``.
    """
    A, B, C = sys_.A, sys_.B, sys_.C
    t, rho = rule_p.nodes, rule_p.sqrt_weights
    tau, phi = rule_q.nodes, rule_q.sqrt_weights
    U = np.hstack([rho[i] * spla.expm(A * t[i]) @ B for i in range(t.size)])
    L1 = np.hstack([phi[j] * spla.expm(A.T * tau[j]) @ C.T for j in range(tau.size)])
    L2 = np.hstack([
        rho[k] * phi[j] * spla.expm(A.T * tau[j]) @ M @ spla.expm(A * t[k]) @ B
        for M in sys_.Ms
        for k in range(t.size)
        for j in range(tau.size)
    ])
    return U, np.hstack([L1, L2])


def freq_factors(sys_, th, rho, s, phi):
    """Explicit frequency-domain factors ``(U, L)`` from resolvent solves.

    ``U`` columns are ``rho_l (i th_l I - A)^{-1} B``; ``L`` stacks
    ``phi_k (i s_k I - A)^{-H} C'`` and, channel-outermost with the `th`
    node in the middle,
    ``rho_k phi_j (i s_j I - A)^{-H} M_q (i th_k I - A)^{-1} B``.
    The sample matrices equal conjugate-transpose products of these.
    """
    A, B, C = sys_.A, sys_.B, sys_.C
    n = sys_.n
    I = np.eye(n)

    def res(x, rhs):
        return np.linalg.solve(1j * x * I - A, rhs)

    def res_h(x, rhs):
        # (i x I - A)^{-H} rhs for real A
        return np.linalg.solve(-1j * x * I - A.T, rhs)

    U = np.hstack([rho[l] * res(th[l], B) for l in range(th.size)])
    L1 = np.hstack([phi[k] * res_h(s[k], C.T) for k in range(s.size)])
    L2 = np.hstack([
        rho[k] * phi[j] * res_h(s[j], M @ res(th[k], B))
        for M in sys_.Ms
        for k in range(th.size)
        for j in range(s.size)
    ])
    return U, np.hstack([L1, L2])


def complex_freq_matrices(ds):
    """The complex data matrices of a frequency dataset, whole, before the
    pairing that makes them real: linear rows ``(j, q)``, quadratic rows
    ``(q, k, j, a)`` and columns ``(l, b)`` at all the closed nodes. The
    realification's oracle, which no route calls."""
    th, rho = ds.p_nodes, ds.p_sqrt_weights
    s, phi = ds.q_nodes, ds.q_sqrt_weights
    nc = ds.Np * ds.m
    h, g, K = _io_blocks(ds.tf1_in, ds.tf2_cross, ds.tf1_out, ds.tf2_quad,
                         phi, rho)
    rk = rho[:, None, None, None, None]
    # row node j and column node l on the last four axes (j, x, l, y)
    sj, thl = s[:, None, None, None], th[:, None]
    w = phi[:, None, None, None], rho[:, None]

    def rows(shifted):
        # (j, q, l, b)
        linear = _loewner(ds.tf1_in[:, :, None], ds.tf1_out.transpose(1, 0, 2),
                          sj, thl, *w, shifted)
        # (q, k, j, a, l, b)
        quad = _loewner(rk * ds.tf2_cross[..., None, :],
                        rk * ds.tf2_quad.transpose(0, 1, 3, 2, 4)[:, :, None],
                        sj, thl, *w, shifted)
        return np.vstack([linear.reshape(-1, nc), quad.reshape(-1, nc)])

    return DataMatrices(H=rows(False), M=rows(True), h=h, g=g, K=K,
                        domain="freq")


def factor_products(sys_, U, L, hermitian=False):
    """The five matrix products the sample matrices must reproduce."""
    Lh = L.conj().T if hermitian else L.T
    Uh = U.conj().T if hermitian else U.T
    H = Lh @ U
    M = Lh @ sys_.A @ U
    h = Lh @ sys_.B
    g = sys_.C @ U
    K = [Uh @ Mq @ U for Mq in sys_.Ms]
    return H, M, h, g, K


def assert_matrices_match(dm, products, tol=1e-10):
    """Max-abs agreement of assembled matrices with the factor products,
    scaled by ``1 + max |entry|`` per matrix."""
    H, M, h, g, K = products
    pairs = [("H", dm.H, H), ("M", dm.M, M), ("h", dm.h, h), ("g", dm.g, g)]
    pairs += [(f"K_{q}", dm.K[q], K[q]) for q in range(len(K))]
    for name, got, want in pairs:
        scale = 1.0 + (np.abs(want).max() if want.size else 0.0)
        dev = np.abs(got - want).max() if want.size else 0.0
        assert dev <= tol * scale, f"{name}: deviation {dev:.3e} > {tol} * {scale:.3e}"


def tf_agree(sys_a, sys_b, points, rtol, scale_sys=None):
    """Relative agreement of both transfer functions at the given complex
    points; the denominator comes from `scale_sys` (default `sys_a`)."""
    ref = scale_sys or sys_a
    for sp in points:
        denom1 = max(np.abs(ref.tf1(sp)).max(), 1e-12)
        dev1 = np.abs(sys_a.tf1(sp) - sys_b.tf1(sp)).max()
        assert dev1 <= rtol * denom1, f"H1 at {sp}: {dev1:.3e} > {rtol * denom1:.3e}"
        ta = tf2(sys_a, sp, sp.conjugate())
        tb = tf2(sys_b, sp, sp.conjugate())
        tr = tf2(ref, sp, sp.conjugate())
        denom2 = max(np.abs(tr).max(), 1e-12)
        dev2 = np.abs(ta - tb).max()
        assert dev2 <= rtol * denom2, f"H2 at {sp}: {dev2:.3e} > {rtol * denom2:.3e}"


def exact_svd(M):
    """The economy SVD of `M` from ``np.linalg.svd`` called directly, as a
    :class:`~lqobt.numcore.SvdResult`: an oracle for the package's seeded
    range finder ``numcore.svd``, which the routes under test also run."""
    Z, S, Yh = np.linalg.svd(M, full_matrices=False)
    return SvdResult(Z, S, Yh.conj().T)


def exact_values(M):
    """All singular values of `M`, from ``np.linalg.svd`` called directly."""
    return np.linalg.svd(M, compute_uv=False)


def exact_rom(dm, r):
    """The reduced model of the data matrices `dm` at order `r`, truncating
    the exact SVD of ``dm.H`` (:func:`exact_svd`)."""
    return reduce_from_matrices(dm, r, factors=exact_svd(dm.H))


def reference_h2_error(sys_, rom):
    """H2 error from the whole (n+r) difference system: block-diagonal
    dynamics, stacked inputs, differenced outputs and ``diag(M_q, -M_r,q)``
    quadratic terms, with its full Gramians, as ``h2_norm`` reads them:
    ``sqrt(trace(B'QB))``. ``h2_error`` never assembles that system; it sums
    squares over a Hammarling factor. This trace cancels down to the
    error's size, so it carries round-off of about ``eps ||sys||^2``; see
    :func:`mp_h2_errors` for a reference without it."""
    err_sys = LqoSystem(
        spla.block_diag(sys_.A, rom.A),
        np.vstack([sys_.B, rom.B]),
        np.hstack([sys_.C, -rom.C]),
        [spla.block_diag(M, -Mr) for M, Mr in zip(sys_.Ms, rom.Ms)],
    )
    return h2_norm(err_sys, compute_gramians(err_sys))


def _mp_modal(mp, sys_, sign):
    # eigenvalues and the eigenvector coordinates of B, sign * C and
    # sign * M_q: A = V diag(lam) V^-1, b = V^-1 B, c = C V, m_q = V^H M_q V
    lam, V = mp.eig(mp.matrix(sys_.A.tolist()))
    return (list(lam), mp.inverse(V) * mp.matrix(sys_.B.tolist()),
            sign * (mp.matrix(sys_.C.tolist()) * V),
            [sign * (V.H * mp.matrix(M.tolist()) * V) for M in sys_.Ms])


def mp_h2_errors(sys_, roms, dps=40):
    """H2 errors of each model in `roms` against `sys_` at `dps` decimal
    digits (mpmath), from one eigendecomposition of ``A`` and one of each
    ``A_r``. The difference system is block diagonal, so in eigenvector
    coordinates its controllability Gramian has the entries
    ``P_ij = -b_i b_j^H / (lam_i + conj(lam_j))``, and the squared error is
    ``tr(C P C^H) + sum_q tr(M_q P M_q P)``. That sum cancels to the
    error's size, which 40 digits resolve: an oracle for ``h2_error`` that
    shares no factorization with it."""
    import mpmath as mp

    errors = []
    with mp.workdps(dps):
        lam, b, c, ms = _mp_modal(mp, sys_, 1)
        for rom in roms:
            lam_r, b_r, c_r, ms_r = _mp_modal(mp, rom, -1)
            lam_e, n, ne = lam + lam_r, sys_.n, sys_.n + rom.n
            b_e = [b[i, :] if i < n else b_r[i - n, :] for i in range(ne)]
            P = mp.matrix(ne, ne)
            for i in range(ne):
                for j in range(ne):
                    P[i, j] = -mp.fsum(x * mp.conj(y) for x, y in zip(b_e[i], b_e[j])) / (
                        lam_e[i] + mp.conj(lam_e[j]))
            C = mp.matrix(sys_.p, ne)
            C[:, :n], C[:, n:] = c, c_r
            err2 = sum((C * P * C.H)[k, k] for k in range(sys_.p))
            for m, m_r in zip(ms, ms_r):
                MP = mp.matrix(ne, ne)
                MP[:n, :] = m * P[:n, :]
                MP[n:, :] = m_r * P[n:, :]
                err2 += mp.fsum(MP[i, j] * MP[j, i] for i in range(ne) for j in range(ne))
            errors.append(float(mp.sqrt(mp.re(err2))))
    return errors


def mp_hankel_values(sys_, dps=40):
    """Hankel singular values of `sys_` at `dps` decimal digits (mpmath),
    nonincreasing: the square roots of the eigenvalues of ``P (Q1 + Q2)``.
    In eigenvector coordinates (``A = V diag(lam) V^-1``, ``P = V P~ V^H``,
    ``Q = V^-H Q~ V^-1``) every Gramian is an explicit ratio,
    ``P~_ij = -b_i b_j^H / (lam_i + conj(lam_j))``, ``Q1~_ij = -c_i^H c_j /
    (conj(lam_i) + lam_j)`` and ``Q2~`` the same with ``sum_q m_q P~ m_q``
    in place of ``c^H c``, and ``P Q`` is similar to ``P~ Q~``: an oracle
    for ``hankel_singular_values`` that shares no factorization with it."""
    import mpmath as mp

    with mp.workdps(dps):
        lam, b, c, ms = _mp_modal(mp, sys_, 1)
        n = sys_.n

        def solve(rhs, left, right):
            return mp.matrix([[-rhs[i, j] / (left(lam[i]) + right(lam[j])) for j in range(n)]
                              for i in range(n)])

        P = solve(b * b.H, lambda x: x, mp.conj)
        W = c.H * c
        for m in ms:
            W += m * P * m
        Q = solve(W, mp.conj, lambda x: x)
        ev = mp.eig(P * Q, left=False, right=False)
        return np.array(sorted((float(mp.sqrt(mp.re(x))) for x in ev), reverse=True))


def scalar_s1():
    """The unit scalar benchmark: A=-1, B=C=1, M=1."""
    return LqoSystem([[-1.0]], [1.0], [1.0], np.array([[1.0]]))


class PoisonedSampler:
    """Forwards to a system but plants one NaN in every second-order
    kernel or transfer-function grid it returns."""

    def __init__(self, sys_):
        self._sys = sys_

    def __getattr__(self, name):
        return getattr(self._sys, name)

    def _poisoned(self, name, *args):
        out = np.array(getattr(self._sys, name)(*args))
        out.flat[0] = np.nan
        return out

    def h2_grid(self, *args):
        return self._poisoned("h2_grid", *args)

    def tf2_grid(self, *args):
        return self._poisoned("tf2_grid", *args)


class UncallableSampler:
    """Fails on any sampling call."""

    def __getattr__(self, name):
        raise AssertionError(f"sampler.{name} called")


class ShortSampler:
    """Forwards to a system but drops the first-axis tail of every array
    one sampling method returns."""

    def __init__(self, sys_, method):
        self._sys, self._method = sys_, method

    def __getattr__(self, name):
        attr = getattr(self._sys, name)
        if name != self._method:
            return attr
        return lambda *args: np.asarray(attr(*args))[:-1]
