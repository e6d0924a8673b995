"""State-space systems with linear-plus-quadratic outputs.

A system holds real matrices ``(A, B, C, M_1 .. M_p)`` describing

    x'(t) = A x(t) + B u(t),
    y_q(t) = (C x(t))_q + x(t)' M_q x(t),      q = 0 .. p-1,

with ``A`` of order n, ``B`` n-by-m, ``C`` p-by-n and one symmetric ``M_q``
per output channel. The class exposes the sampler interface (the kernel
grids ``h1_grid``, ``dh1_grid``, ``h2_grid`` and ``dh2_grid`` and the
transfer functions ``tf1`` and ``tf2_grid``), which is all the data-driven
reduction layer is allowed to see and which computes each node's
exponential or resolvent once per system, plus a simulator that advances
the state exactly between grid points, with one matrix exponential per
distinct step size, and the stability queries, which read the system's kept
real Schur form. Matrix Market files persist a system.
"""

import functools
import os
from dataclasses import dataclass

import numpy as np

from .errors import FrequencyCollisionError
from .numcore import _read_only, _real, _schur, expm

__all__ = [
    "LqoSystem",
    "ReducedLqoSystem",
    "Trajectory",
    "select_channels",
    "load_system",
    "save_system",
]

# Byte budget of each of a system's two node caches, its exponentials and its
# resolvents: at n=50 it holds the exponentials of about 50,000 nodes (16 MB
# at N=800) and, at one input, the resolvents of about 1.3 million (3.3 MB
# for the 4,096 closed nodes of 1,024 a side), so a collection evicts
# nothing it would reuse.
_CACHE_BYTES = 2**30

# The scaled Taylor coefficients h^k u^(k)(t), k = 0..3, of the cubic
# through an input's values at t, t + h/3, t + 2h/3 and t + h
_CUBIC = np.linalg.inv(np.vander(np.arange(4) / 3.0, increasing=True) / [1, 1, 2, 6])


def _node_exp(A, t):
    """``exp(A t)``, read-only, as a cache hands the same array to every
    caller. Looks up the module's `expm` at call time, so that tracing and
    tests can count the exponentiations."""
    return _read_only(expm(A, t))


def _node_resolvent(A, B, s):
    """``(sI - A)^{-1} B``, read-only, as a cache hands the same array to
    every caller. Looks up ``np.linalg.solve`` at call time, so that tests
    can count the solves. A singular ``sI - A`` raises
    :class:`~lqobt.errors.FrequencyCollisionError` naming `s`."""
    try:
        X = np.linalg.solve(s * np.eye(A.shape[0]) - A, B)
    except np.linalg.LinAlgError as exc:
        raise FrequencyCollisionError(f"resolvent singular at s = {s}") from exc
    return _read_only(X)


def _check_nonnegative(*arrays):
    """Kernel time arguments live on [0, inf); reject anything negative."""
    for z in arrays:
        if z.size and z.min() < 0.0:
            raise ValueError(f"kernel time arguments must be >= 0, got {z.min()}")


class LqoSystem:
    """Linear time-invariant system with quadratic output terms.

    It exposes the sampler interface that the data-driven routes read
    (:meth:`h1_grid`, :meth:`dh1_grid`, :meth:`h2_grid`, :meth:`dh2_grid`,
    :meth:`tf1` and :meth:`tf2_grid`), the exact-propagation simulator
    :meth:`simulate` and the stability queries :meth:`spectral_abscissa` and
    :attr:`is_stable`, which read the system's one real Schur form
    :attr:`schur`.

    The matrices are read-only once the system is made, and so is every
    array they are views of (:func:`lqobt.numcore._read_only`): a caller's
    ``full`` behind ``A = full[:, :]``, or a 1-D ``B``. So neither the
    caches of node exponentials and node resolvents, nor the kept Schur
    form, nor the system's :func:`~lqobt.gramians.compute_gramians` record
    can go stale.

    Parameters
    ----------
    A, B, C
        Real system matrices. `B` may be passed as a vector (one input),
        `C` as a vector (one output).
    Ms
        Symmetric quadratic output matrix, or a sequence with one matrix per
        output channel. Matrices are symmetrized as ``(M + M') / 2``, which
        leaves the output map unchanged.

    A complex matrix raises ``ValueError`` naming it (``A``, ``B``, ``C``
    or ``M_q``), where numpy would keep its real part.
    """

    def __init__(self, A, B, C, Ms):
        A = np.atleast_2d(_real(A, "A"))
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        B, C = _real(B, "B"), _real(C, "C")
        if B.ndim == 1:
            B = B[:, None]
        if C.ndim == 1:
            C = C[None, :]
        if B.ndim != 2 or B.shape[0] != n:
            raise ValueError(f"B must be {n} x m, got shape {B.shape}")
        if C.ndim != 2 or C.shape[1] != n:
            raise ValueError(f"C must be p x {n}, got shape {C.shape}")
        p = C.shape[0]

        if isinstance(Ms, np.ndarray) and Ms.ndim == 2:
            Ms = [Ms]
        Ms = [np.atleast_2d(_real(M, f"M_{q}")) for q, M in enumerate(Ms)]
        if len(Ms) != p:
            raise ValueError(f"{p} output rows but {len(Ms)} quadratic matrices")
        for M in Ms:
            if M.shape != (n, n):
                raise ValueError(f"each M must be {n} x {n}, got {M.shape}")
        Ms = [0.5 * (M + M.T) for M in Ms]

        for name, mat in (("A", A), ("B", B), ("C", C)):
            if not np.isfinite(mat).all():
                raise ValueError(f"non-finite entries in {name}")
        for M in Ms:
            if not np.isfinite(M).all():
                raise ValueError("non-finite entries in a quadratic matrix")

        self.A, self.B, self.C = map(_read_only, (A, B, C))
        self.Ms = tuple(map(_read_only, Ms))
        # least recently used node exponentials, within _CACHE_BYTES
        self._exp_cache = functools.lru_cache(maxsize=_CACHE_BYTES // A.nbytes)(
            functools.partial(_node_exp, A)
        )
        # least recently used node resolvents (complex, so 2 B.nbytes each)
        self._resolvent_cache = functools.lru_cache(
            maxsize=_CACHE_BYTES // max(2 * B.nbytes, 1)
        )(functools.partial(_node_resolvent, self.A, self.B))

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, m={self.m}, p={self.p})"

    @functools.cached_property
    def schur(self):
        """The real Schur form ``(T, Z)`` of ``A = Z T Z'``
        (:func:`lqobt.numcore._schur`), read-only, made on first use and
        kept: the stability queries and :func:`~lqobt.gramians.h2_error`
        (through the complex form that :func:`lqobt.numcore._complex_schur`
        makes of it) read it."""
        return _schur(self.A)

    def spectral_abscissa(self):
        """Largest real part over the eigenvalues of `A`: the largest
        diagonal entry of its real Schur form."""
        return float(self.schur[0].diagonal().max())

    @property
    def is_stable(self):
        return self.spectral_abscissa() < 0.0

    # -- time-domain kernels on grids (the sampling interface) --------------

    def h1_grid(self, a, b):
        """The linear impulse-response kernel ``h1(z) = C exp(A z) B`` at all
        pairwise sums: entry ``[u, v]`` is ``h1(a_u + b_v)``.

        Returns shape ``(len(a), len(b), p, m)``. Times must be ``>= 0``.
        """
        return self._h1_grid(a, b, shift=False)

    def dh1_grid(self, a, b):
        """Its derivative ``dh1(z) = C A exp(A z) B`` at all pairwise sums,
        shape ``(len(a), len(b), p, m)``."""
        return self._h1_grid(a, b, shift=True)

    def _h1_grid(self, a, b, shift):
        _check_nonnegative(np.asarray(a), np.asarray(b))
        L = self._left_stack(a, shift)
        R = self._right_stack(b)
        return np.einsum("upn,vnm->uvpm", L, R, optimize=True)

    def h2_grid(self, a, b, c):
        """The quadratic-output kernel
        ``h2(z1, z2)_q = B' exp(A' z1) M_q exp(A z2) B`` on a structured
        grid: entry ``[u, v, w, q]`` is ``h2(a_u, b_v + c_w)_q``.

        Returns shape ``(len(a), len(b), len(c), p, m, m)``.
        """
        return self._h2_grid(a, b, c, shift=False)

    def dh2_grid(self, a, b, c):
        """``h2``'s derivative in its second argument,
        ``B' exp(A' z1) M_q A exp(A z2) B``, on the grid of :meth:`h2_grid`."""
        return self._h2_grid(a, b, c, shift=True)

    def _h2_grid(self, a, b, c, shift):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        c = np.asarray(c, dtype=float)
        _check_nonnegative(a, b, c)
        n = self.n
        S = self._right_stack(a)                      # (alpha, n, m)
        G = np.einsum("unl,qnk->uqlk", S, np.stack(self.Ms))  # (alpha, p, m, n)
        if shift:
            G = G @ self.A
        G = G.reshape(-1, n)                                      # (alpha*p*m, n)
        F = np.stack([self._exp(z) for z in b], axis=1)           # (n, beta, n)
        T = np.moveaxis(self._right_stack(c), 0, 1).reshape(n, -1)  # (n, gamma*m)
        if G.shape[0] < T.shape[1]:
            # few left rows: G exp(A b_v) for every node, times exp(A c_w) B
            out = (G @ F.reshape(n, -1)).reshape(-1, n) @ T
        else:
            # the sum grid exp(A (b_v + c_w)) B as an (n, beta*gamma*m)
            # matrix: the exponentials of b side by side, times exp(A c_w) B
            out = G @ (F.reshape(-1, n) @ T).reshape(n, -1)
        out = out.reshape(a.size, self.p, self.m, b.size, c.size, self.m)
        return np.ascontiguousarray(out.transpose(0, 3, 4, 1, 2, 5))

    def _left_stack(self, zs, shift):
        CA = self.C @ self.A if shift else self.C
        return np.stack(
            [CA @ self._exp(t) for t in np.asarray(zs, dtype=float)]
        )

    def _right_stack(self, zs):
        return np.stack(
            [self._exp(t) @ self.B for t in np.asarray(zs, dtype=float)]
        )

    def _exp(self, t):
        """``exp(A t)``, computed once per distinct node on this system
        while the cache has room."""
        return self._exp_cache(float(t))

    # -- transfer functions --------------------------------------------------

    def tf1(self, s):
        """Linear transfer function ``C (sI - A)^{-1} B``.

        `s` may be a complex scalar or array; result shape is
        ``s.shape + (p, m)``.
        """
        s = np.asarray(s, dtype=complex)
        X = self._resolvents(s.ravel())
        return (self.C @ X).reshape(s.shape + (self.p, self.m))

    def tf2_grid(self, s1s, s2s):
        """Two-variable transfer function of the quadratic output term,
        ``tf2(s1, s2)_q = B' (s1 I - A')^{-1} M_q (s2 I - A)^{-1} B``, on
        the full grid ``s1s x s2s``; shape ``(len(s1s), len(s2s), p, m, m)``.

        Each node's resolvent ``X(s) = (sI - A)^{-1} B`` comes from the
        system's cache, so it is solved once per distinct node across all
        calls, of this method and of :meth:`tf1`; as
        ``B' (s1 I - A')^{-1} = X(s1)'`` (a plain transpose), each channel
        is then the product ``X(s1)' M_q X(s2)`` over the whole grid."""
        s1s = np.asarray(s1s, dtype=complex)
        s2s = np.asarray(s2s, dtype=complex)
        n, m, a, b = self.n, self.m, s1s.size, s2s.size
        L = self._resolvents(s1s).transpose(0, 2, 1).reshape(a * m, n)
        R = self._resolvents(s2s).transpose(1, 0, 2).reshape(n, b * m)
        out = np.stack([L @ (M @ R) for M in self.Ms])          # (q, a m, b m)
        out = out.reshape(self.p, a, m, b, m).transpose(1, 3, 0, 2, 4)
        return np.ascontiguousarray(out)

    def _resolvents(self, nodes):
        """``(sI - A)^{-1} B`` at each of the 1-d `nodes`, shape
        ``(len(nodes), n, m)``, solved once per distinct node on this
        system while the cache has room."""
        X = np.empty((len(nodes), self.n, self.m), dtype=complex)
        for i, s in enumerate(nodes):
            X[i] = self._resolvent_cache(complex(s))
        return X

    # -- simulation -----------------------------------------------------------

    def simulate(self, u, times, x0=None):
        """Advance the state exactly between the grid points, under the
        cubic interpolant of the input on each step, and evaluate both
        output terms.

        On a step ``[t, t + h]`` the input is the cubic through its values
        at ``t``, ``t + h/3``, ``t + 2h/3`` and ``t + h``; one constant 4x4
        matrix turns those values into the cubic's scaled Taylor
        coefficients ``h^k u^(k)(t)``, k = 0..3. The state and those
        coefficients solve a linear system of order ``n + 4m`` (Van Loan,
        IEEE TAC 1978), so a step is one product with ``exp(h G)``,
        ``G = [[A, B, 0, 0, 0], [0, 0, I, 0, 0], [0, 0, 0, I, 0],
        [0, 0, 0, 0, I], [0]]``, taken in the scaled coordinates. The
        method is exact for the homogeneous part and for cubic inputs, and
        stable at every step when ``A`` is Hurwitz, so the grid may be as
        coarse as the input allows. It costs one
        :func:`~lqobt.numcore.expm` of order ``n + 4m`` per distinct step
        size (13 on a 2,000-step ``np.linspace`` grid, whose steps differ
        in their last bits), so a grid whose steps all differ costs one
        exponential a step.

        Parameters
        ----------
        u
            Input signal, a callable ``t -> array of shape (m,)`` (a scalar
            return value is accepted for single-input systems), called
            three times a step.
        times
            Strictly increasing, finite sample grid.
        x0
            Initial state, default zero.

        Returns
        -------
        :class:`Trajectory`

        Complex or non-finite times, initial state or input values raise
        ``ValueError`` naming them, where numpy would keep the real part
        or carry the NaN into every later output.
        """
        times = _real(times, "times")
        if times.ndim != 1 or times.size < 2:
            raise ValueError("need a 1-d grid with at least two points")
        if not np.isfinite(times).all():
            raise ValueError("times must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("time grid must be strictly increasing")
        n, m = self.n, self.m
        x0 = np.zeros(n) if x0 is None else _real(x0, "x0").reshape(-1)
        if x0.size != n:
            raise ValueError(f"x0 must have length {n}")
        if not np.isfinite(x0).all():
            raise ValueError("x0 must be finite")

        def sample(t):
            val = _real(u(t), "the input signal").reshape(-1)
            if val.size != m:
                raise ValueError(f"input signal must return {m} values")
            if not np.isfinite(val).all():
                raise ValueError(f"the input signal is not finite at t = {float(t)!r}")
            return val

        # exp(h G + shift) maps [x; h^k u^(k)] at t to x at t + h: G holds
        # [A, B] in its first rows, and shift makes h^(k+1) u^(k+1) the
        # derivative of h^k u^(k) in the time scaled by h
        steps, which = np.unique(np.diff(times), return_inverse=True)
        G = np.zeros((n + 4 * m, n + 4 * m))
        G[:n, :n], G[:n, n:n + m] = self.A, self.B
        shift = np.eye(n + 4 * m, k=m)
        shift[:n] = 0.0
        maps = [expm(h * G + shift)[:n] for h in steps]
        lift = np.kron(_CUBIC, np.eye(m))

        X = np.empty((times.size, n))
        X[0] = x0
        lo = sample(times[0])
        for i, h in enumerate(np.diff(times)):
            hi = sample(times[i + 1])
            knots = np.concatenate(
                [lo, sample(times[i] + h / 3.0), sample(times[i] + 2.0 * h / 3.0), hi])
            X[i + 1] = maps[which[i]] @ np.concatenate([X[i], lift @ knots])
            lo = hi

        Y = X @ self.C.T
        for k, M in enumerate(self.Ms):
            Y[:, k] += np.einsum("ti,ij,tj->t", X, M, X)
        return Trajectory(times=times.copy(), states=X, outputs=Y)


class ReducedLqoSystem(LqoSystem):
    """Reduced-order system; identical structure plus a provenance tag.

    The tag records which reduction produced it: ``"intrusive-bt"``,
    ``"time-qbt"`` or ``"freq-qbt"``.
    """

    def __init__(self, A, B, C, Ms, provenance):
        super().__init__(A, B, C, Ms)
        self.provenance = str(provenance)

    @property
    def r(self):
        return self.n

    def __repr__(self):
        return (
            f"ReducedLqoSystem(r={self.n}, m={self.m}, p={self.p}, "
            f"provenance={self.provenance!r})"
        )


@dataclass
class Trajectory:
    """Simulation result: sample times, states and outputs.

    ``states`` has shape ``(len(times), n)`` and ``outputs``
    ``(len(times), p)``.
    """

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        if self.states.shape[0] != self.times.size:
            raise ValueError("state sample count does not match grid")
        if self.outputs.shape[0] != self.times.size:
            raise ValueError("output sample count does not match grid")


def select_channels(sys, input_index=0, output_index=0):
    """Restrict a system to a single input and output channel.

    Keeps column `input_index` of ``B``, row `output_index` of ``C`` and the
    matching quadratic matrix, producing a single-input single-output system.
    """
    if not 0 <= input_index < sys.m:
        raise ValueError(f"input index {input_index} out of range [0, {sys.m})")
    if not 0 <= output_index < sys.p:
        raise ValueError(f"output index {output_index} out of range [0, {sys.p})")
    return LqoSystem(
        sys.A,
        sys.B[:, [input_index]],
        sys.C[[output_index], :],
        [sys.Ms[output_index]],
    )


# -- persistence: Matrix Market files plus a plain-text manifest --------------


def save_system(sys, directory, name="system"):
    """Write a system as Matrix Market files plus a manifest.

    Creates ``A.mtx``, ``B.mtx``, ``C.mtx`` and ``M_<q>.mtx`` in `directory`
    and a manifest ``<name>.manifest`` listing dimensions and file names.
    Returns the manifest path.
    """
    import scipy.io  # here, so that a process that writes no file never loads it

    os.makedirs(directory, exist_ok=True)
    files = {"A": "A.mtx", "B": "B.mtx", "C": "C.mtx"}
    scipy.io.mmwrite(os.path.join(directory, files["A"]), sys.A)
    scipy.io.mmwrite(os.path.join(directory, files["B"]), sys.B)
    scipy.io.mmwrite(os.path.join(directory, files["C"]), sys.C)
    mnames = []
    for q, M in enumerate(sys.Ms):
        fname = f"M_{q}.mtx"
        scipy.io.mmwrite(os.path.join(directory, fname), M)
        mnames.append(fname)
    manifest = os.path.join(directory, f"{name}.manifest")
    with open(manifest, "w") as f:
        f.write("# lqobt system manifest\n")
        f.write(f"n {sys.n}\nm {sys.m}\np {sys.p}\n")
        for key in ("A", "B", "C"):
            f.write(f"{key} {files[key]}\n")
        for fname in mnames:
            f.write(f"M {fname}\n")
    return manifest


def load_system(manifest_path):
    """Read a system written by :func:`save_system`.

    The manifest is a plain-text file of ``key value`` lines: integer
    dimensions ``n``, ``m``, ``p`` and file entries ``A``, ``B``, ``C`` and
    one ``M`` line per output channel, with paths relative to the manifest.
    """
    import scipy.io  # here, so that a process that reads no file never loads it
    import scipy.sparse

    base = os.path.dirname(os.path.abspath(manifest_path))
    dims = {}
    paths = {"M": []}
    with open(manifest_path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(" ")
            value = value.strip()
            if key in ("n", "m", "p"):
                dims[key] = int(value)
            elif key == "M":
                paths["M"].append(value)
            elif key in ("A", "B", "C"):
                paths[key] = value
            else:
                raise ValueError(f"unrecognized manifest line: {line!r}")
    for key in ("A", "B", "C"):
        if key not in paths:
            raise ValueError(f"manifest is missing the {key} entry")
    if not paths["M"]:
        raise ValueError("manifest lists no quadratic matrices")

    def read(fname):
        mat = scipy.io.mmread(os.path.join(base, fname))
        return np.asarray(mat.todense() if scipy.sparse.issparse(mat) else mat)

    sys = LqoSystem(*(read(paths[key]) for key in ("A", "B", "C")),
                    [read(f) for f in paths["M"]])
    for key, expected in (("n", sys.n), ("m", sys.m), ("p", sys.p)):
        if key in dims and dims[key] != expected:
            raise ValueError(
                f"manifest says {key}={dims[key]} but matrices give {expected}"
            )
    return sys
