"""State-space systems with linear-plus-quadratic outputs.

A system holds real matrices ``(A, B, C, M_1 .. M_p)`` describing

    x'(t) = A x(t) + B u(t),
    y_q(t) = (C x(t))_q + x(t)' M_q x(t),      q = 0 .. p-1,

with ``A`` of order n, ``B`` n-by-m, ``C`` p-by-n and one symmetric ``M_q``
per output channel. The class exposes the system's time-domain kernels and
transfer functions, which is all the data-driven reduction layer is allowed
to see, plus a fixed-step simulator and Matrix Market based persistence.
"""

import functools
import os
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse

from .errors import FrequencyCollisionError, UnstableSystemError
from .numcore import expm

__all__ = [
    "LqoSystem",
    "ReducedLqoSystem",
    "Trajectory",
    "select_channels",
    "load_system",
    "save_system",
]

# Byte budget of each system's node exponentials: at n=50 it holds those of
# about 50,000 nodes (16 MB at N=800), so a collection evicts nothing it
# would reuse.
_CACHE_BYTES = 2**30


def _node_exp(A, t):
    """``exp(A t)``, read-only, as a cache hands the same array to every
    caller. Looks up the module's `expm` at call time, so that tracing and
    tests can count the exponentiations."""
    E = expm(A, t)
    E.flags.writeable = False
    return E


def _pointwise(fn, points, tail, dtype=float):
    """`fn` at each point of the broadcast arrays `points`, one call per
    point, shaped ``points.shape + tail``."""
    points = np.broadcast_arrays(*(np.asarray(z, dtype=dtype) for z in points))
    vals = [fn(*pt) for pt in zip(*(z.ravel() for z in points))]
    return np.array(vals, dtype=dtype).reshape(points[0].shape + tail)


def _check_nonnegative(*arrays):
    """Kernel time arguments live on [0, inf); reject anything negative."""
    for z in arrays:
        if z.size and z.min() < 0.0:
            raise ValueError(f"kernel time arguments must be >= 0, got {z.min()}")


class LqoSystem:
    """Linear time-invariant system with quadratic output terms.

    Parameters
    ----------
    A, B, C
        Real system matrices. `B` may be passed as a vector (one input),
        `C` as a vector (one output).
    Ms
        Symmetric quadratic output matrix, or a sequence with one matrix per
        output channel. Matrices are symmetrized as ``(M + M') / 2``, which
        leaves the output map unchanged.
    check_stability
        If True, raise :class:`~lqobt.errors.UnstableSystemError` unless all
        eigenvalues of `A` have negative real part.
    """

    def __init__(self, A, B, C, Ms, check_stability=False):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        B = np.asarray(B, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        C = np.asarray(C, dtype=float)
        if C.ndim == 1:
            C = C[None, :]
        if B.ndim != 2 or B.shape[0] != n:
            raise ValueError(f"B must be {n} x m, got shape {B.shape}")
        if C.ndim != 2 or C.shape[1] != n:
            raise ValueError(f"C must be p x {n}, got shape {C.shape}")
        p = C.shape[0]

        if isinstance(Ms, np.ndarray) and Ms.ndim == 2:
            Ms = [Ms]
        Ms = [np.atleast_2d(np.asarray(M, dtype=float)) for M in Ms]
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

        for mat in (A, B, C, *Ms):
            mat.flags.writeable = False
        self.A, self.B, self.C = A, B, C
        self.Ms = tuple(Ms)
        self._abscissa = None
        # least recently used node exponentials, within _CACHE_BYTES
        self._exp_cache = functools.lru_cache(maxsize=_CACHE_BYTES // A.nbytes)(
            functools.partial(_node_exp, A)
        )
        if check_stability and not self.is_stable:
            raise UnstableSystemError(
                f"spectral abscissa {self.spectral_abscissa():.3e} >= 0"
            )

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

    def spectral_abscissa(self):
        """Largest real part over the eigenvalues of `A`."""
        if self._abscissa is None:
            self._abscissa = float(np.linalg.eigvals(self.A).real.max())
        return self._abscissa

    @property
    def is_stable(self):
        return self.spectral_abscissa() < 0.0

    # -- time-domain kernels ------------------------------------------------

    def h1(self, z):
        """Linear impulse-response kernel ``C exp(A z) B``.

        `z` may be a scalar or an array; the result has shape
        ``z.shape + (p, m)``.
        """
        return self._kernel_pointwise(z, shift=False)

    def dh1(self, z):
        """Derivative of :meth:`h1`, ``C A exp(A z) B``."""
        return self._kernel_pointwise(z, shift=True)

    def _kernel_pointwise(self, z, shift):
        z = np.asarray(z, dtype=float)
        _check_nonnegative(z)
        CA = self.C @ self.A if shift else self.C
        return _pointwise(lambda t: CA @ expm(self.A, t) @ self.B,
                          (z,), (self.p, self.m))

    def h2(self, z1, z2):
        """Quadratic-output kernel ``B' exp(A' z1) M_q exp(A z2) B``.

        All channels are returned stacked in an axis of length `p` before
        the trailing ``(m, m)`` block. Scalars broadcast.
        """
        return self._h2_pointwise(z1, z2, shift=False)

    def dh2_dz2(self, z1, z2):
        """Partial derivative of :meth:`h2` in its second argument,
        ``B' exp(A' z1) M_q A exp(A z2) B``."""
        return self._h2_pointwise(z1, z2, shift=True)

    def _h2_pointwise(self, z1, z2, shift):
        z1, z2 = np.asarray(z1, dtype=float), np.asarray(z2, dtype=float)
        _check_nonnegative(z1, z2)

        def at(a, b):
            S = (expm(self.A, a) @ self.B).T
            E = expm(self.A, b) @ self.B
            if shift:
                E = self.A @ E
            return [S @ M @ E for M in self.Ms]

        return _pointwise(at, (z1, z2), (self.p, self.m, self.m))

    # -- grid kernel evaluations (the bulk sampling interface) --------------

    def h1_grid(self, a, b):
        """``h1`` at all pairwise sums: entry ``[u, v]`` is ``h1(a_u + b_v)``.

        Returns shape ``(len(a), len(b), p, m)``. Bulk counterpart of
        :meth:`h1` used by data collection; values are identical.
        """
        return self._h1_grid(a, b, shift=False)

    def dh1_grid(self, a, b):
        """``dh1`` at all pairwise sums, shape ``(len(a), len(b), p, m)``."""
        return self._h1_grid(a, b, shift=True)

    def _h1_grid(self, a, b, shift):
        _check_nonnegative(np.asarray(a), np.asarray(b))
        L = self._left_stack(a, shift)
        R = self._right_stack(b)
        return np.einsum("upn,vnm->uvpm", L, R, optimize=True)

    def h2_grid(self, a, b, c):
        """``h2`` on a structured grid: entry ``[u, v, w, q]`` is
        ``h2(a_u, b_v + c_w, q)``.

        Returns shape ``(len(a), len(b), len(c), p, m, m)``.
        """
        return self._h2_grid(a, b, c, shift=False)

    def dh2_grid(self, a, b, c):
        """``dh2_dz2`` on the same structured grid as :meth:`h2_grid`."""
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
        while the cache has room.

        Only the grid evaluators use it; the pointwise kernels stay
        uncached, as they are the tests' oracle."""
        return self._exp_cache(float(t))

    # -- transfer functions --------------------------------------------------

    def tf1(self, s):
        """Linear transfer function ``C (sI - A)^{-1} B``.

        `s` may be a complex scalar or array; result shape is
        ``s.shape + (p, m)``.
        """
        return _pointwise(lambda z: self.C @ self._resolvent(z, self.A, self.B),
                          (s,), (self.p, self.m), dtype=complex)

    def tf2(self, s1, s2):
        """Two-variable transfer function of the quadratic output term,
        ``B' (s1 I - A')^{-1} M_q (s2 I - A)^{-1} B``.

        Channels and broadcasting as in :meth:`h2`.
        """
        def at(a, b):
            X = self._resolvent(b, self.A, self.B)
            return [self.B.T @ self._resolvent(a, self.A.T, M @ X) for M in self.Ms]

        return _pointwise(at, (s1, s2), (self.p, self.m, self.m), dtype=complex)

    def tf2_grid(self, s1s, s2s):
        """:meth:`tf2` on the full grid ``s1s x s2s``; shape
        ``(len(s1s), len(s2s), p, m, m)``.

        One resolvent ``X(s) = (sI - A)^{-1} B`` is solved per distinct
        node of both sets; as ``B' (s1 I - A')^{-1} = X(s1)'`` (a plain
        transpose), each channel is then the product ``X(s1)' M_q X(s2)``
        over the whole grid."""
        s1s = np.asarray(s1s, dtype=complex)
        s2s = np.asarray(s2s, dtype=complex)
        n, m, a, b = self.n, self.m, s1s.size, s2s.size
        nodes, inv = np.unique(np.concatenate([s1s, s2s]), return_inverse=True)
        # (nodes, n, m)
        X = np.stack([self._resolvent(z, self.A, self.B) for z in nodes])
        L = X[inv[:a]].transpose(0, 2, 1).reshape(a * m, n)
        R = X[inv[a:]].transpose(1, 0, 2).reshape(n, b * m)
        out = np.stack([L @ (M @ R) for M in self.Ms])          # (q, a m, b m)
        out = out.reshape(self.p, a, m, b, m).transpose(1, 3, 0, 2, 4)
        return np.ascontiguousarray(out)

    def _resolvent(self, s, A, rhs):
        """``(sI - A)^{-1} rhs``, with `A` the state matrix or its
        transpose."""
        try:
            return np.linalg.solve(s * np.eye(self.n) - A, rhs)
        except np.linalg.LinAlgError as exc:
            raise FrequencyCollisionError(
                f"resolvent singular at s = {s}"
            ) from exc

    # -- simulation -----------------------------------------------------------

    def simulate(self, u, times, x0=None):
        """Integrate the state equation with the classical fixed-step
        Runge-Kutta scheme of order four and evaluate both output terms.

        Parameters
        ----------
        u
            Input signal, a callable ``t -> array of shape (m,)`` (a scalar
            return value is accepted for single-input systems).
        times
            Strictly increasing sample grid; one RK4 step is taken per
            interval.
        x0
            Initial state, default zero.

        Returns
        -------
        :class:`Trajectory`
        """
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("need a 1-d grid with at least two points")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("time grid must be strictly increasing")
        if x0 is None:
            x0 = np.zeros(self.n)
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        if x0.size != self.n:
            raise ValueError(f"x0 must have length {self.n}")

        def force(t):
            val = np.atleast_1d(np.asarray(u(t), dtype=float)).reshape(-1)
            if val.size != self.m:
                raise ValueError(f"input signal must return {self.m} values")
            return self.B @ val

        A = self.A
        X = np.empty((times.size, self.n))
        X[0] = x0
        x = x0.copy()
        f_lo = force(times[0])
        for i in range(times.size - 1):
            h = times[i + 1] - times[i]
            f_mid = force(times[i] + 0.5 * h)
            f_hi = force(times[i + 1])
            k1 = A @ x + f_lo
            k2 = A @ (x + 0.5 * h * k1) + f_mid
            k3 = A @ (x + 0.5 * h * k2) + f_mid
            k4 = A @ (x + h * k3) + f_hi
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            X[i + 1] = x
            f_lo = f_hi

        Y = X @ self.C.T
        for k, M in enumerate(self.Ms):
            Y[:, k] += np.einsum("ti,ij,tj->t", X, M, X)
        return Trajectory(times=times.copy(), states=X, outputs=Y)


class ReducedLqoSystem(LqoSystem):
    """Reduced-order system; identical structure plus a provenance tag.

    The tag records which reduction produced it: ``"intrusive-bt"``,
    ``"time-qbt"`` or ``"freq-qbt"``.
    """

    def __init__(self, A, B, C, Ms, provenance, check_stability=False):
        super().__init__(A, B, C, Ms, check_stability=check_stability)
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


def load_system(manifest_path, check_stability=False):
    """Read a system written by :func:`save_system`.

    The manifest is a plain-text file of ``key value`` lines: integer
    dimensions ``n``, ``m``, ``p`` and file entries ``A``, ``B``, ``C`` and
    one ``M`` line per output channel, with paths relative to the manifest.
    """
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

    sys = LqoSystem(
        read(paths["A"]),
        read(paths["B"]),
        read(paths["C"]),
        [read(f) for f in paths["M"]],
        check_stability=check_stability,
    )
    for key, expected in (("n", sys.n), ("m", sys.m), ("p", sys.p)):
        if key in dims and dims[key] != expected:
            raise ValueError(
                f"manifest says {key}={dims[key]} but matrices give {expected}"
            )
    return sys
