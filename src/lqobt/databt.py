"""Data-driven balanced truncation from kernel or transfer-function samples.

This module never touches state-space matrices. It consumes a *sampler*, an
object exposing kernel evaluations (time domain) or transfer-function
evaluations (frequency domain), and assembles weighted sample matrices that
coincide exactly with the products of implicit square-root quadrature factors
of the system Gramians:

========  =====================  ===========================================
matrix    factor product         sample content
========  =====================  ===========================================
``H``     ``L' U``               kernel values
``M``     ``L' A U``             kernel derivative values
``h``     ``L' B``               kernel values at single nodes
``g``     ``C U``                kernel values at single nodes
``K_q``   ``U' M_q U``           quadratic kernel values on the node grid
========  =====================  ===========================================

Reduction then runs entirely on these matrices: truncate the SVD of ``H`` and
project, which reproduces intrusive balanced truncation of the quadrature
Gramians without ever forming the factors. Intrusive balanced truncation
(:func:`~lqobt.gramians.intrusive_bt`) is the same reduction,
:func:`reduce_from_matrices`, run on the exact factor products.

Row-block convention for the quadratic part: within each output channel the
row block of the pair ``(k, j)`` sits at block index ``k * N_q + j`` (the
controllability-side node is the outer index), and channels are stacked
outermost. Any orthogonal transform of the rows of ``[H | M | h]``, a
fixed row permutation for one, yields an equivalent reduced model, and
so does a compression onto any orthonormal basis whose range holds that
of ``H``. Every data input (time sampler, time dataset, frequency
dataset) gives one reducer, :func:`_compressed_matrices`, one function
``quad(shifted, ku, ju)``: its weighted quadratic rows of ``H`` (``M``
if `shifted`) at sample units `ku`, `ju`, a node in time and a
conjugate node pair in frequency. The reducer takes the bases of the
rows' two modes from probe fibres (:func:`_mode_bases`) and reads the
compressed rows off a cross at their Q-DEIM rows. So a sampler gives
O(N^2) quadratic samples, not all O(N^3) (:func:`lqo_qbt_streamed`), a
time dataset is sliced at the same places (:func:`lqo_qbt`), and the
real Loewner rows are evaluated only at the node pairs read
(:func:`_freq_compressed`). No route holds the quadratic rows whole.

Frequency-domain data is always closed under conjugation, which gives
complex matrices that a fixed unitary pairing of each ``(+w, -w)`` node
pair makes real. The real matrices are assembled directly, from the
divided differences at the positive node of each outer pair, and the
samples' conjugate symmetry that this relies on is checked first.
:func:`build_data_matrices` (with :func:`build_freq_matrices` for
frequency data) assembles the matrices whole, as the oracle the
compressed routes are tested against.
"""

import json
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import qr

from .errors import FrequencyCollisionError
from .model import ReducedLqoSystem
from .numcore import svd
from .quadrature import QuadratureRule

__all__ = [
    "KernelDataset",
    "DataMatrices",
    "collect_time_data",
    "collect_freq_data",
    "build_freq_matrices",
    "build_data_matrices",
    "lqo_qbt",
    "lqo_qbt_auto",
    "lqo_qbt_streamed",
    "reduce_from_matrices",
    "save_dataset",
    "load_dataset",
]

RANK_TOL = 1e-13
TIE_TOL = 1e-12
# probe fibres per mode of the quadratic samples (on random systems four left
# held-out residuals up to 9e-11, eight 2e-12), and the residual that raises
PROBES = 8
MODE_TOL = 1e-10
# bound on the complex quadratic Loewner rows at one controllability node;
# the frequency route's probe stage holds about 34 times those rows, so a
# collection whose rows at one node exceed it is refused
FREQ_BLOCK_BYTES = 2**24
_PACKAGE = os.path.dirname(__file__) + os.sep


# ---------------------------------------------------------------------------
# dataset containers
# ---------------------------------------------------------------------------


_TIME_FIELDS = ("h1_sum", "dh1_sum", "h1_in", "h1_out",
                "h2_sum", "dh2_sum", "h2_in", "h2_quad")
_FREQ_FIELDS = ("tf1_in", "tf1_out", "tf2_cross", "tf2_quad")


@dataclass
class KernelDataset:
    """Two quadrature rules and the samples taken at them.

    The rest is derived. ``p_nodes``/``q_nodes`` and ``p_sqrt_weights``/
    ``q_sqrt_weights`` are the effective nodes and square-root weights on
    the controllability ("P") and observability ("Q") side: the rules'
    own arrays in the time domain, and in the frequency domain, which is
    always conjugate closed, the signed, interleaved nodes ``(+w_1, -w_1,
    +w_2, ...)`` with weights scaled by ``1/(2 pi)``. The channel counts
    ``p`` and ``m`` come from ``h1_in`` (``tf1_in``).

    Time-domain sample arrays (``N_p = len(p_nodes)``, ``N_q = len(q_nodes)``):

    ==============  =======================  ================================
    field           shape                    entry
    ==============  =======================  ================================
    ``h1_sum``      (N_q, N_p, p, m)         ``h1(tau_j + t_i)``
    ``dh1_sum``     (N_q, N_p, p, m)         ``dh1(tau_j + t_i)``
    ``h1_in``       (N_q, p, m)              ``h1(tau_j)``
    ``h1_out``      (N_p, p, m)              ``h1(t_i)``
    ``h2_sum``      (p, N_p, N_q, N_p, m, m) ``h2_q(t_k, tau_j + t_i)``
    ``dh2_sum``     (p, N_p, N_q, N_p, m, m) ``dh2_q(t_k, tau_j + t_i)``
    ``h2_in``       (p, N_p, N_q, m, m)      ``h2_q(t_k, tau_j)``
    ``h2_quad``     (p, N_p, N_p, m, m)      ``h2_q(t_i, t_k)``
    ==============  =======================  ================================

    Frequency-domain sample arrays (nodes enter as ``i * node``):

    ==============  =======================  ================================
    ``tf1_in``      (N_q, p, m)              ``H1(i s_k)``
    ``tf1_out``     (N_p, p, m)              ``H1(i th_l)``
    ``tf2_cross``   (p, N_p, N_q, m, m)      ``H2_q(-i th_k, i s_j)``
    ``tf2_quad``    (p, N_p, N_p, m, m)      ``H2_q(-i th_l, i th_k)``
    ==============  =======================  ================================
    """

    domain: str
    rule_p: QuadratureRule
    rule_q: QuadratureRule
    h1_sum: np.ndarray = None
    dh1_sum: np.ndarray = None
    h1_in: np.ndarray = None
    h1_out: np.ndarray = None
    h2_sum: np.ndarray = None
    dh2_sum: np.ndarray = None
    h2_in: np.ndarray = None
    h2_quad: np.ndarray = None
    tf1_in: np.ndarray = None
    tf1_out: np.ndarray = None
    tf2_cross: np.ndarray = None
    tf2_quad: np.ndarray = None
    p_nodes: np.ndarray = field(init=False, repr=False)
    p_sqrt_weights: np.ndarray = field(init=False, repr=False)
    q_nodes: np.ndarray = field(init=False, repr=False)
    q_sqrt_weights: np.ndarray = field(init=False, repr=False)
    Np: int = field(init=False)
    Nq: int = field(init=False)
    p: int = field(init=False)
    m: int = field(init=False)

    def __post_init__(self):
        if self.domain not in ("time", "freq"):
            raise ValueError(f"unknown domain {self.domain!r}")
        for side in ("rule_p", "rule_q"):
            if not isinstance(getattr(self, side), QuadratureRule):
                raise TypeError(f"{side} must be a QuadratureRule")
        nodes = (_closed_nodes if self.domain == "freq"
                 else lambda rule: (rule.nodes, rule.sqrt_weights))
        self.p_nodes, self.p_sqrt_weights = nodes(self.rule_p)
        self.q_nodes, self.q_sqrt_weights = nodes(self.rule_q)
        self.Np, self.Nq = self.p_nodes.size, self.q_nodes.size
        families = _TIME_FIELDS if self.domain == "time" else _FREQ_FIELDS
        for name in families:
            if getattr(self, name) is None:
                raise ValueError(f"{self.domain} dataset is missing {name}")
        first = "h1_in" if self.domain == "time" else "tf1_in"
        shape = getattr(self, first).shape
        if len(shape) != 3:
            raise ValueError(f"{first} has shape {shape}, expected (N_q, p, m)")
        self.p, self.m = shape[1:]
        Np, Nq, m, p = self.Np, self.Nq, self.m, self.p
        # the tables above; the single-node families match across domains
        single = ((Nq, p, m), (Np, p, m), (p, Np, Nq, m, m), (p, Np, Np, m, m))
        lin, quad = (Nq, Np, p, m), (p, Np, Nq, Np, m, m)
        shapes = (single if self.domain == "freq"
                  else (lin, lin, *single[:2], quad, quad, *single[2:]))
        for name, shape in zip(families, shapes):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} holds non-finite samples")


@dataclass
class DataMatrices:
    """The five matrices that reduction runs on.

    ``H``, ``M`` and ``h`` share their rows and stand for ``L'U``, ``L'AU``
    and ``L'B``; any rows will do whose inner products are those of the
    factor products, which the whole sample matrices, their compressed
    rows and the exact products all satisfy. ``H`` and ``M`` share their
    columns with ``g`` (``CU``, ``p`` rows) and with each square block of
    ``K`` (``U'M_qU``, one per output channel); ``h`` has ``m`` columns.
    """

    H: np.ndarray
    M: np.ndarray
    h: np.ndarray
    g: np.ndarray
    K: list
    domain: str = "time"

    def __post_init__(self):
        if self.H.shape != self.M.shape:
            raise ValueError("H and M must have identical shapes")
        if self.h.shape[0] != self.H.shape[0]:
            raise ValueError("h must match the rows of H")
        if self.g.shape[1] != self.H.shape[1]:
            raise ValueError("g must match the columns of H")
        for Kq in self.K:
            if Kq.shape != (self.H.shape[1],) * 2:
                raise ValueError("each K block must be square in the columns of H")


# ---------------------------------------------------------------------------
# collection
# ---------------------------------------------------------------------------


def collect_time_data(sampler, rule_p, rule_q):
    """Sample the kernels of `sampler` at all node combinations of two rules.

    The sampler must provide grid evaluations ``h1_grid(a, b)``,
    ``h2_grid(a, b, c)`` and their derivative counterparts
    ``dh1_grid``/``dh2_grid`` (see :class:`~lqobt.model.LqoSystem` for the
    exact conventions).

    Parameters
    ----------
    sampler
        Kernel oracle; only its evaluation methods are invoked.
    rule_p, rule_q
        Quadrature rules for the controllability and observability side.

    Returns
    -------
    :class:`KernelDataset` with ``domain="time"``.
    """
    t = rule_p.nodes
    tau = rule_q.nodes

    h1_sum = _grid(sampler, "h1_grid", (tau, t))
    p, m = h1_sum.shape[2:]
    h1_in, h2_in, h1_out, h2_quad = _io_samples(sampler, t, tau, p, m)
    h2_sum = np.moveaxis(_grid(sampler, "h2_grid", (t, tau, t), (p, m, m)), 3, 0)
    dh1_sum = _grid(sampler, "dh1_grid", (tau, t), (p, m))
    dh2_sum = np.moveaxis(_grid(sampler, "dh2_grid", (t, tau, t), (p, m, m)), 3, 0)

    return KernelDataset(
        domain="time", rule_p=rule_p, rule_q=rule_q,
        h1_sum=h1_sum, dh1_sum=dh1_sum, h1_in=h1_in, h1_out=h1_out,
        h2_sum=h2_sum, dh2_sum=dh2_sum, h2_in=h2_in, h2_quad=h2_quad,
    )


def _grid(sampler, method, nodes, tail=None):
    """``sampler.<method>(*nodes)`` as an array, checked to have one axis
    per node set followed by the channel axes `tail`. With no `tail`, as
    on the first grid call of a collection, any two channel axes pass:
    they fix the counts ``(p, m)`` that later calls are checked against."""
    out = np.asarray(getattr(sampler, method)(*nodes))
    lead = tuple(z.size for z in nodes)
    if tail is None:
        tail = ("p", "m")
        ok = out.ndim == len(lead) + 2 and out.shape[: len(lead)] == lead
    else:
        ok = out.shape == lead + tuple(tail)
    if not ok:
        expected = ", ".join(map(str, lead + tuple(tail)))
        raise ValueError(
            f"sampler.{method} returned shape {out.shape}, expected ({expected})"
        )
    return out


def _io_samples(sampler, t, tau, p, m):
    """The single-node samples ``h1_in``, ``h2_in``, ``h1_out`` and
    ``h2_quad`` in dataset layout, in the argument order of
    :func:`_io_blocks`."""
    zero = np.zeros(1)
    pm, pmm = (p, m), (p, m, m)
    return (
        _grid(sampler, "h1_grid", (tau, zero), pm)[:, 0],
        np.moveaxis(_grid(sampler, "h2_grid", (t, tau, zero), pmm)[:, :, 0], 2, 0),
        _grid(sampler, "h1_grid", (t, zero), pm)[:, 0],
        np.moveaxis(_grid(sampler, "h2_grid", (t, t, zero), pmm)[:, :, 0], 2, 0),
    )


def _closed_nodes(rule):
    """Interleaved signed nodes ``(+w1, -w1, +w2, ...)`` with square-root
    weights scaled for an integral over the whole real frequency axis
    against the measure ``dw / (2 pi)``."""
    nodes = np.stack([rule.nodes, -rule.nodes], axis=1).ravel()
    sw = np.repeat(rule.sqrt_weights / np.sqrt(2.0 * np.pi), 2)
    return nodes, sw


def collect_freq_data(sampler, rule_p, rule_q):
    """Sample transfer functions of `sampler` on the imaginary axis.

    The sampler must provide ``tf1(s)`` (vectorized over an array of complex
    points) and ``tf2_grid(s1s, s2s)`` returning all output channels; see
    :class:`~lqobt.model.LqoSystem`.

    The data is always closed under conjugation: each rule's nodes are
    mirrored to negative frequencies and the weights are scaled by
    ``1/(2 pi)`` (:func:`_closed_nodes`), so the implicit quadrature
    approximates the Gramians' spectral integrals over the whole axis and
    the sample matrices can be made real, as a real reduced model needs.

    Node sets of the two sides must not intersect (divided differences);
    collisions raise :class:`~lqobt.errors.FrequencyCollisionError`.

    Returns
    -------
    :class:`KernelDataset` with ``domain="freq"``.
    """
    scale = max(rule_p.nodes[-1], rule_q.nodes[-1])
    dist = np.abs(rule_p.nodes[:, None] - rule_q.nodes[None, :]).min()
    if dist <= 1e-12 * scale:
        raise FrequencyCollisionError(
            "controllability- and observability-side frequency nodes collide"
        )
    th, s = _closed_nodes(rule_p)[0], _closed_nodes(rule_q)[0]
    tf1_in = _grid(sampler, "tf1", (1j * s,))
    p, m = tf1_in.shape[1:]
    tf1_out = _grid(sampler, "tf1", (1j * th,), (p, m))
    tf2_cross, tf2_quad = (
        np.moveaxis(_grid(sampler, "tf2_grid", (-1j * th, 1j * z), (p, m, m)), 2, 0)
        for z in (s, th)
    )

    return KernelDataset(
        domain="freq", rule_p=rule_p, rule_q=rule_q,
        tf1_in=tf1_in, tf1_out=tf1_out,
        tf2_cross=tf2_cross, tf2_quad=tf2_quad,
    )


# ---------------------------------------------------------------------------
# whole-matrix assembly, the oracle of the compressed routes
# ---------------------------------------------------------------------------


def _require_domain(ds, domain):
    if ds.domain != domain:
        raise ValueError(
            f"expected a {domain}-domain dataset, got {ds.domain!r}"
        )


def _linear_block(samples, phi, rho):
    """(N_q, N_p, p, m) samples -> (N_q p, N_p m) weighted matrix."""
    Nq, Np, p, m = samples.shape
    w = phi[:, None, None, None] * rho[None, :, None, None]
    return (w * samples).transpose(0, 2, 1, 3).reshape(Nq * p, Np * m)


def _io_blocks(y1_in, y2_in, y1_out, y2_quad, phi, rho):
    """Input block ``h`` (= ``L' B``), output block ``g`` (= ``C U``) and
    quadratic blocks ``K_q`` (= ``U' M_q U``) from samples of either domain
    shaped like ``h1_in``, ``h2_in``, ``h1_out`` and ``h2_quad`` (or their
    ``tf`` counterparts) of :class:`KernelDataset`."""
    Nq, p, m = y1_in.shape
    Np = y1_out.shape[0]
    h_lin = (phi[:, None, None] * y1_in).reshape(Nq * p, m)
    w_in = phi[None, None, :, None, None] * rho[None, :, None, None, None]
    h_quad = (w_in * y2_in).reshape(p * Np * Nq * m, m)
    h = np.vstack([h_lin, h_quad])

    g = (rho[:, None, None] * y1_out).transpose(1, 0, 2).reshape(p, Np * m)

    w_k = rho[None, :, None, None, None] * rho[None, None, :, None, None]
    quad = w_k * y2_quad
    K = [quad[q].transpose(0, 2, 1, 3).reshape(Np * m, Np * m) for q in range(p)]
    return h, g, K


def build_data_matrices(ds):
    """Assemble :class:`DataMatrices` whole from a dataset of either domain.

    Time-domain samples are weighted and laid out as in the module
    docstring; frequency-domain datasets go to :func:`build_freq_matrices`,
    which realifies them. Single-input single-output data is the
    one-by-one block case of the general layout.
    The reducers never call this: they compress the quadratic rows instead
    (:func:`lqo_qbt`), and the tests hold them to these whole matrices.
    """
    if ds.domain == "freq":
        return build_freq_matrices(ds)
    rho, phi = ds.p_sqrt_weights, ds.q_sqrt_weights
    w = (rho[:, None, None] * phi[:, None] * rho)[None, ..., None, None]
    H, M = (
        np.vstack([
            _linear_block(linear, phi, rho),
            # (q, k, j, i, a, b) -> rows (q, k, j, a), columns (i, b)
            (w * quad).transpose(0, 1, 2, 4, 3, 5).reshape(-1, ds.Np * ds.m),
        ])
        for linear, quad in ((ds.h1_sum, ds.h2_sum), (ds.dh1_sum, ds.dh2_sum))
    )
    h, g, K = _io_blocks(ds.h1_in, ds.h2_in, ds.h1_out, ds.h2_quad, phi, rho)
    return DataMatrices(H=H, M=M, h=h, g=g, K=K, domain="time")


# ---------------------------------------------------------------------------
# frequency-domain assembly
# ---------------------------------------------------------------------------


def build_freq_matrices(ds):
    """Assemble all five matrices, whole, from transfer-function samples.

    Entries are divided differences of transfer-function values: the linear
    part is a Loewner matrix over the two node sets, its derivative companion
    the shifted Loewner matrix, and the quadratic rows repeat the pattern in
    the second argument of the two-variable transfer function with the first
    argument held at a (negated) controllability-side node.

    The matrices are the complex ones (:func:`_complex_freq_matrices`)
    transformed by a fixed unitary pairing of conjugate nodes, which makes
    them real; this requires samples that are conjugate symmetric. The
    real matrices are built directly: as ``X(-w) = conj X(w)`` on every
    paired axis, the two rows (or columns) of each outer pair are
    ``sqrt(2)`` times the real and imaginary parts of the entries at its
    positive node, so the divided differences are evaluated only there.

    This is the full-matrix oracle: the reduction itself (:func:`lqo_qbt`,
    :func:`lqo_qbt_auto`) never forms the quadratic rows whole but
    assembles them compressed onto their mode bases.

    Returns
    -------
    :class:`DataMatrices` with ``domain="freq"``.
    """
    _require_domain(ds, "freq")
    Np, Nq, m, p = ds.Np, ds.Nq, ds.m, ds.p
    nl, nc = Nq * p, Np * m
    _check_conjugate_symmetry(ds)
    h, g, K = _real_io_blocks(ds)
    H = np.empty((h.shape[0], nc))
    M = np.empty_like(H)
    for out, shifted in ((H, False), (M, True)):
        _real_linear_rows(ds, shifted, out=out[:nl])
        _real_quadratic(ds, np.arange(Np // 2), np.arange(Nq // 2), shifted,
                        out=out[nl:])
    return DataMatrices(H=H, M=M, h=h, g=g, K=K, domain="freq")


def _complex_freq_matrices(ds):
    """The complex data matrices of a frequency dataset, whole, before the
    pairing that makes them real: the tests' oracle, which no route calls."""
    _require_domain(ds, "freq")
    Np, Nq, m, p = ds.Np, ds.Nq, ds.m, ds.p
    nl, nc = Nq * p, Np * m
    h, g, K = _io_blocks(ds.tf1_in, ds.tf2_cross, ds.tf1_out, ds.tf2_quad,
                         ds.q_sqrt_weights, ds.p_sqrt_weights)
    H, M = (
        np.vstack([
            _linear_rows(ds, slice(None), d).reshape(nl, nc),
            _quadratic_rows(ds, np.arange(Np), np.arange(Nq), d)
            .transpose(0, 1, 2, 4, 3, 5).reshape(-1, nc),
        ])
        for d in (False, True)
    )
    return DataMatrices(H=H, M=M, h=h, g=g, K=K, domain="freq")


def _linear_rows(ds, o, shifted):
    """Linear Loewner rows at the observability nodes `o` (a slice), laid
    out (j, p, l, m)."""
    phi, rho = ds.q_sqrt_weights, ds.p_sqrt_weights
    return _loewner(
        ds.tf1_in[o, None], ds.tf1_out[None], ds.q_nodes[o], ds.p_nodes,
        phi[o, None] * rho, shifted,
    ).transpose(0, 2, 1, 3)


def _quadratic_rows(ds, k, j, shifted):
    """Quadratic Loewner rows at the controllability nodes `k` and the
    observability nodes `j` (index arrays), laid out (p, k, j, l, m, m)."""
    rho, phi = ds.p_sqrt_weights, ds.q_sqrt_weights
    rk = rho[k, None, None, None, None]
    return _loewner(
        rk * ds.tf2_cross[:, k][:, :, j, None], rk * ds.tf2_quad[:, k, None],
        ds.q_nodes[j], ds.p_nodes, phi[j, None] * rho, shifted,
    )


def _real_linear_rows(ds, shifted, out=None):
    """Real linear rows of a frequency dataset, ``(N_q p, N_p m)``."""
    Np, Nq, m, p = ds.Np, ds.Nq, ds.m, ds.p
    Y = _linear_rows(ds, slice(None, None, 2), shifted)
    return _real_pairs(Y.reshape(Nq // 2, p, Np // 2, 2, m), 0, cols=(3,),
                       out=out).reshape(Nq * p, Np * m)


def _real_quadratic(ds, kp, jp, shifted, out=None):
    """Real quadratic rows of a frequency dataset at the pairs `kp`
    of controllability nodes and `jp` of observability nodes (pair index
    arrays): both rows of every pair, laid out (p, k, 2, j, 2, m, N_p m)
    with the pair slots after the pair indices. Only the positive node of
    each pair in `kp` is evaluated."""
    members = (2 * jp[:, None] + np.arange(2)).ravel()
    L = _quadratic_rows(ds, 2 * kp, members, shifted)
    p, nk, _, Np, m = L.shape[:5]
    Y = L.transpose(0, 1, 2, 4, 3, 5).reshape(p, nk, jp.size, 2, m, Np // 2, 2, m)
    R = _real_pairs(Y, 1, rows=(3,), cols=(6,), out=out)
    return R.reshape(p, nk, 2, jp.size, 2, m, Np * m)


def _real_io_blocks(ds):
    """Real ``h``, ``g`` and ``K`` of a frequency dataset."""
    Np, Nq, m, p = ds.Np, ds.Nq, ds.m, ds.p
    Np2, Nq2, nl, nc = Np // 2, Nq // 2, Nq * p, Np * m
    h, g, K = _io_blocks(ds.tf1_in, ds.tf2_cross, ds.tf1_out, ds.tf2_quad,
                         ds.q_sqrt_weights, ds.p_sqrt_weights)
    h = np.vstack([
        _real_pairs(h[:nl].reshape(Nq2, 2, p, m)[:, 0], 0).reshape(nl, m),
        _real_pairs(h[nl:].reshape(p, Np2, 2, Nq2, 2, m, m)[:, :, 0], 1,
                    rows=(3,)).reshape(-1, m),
    ])
    g = _real_pairs(g.reshape(p, Np2, 2, m)[:, :, 0], 1, sign=-1.0)
    K = [
        _real_pairs(Kq.reshape(Np2, 2, m, Np2, 2, m)[:, 0], 0, cols=(3,))
        .reshape(nc, nc)
        for Kq in K
    ]
    return h, g.reshape(p, nc), K


def _loewner(a, b, s, th, w, shifted):
    """Loewner entries ``w (a - b) / (i th - i s)``, or with `shifted` the
    shifted Loewner entries ``w (i s a - i th b) / (i th - i s)``, of
    samples `a` at the row nodes ``i s`` against samples `b` at the column
    nodes ``i th``.

    `a` is shaped ``(..., len(s), 1, x, y)`` and `b`
    ``(..., 1, len(th), x, y)``; `w` holds the ``(len(s), len(th))`` row
    times column weights."""
    if shifted:
        a = (1j * s)[:, None, None, None] * a
        b = (1j * th)[:, None, None] * b
    L = a - b
    L *= (w / (1j * th[None, :] - 1j * s[:, None]))[..., None, None]
    return L


def _check_conjugate_symmetry(ds):
    """Reject samples that realification would silently corrupt: in each
    family, flipping the sign of every paired node must conjugate the
    sample, to within ``1e-8`` of the family's largest magnitude."""
    for name, axes in (("tf1_in", (0,)), ("tf1_out", (0,)),
                       ("tf2_cross", (1, 2)), ("tf2_quad", (1, 2))):
        X = getattr(ds, name)
        mirror = X
        for ax in axes:
            mirror = np.take(mirror, np.arange(X.shape[ax]) ^ 1, axis=ax)
        dev = np.abs(mirror - X.conj()).max()
        if dev > 1e-8 * np.abs(X).max():
            raise ValueError(
                f"{name} is not conjugate symmetric (deviation {dev:.3e}); "
                "the dataset cannot be realified"
            )


_SQRT2 = np.sqrt(2.0)


def _pair(X, axis, sign):
    """Apply a conjugate-pair unitary in place to a length-2 axis of `X`:
    from the left ``[[1, 1], [-i, i]] / sqrt(2)`` with `sign` +1, from the
    right ``[[1, i], [1, -i]] / sqrt(2)`` with `sign` -1."""
    X0, X1 = np.moveaxis(X, axis, 0)
    total = X0 + X1
    X1 -= X0
    X1 *= sign * 1j / _SQRT2
    np.divide(total, _SQRT2, out=X0)
    return X


def _real_pairs(Y, outer, rows=(), cols=(), sign=1.0, out=None):
    """Real form of a conjugate-symmetric block from the positive half of
    its outer pair axis.

    `Y` holds the entries whose node on axis `outer` is positive; every
    other paired axis is complete and split as ``(N/2, 2)``. The pair
    unitary is applied in place on axes `rows` (from the left) and `cols`
    (from the right). As flipping all node signs conjugates the block, the
    two slots of each outer pair are then ``sqrt(2) Re`` and
    ``sign sqrt(2) Im`` (`sign` is +1 for a row pair, -1 for a column
    pair). The slots form a new axis after `outer`; the result is written
    into `out` when given (reshaped to that layout)."""
    for ax in rows:
        Y = _pair(Y, ax, 1.0)
    for ax in cols:
        Y = _pair(Y, ax, -1.0)
    shape = Y.shape[:outer + 1] + (2,) + Y.shape[outer + 1:]
    R = np.empty(shape) if out is None else out.reshape(shape)
    lead = (slice(None),) * (outer + 1)
    np.multiply(Y.real, _SQRT2, out=R[lead + (0,)])
    np.multiply(Y.imag, sign * _SQRT2, out=R[lead + (1,)])
    return R


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def _truncation_guard(S, r, max_r):
    if S.size == 0 or S[0] == 0.0:
        raise ValueError("H, the product L'U of the Gramian factors or its "
                         "quadrature, is identically zero")
    rank = int(np.count_nonzero(S > RANK_TOL * S[0]))
    limit = min(rank, max_r)
    if not 1 <= r <= limit:
        raise ValueError(f"order {r} outside [1, {limit}] (resolvable rank)")
    if r < S.size and S[r - 1] - S[r] <= TIE_TOL * S[0]:
        warnings.warn(
            f"truncation at r={r} splits a near-tied singular value pair; "
            "the reduced model is not unique",
            stacklevel=_outside_stacklevel(),
        )


def _outside_stacklevel():
    """The ``warnings.warn`` stacklevel, counted from the caller of this
    function, that names the first frame outside the package: the user's
    line, whichever public route led here."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_PACKAGE):
        frame, level = frame.f_back, level + 1
    return level


def reduce_from_matrices(dm, r, factors=None):
    """Truncate the SVD of ``dm.H`` at order `r` and project the remaining
    matrices into the balanced coordinates.

    The reduced model is
    ``A_r = S^{-1/2} Z' M Y S^{-1/2}``, ``B_r = S^{-1/2} Z' h``,
    ``C_r = g Y S^{-1/2}``, ``M_rq = S^{-1/2} Y' K_q Y S^{-1/2}``
    with ``(Z, S, Y)`` the rank-`r` truncated SVD of ``H``. A precomputed
    decomposition of ``dm.H`` can be passed as `factors` so that sweeps
    over several orders decompose only once. The model's provenance is
    ``"<domain>-qbt"``.
    """
    if np.iscomplexobj(dm.H):
        raise ValueError("complex data matrices cannot produce a real reduced "
                         "model; realify them as build_freq_matrices does")
    res = svd(dm.H) if factors is None else factors
    _truncation_guard(res.S, r, dm.H.shape[1])
    scale = 1.0 / np.sqrt(res.S[:r])
    Z1 = res.Z[:, :r] * scale
    Y1 = res.Y[:, :r] * scale
    A_r = Z1.T @ dm.M @ Y1
    B_r = Z1.T @ dm.h
    C_r = dm.g @ Y1
    Ms_r = [Y1.T @ Kq @ Y1 for Kq in dm.K]
    return ReducedLqoSystem(A_r, B_r, C_r, Ms_r, provenance=f"{dm.domain}-qbt")


def _reduce_orders(dm, orders):
    """Singular values of ``dm.H`` and one reduced model per entry of
    `orders`, all from a single decomposition."""
    res = svd(dm.H)
    return res.S, [reduce_from_matrices(dm, r, factors=res) for r in orders]


def lqo_qbt(ds, r):
    """Quadrature-based balanced truncation from a kernel dataset.

    Reduces the five data matrices to order `r`; see
    :func:`reduce_from_matrices`. Time-domain datasets give provenance
    ``"time-qbt"`` and run the driver of :func:`lqo_qbt_streamed` on
    slices of their arrays. Frequency-domain ones give ``"freq-qbt"``
    through their real matrices (:func:`_freq_compressed`). Neither
    assembles the quadratic rows whole; both give the model of
    :func:`build_data_matrices`.

    Parameters
    ----------
    ds
        :class:`KernelDataset`.
    r
        Reduced order, within the numerical rank of the sample matrix.

    Returns
    -------
    :class:`~lqobt.model.ReducedLqoSystem`
    """
    if ds.domain == "freq":
        return reduce_from_matrices(_freq_compressed(ds), r)

    def read(shifted, ku, ju):
        # one slice of (q, k, j, i, a, b), moved to the sampler's layout
        samples = ds.dh2_sum if shifted else ds.h2_sum
        return np.moveaxis(samples[:, ku[:, None], ju], 0, 3)

    dm = _time_compressed(read, ds.p_sqrt_weights, ds.q_sqrt_weights,
                          ds.h1_sum, ds.dh1_sum,
                          (ds.h1_in, ds.h2_in, ds.h1_out, ds.h2_quad))
    return reduce_from_matrices(dm, r)


def lqo_qbt_auto(sampler, rule_p, rule_q, orders, domain="time"):
    """QBT from a sampler in either `domain` (``"time"`` or ``"freq"``).

    The time domain runs :func:`lqo_qbt_streamed` at every node count,
    which takes the channel counts from the first grid it samples.
    Frequency data is conjugate closed and reduced through
    :func:`_freq_compressed`. A collection whose complex quadratic
    Loewner rows at a single controllability node exceed
    ``FREQ_BLOCK_BYTES`` is refused before sampling, as the route's probe
    stage holds many times those rows; only that check reads the
    sampler's ``m`` and ``p`` attributes.

    Returns
    -------
    tuple ``(singular_values, roms)`` with one reduced model per entry of
    `orders`.
    """
    if domain == "time":
        return lqo_qbt_streamed(sampler, rule_p, rule_q, orders)
    if domain != "freq":
        raise ValueError(f"unknown domain {domain!r}")
    # closure doubles both node sets
    _freq_size_guard(sampler.p, sampler.m, 2 * len(rule_p), 2 * len(rule_q))
    ds = collect_freq_data(sampler, rule_p, rule_q)
    return _reduce_orders(_freq_compressed(ds), orders)


def _freq_size_guard(p, m, Np, Nq):
    """Raise if the complex quadratic Loewner rows at one controllability
    node exceed ``FREQ_BLOCK_BYTES``."""
    per_node = 16 * p * m * m * Np * Nq
    if per_node > FREQ_BLOCK_BYTES:
        raise ValueError(
            f"frequency-domain reduction needs {per_node / 2**20:.0f} MiB of "
            "Loewner rows per node, more than its "
            f"{FREQ_BLOCK_BYTES / 2**20:.0f} MiB bound; lower --np/--nq, or "
            "reduce in the time domain (reduce --method qbt-time; hsv and "
            "h2-sweep --domain time), which has no such bound"
        )


def _freq_compressed(ds):
    """Real data matrices of a frequency dataset with the quadratic rows
    compressed onto ``I_p (x) V_k (x) V_j`` (:func:`_compressed_matrices`,
    a conjugate node pair as the unit).

    The real quadratic Loewner rows are evaluated only at the pairs read,
    at the positive node of each controllability pair. The linear rows,
    ``h``, ``g`` and ``K`` are built as in :func:`build_freq_matrices`. A
    dataset whose complex quadratic rows at one node exceed
    ``FREQ_BLOCK_BYTES`` is refused, as the probes hold about 34 times
    those rows.
    """
    _require_domain(ds, "freq")
    Np, Nq, m, p = ds.Np, ds.Nq, ds.m, ds.p
    _freq_size_guard(p, m, Np, Nq)
    _check_conjugate_symmetry(ds)

    def quad(shifted, ku, ju):
        # (q, k pair, slot, j pair, slot, a, column)
        #   -> (k pair, (slot, a), j pair, slot, q, column)
        R = _real_quadratic(ds, ku, ju, shifted).transpose(1, 2, 5, 3, 4, 0, 6)
        return R.reshape(ku.size, 2 * m, ju.size, 2, p, Np * m)

    return _compressed_matrices(
        quad, (Np // 2, Nq // 2), lambda shifted: _real_linear_rows(ds, shifted),
        lambda: _real_io_blocks(ds), "freq")


def _compressed_matrices(quad, units, linear, io, domain):
    """Data matrices with the quadratic rows compressed onto
    ``I_p (x) V_k (x) V_j``, read off a cross: the reducer of every input.

    ``quad(shifted, ku, ju)`` gives the weighted quadratic rows of ``H``
    (``M`` if `shifted`) at index arrays of sample units, ``units =
    (n_k, n_j)`` a side, laid out ``(ku.size, w_k, ju.size, w_j, p,
    columns)``. A unit is a node on the time route (``w_k = m``: rows
    ``(k, a)``; ``w_j = 1``), a conjugate node pair on the frequency route
    (``w_k = 2m``: rows ``(k pair, slot, a)``; ``w_j = 2``).
    ``linear(shifted)`` gives the linear rows, and ``io()`` gives ``h``,
    ``g`` and ``K``, called past the probe stage, which sets the peak. The
    bases and their rows ``I_k``, ``I_j`` come from :func:`_mode_bases`,
    and the cross is read at the units holding those rows. As the samples
    lie in the range of ``V_k (x) V_j``, their core ``(V_k' (x) V_j') X``
    equals ``(V_k[I_k]^{-1} (x) V_j[I_j]^{-1}) X[I_k, I_j]``; it becomes
    the rows ``(q, r_k, r_j)``. ``M``'s core, read the same way, equals its
    projection only when the columns ``U`` span an ``A``-invariant subspace
    (say ``N_p m >= n``, ``U`` of full rank); otherwise it was measured
    1.3e-7 off (:func:`lqo_qbt_streamed`). The quadratic rows of ``h``,
    given whole, are projected onto the bases."""
    n_k, n_j = units
    (Vk, Ik), (Vj, Ij) = _mode_bases(quad, n_k, n_j)
    h, g, K = io()
    wk, wj = Vk.shape[0] // n_k, Vj.shape[0] // n_j
    ku, k_rows = _units(Ik, wk)
    ju, j_rows = _units(Ij, wj)
    Gk, Gj = np.linalg.inv(Vk[Ik]), np.linalg.inv(Vj[Ij])
    p, m = len(K), h.shape[1]

    def rows(shifted):
        X = quad(shifted, ku, ju).reshape(ku.size * wk, ju.size * wj, p, -1)
        X = X[k_rows[:, None], j_rows]  # (r_k, r_j, q, column)
        Y = (Gk @ X.reshape(Ik.size, -1)).reshape(Ik.size, Ij.size, -1)
        core = np.matmul(Gj, Y).reshape(X.shape).transpose(2, 0, 1, 3)
        return np.vstack([linear(shifted), core.reshape(-1, X.shape[-1])])

    nl = h.shape[0] - p * Vk.shape[0] * Vj.shape[0]
    quad_h = h[nl:].reshape(p, -1, Vj.shape[0], m, m)  # (q, k, j, a, b)
    quad_h = np.einsum("kar,js,qkjab->qrsb", Vk.reshape(-1, m, Ik.size), Vj,
                       quad_h, optimize=True)
    h = np.vstack([h[:nl], quad_h.reshape(-1, m)])
    return DataMatrices(H=rows(False), M=rows(True), h=h, g=g, K=K,
                        domain=domain)


def _units(I, w):
    """The sample units, of `w` rows of a mode each, that hold the rows
    `I` of that mode, and where those rows sit among the units' rows."""
    units, at = np.unique(I // w, return_inverse=True)
    return units, w * at + I % w


def lqo_qbt_streamed(sampler, rule_p, rule_q, orders):
    """Time-domain QBT from O(N^2) quadratic kernel samples.

    The weighted quadratic samples ``rho_k phi_j rho_i h2_q(t_k, tau_j +
    t_i)[a, b]`` have rank at most ``n`` in their ``(k, a)`` mode and in
    their ``j`` mode. Orthonormal bases ``V_k``, ``V_j`` of these modes
    (:func:`_mode_bases`) compress the rows by ``I_p (x) V_k (x) V_j``,
    whose range holds that of ``H``, which leaves the reduced model
    unchanged: it sees the rows of ``[H | M | h]`` only through inner
    products. The quadratic rows shrink from ``p N_p N_q m`` to
    ``p r_k r_j``.

    The compressed rows are read off a cross of the samples, not
    contracted from all ``N_p^2 N_q`` of them: the core equals
    ``(V_k[I_k]^{-1} (x) V_j[I_j]^{-1}) X[I_k, I_j, :]`` at Q-DEIM rows
    ``I_k``, ``I_j`` of the bases (:func:`_compressed_matrices`). So
    beyond the probe fibres the sampler is asked for one
    ``h2_grid(t[K], tau[I_j], t)`` and one ``dh2_grid`` call, with ``K``
    the nodes of the rows ``I_k``. The derivative samples get no basis of
    their own: they lie in the same mode ranges only when the columns
    ``U`` span an ``A``-invariant subspace, say when ``N_p m >= n`` and
    ``U`` has full rank. Otherwise ``M``'s compressed rows leave their
    projection, by 1.3e-7 of their norm on one measured system (n=5,
    ``N_p m = 2``), unchecked, as a check needs ``dh2_grid`` probes. The
    held-out probe fibres must match the interpolant as they match the
    bases, or this raises. :func:`lqo_qbt` runs the same driver on a time
    dataset's arrays.

    Parameters
    ----------
    sampler
        Kernel oracle with grid evaluation methods (time domain).
    rule_p, rule_q
        Quadrature rules.
    orders
        Iterable of reduction orders; models are produced for all of them
        from one pass over the data.

    Returns
    -------
    tuple ``(singular_values, roms)`` with the singular values of ``H``
    and one reduced model per entry of `orders`.
    """
    t, tau = rule_p.nodes, rule_q.nodes
    h1_sum = _grid(sampler, "h1_grid", (tau, t))
    p, m = h1_sum.shape[2:]
    dh1_sum = _grid(sampler, "dh1_grid", (tau, t), (p, m))
    h1_in, h2_in, h1_out, h2_quad = io = _io_samples(sampler, t, tau, p, m)
    _require_finite("h1_grid", h1_sum, h1_in, h1_out)
    _require_finite("dh1_grid", dh1_sum)
    _require_finite("h2_grid", h2_in, h2_quad)

    def read(shifted, ku, ju):
        method = "dh2_grid" if shifted else "h2_grid"
        vals = _grid(sampler, method, (t[ku], tau[ju], t), (p, m, m))
        _require_finite(method, vals)
        return vals

    dm = _time_compressed(read, rule_p.sqrt_weights, rule_q.sqrt_weights,
                          h1_sum, dh1_sum, io)
    return _reduce_orders(dm, orders)


def _require_finite(method, *arrays):
    if not all(np.isfinite(arr).all() for arr in arrays):
        raise ValueError(f"sampler.{method} returned NaN or inf")


def _time_compressed(read, rho, phi, h1_sum, dh1_sum, io):
    """Data matrices of time-domain samples with the quadratic rows
    compressed onto ``I_p (x) V_k (x) V_j`` (:func:`_compressed_matrices`,
    with a node as the sample unit): the source of both time inputs.

    ``read(shifted, ku, ju)`` returns the ``h2_grid`` samples, or with
    `shifted` the ``dh2_grid`` ones, at ``(t[ku], tau[ju], t)`` (index
    arrays) in the sampler's layout ``(k, j, i, q, a, b)``. The
    square-root weights, the linear samples and the single-node samples
    `io` (``h1_in``, ``h2_in``, ``h1_out``, ``h2_quad``) are in dataset
    layout."""
    p, m = h1_sum.shape[2:]

    def quad(shifted, ku, ju):
        w = (rho[ku, None] * phi[ju])[:, :, None] * rho
        X = read(shifted, ku, ju) * w[..., None, None, None]
        # (k, j, i, q, a, b) -> (k, a, j, 1, q, (i, b))
        return X.transpose(0, 4, 1, 3, 2, 5).reshape(ku.size, m, ju.size, 1, p, -1)

    return _compressed_matrices(
        quad, (rho.size, phi.size),
        lambda shifted: _linear_block(dh1_sum if shifted else h1_sum, phi, rho),
        lambda: _io_blocks(*io, phi, rho), "time")


def _mode_bases(quad, n_k, n_j):
    """Orthonormal bases ``V_k`` and ``V_j`` of the two modes of the
    quadratic rows ``quad`` of :func:`_compressed_matrices`, each with its
    interpolation rows ``I`` (:func:`_interpolation_rows`), as pairs
    ``(V, I)``. A basis's rows are the mode's rows ``(unit, w)``.

    Each basis holds the left singular vectors above ``RANK_TOL`` of the
    mode's probe fibres: the rows of ``H`` at every unit of the mode and
    at ``PROBES`` evenly spread units of the other, unfolded to the mode's
    rows. This range finder needs no Gram matrix. The fibres midway
    between the probes must lie in the basis, and match their interpolant
    ``V V[I]^{-1} F[I]``, to within ``MODE_TOL`` of their norm, or this
    raises: the samples are not of low rank in that mode, or the rows
    ``I`` are ill-conditioned."""
    def unfolding(mode, idx):
        if mode == "k":
            X = quad(False, np.arange(n_k), idx)
        else:
            X = np.moveaxis(quad(False, idx, np.arange(n_j)), (2, 3), (0, 1))
        return X.reshape(X.shape[0] * X.shape[1], -1)

    bases = []
    for mode, n in (("k", n_j), ("j", n_k)):
        probes = np.unique(np.linspace(0, n - 1, PROBES).round().astype(int))
        held = np.setdiff1d((probes[:-1] + probes[1:]) // 2, probes)
        # the transpose is tall, so its SVD runs on a small triangle
        res = svd(unfolding(mode, probes).T, left=False)
        # an identically zero mode keeps one direction, which reads zeros
        V = res.Y[:, :max(1, np.count_nonzero(res.S > RANK_TOL * res.S[0]))]
        F = unfolding(mode, held) if held.size else V[:, :0]
        _check_held_out(F, V @ (V.T @ F), f"outside the {mode}-mode basis of "
                        "the probes; the samples are not of low rank")
        rows = _interpolation_rows(V)
        _check_held_out(
            F, V @ np.linalg.solve(V[rows], F[rows]),
            f"off their interpolant on {rows.size} rows of the {mode}-mode "
            f"basis (condition number {np.linalg.cond(V[rows]):.2e}); the "
            "interpolation rows are ill-conditioned")
        bases.append((V, rows))
    return bases


def _check_held_out(F, approx, failure):
    """Raise unless `approx` matches the held-out fibres `F` to within
    ``MODE_TOL`` of their norm; `failure` ends the message."""
    norm, residual = np.linalg.norm(F), np.linalg.norm(F - approx)
    if residual > MODE_TOL * norm:
        raise ValueError(
            f"held-out quadratic fibres leave {residual / norm:.2e} of their "
            f"norm (> {MODE_TOL:g}) {failure}"
        )


def _interpolation_rows(V):
    """Q-DEIM rows of a basis `V` (Drmac-Gugercin 2016): the first
    ``V.shape[1]`` pivots of a column-pivoted QR of ``V'``, in ascending
    order, so that ``V[I]`` is square and well-conditioned."""
    pivots = qr(V.T, mode="r", pivoting=True)[1]
    return np.sort(pivots[: V.shape[1]])


# ---------------------------------------------------------------------------
# dataset persistence
# ---------------------------------------------------------------------------

_SAMPLES_FILE = "samples.npz"


def save_dataset(ds, directory):
    """Write a dataset as one ``samples.npz`` archive plus a JSON manifest.

    The archive holds the sample families and both generating rules in
    numpy's binary format, so :func:`load_dataset` restores the dataset
    bit-exactly; the manifest holds the domain and the rules' kinds and
    names the arrays.
    """
    os.makedirs(directory, exist_ok=True)
    fields = _TIME_FIELDS if ds.domain == "time" else _FREQ_FIELDS
    arrays = {name: getattr(ds, name) for name in fields}
    for side, rule in (("rule_p", ds.rule_p), ("rule_q", ds.rule_q)):
        arrays[f"{side}_nodes"] = rule.nodes
        arrays[f"{side}_sqrt_weights"] = rule.sqrt_weights
    np.savez(os.path.join(directory, _SAMPLES_FILE), **arrays)
    manifest = {
        "domain": ds.domain,
        "rule_p": {"kind": ds.rule_p.kind},
        "rule_q": {"kind": ds.rule_q.kind},
        "file": _SAMPLES_FILE,
        "fields": list(fields),
    }
    with open(os.path.join(directory, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1)


def load_dataset(directory):
    """Read a dataset written by :func:`save_dataset`.

    Files in the earlier format also store the nodes, weights and
    channel counts, and load when those equal what the rules and samples
    give. A frequency file written without conjugate closure is refused.
    """
    with open(os.path.join(directory, "manifest.json")) as f:
        manifest = json.load(f)
    path = os.path.join(directory, manifest["file"])
    rules = {}
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in manifest["fields"]}
        stored = {name: archive[name] for name in archive.files if name in (
            "p_nodes", "p_sqrt_weights", "q_nodes", "q_sqrt_weights")}
        for side in ("rule_p", "rule_q"):
            try:
                rules[side] = QuadratureRule(
                    archive[f"{side}_nodes"], archive[f"{side}_sqrt_weights"],
                    kind=manifest[side]["kind"])
            except ValueError as exc:
                raise ValueError(f"{side}: {exc}") from exc
    if (manifest["domain"] == "freq"
            and np.shape(arrays.get("tf1_in"))[:1] == (len(rules["rule_q"]),)):
        raise ValueError("frequency file written without conjugate closure: "
                         "its matrices are complex and give no real reduced "
                         "model; collect the data again with collect_freq_data")
    ds = KernelDataset(domain=manifest["domain"], **rules, **arrays)
    stored.update((name, manifest[name]) for name in ("m", "p") if name in manifest)
    for name, value in stored.items():
        if not np.array_equal(value, getattr(ds, name)):
            raise ValueError(f"stored {name} disagrees with the {name} that "
                             "the dataset's rules and samples give")
    return ds
