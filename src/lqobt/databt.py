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
``quad(shifted, ku, ju, lu)``: its weighted quadratic rows of ``H``
(``M`` if `shifted`) at sample units `ku`, `ju` and column units `lu`,
a node in time and a conjugate node pair in frequency. The reducer
takes the bases of the rows' two modes from probe fibres at a column
subset (:func:`_mode_bases`) and reads the compressed rows off a cross
at their Q-DEIM rows, over every column, one block of columns at a
time. So a sampler gives O(N^2)
quadratic samples, not all O(N^3) (:func:`lqo_qbt_streamed`), a time
dataset is sliced at the same places (:func:`lqo_qbt`), and the real
Loewner rows are evaluated only at the node pairs read
(:func:`_freq_compressed`). No route holds the quadratic rows whole.

Frequency-domain data is always closed under conjugation, which gives
complex matrices that a fixed unitary pairing of each ``(+w, -w)`` node
pair makes real: ``[[1, 1], [-i, i]] / sqrt(2)`` on the row pairs, its
conjugate on the column pairs. Every real block follows one rule
(:func:`_real_view`): the complex entries are evaluated only at the
positive column node of each pair, the row pairs are transformed in
place, and the two columns of each pair are then ``sqrt(2) Re`` and
``-sqrt(2) Im`` of the positive one, so the block is ``sqrt(2) conj X``
read as floats. The real columns of ``H``, ``M``, ``g`` and both sides
of each ``K`` are thus ``(l pair, b, slot)``. The samples' conjugate
symmetry that this relies on and the separation of the two node sets
that the divided differences need are checked once, where a dataset is
made (:class:`KernelDataset`), and every route trusts a dataset from
then on.
:func:`build_data_matrices` assembles the matrices of either domain
whole, as the oracle the compressed routes are tested against.
"""

import json
import operator
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import FrequencyCollisionError, OrderError
from .model import ReducedLqoSystem
from .numcore import _read_only, _resolvable_rank, svd
from .quadrature import QuadratureRule

__all__ = [
    "KernelDataset",
    "DataMatrices",
    "collect_time_data",
    "collect_freq_data",
    "lqo_qbt",
    "lqo_qbt_auto",
    "reduce_from_matrices",
    "save_dataset",
    "load_dataset",
]

TIE_TOL = 1e-12
# probe fibres per mode of the quadratic samples (on random systems four left
# held-out residuals up to 9e-11, eight 2e-12), taken first at 2 * PROBES
# column units, and the residual that raises
PROBES = 8
MODE_TOL = 1e-10
# column units per block of the cross, which H and M take one block at a
# time. On the time route at N=400 (the benchmark's system, orders 2..20,
# 2 vCPUs), units per block against tracemalloc's peak and the median
# pass: 25: 35.9 MiB, 0.33 s; 50: 36.9 MiB, 0.32 s; 100: 39.7 MiB, 0.30 s;
# 200: 47.3 MiB, 0.29 s; 400 (one block): 54.9 MiB, 0.31 s. 50 units left
# the resident peak at 113.6 MB, as 100 did, for twice the sampler calls
_CROSS_UNITS = 100
_PACKAGE = os.path.dirname(__file__) + os.sep


# ---------------------------------------------------------------------------
# dataset containers
# ---------------------------------------------------------------------------


_TIME_FIELDS = ("h1_sum", "dh1_sum", "h1_in", "h1_out",
                "h2_sum", "dh2_sum", "h2_in", "h2_quad")
_FREQ_FIELDS = ("tf1_in", "tf1_out", "tf2_cross", "tf2_quad")


@dataclass(frozen=True)
class KernelDataset:
    """Two quadrature rules and the samples taken at them.

    The rest is derived. ``p_nodes``/``q_nodes`` and ``p_sqrt_weights``/
    ``q_sqrt_weights`` are the effective nodes and square-root weights on
    the controllability ("P") and observability ("Q") side: the rules'
    own arrays in the time domain, and in the frequency domain, which is
    always conjugate closed, the signed, interleaved nodes ``(+w_1, -w_1,
    +w_2, ...)`` with weights scaled by ``1/(2 pi)``. The channel counts
    ``p`` and ``m`` come from ``h1_in`` (``tf1_in``).

    A dataset is checked once, when it is made, whether collected, loaded,
    built by hand or copied by :func:`dataclasses.replace`: each sample
    family of its domain must be a numeric array (real in the time domain)
    of the shape of the tables below and be finite, and each family of the
    other domain must be ``None``, as nothing checks, locks or saves it. A
    frequency dataset must also keep its two node sets apart
    (:func:`_check_freq_rules`, raising
    :class:`~lqobt.errors.FrequencyCollisionError`), and its samples must
    be conjugate symmetric (:func:`_check_conjugate_symmetry`). The
    dataset is frozen, so no checked field can be swapped, and
    :func:`dataclasses.replace` builds a new, checked dataset. The checked
    sample arrays and the derived nodes and weights are read-only, so the
    reducers and :func:`build_data_matrices` trust a dataset without
    checking it again. So are the arrays they are views of
    (:func:`lqobt.numcore._read_only`), which the caller may still hold:
    after ``replace(ds, tf1_out=base[:])``, ``base`` is read-only too. A
    sample array over a writable buffer that numpy cannot lock (a
    ``bytearray`` or a writable ``mmap``) is copied instead, so datasets
    loaded from files or collected from samplers that return ndarrays are
    never copied.

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
        kept = dict(zip(("p_nodes", "p_sqrt_weights", "q_nodes", "q_sqrt_weights"),
                        map(_read_only, (*nodes(self.rule_p), *nodes(self.rule_q)))))
        Np, Nq = kept["p_nodes"].size, kept["q_nodes"].size
        families, other = ((_TIME_FIELDS, _FREQ_FIELDS) if self.domain == "time"
                           else (_FREQ_FIELDS, _TIME_FIELDS))
        for name in other:
            if getattr(self, name) is not None:
                raise ValueError(
                    f"{self.domain} dataset cannot hold {name}, a family of the other domain")
        # numpy kinds: integer, unsigned, float and, in frequency, complex
        kinds, numbers = (("iuf", "real numbers") if self.domain == "time"
                          else ("iufc", "numbers"))
        for name in families:
            arr = getattr(self, name)
            if arr is None:
                raise ValueError(f"{self.domain} dataset is missing {name}")
            if not (isinstance(arr, np.ndarray) and arr.dtype.kind in kinds):
                got = getattr(arr, "dtype", type(arr).__name__)
                raise ValueError(f"{name} must be an array of {numbers}, got {got}")
        first = "h1_in" if self.domain == "time" else "tf1_in"
        shape = getattr(self, first).shape
        if len(shape) != 3:
            raise ValueError(f"{first} has shape {shape}, expected (N_q, p, m)")
        p, m = shape[1:]
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
        if self.domain == "freq":
            _check_freq_rules(self.rule_p, self.rule_q)
            _check_conjugate_symmetry(self)
        # read-only, so the checks above keep holding
        kept.update((name, _read_only(getattr(self, name))) for name in families)
        kept.update(Np=Np, Nq=Nq, p=p, m=m)
        for name, value in kept.items():
            object.__setattr__(self, name, value)


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
    t, tau = rule_p.nodes, rule_q.nodes
    h1_sum, dh1_sum, h1_in, h2_in, h1_out, h2_quad = _time_samples(sampler, t, tau)
    p, m = h1_sum.shape[2:]
    h2_sum, dh2_sum = (
        np.moveaxis(_grid(sampler, method, (t, tau, t), (p, m, m)), 3, 0)
        for method in ("h2_grid", "dh2_grid")
    )

    return KernelDataset(
        domain="time", rule_p=rule_p, rule_q=rule_q,
        h1_sum=h1_sum, dh1_sum=dh1_sum, h1_in=h1_in, h1_out=h1_out,
        h2_sum=h2_sum, dh2_sum=dh2_sum, h2_in=h2_in, h2_quad=h2_quad,
    )


def _grid(sampler, method, nodes, tail=None):
    """``sampler.<method>(*nodes)`` as an array, checked to have one axis
    per node set followed by the channel axes `tail`, and to be finite:
    a NaN or inf anywhere in it raises, naming the method. With no `tail`,
    as on the first grid call of a collection, any two channel axes pass:
    they fix the counts ``(p, m)`` that later calls are checked against.
    Every sample the package reads from a sampler comes through here."""
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
    if not np.isfinite(out).all():
        raise ValueError(f"sampler.{method} returned NaN or inf")
    return out


def _time_samples(sampler, t, tau):
    """The linear samples ``h1_sum`` and ``dh1_sum`` and the single-node
    samples ``h1_in``, ``h2_in``, ``h1_out`` and ``h2_quad`` at the time
    nodes `t` and `tau`, in dataset layout: all but the quadratic sums,
    which the two time inputs sample differently."""
    h1_sum = _grid(sampler, "h1_grid", (tau, t))
    p, m = h1_sum.shape[2:]
    zero = np.zeros(1)
    pm, pmm = (p, m), (p, m, m)
    return (
        h1_sum,
        _grid(sampler, "dh1_grid", (tau, t), pm),
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
    collisions raise :class:`~lqobt.errors.FrequencyCollisionError`. The
    check (:func:`_check_freq_rules`, which :class:`KernelDataset` runs on
    every frequency dataset) runs here on the rules, before any sample.
    The channel counts come from the ``tf1`` samples at the observability
    nodes.

    Returns
    -------
    :class:`KernelDataset` with ``domain="freq"``.
    """
    _check_freq_rules(rule_p, rule_q)
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
    docstring. Single-input single-output data is the one-by-one block
    case of the general layout.

    Frequency-domain entries are divided differences of transfer-function
    values: the linear part is a Loewner matrix over the two node sets,
    its derivative companion the shifted Loewner matrix, and the
    quadratic rows repeat the pattern in the second argument of the
    two-variable transfer function with the first argument held at a
    (negated) controllability-side node. The matrices are the complex
    ones at the closed nodes made real by a fixed unitary pairing of each
    ``(+w, -w)`` node pair, ``[[1, 1], [-i, i]] / sqrt(2)`` on the rows
    and its conjugate on the columns; this requires samples that are
    conjugate symmetric, which every frequency :class:`KernelDataset` is
    checked to be when it is made. The complex entries are evaluated only
    at the positive column node of each pair, with the rows paired in place
    (:func:`_real_view`). Rows are laid out ``(j pair, slot, q)`` for the
    linear part and ``(q, k pair, slot, j pair, slot, a)`` for the
    quadratic part; the columns of ``H``, ``M``, ``g`` and both sides of
    each ``K`` are ``(l pair, b, slot)``.

    This is the whole-matrix oracle: the reducers never call it, as they
    compress the quadratic rows instead (:func:`lqo_qbt`,
    :func:`lqo_qbt_auto`), and the tests hold them to these matrices.
    """
    if ds.domain == "freq":
        Np2, Nq2, m, p = ds.Np // 2, ds.Nq // 2, ds.m, ds.p
        nl, nc = ds.Nq * p, ds.Np * m
        h, g, K = _real_io_blocks(ds)
        H = np.empty((h.shape[0], nc))
        M = np.empty_like(H)
        for out, shifted in ((H, False), (M, True)):
            out[:nl] = _real_linear_rows(ds, shifted)
            R = _real_quadratic(ds, np.arange(Np2), np.arange(Nq2),
                                np.arange(Np2), shifted)
            # (k pair, slot, a, j pair, slot, q) -> (q, k pair, slot, j pair, slot, a)
            out[nl:].reshape(p, Np2, 2, Nq2, 2, m, nc)[...] = (
                R.reshape(Np2, 2, m, Nq2, 2, p, nc).transpose(5, 0, 1, 3, 4, 2, 6))
        return DataMatrices(H=H, M=M, h=h, g=g, K=K, domain="freq")
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
# frequency-domain blocks
# ---------------------------------------------------------------------------


def _real_linear_rows(ds, shifted):
    """Real linear rows of a frequency dataset, ``(N_q p, N_p m)``: rows
    ``(j pair, slot, q)``, columns ``(l pair, b, slot)``."""
    Nq2, m, p = ds.Nq // 2, ds.m, ds.p
    phi = ds.q_sqrt_weights.reshape(Nq2, 2, 1, 1, 1)
    s = ds.q_nodes.reshape(Nq2, 2, 1, 1, 1)
    th, rho = ds.p_nodes[::2, None], ds.p_sqrt_weights[::2, None]
    # (j pair, slot, q, l pair, b)
    L = _loewner(ds.tf1_in.reshape(Nq2, 2, p, 1, m),
                 ds.tf1_out[::2].transpose(1, 0, 2), s, th, phi * rho, shifted)
    return _real_view(L, (1,)).reshape(ds.Nq * p, ds.Np * m)


def _real_quadratic(ds, ku, ju, lu, shifted):
    """Real quadratic rows of a frequency dataset at the pairs `ku` of
    controllability nodes and `ju` of observability nodes, and the column
    pairs `lu` of controllability nodes (pair index arrays), in the layout
    of :func:`_compressed_matrices`: ``(k pair, (slot, a), j pair, slot,
    q, columns)``, columns ``(l pair, b, slot)``."""
    m, p, nk, nj, nl = ds.m, ds.p, ku.size, ju.size, lu.size
    k = (2 * ku[:, None] + np.arange(2)).ravel()
    j = (2 * ju[:, None] + np.arange(2)).ravel()
    rk = ds.p_sqrt_weights[k].reshape(nk, 2, 1, 1, 1, 1, 1, 1)
    phi = ds.q_sqrt_weights[j].reshape(nj, 2, 1, 1, 1)
    s = ds.q_nodes[j].reshape(nj, 2, 1, 1, 1)
    th, rho = ds.p_nodes[2 * lu, None], ds.p_sqrt_weights[2 * lu, None]
    L = _loewner(
        # (q, k, j, a, b) -> (k pair, slot, a, j pair, slot, q, 1, b)
        rk * ds.tf2_cross[:, k[:, None], j].reshape(p, nk, 2, nj, 2, m, m)
        .transpose(1, 2, 5, 3, 4, 0, 6)[..., None, :],
        # (q, k, l, a, b) -> (k pair, slot, a, 1, 1, q, l pair, b)
        rk * ds.tf2_quad[:, k[:, None], 2 * lu].reshape(p, nk, 2, nl, m, m)
        .transpose(1, 2, 4, 0, 3, 5)[:, :, :, None, None],
        s, th, phi * rho, shifted)
    return _real_view(L, (1, 4)).reshape(nk, 2 * m, nj, 2, p, -1)


def _real_io_blocks(ds):
    """Real ``h``, ``g`` and ``K`` of a frequency dataset. ``h`` has no
    paired column, so its paired rows are real."""
    Np2, Nq2, m, p = ds.Np // 2, ds.Nq // 2, ds.m, ds.p
    nl, nc = ds.Nq * p, ds.Np * m
    h, g, K = _io_blocks(ds.tf1_in, ds.tf2_cross, ds.tf1_out, ds.tf2_quad,
                         ds.q_sqrt_weights, ds.p_sqrt_weights)
    _pair(h[:nl].reshape(Nq2, 2, p, m), 1)
    quad_h = h[nl:].reshape(p, Np2, 2, Nq2, 2, m, m)
    _pair(quad_h, 2)
    _pair(quad_h, 4)
    g = _real_view(g.reshape(p, Np2, 2, m)[:, :, 0])
    # rows (k pair, slot, a) -> (k pair, a, slot), as the columns
    K = [_real_view(Kq.reshape(Np2, 2, m, Np2, 2, m)[..., 0, :], (1,))
         .transpose(0, 2, 1, 3, 4).reshape(nc, nc) for Kq in K]
    return np.ascontiguousarray(h.real), g.reshape(p, nc), K


def _loewner(a, b, s, th, w, shifted):
    """Loewner entries ``w (a - b) / (i th - i s)``, or with `shifted` the
    shifted Loewner entries ``w (i s a - i th b) / (i th - i s)``, of
    samples `a` at the row nodes ``i s`` against samples `b` at the column
    nodes ``i th``. The five operands are broadcast to the output's
    layout."""
    if shifted:
        a = 1j * s * a
        b = 1j * th * b
    L = a - b
    L *= w / (1j * th - 1j * s)
    return L


def _check_freq_rules(rule_p, rule_q):
    """Raise :class:`~lqobt.errors.FrequencyCollisionError` if a node of
    one rule lies within ``1e-12`` times the largest node of one of the
    other, which breaks the divided differences."""
    dist = np.abs(rule_p.nodes[:, None] - rule_q.nodes[None, :]).min()
    if dist <= 1e-12 * max(rule_p.nodes[-1], rule_q.nodes[-1]):
        raise FrequencyCollisionError(
            "controllability- and observability-side frequency nodes collide"
        )


def _check_conjugate_symmetry(ds):
    """Reject samples that realification would silently corrupt: in each
    family, flipping the sign of every paired node must conjugate the
    sample, to within ``1e-8`` of the family's largest magnitude.

    Each node axis is read as ``(pair, slot)``, as :func:`_pair` and
    :func:`_real_view` do. The flip swaps the slots of every axis, so it
    pairs each sample with exactly one other, and comparing the first
    slot of the row pairs with the conjugate of the flipped second slot
    reads each such pair once, with no copy of the whole family."""
    for name in _FREQ_FIELDS:
        X = getattr(ds, name)
        if X.ndim == 3:  # tf1: (nodes, p, m)
            Y = X.reshape(-1, 2, *X.shape[1:])
            a, b = Y[:, 0], Y[:, 1]
        else:  # tf2: (p, row nodes, column nodes, m, m)
            p, n_k, n_j = X.shape[:3]
            Y = X.reshape(p, n_k // 2, 2, n_j // 2, 2, *X.shape[3:])
            a, b = Y[:, :, 0], Y[:, :, 1, :, ::-1]
        dev = np.abs(np.conjugate(b) - a).max()
        if dev > 1e-8 * np.abs(X).max():
            raise ValueError(
                f"{name} is not conjugate symmetric (deviation {dev:.3e}); "
                "the dataset cannot be realified"
            )


_SQRT2 = np.sqrt(2.0)


def _pair(X, axis):
    """Apply the conjugate-pair unitary ``[[1, 1], [-i, i]] / sqrt(2)`` in
    place, from the left, to a length-2 axis of `X`."""
    X0, X1 = np.moveaxis(X, axis, 0)
    # X0 + X1 as 2 X0 + (X1 - X0), which needs no temporary
    X1 -= X0
    X0 *= 2.0
    X0 += X1
    X0 /= _SQRT2
    X1 *= 1j / _SQRT2


def _real_view(X, rows=()):
    """The real form of a conjugate-symmetric block `X`, held at the
    positive node of each column pair with columns ``(l pair, b)`` last,
    overwriting `X`.

    The pair unitary is applied to the row pairs on axes `rows` in place.
    As flipping all node signs conjugates the paired block, the two
    columns of each pair are then ``sqrt(2) Re`` and ``-sqrt(2) Im`` of
    the positive one: the block is ``sqrt(2) conj X`` read as floats,
    its columns ``(l pair, b, slot)``."""
    for ax in rows:
        _pair(X, ax)
    np.conjugate(X, out=X)
    X *= _SQRT2
    return X.view(float)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def _truncation_guard(S, r, max_r):
    try:  # Python and numpy integers pass; bools and integral floats do not
        if isinstance(r, bool):
            raise TypeError
        operator.index(r)
    except TypeError:
        raise OrderError(f"order {r!r} is not an integer") from None
    if S.size == 0 or S[0] == 0.0:
        raise ValueError("H, the product L'U of the Gramian factors or its "
                         "quadrature, is identically zero")
    limit = min(_resolvable_rank(S), max_r)
    if not 1 <= r <= limit:
        raise OrderError(f"order {r} outside [1, {limit}] (resolvable rank)")
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
    decomposition of ``dm.H`` (or its leading triplets) can be passed as
    `factors` so that sweeps over several orders decompose only once. The
    model's provenance is ``"<domain>-qbt"``.
    """
    if np.iscomplexobj(dm.H):
        raise ValueError("complex data matrices cannot produce a real reduced "
                         "model; collect frequency data with collect_freq_data, "
                         "whose routes realify it")
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
    """Leading singular values of ``dm.H`` (:func:`~lqobt.numcore.svd`) and
    one reduced model per entry of `orders`, all from a single
    decomposition."""
    res = svd(dm.H)
    return res.S, [reduce_from_matrices(dm, r, factors=res) for r in orders]


def lqo_qbt(ds, r):
    """Quadrature-based balanced truncation from a kernel dataset.

    Reduces the five data matrices to order `r` through the leading
    triplets of ``H`` (:func:`_reduce_orders`). Time-domain datasets give
    provenance ``"time-qbt"`` and run the driver of
    :func:`lqo_qbt_streamed` on slices of their arrays. Frequency-domain
    ones give ``"freq-qbt"`` through their real matrices
    (:func:`_freq_compressed`). Neither assembles the quadratic rows
    whole; both give the model of :func:`build_data_matrices`. Nothing
    is checked here: a dataset is checked when it is made, and its
    samples cannot change after (:class:`KernelDataset`).

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
        return _reduce_orders(_freq_compressed(ds), [r])[1][0]

    def read(shifted, ku, ju, lu):
        # one slice of (q, k, j, i, a, b), moved to the sampler's layout
        samples = ds.dh2_sum if shifted else ds.h2_sum
        return np.moveaxis(samples[:, ku[:, None, None], ju[:, None], lu], 0, 3)

    dm = _time_compressed(read, ds.p_sqrt_weights, ds.q_sqrt_weights,
                          ds.h1_sum, ds.dh1_sum,
                          (ds.h1_in, ds.h2_in, ds.h1_out, ds.h2_quad))
    return _reduce_orders(dm, [r])[1][0]


def lqo_qbt_auto(sampler, rule_p, rule_q, orders, domain="time"):
    """QBT from a sampler in either `domain` (``"time"`` or ``"freq"``).

    The time domain runs :func:`lqo_qbt_streamed` at every node count,
    which takes the channel counts from the first grid it samples.
    Frequency data is collected by :func:`collect_freq_data`, which
    refuses colliding node sets before it samples, and reduced through
    :func:`_freq_compressed`; neither route bounds the node counts.

    Returns
    -------
    tuple ``(singular_values, roms)`` with one reduced model per entry of
    `orders`. The singular values are the leading ones of ``H`` that
    :func:`~lqobt.numcore.svd` returns: all above ``RANK_TOL`` of the
    largest and at least 8 more, or all when ``H`` is no wider than the
    sketch.
    """
    if domain == "time":
        return lqo_qbt_streamed(sampler, rule_p, rule_q, orders)
    if domain != "freq":
        raise ValueError(f"unknown domain {domain!r}")
    ds = collect_freq_data(sampler, rule_p, rule_q)
    return _reduce_orders(_freq_compressed(ds), orders)


def _freq_compressed(ds):
    """Real data matrices of a frequency dataset with the quadratic rows
    compressed onto ``I_p (x) V_k (x) V_j`` (:func:`_compressed_matrices`,
    a conjugate node pair as the unit).

    The real quadratic Loewner rows are evaluated only at the pairs read
    (:func:`_real_quadratic`, at the positive node of each column pair).
    The linear rows, ``h``, ``g`` and ``K`` are built as in
    :func:`build_data_matrices`. The probes hold the rows at a subset of
    the column pairs (:func:`_mode_bases`), so the route's memory is set
    by the O(N^2) samples and the cross, not by O(N^3) probe slabs.
    :class:`KernelDataset` checks the node separation and the conjugate
    symmetry when a dataset is made, so this trusts it.
    """
    return _compressed_matrices(
        lambda shifted, ku, ju, lu: _real_quadratic(ds, ku, ju, lu, shifted),
        (ds.Np // 2, ds.Nq // 2, ds.Np // 2),
        lambda shifted: _real_linear_rows(ds, shifted),
        lambda: _real_io_blocks(ds), "freq")


def _compressed_matrices(quad, units, linear, io, domain):
    """Data matrices with the quadratic rows compressed onto
    ``I_p (x) V_k (x) V_j``, read off a cross: the reducer of every input.

    ``quad(shifted, ku, ju, lu)`` gives the weighted quadratic rows of
    ``H`` (``M`` if `shifted`) at index arrays of sample units, ``units =
    (n_k, n_j, n_l)`` a side and in the columns, laid out ``(ku.size,
    w_k, ju.size, w_j, p, columns)`` with the columns of the units `lu`.
    A unit is a node on the time route (``w_k = m``: rows ``(k, a)``;
    ``w_j = 1``; columns ``(i, b)``), a conjugate node pair on the
    frequency route (``w_k = 2m``: rows ``(k pair, slot, a)``; ``w_j =
    2``; columns ``(l pair, b, slot)``). The probes read column subsets;
    the cross reads every column, in blocks of ``_CROSS_UNITS`` column
    units. ``linear(shifted)`` gives the linear rows, and ``io()`` gives
    ``h``, ``g`` and ``K``, called past the probe stage. ``H`` and ``M``
    are each allocated once, the linear rows at the top, and each block
    of the cross, compressed, is written into its columns of the rows
    below, so no copy of the whole cross is held. The
    bases, their rows ``I_k``, ``I_j`` and the inverses ``G_k =
    V_k[I_k]^{-1}``, ``G_j = V_j[I_j]^{-1}`` come from :func:`_mode_bases`,
    which checked those very inverses on held-out fibres, and the cross is
    read at the units holding the rows. As the samples lie in the range of
    ``V_k (x) V_j``, their core ``(V_k' (x) V_j') X`` equals ``(G_k (x)
    G_j) X[I_k, I_j]``; it becomes the rows ``(q, r_k, r_j)``. ``M``'s
    core, read the same way, equals its projection only when the columns
    ``U`` span an ``A``-invariant subspace (say ``N_p m >= n``, ``U`` of
    full rank); otherwise the reduced model can move, by up to 1.6e-4
    measured (:func:`lqo_qbt_streamed`). The quadratic rows of ``h``,
    given whole, are projected onto the bases."""
    n_k, n_j, n_l = units
    (Vk, Ik, Gk), (Vj, Ij, Gj) = _mode_bases(quad, n_k, n_j, n_l)
    h, g, K = io()
    wk, wj = Vk.shape[0] // n_k, Vj.shape[0] // n_j
    ku, k_rows = _units(Ik, wk)
    ju, j_rows = _units(Ij, wj)
    p, m = len(K), h.shape[1]
    nl = h.shape[0] - p * Vk.shape[0] * Vj.shape[0]
    width = g.shape[1] // n_l  # columns per unit

    def rows(shifted):
        # the linear rows' temporaries are gone before out is allocated, and
        # the rows themselves before the cross is read
        lin = linear(shifted)
        out = np.empty((nl + p * Ik.size * Ij.size, g.shape[1]))
        out[:nl] = lin
        del lin
        core = out[nl:].reshape(p, Ik.size, Ij.size, -1)
        for start in range(0, n_l, _CROSS_UNITS):
            stop = min(start + _CROSS_UNITS, n_l)
            X = quad(shifted, ku, ju, np.arange(start, stop))
            X = X.reshape(ku.size * wk, ju.size * wj, -1)[k_rows[:, None], j_rows]
            X = (Gk @ X.reshape(Ik.size, -1)).reshape(Ik.size, Ij.size, -1)
            X = np.matmul(Gj, X).reshape(Ik.size, Ij.size, p, -1)
            # (r_k, r_j, q, column) -> rows (q, r_k, r_j)
            core[..., width * start:width * stop] = X.transpose(2, 0, 1, 3)
        return out

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

    The bases and ``H``'s truncated SVD come from sketches whose width
    follows the rank (:func:`~lqobt.numcore.svd`). The compressed rows
    are read off a cross of the samples, not contracted from all
    ``N_p^2 N_q`` of them: the core equals
    ``(V_k[I_k]^{-1} (x) V_j[I_j]^{-1}) X[I_k, I_j, :]`` at Q-DEIM rows
    ``I_k``, ``I_j`` of the bases (:func:`_compressed_matrices`). So
    beyond the probe fibres, which take a subset of the columns ``t_i``,
    the sampler is asked for ``h2_grid(t[K], tau[I_j], t[B])`` and
    ``dh2_grid`` at the same nodes, with ``K`` the nodes of the rows
    ``I_k``, for each block ``B`` of at most ``_CROSS_UNITS`` consecutive
    columns. The
    derivative samples get no basis of their own: they lie in the same
    mode ranges only when the columns ``U`` span an ``A``-invariant
    subspace, say when ``N_p m >= n`` and ``U`` has full rank. Otherwise
    ``M``'s compressed rows leave their projection, unchecked, as a check
    needs ``dh2_grid`` probes: on 100 random systems with ``N_p < n`` (n
    = 2..8, one input and output), the model at the full resolvable rank
    left the whole-matrix one by more than 1e-8 in ``H1`` on 11, by up to
    1.6e-4 (n=6, ``N_p = 2``). The held-out probe fibres must match their
    interpolant on each basis, the one check of the bases
    (:func:`_mode_bases`), or this raises.
    :func:`lqo_qbt` runs the same driver on a time dataset's arrays.

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
    tuple ``(singular_values, roms)`` as :func:`lqo_qbt_auto` gives it.
    """
    t, tau = rule_p.nodes, rule_q.nodes
    h1_sum, dh1_sum, *io = _time_samples(sampler, t, tau)
    p, m = h1_sum.shape[2:]

    def read(shifted, ku, ju, lu):
        method = "dh2_grid" if shifted else "h2_grid"
        return _grid(sampler, method, (t[ku], tau[ju], t[lu]), (p, m, m))

    dm = _time_compressed(read, rule_p.sqrt_weights, rule_q.sqrt_weights,
                          h1_sum, dh1_sum, io)
    return _reduce_orders(dm, orders)


def _time_compressed(read, rho, phi, h1_sum, dh1_sum, io):
    """Data matrices of time-domain samples with the quadratic rows
    compressed onto ``I_p (x) V_k (x) V_j`` (:func:`_compressed_matrices`,
    with a node as the sample unit): the source of both time inputs.

    ``read(shifted, ku, ju, lu)`` returns the ``h2_grid`` samples, or
    with `shifted` the ``dh2_grid`` ones, at ``(t[ku], tau[ju], t[lu])``
    (index arrays) in the sampler's layout ``(k, j, i, q, a, b)``. The
    square-root weights, the linear samples and the single-node samples
    `io` (``h1_in``, ``h2_in``, ``h1_out``, ``h2_quad``) are in dataset
    layout."""
    p, m = h1_sum.shape[2:]

    def quad(shifted, ku, ju, lu):
        w = (rho[ku, None] * phi[ju])[:, :, None] * rho[lu]
        X = read(shifted, ku, ju, lu) * w[..., None, None, None]
        # (k, j, i, q, a, b) -> (k, a, j, 1, q, (i, b))
        return X.transpose(0, 4, 1, 3, 2, 5).reshape(ku.size, m, ju.size, 1, p, -1)

    return _compressed_matrices(
        quad, (rho.size, phi.size, rho.size),
        lambda shifted: _linear_block(dh1_sum if shifted else h1_sum, phi, rho),
        lambda: _io_blocks(*io, phi, rho), "time")


def _mode_bases(quad, n_k, n_j, n_l):
    """Orthonormal bases ``V_k`` and ``V_j`` of the two modes of the
    quadratic rows ``quad`` of :func:`_compressed_matrices`, each as a
    triple ``(V, I, G)`` with its interpolation rows ``I``
    (:func:`_interpolation_rows`) and ``G = V[I]^{-1}``, the one inverse
    the cross applies. A basis's rows are the mode's rows ``(unit, w)``;
    ``n_l`` is the number of column units.

    Each basis holds the left singular vectors above ``RANK_TOL`` of the
    mode's probe fibres: the rows of ``H`` at every unit of the mode, at
    ``PROBES`` evenly spread units of the other and at ``2 * PROBES``
    evenly spread column units, unfolded to the mode's rows, from the
    seeded range finder :func:`~lqobt.numcore.svd`. The held-out fibres
    ``F``, at the units of the other mode midway between the probes and,
    until the last step, at the column units midway between the probed
    ones, must match their interpolant ``V G F[I]`` to within ``MODE_TOL``
    of their norm. While they do not, the column count doubles; the last
    step probes every column and holds out the midway units of the other
    mode at every column, and only its failure raises. (With no midway
    unit there is nothing to hold out, so every column is probed at
    once.) That one gate also bounds the fibres' distance from the basis,
    as ``V V' F`` is the point of its range closest to ``F``; only on a
    failure is that distance computed, to say why: the samples are not of
    low rank in that mode, or the rows ``I`` are ill-conditioned."""
    def unfolding(mode, idx, lu):
        if mode == "k":
            X = quad(False, np.arange(n_k), idx, lu)
        else:
            X = np.moveaxis(quad(False, idx, np.arange(n_j), lu), (2, 3), (0, 1))
        return X.reshape(X.shape[0] * X.shape[1], -1)

    bases = []
    for mode, n in (("k", n_j), ("j", n_k)):
        probes, held = _spread(n, PROBES)
        count = 2 * PROBES if held.size else n_l
        while True:
            cols, held_cols = _spread(n_l, count)
            last = cols.size == n_l
            res = svd(unfolding(mode, probes, cols))
            # an identically zero mode keeps one direction, which reads zeros
            V = res.Z[:, :max(1, _resolvable_rank(res.S))]
            F = (unfolding(mode, held, cols if last else held_cols) if held.size
                 else V[:, :0])
            rows = _interpolation_rows(V)
            G = np.linalg.inv(V[rows])
            norm, residual = np.linalg.norm(F), np.linalg.norm(F - V @ (G @ F[rows]))
            if residual <= MODE_TOL * norm or last:
                break
            count *= 2
        if residual > MODE_TOL * norm:
            outside = np.linalg.norm(F - V @ (V.T @ F))
            if outside > MODE_TOL * norm:
                residual = outside
                failure = (f"outside the {mode}-mode basis of the probes; the "
                           "samples are not of low rank")
            else:
                failure = (f"off their interpolant on {rows.size} rows of the "
                           f"{mode}-mode basis (condition number "
                           f"{np.linalg.cond(V[rows]):.2e}); the interpolation rows "
                           "are ill-conditioned")
            raise ValueError(f"held-out quadratic fibres leave {residual / norm:.2e} "
                             f"of their norm (> {MODE_TOL:g}) {failure}")
        bases.append((V, rows, G))
    return bases


def _spread(n, count):
    """`count` indices evenly spread over ``range(n)`` (all of them when
    `count` >= `n`), and the indices midway between them."""
    idx = np.unique(np.linspace(0, n - 1, count).round().astype(int))
    return idx, np.setdiff1d((idx[:-1] + idx[1:]) // 2, idx)


def _interpolation_rows(V):
    """Q-DEIM rows of a basis `V` (Drmac-Gugercin 2016): the first
    ``V.shape[1]`` pivots of a column-pivoted QR of ``V'`` (Businger-
    Golub), in ascending order, so that ``V[I]`` is square and
    well-conditioned."""
    # in numpy, for the one thread pool of numcore.svd: scipy's pivoted
    # QR of a 50 x 400 V' took 1.4 ms alone but 2-115 ms a call inside the
    # time route on two cores, and this loop takes 3-4 ms there
    W = V.T.copy()
    rows = []
    for _ in range(V.shape[1]):
        # the remaining column of largest norm, projected out of the rest
        i = int(np.argmax(np.einsum("ij,ij->j", W, W)))
        q = W[:, i] / np.linalg.norm(W[:, i])
        W -= np.outer(q, q @ W)
        rows.append(i)
    return np.sort(rows)


# ---------------------------------------------------------------------------
# dataset persistence
# ---------------------------------------------------------------------------

_SAMPLES_FILE = "samples.npz"


def save_dataset(ds, directory):
    """Write a dataset as one ``samples.npz`` archive plus a JSON manifest.

    The archive holds the sample families and both generating rules in
    numpy's binary format, so :func:`load_dataset` restores the dataset
    bit-exactly; the manifest holds the domain and the rules' kinds.
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
    }
    with open(os.path.join(directory, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1)


def load_dataset(directory):
    """Read a dataset written by :func:`save_dataset`.

    The manifest gives the domain, whose sample families (and both rules'
    arrays) are read from ``samples.npz`` in `directory`; the ``file`` and
    ``fields`` keys that earlier manifests carry are ignored. A missing
    manifest key or archive member raises a ``ValueError`` that names it.
    Files in the earlier format also store the nodes, weights and channel
    counts, and load when those equal what the rules and samples give. A
    frequency file written without conjugate closure is refused, and the
    loaded dataset is checked as any other (:class:`KernelDataset`): one
    whose node sets collide raises
    :class:`~lqobt.errors.FrequencyCollisionError`.
    """
    with open(os.path.join(directory, "manifest.json")) as f:
        manifest = json.load(f)
    domain = _entry(manifest, "domain", "manifest")
    if domain not in ("time", "freq"):
        raise ValueError(f"unknown domain {domain!r}")
    rules = {}
    with np.load(os.path.join(directory, _SAMPLES_FILE), allow_pickle=False) as archive:
        arrays = {name: _entry(archive, name, _SAMPLES_FILE) for name in
                  (_TIME_FIELDS if domain == "time" else _FREQ_FIELDS)}
        stored = {name: archive[name] for name in archive.files if name in (
            "p_nodes", "p_sqrt_weights", "q_nodes", "q_sqrt_weights")}
        for side in ("rule_p", "rule_q"):
            try:
                rules[side] = QuadratureRule(
                    _entry(archive, f"{side}_nodes", _SAMPLES_FILE),
                    _entry(archive, f"{side}_sqrt_weights", _SAMPLES_FILE),
                    kind=_entry(_entry(manifest, side, "manifest"), "kind", "manifest"))
            except ValueError as exc:
                raise ValueError(f"{side}: {exc}") from exc
    if (domain == "freq"
            and np.shape(arrays["tf1_in"])[:1] == (len(rules["rule_q"]),)):
        raise ValueError("frequency file written without conjugate closure: "
                         "its matrices are complex and give no real reduced "
                         "model; collect the data again with collect_freq_data")
    ds = KernelDataset(domain=domain, **rules, **arrays)
    stored.update((name, manifest[name]) for name in ("m", "p") if name in manifest)
    for name, value in stored.items():
        if not np.array_equal(value, getattr(ds, name)):
            raise ValueError(f"stored {name} disagrees with the {name} that "
                             "the dataset's rules and samples give")
    return ds


def _entry(mapping, key, where):
    """``mapping[key]``, or a ``ValueError`` naming `key` and `where`."""
    try:
        return mapping[key]
    except KeyError:
        raise ValueError(f"{where} has no {key!r}") from None
