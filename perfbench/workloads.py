"""The benchmark's workloads: inputs made from a seed, one pass through
lqobt's public entry points, and the checks each pass must satisfy.

Every pass starts from a fresh :class:`lqobt.LqoSystem`: the system keeps a
per-object grid cache, so reusing one object would time cache hits that a
user's fresh reduction never gets. The package is called through its module
attributes (``databt.lqo_qbt``, ``gramians.h2_error``, ...) so that a traced
pass, which rebinds those attributes, records the benchmark's own calls too.
"""

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg as spla

from tracing import lyapunov_residual

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import lqobt  # noqa: E402
from lqobt import databt, gramians  # noqa: E402

if Path(lqobt.__file__).resolve().parent != SRC / "lqobt":
    raise ImportError(f"lqobt was imported from {lqobt.__file__}, not from {SRC}")

SWEEP = tuple(range(2, 21))
RATIO_TOL = 1.1      # QBT H2 error at most 1.1x intrusive BT's (criterion 5)
# Leading ten normalized singular values of the sample matrix against the
# HSVs, relative. Criterion 4 asks 1e-2 of N=400 at seed 21, but the
# truncated interval [1e-2, 1e2] alone leaves up to 2e-2 (time) and 6e-2
# (frequency, N=100) on seeds 1..10; a broken sample matrix is off by O(1).
HSV_TOL = 1e-1
# Criterion 6 (the error never grows by more than 1.05x from one order to the
# next) holds for the seed-21 system only: on seeds 1, 3 and 4, BT's H2 error
# grows by up to 1.14x, and the scipy reference agrees. The sweep is checked
# against that reference instead.
ORACLE_TOL = 1e-6
RESIDUAL_TOL = 1e-9  # relative Lyapunov residual (criterion 7)


@dataclass
class Inputs:
    """What a pass starts from: the system's matrices (a fresh system is
    built from them for every pass), the rules, the orders requested and the
    order at which accuracy is compared."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Ms: tuple
    orders: tuple
    ref_order: int
    rule_p: object = None
    rule_q: object = None

    def system(self):
        return lqobt.LqoSystem(self.A, self.B, self.C, self.Ms)


@dataclass
class Outcome:
    """The ROMs of one pass, keyed by order, and what the checks need."""

    roms: dict
    sigma: np.ndarray = None      # singular values of the sample matrix
    errors: dict = None           # H2 errors computed inside the pass
    gramians: object = None
    dataset: object = None


@dataclass
class Reference:
    """Intrusive quantities a pass is checked against, computed once."""

    norm: float
    hsv: np.ndarray = None
    bt_errors: dict = None        # absolute H2 errors of BT, by order
    sigma: np.ndarray = None      # data singular values when a pass has none


@dataclass
class Verdict:
    """Checks of one pass. A ROM fails if it is unstable; every ROM of the
    pass fails if any pass-level check (`problems`) fails."""

    attempted: int
    h2_err_rel: float
    h2_err_ratio: float
    unstable: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def failed(self):
        return self.attempted if self.problems else len(self.unstable)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable       # seed -> Inputs
    solve: Callable       # (sampler, Inputs) -> Outcome
    reference: Callable   # (Inputs, Outcome of the warm-up pass) -> Reference
    check: Callable       # (Outcome, Inputs, Reference) -> Verdict


def _system_inputs(seed, n, orders, ref_order):
    sys_ = lqobt.synthesize_system(n, damping=(0.1, 3.0), gain_decay=0.85, seed=seed)
    return Inputs(sys_.A, sys_.B, sys_.C, sys_.Ms, tuple(orders), ref_order)


# -- time domain, both sides of lqo_qbt_auto's size branch ----------------------


def _build_time(n_nodes):
    def build(seed):
        inp = _system_inputs(seed, 50, SWEEP, 10)
        inp.rule_p = inp.rule_q = lqobt.log_trapezoid(1e-2, 1e2, n_nodes)
        return inp

    return build


def _solve_auto(sampler, inp):
    sigma, roms = databt.lqo_qbt_auto(sampler, inp.rule_p, inp.rule_q, orders=inp.orders)
    return Outcome(roms=dict(zip(inp.orders, roms)), sigma=sigma)


def _bt_reference(inp, first):
    sys_ = inp.system()
    g = gramians.compute_gramians(sys_)
    bt = gramians.intrusive_bt(sys_, inp.ref_order, gramians=g)
    sigma = None
    if first.sigma is None:
        # lqo_qbt returns no singular values; take them from the warm-up
        # pass's dataset (later passes must reproduce its ROM bit for bit)
        sigma = lqobt.svd(databt.build_data_matrices(first.dataset).H).S
    return Reference(
        norm=gramians.h2_norm(sys_, g),
        hsv=lqobt.hankel_singular_values(g),
        bt_errors={inp.ref_order: gramians.h2_error(sys_, bt)},
        sigma=sigma,
    )


def _unstable(out):
    return [r for r, rom in out.roms.items() if not rom.is_stable]


def _check_qbt(out, inp, ref):
    problems = []
    rom = out.roms[inp.ref_order]
    err = gramians.h2_error(inp.system(), rom) if rom.is_stable else np.inf
    ratio = err / ref.bt_errors[inp.ref_order]
    if not ratio <= RATIO_TOL:
        problems.append(f"H2 error {ratio:.4f} x BT's at r={inp.ref_order} (> {RATIO_TOL})")
    sigma = out.sigma if out.sigma is not None else ref.sigma
    k = min(10, sigma.size, ref.hsv.size)
    want = ref.hsv[:k] / ref.hsv[0]
    dev = float((np.abs(sigma[:k] / sigma[0] - want) / want).max())
    if not dev <= HSV_TOL:
        problems.append(f"leading HSV deviation {dev:.2e} (> {HSV_TOL})")
    return Verdict(len(out.roms), err / ref.norm, ratio, _unstable(out), problems)


# -- frequency domain ------------------------------------------------------------


def _build_freq(seed):
    inp = _system_inputs(seed, 50, (10,), 10)
    a, b, n_nodes = 1e-2, 1e2, 100
    # the observability side sits half a geometric step off the other side,
    # as the command line builds it, so the two node sets never collide
    shift = (b / a) ** (0.5 / (n_nodes - 1))
    inp.rule_p = lqobt.log_trapezoid(a, b, n_nodes)
    inp.rule_q = lqobt.log_trapezoid(a * shift, b * shift, n_nodes)
    return inp


def _solve_freq(sampler, inp):
    ds = databt.collect_freq_data(sampler, inp.rule_p, inp.rule_q)
    rom = databt.lqo_qbt(ds, inp.ref_order)
    return Outcome(roms={inp.ref_order: rom}, dataset=ds)


# -- intrusive order sweep ---------------------------------------------------------


def _build_sweep(seed):
    # At n=64 the sign-function solver needs enough steps that its 60 solves
    # take about 80% of a 2.5 s pass; at n=100 a pass takes 9 s, too long
    # for several passes per run, and at n=50 it is 1 s with 15-20% jitter.
    return _system_inputs(seed, 64, SWEEP, 10)


def _solve_sweep(sys_, inp):
    g = gramians.compute_gramians(sys_)
    roms, errors = {}, {}
    for r in inp.orders:
        roms[r] = gramians.intrusive_bt(sys_, r, gramians=g)
        errors[r] = gramians.h2_error(sys_, roms[r])
    return Outcome(roms=roms, errors=errors, gramians=g)


def _sweep_reference(inp, first):
    sys_ = inp.system()
    return Reference(
        norm=gramians.h2_norm(sys_),
        bt_errors=reference_bt_errors(sys_, inp.orders),
    )


def _check_sweep(out, inp, ref):
    problems = []
    worst = max(abs(out.errors[r] / ref.bt_errors[r] - 1.0) for r in inp.orders)
    if not worst <= ORACLE_TOL:
        problems.append(f"H2 errors off the scipy reference by {worst:.2e} (> {ORACLE_TOL})")
    sys_, g = inp.system(), out.gramians
    W2 = sum(M @ g.P @ M for M in sys_.Ms)
    residual = max(
        lyapunov_residual(sys_.A.T, sys_.B @ sys_.B.T, g.P),
        lyapunov_residual(sys_.A, sys_.C.T @ sys_.C, g.Q1),
        lyapunov_residual(sys_.A, W2, g.Q2),
    )
    if not residual <= RESIDUAL_TOL:
        problems.append(f"Lyapunov residual {residual:.2e} (> {RESIDUAL_TOL})")
    err = out.errors[inp.ref_order]
    ratio = err / ref.bt_errors[inp.ref_order]
    return Verdict(len(out.roms), err / ref.norm, ratio, _unstable(out), problems)


def reference_bt_errors(sys_, orders):
    """H2 errors of balanced truncation at each of `orders`, computed
    independently of lqobt with scipy's Bartels-Stewart Lyapunov solver."""

    def lyap(A, W):  # X with A X + X A' + W = 0
        return spla.solve_continuous_lyapunov(A, -W)

    def factor(X):
        lam, V = np.linalg.eigh(0.5 * (X + X.T))
        keep = lam > 1e-13 * lam.max()
        return V[:, keep] * np.sqrt(lam[keep])

    A, B, C, Ms = sys_.A, sys_.B, sys_.C, sys_.Ms
    P = lyap(A, B @ B.T)
    Q1 = lyap(A.T, C.T @ C)
    Q2 = lyap(A.T, sum(M @ P @ M for M in Ms))
    U = factor(P)
    L = np.hstack([factor(Q1), factor(Q2)])
    Z, s, Yh = spla.svd(L.T @ U, full_matrices=False)
    errors = {}
    for r in orders:
        scale = 1.0 / np.sqrt(s[:r])
        W = L @ (Z[:, :r] * scale)
        V = U @ (Yh[:r].T * scale)
        Ae = spla.block_diag(A, W.T @ A @ V)
        Be = np.vstack([B, W.T @ B])
        Ce = np.hstack([C, -(C @ V)])
        Me = [spla.block_diag(M, -(V.T @ M @ V)) for M in Ms]
        Pe = lyap(Ae, Be @ Be.T)
        Qe = lyap(Ae.T, Ce.T @ Ce + sum(M @ Pe @ M for M in Me))
        errors[r] = float(np.sqrt(max(np.trace(Be.T @ Qe @ Be), 0.0)))
    return errors


# -- bitwise comparison ------------------------------------------------------------


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_roms(x, y):
    """Whether two {order: ROM} maps hold bit-identical models."""
    if x.keys() != y.keys():
        return False
    for r in x:
        a, b = x[r], y[r]
        if not (same_bits(a.A, b.A) and same_bits(a.B, b.B) and same_bits(a.C, b.C)
                and len(a.Ms) == len(b.Ms)
                and all(same_bits(p, q) for p, q in zip(a.Ms, b.Ms))):
            return False
    return True


# Why each workload is here is recorded in BENCHMARK.json. In short: the two
# sides of lqo_qbt_auto's size branch (dense SVD at N=200, Gram accumulation
# at N=400), the only complex-data path, and an intrusive sweep that touches
# neither the sampler nor databt, so data-route changes predict no change
# there and the reverse.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("time_direct", _build_time(200), _solve_auto, _bt_reference, _check_qbt),
        Workload("time_streamed", _build_time(400), _solve_auto, _bt_reference, _check_qbt),
        Workload("freq_direct", _build_freq, _solve_freq, _bt_reference, _check_qbt),
        Workload("intrusive_sweep", _build_sweep, _solve_sweep, _sweep_reference, _check_sweep),
    )
}
