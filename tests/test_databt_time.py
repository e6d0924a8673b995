"""Tests for time-domain data-driven balanced truncation.

The central property: the weighted kernel-sample matrices coincide with
products of explicit quadrature factors of the Gramians (built naively in
conftest), so reduction from data must reproduce reduction from factors
without ever seeing state-space matrices.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    PoisonedSampler,
    ShortSampler,
    assert_matrices_match,
    factor_products,
    random_rule,
    random_stable_system,
    scalar_s1,
    tf_agree,
    time_factors,
)
from lqobt import (
    DataMatrices,
    KernelDataset,
    LqoSystem,
    QuadratureRule,
    build_data_matrices,
    collect_freq_data,
    collect_time_data,
    h2_error,
    h2_norm,
    intrusive_bt,
    load_dataset,
    log_trapezoid,
    lqo_qbt,
    lqo_qbt_auto,
    lqo_qbt_streamed,
    reduce_from_matrices,
    save_dataset,
    synthesize_system,
)
from lqobt import databt
from lqobt.numcore import svd
from test_acceptance import _equivalence_cases, _mimo_cases


def unit_rule(nodes):
    return QuadratureRule(np.asarray(nodes, dtype=float), np.ones(len(nodes)))


# ------------------------------------------------------------ raw layout


def test_sample_matrix_layout_scalar():
    # with unit weights every entry is a bare kernel value; the row order
    # is: linear rows over tau, then quadratic rows with the
    # controllability-side node outer and the observability node inner
    sys_ = scalar_s1()
    rule_p = unit_rule([1.0, 2.0])
    rule_q = unit_rule([0.5, 1.5])
    ds = collect_time_data(sys_, rule_p, rule_q)
    t, tau = rule_p.nodes, rule_q.nodes

    dm = build_data_matrices(ds)
    H = dm.H
    assert H.shape == (6, 2)
    for i in range(2):
        col = [
            sys_.h1(tau[0] + t[i])[0, 0],
            sys_.h1(tau[1] + t[i])[0, 0],
            sys_.h2(t[0], tau[0] + t[i])[0, 0, 0],
            sys_.h2(t[0], tau[1] + t[i])[0, 0, 0],
            sys_.h2(t[1], tau[0] + t[i])[0, 0, 0],
            sys_.h2(t[1], tau[1] + t[i])[0, 0, 0],
        ]
        assert np.allclose(H[:, i], col, rtol=0, atol=1e-14)

    M = dm.M
    assert abs(M[0, 0] - sys_.dh1(tau[0] + t[0])[0, 0]) <= 1e-14
    assert abs(M[3, 1] - sys_.dh2_dz2(t[0], tau[1] + t[1])[0, 0, 0]) <= 1e-14

    h, g, K = dm.h, dm.g, dm.K
    want_h = [
        sys_.h1(tau[0])[0, 0],
        sys_.h1(tau[1])[0, 0],
        sys_.h2(t[0], tau[0])[0, 0, 0],
        sys_.h2(t[0], tau[1])[0, 0, 0],
        sys_.h2(t[1], tau[0])[0, 0, 0],
        sys_.h2(t[1], tau[1])[0, 0, 0],
    ]
    assert np.allclose(h[:, 0], want_h, rtol=0, atol=1e-14)
    assert np.allclose(g[0], [sys_.h1(t[0])[0, 0], sys_.h1(t[1])[0, 0]], atol=1e-14)
    want_k = [[sys_.h2(t[0], t[0]), sys_.h2(t[0], t[1])],
              [sys_.h2(t[1], t[0]), sys_.h2(t[1], t[1])]]
    assert np.allclose(K[0], np.array(want_k)[:, :, 0, 0, 0], rtol=0, atol=1e-14)


def test_weights_enter_as_square_roots():
    sys_ = scalar_s1()
    rule_p = QuadratureRule(np.array([1.0, 2.0]), np.array([0.7, 1.3]))
    rule_q = QuadratureRule(np.array([0.5]), np.array([2.0]))
    ds = collect_time_data(sys_, rule_p, rule_q)
    H = build_data_matrices(ds).H
    # linear row j=0, column i=1: phi_0 rho_1 h1(tau_0 + t_1)
    want = 2.0 * 1.3 * sys_.h1(2.5)[0, 0]
    assert abs(H[0, 1] - want) <= 1e-14
    # quadratic row (k=1, j=0), column i=0: rho_1 phi_0 rho_0 h2(t_1, tau_0+t_0)
    want = 1.3 * 2.0 * 0.7 * sys_.h2(2.0, 1.5)[0, 0, 0]
    assert abs(H[2, 0] - want) <= 1e-14


def test_dataset_shapes_and_counts():
    rng = np.random.default_rng(41)
    sys_ = random_stable_system(rng, n=6, m=2, p=3)
    rule_p, rule_q = unit_rule([0.2, 0.8, 1.7]), unit_rule([0.4, 1.1])
    ds = collect_time_data(sys_, rule_p, rule_q)
    assert (ds.Np, ds.Nq, ds.m, ds.p) == (3, 2, 2, 3)
    # time-domain nodes and weights are the rules' own
    assert np.array_equal(ds.p_nodes, rule_p.nodes)
    assert np.array_equal(ds.q_sqrt_weights, rule_q.sqrt_weights)
    assert ds.h1_sum.shape == (2, 3, 3, 2)
    assert ds.dh1_sum.shape == (2, 3, 3, 2)
    assert ds.h1_in.shape == (2, 3, 2)
    assert ds.h1_out.shape == (3, 3, 2)
    assert ds.h2_sum.shape == (3, 3, 2, 3, 2, 2)
    assert ds.h2_in.shape == (3, 3, 2, 2, 2)
    assert ds.h2_quad.shape == (3, 3, 3, 2, 2)
    dm = build_data_matrices(ds)
    rows = 2 * 3 + 3 * 3 * 2 * 2
    assert dm.H.shape == (rows, 6)
    assert dm.M.shape == (rows, 6)
    assert dm.h.shape == (rows, 2)
    assert dm.g.shape == (3, 6)
    assert len(dm.K) == 3 and dm.K[0].shape == (6, 6)


def test_dataset_validation():
    # a dataset is its domain, its two rules and its samples; the nodes,
    # weights and channel counts are derived, so they cannot be passed in
    rule = unit_rule([1.0])
    with pytest.raises(ValueError, match="domain"):
        KernelDataset("laplace", rule, rule)
    with pytest.raises(ValueError, match="time dataset is missing h1_sum"):
        KernelDataset("time", rule, rule)
    with pytest.raises(ValueError, match="freq dataset is missing tf1_in"):
        KernelDataset("freq", rule, rule)
    for side in ("rule_p", "rule_q"):
        rules = {"rule_p": rule, "rule_q": rule, side: rule.nodes}
        with pytest.raises(TypeError, match=f"^{side} must be a QuadratureRule"):
            KernelDataset("time", **rules)
    sys_ = scalar_s1()
    ds = collect_time_data(sys_, log_trapezoid(0.1, 2.0, 3), log_trapezoid(0.1, 2.0, 3))
    with pytest.raises(TypeError, match="p_nodes"):
        KernelDataset("time", ds.rule_p, ds.rule_q, p_nodes=ds.p_nodes)
    # every family must fit the node counts of the rules and the channel
    # counts of h1_in (tf1_in), which must have one node and two channel axes
    with pytest.raises(ValueError, match=r"^h1_in has shape \(3,\), expected \(N_q, p, m\)"):
        replace(ds, h1_in=ds.h1_in[:, 0, 0])
    with pytest.raises(ValueError, match=r"^h2_quad has shape \(1, 3, 2, 1, 1\)"):
        replace(ds, h2_quad=ds.h2_quad[:, :, :2])
    ds_f = collect_freq_data(sys_, log_trapezoid(0.1, 2.0, 3), log_trapezoid(0.15, 3.0, 3))
    with pytest.raises(ValueError, match=r"^tf1_in has shape \(6, 1, 1\), expected \(8, 1, 1\)"):
        replace(ds_f, rule_q=log_trapezoid(0.15, 3.0, 4))


# ----------------------------------------------- factor-product identity


def test_sample_matrices_equal_factor_products():
    rng = np.random.default_rng(43)
    for m, p in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        for _ in range(2):
            sys_ = random_stable_system(rng, n=int(rng.integers(2, 13)), m=m, p=p)
            rule_p = random_rule(rng, max_nodes=6)
            rule_q = random_rule(rng, max_nodes=5)
            ds = collect_time_data(sys_, rule_p, rule_q)
            dm = build_data_matrices(ds)
            U, L = time_factors(sys_, rule_p, rule_q)
            assert_matrices_match(dm, factor_products(sys_, U, L), tol=1e-10)


def test_quadratic_sample_symmetry():
    # K blocks sample a symmetric quadratic form on one node set
    rng = np.random.default_rng(47)
    sys_ = random_stable_system(rng, n=7, m=2, p=2)
    ds = collect_time_data(sys_, random_rule(rng), random_rule(rng))
    for Kq in build_data_matrices(ds).K:
        assert np.abs(Kq - Kq.T).max() <= 1e-13 * (1.0 + np.abs(Kq).max())


def test_silent_quadratic_channel_gives_zero_blocks():
    rng = np.random.default_rng(53)
    base = random_stable_system(rng, n=5, m=1, p=2)
    sys_ = LqoSystem(
        base.A, base.B, base.C, [base.Ms[0], np.zeros((5, 5))]
    )
    rule_p, rule_q = unit_rule([0.3, 1.0]), unit_rule([0.5, 1.2])
    ds = collect_time_data(sys_, rule_p, rule_q)
    dm = build_data_matrices(ds)
    Np, Nq, m, p = ds.Np, ds.Nq, ds.m, ds.p
    rows_per_channel = Np * Nq * m
    start = Nq * p + rows_per_channel  # channel q=1 block
    assert np.abs(dm.H[start:start + rows_per_channel]).max() <= 1e-14
    assert np.abs(dm.K[1]).max() <= 1e-14


def test_zero_quadratic_output_reduces_on_every_data_route():
    # identically zero quadratic samples leave both modes without a
    # direction above the rank tolerance; every data route must still
    # reduce the linear part as the whole matrices do
    rng = np.random.default_rng(53)
    base = random_stable_system(rng, n=5, m=2, p=2)
    sys_ = LqoSystem(base.A, base.B, base.C, [np.zeros((5, 5))] * 2)
    a, b, n = 1e-2, 10.0, 12
    shift = (b / a) ** (0.5 / (n - 1))
    rule_p, rule_q = log_trapezoid(a, b, n), log_trapezoid(a * shift, b * shift, n)
    pts = [0.4 + 1.0j, 2.0 + 0.3j]
    ds = collect_time_data(sys_, rule_p, rule_p)
    ref = reduce_from_matrices(build_data_matrices(ds), 3)
    tf_agree(ref, lqo_qbt(ds, 3), pts, rtol=1e-9, scale_sys=sys_)
    tf_agree(ref, lqo_qbt_streamed(sys_, rule_p, rule_p, [3])[1][0], pts,
             rtol=1e-9, scale_sys=sys_)
    ds_f = collect_freq_data(sys_, rule_p, rule_q)
    tf_agree(reduce_from_matrices(build_data_matrices(ds_f), 3), lqo_qbt(ds_f, 3),
             pts, rtol=1e-9, scale_sys=sys_)


# ------------------------------------------------------ sampler contract


class ScalarKernelSampler:
    """Closed-form kernel oracle for the scalar benchmark; holds no
    matrices, so collection provably needs only black-box evaluations."""

    m = 1
    p = 1

    @staticmethod
    def _sum(a, b):
        return np.exp(-(np.add.outer(np.asarray(a), np.asarray(b))))

    def h1_grid(self, a, b):
        return self._sum(a, b)[..., None, None]

    def dh1_grid(self, a, b):
        return -self._sum(a, b)[..., None, None]

    def h2_grid(self, a, b, c):
        bc = np.add.outer(np.asarray(b), np.asarray(c))
        val = np.exp(-np.asarray(a))[:, None, None] * np.exp(-bc)[None]
        return val[..., None, None, None]

    def dh2_grid(self, a, b, c):
        return -self.h2_grid(a, b, c)


def test_collection_needs_only_kernel_evaluations():
    rule_p = log_trapezoid(1e-2, 20.0, 9)
    rule_q = log_trapezoid(5e-2, 10.0, 7)
    from_sampler = collect_time_data(ScalarKernelSampler(), rule_p, rule_q)
    from_system = collect_time_data(scalar_s1(), rule_p, rule_q)
    for name in ("h1_sum", "dh1_sum", "h1_in", "h1_out",
                 "h2_sum", "dh2_sum", "h2_in", "h2_quad"):
        a, b = getattr(from_sampler, name), getattr(from_system, name)
        assert np.allclose(a, b, rtol=1e-13, atol=1e-15), name
    rom_a = lqo_qbt(from_sampler, 1)
    rom_b = lqo_qbt(from_system, 1)
    assert np.allclose(rom_a.A, rom_b.A, rtol=1e-12)
    assert np.allclose(rom_a.B, rom_b.B, rtol=1e-12)


# -------------------------------------------------------------- reduction


def test_scalar_rom_recovers_unit_gains():
    # rich rule, order 1: the reduced model matches the scalar system's
    # static gains of both transfer functions
    sys_ = scalar_s1()
    rule = log_trapezoid(1e-3, 30.0, 40)
    ds = collect_time_data(sys_, rule, rule)
    rom = lqo_qbt(ds, 1)
    assert rom.provenance == "time-qbt"
    assert abs(rom.tf1(0.0)[0, 0] - 1.0) <= 1e-3
    assert abs(rom.tf2(0.0, 0.0)[0, 0, 0] - 1.0) <= 1e-3


def test_full_rank_reduction_reproduces_system():
    # with the sample matrix at full numerical rank the reduced model is a
    # state-space change of coordinates, independent of quadrature quality
    rng = np.random.default_rng(59)
    sys_ = random_stable_system(rng, n=5)
    ds = collect_time_data(sys_, log_trapezoid(1e-2, 50.0, 12),
                           log_trapezoid(2e-2, 40.0, 12))
    dm = build_data_matrices(ds)
    S = svd(dm.H).S
    rank = int(np.count_nonzero(S > 1e-13 * S[0]))
    assert rank == 5
    rom = lqo_qbt(ds, 5)
    pts = [0.1 + 0.5j, 1.0 + 2.0j, 3.0 + 0.1j, 0.2 - 4.0j]
    tf_agree(sys_, rom, pts, rtol=1e-6)
    assert h2_error(sys_, rom) <= 1e-6 * h2_norm(sys_)


def test_quadrature_rom_approaches_intrusive_bt():
    # rich quadrature: data-driven reduction lands near the intrusive one
    sys_ = synthesize_system(12, damping=(0.2, 2.0), gain_decay=0.6, seed=7)
    rule = log_trapezoid(1e-2, 1e2, 120)
    ds = collect_time_data(sys_, rule, rule)
    norm = h2_norm(sys_)
    for r in (2, 4):
        e_bt = h2_error(sys_, intrusive_bt(sys_, r)) / norm
        e_qbt = h2_error(sys_, lqo_qbt(ds, r)) / norm
        assert e_qbt <= 1.5 * e_bt + 1e-12


def test_row_permutation_gives_equivalent_rom():
    # the reduced model sees the rows of [H | M | h] only through inner
    # products, so any orthogonal row transform leaves it unchanged; the
    # streamed path's row compression relies on this (see also
    # test_properties.py)
    rng = np.random.default_rng(61)
    sys_ = random_stable_system(rng, n=6, m=2, p=2)
    ds = collect_time_data(sys_, random_rule(rng, max_nodes=6),
                           random_rule(rng, max_nodes=6))
    dm = build_data_matrices(ds)
    rows = dm.H.shape[0]
    permutation = np.eye(rows)[rng.permutation(rows)]
    dense, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    rom = reduce_from_matrices(dm, 3)
    pts = [0.4 + 1.0j, 2.0 + 0.3j]
    for T in (permutation, dense):
        dm_t = DataMatrices(
            H=T @ dm.H, M=T @ dm.M, h=T @ dm.h, g=dm.g, K=dm.K,
            domain="time",
        )
        rom_t = reduce_from_matrices(dm_t, 3)
        tf_agree(rom, rom_t, pts, rtol=1e-8, scale_sys=sys_)


def test_reduction_order_guards():
    sys_ = scalar_s1()
    rule = log_trapezoid(0.1, 10.0, 6)
    ds = collect_time_data(sys_, rule, rule)
    with pytest.raises(ValueError):
        lqo_qbt(ds, 0)
    with pytest.raises(ValueError):
        lqo_qbt(ds, 2)  # scalar system: numerical rank 1


def test_tied_spectrum_warns_on_split():
    sys_ = LqoSystem(
        -np.eye(2), np.eye(2), np.eye(2),
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
    )
    rule = log_trapezoid(1e-2, 20.0, 12)
    ds = collect_time_data(sys_, rule, rule)
    with pytest.warns(UserWarning, match="near-tied"):
        lqo_qbt(ds, 1)
    with pytest.warns(UserWarning, match="near-tied"):
        lqo_qbt_streamed(sys_, rule, rule, [1])


def _tied_case():
    """The tied system, with observability nodes staggered by half a
    geometric step so that the frequency route can use them too."""
    sys_ = LqoSystem(
        -np.eye(2), np.eye(2), np.eye(2),
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
    )
    a, b, n = 1e-2, 20.0, 12
    shift = (b / a) ** (0.5 / (n - 1))
    return sys_, log_trapezoid(a, b, n), log_trapezoid(a * shift, b * shift, n)


@pytest.mark.parametrize("route", [
    lambda s, rp, rq: intrusive_bt(s, 1),
    lambda s, rp, rq: lqo_qbt(collect_time_data(s, rp, rq), 1),
    lambda s, rp, rq: lqo_qbt_auto(s, rp, rq, [1], domain="time"),
    lambda s, rp, rq: lqo_qbt_auto(s, rp, rq, [1], domain="freq"),
], ids=["intrusive_bt", "lqo_qbt", "auto-time", "auto-freq"])
def test_near_tie_warning_names_the_callers_line(route):
    # the warning points past the package's own frames, whatever their
    # depth on the route, to the line that called it
    sys_, rule_p, rule_q = _tied_case()
    with pytest.warns(UserWarning, match="near-tied") as record:
        route(sys_, rule_p, rule_q)
    assert record[0].filename == __file__


# --------------------------------------------------------- streamed path


def test_streamed_reduction_matches_direct():
    rng = np.random.default_rng(71)
    sys_ = random_stable_system(rng, n=8, m=2, p=2)
    rule_p = log_trapezoid(1e-2, 20.0, 14)
    rule_q = log_trapezoid(2e-2, 15.0, 9)
    ds = collect_time_data(sys_, rule_p, rule_q)
    dm = build_data_matrices(ds)
    S_direct = svd(dm.H).S
    orders = [3, 5]
    S_stream, roms = lqo_qbt_streamed(sys_, rule_p, rule_q, orders)
    assert len(roms) == len(orders)
    # the compressed rows keep every singular value the direct path resolves
    lead = S_direct > databt.RANK_TOL * S_direct[0]
    assert np.count_nonzero(S_stream > databt.RANK_TOL * S_stream[0]) == lead.sum()
    assert np.allclose(S_stream[: lead.sum()], S_direct[lead], rtol=1e-8, atol=0)
    # the two routes may differ by a diagonal sign similarity, so compare
    # models through their transfer functions, not their matrices
    pts = [0.3 + 1.2j, 1.0, 2.5 + 0.4j]
    for r, rom_s in zip(orders, roms):
        rom_d = reduce_from_matrices(dm, r)
        tf_agree(rom_d, rom_s, pts, rtol=1e-9, scale_sys=sys_)


def _spy(monkeypatch, name, seen):
    """Rebind ``databt.<name>`` to record its calls' results in `seen`."""
    fn = getattr(databt, name)

    def spied(*args, **kwargs):
        seen[name] = (args, fn(*args, **kwargs))
        return seen[name][1]

    monkeypatch.setattr(databt, name, spied)


def test_streamed_cross_core_equals_compressed_whole_rows(monkeypatch):
    # the rows read off the cross of the samples are the whole sample rows
    # of every (k, j) pair compressed onto I_p (x) V_k (x) V_j
    rng = np.random.default_rng(73)
    sys_ = random_stable_system(rng, n=6, m=2, p=2)
    rule = log_trapezoid(1e-2, 10.0, 11)
    seen = {}
    _spy(monkeypatch, "_mode_bases", seen)
    _spy(monkeypatch, "_reduce_orders", seen)
    lqo_qbt_streamed(sys_, rule, rule, [2])
    (Vk, _), (Vj, _) = seen["_mode_bases"][1]
    cross = seen["_reduce_orders"][0][0]
    whole = build_data_matrices(collect_time_data(sys_, rule, rule))
    N, m, p = len(rule), 2, 2
    nl = N * p
    for got, rows in ((cross.H, whole.H), (cross.M, whole.M)):
        quad = rows[nl:].reshape(p, N, N, m, -1)
        quad = np.einsum("kar,js,qkjac->qrsc", Vk.reshape(N, m, -1), Vj, quad)
        want = np.vstack([rows[:nl], quad.reshape(-1, rows.shape[1])])
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


class CountingSampler:
    """Forwards to a system and records the node counts of every
    second-order kernel grid call."""

    def __init__(self, sys_):
        self._sys, self.calls = sys_, []

    def __getattr__(self, name):
        attr = getattr(self._sys, name)
        if name not in ("h2_grid", "dh2_grid"):
            return attr

        def counted(a, b, c):
            self.calls.append((name, len(a), len(b), len(c)))
            return attr(a, b, c)

        return counted


def test_streamed_samples_come_in_bounded_blocks(monkeypatch):
    # past the single-node samples and the probe and held-out fibres of
    # both modes, the route reads one cross per method: at most r_k
    # controllability nodes (one per interpolation row (k, a)) and r_j
    # observability nodes, times all columns t_i
    rng = np.random.default_rng(79)
    sys_ = random_stable_system(rng, n=5)
    rule_p, rule_q = log_trapezoid(1e-2, 20.0, 23), log_trapezoid(2e-2, 15.0, 17)
    seen = {}
    _spy(monkeypatch, "_mode_bases", seen)
    sampler = CountingSampler(sys_)
    lqo_qbt_streamed(sampler, rule_p, rule_q, [2])
    (Vk, Ik), (Vj, Ij) = seen["_mode_bases"][1]
    assert (Ik.size, Ij.size) == (Vk.shape[1], Vj.shape[1])
    h2_calls = [c[1:] for c in sampler.calls if c[0] == "h2_grid"]
    dh2_calls = [c[1:] for c in sampler.calls if c[0] == "dh2_grid"]
    assert len(h2_calls) == 2 + 4 + 1 and len(dh2_calls) == 1
    assert all(c == 1 for _, _, c in h2_calls[:2])
    assert all(min(a, b) <= databt.PROBES for a, b, _ in h2_calls[2:6])
    for a, b, c in (h2_calls[-1], dh2_calls[0]):
        assert a <= Vk.shape[1] < len(rule_p)
        assert b <= Vj.shape[1] < len(rule_q)
        assert c == len(rule_p)


def test_ill_conditioned_interpolation_rows_raise(monkeypatch):
    # rows on which the basis is nearly singular amplify the round-off
    # off the basis past MODE_TOL; the held-out fibres catch it
    rng = np.random.default_rng(79)
    sys_ = random_stable_system(rng, n=5)
    rule = log_trapezoid(1e-2, 20.0, 23)

    def last_rows(V):
        # the latest nodes, where every kernel has decayed to one mode
        return np.arange(V.shape[0] - V.shape[1], V.shape[0])

    monkeypatch.setattr(databt, "_interpolation_rows", last_rows)
    with pytest.raises(ValueError, match="k-mode basis .* ill-conditioned"):
        lqo_qbt_streamed(sys_, rule, rule, [2])


def test_streamed_rank_guard():
    # the streamed path resolves the direct path's RANK_TOL rank (its
    # 14th singular value is 4e-11 of the first), so order 14 reduces
    sys_ = synthesize_system(14, damping=(0.3, 3.0), gain_decay=0.2, seed=1)
    rule = log_trapezoid(1e-2, 50.0, 30)
    S, (rom,) = lqo_qbt_streamed(sys_, rule, rule, [14])
    S_direct = svd(build_data_matrices(collect_time_data(sys_, rule, rule)).H).S
    for values in (S, S_direct):
        assert np.count_nonzero(values > databt.RANK_TOL * values[0]) == 14
    assert rom.r == 14
    with pytest.raises(ValueError, match="resolvable rank"):
        lqo_qbt_streamed(sys_, rule, rule, [15])


def test_auto_dispatch_is_transparent():
    # the time domain takes the streamed path at every node count; its
    # models match those of the whole-matrix oracle
    rng = np.random.default_rng(79)
    sys_ = random_stable_system(rng, n=6, m=1, p=1)
    rule = log_trapezoid(1e-2, 10.0, 12)
    S_auto, (rom_auto,) = lqo_qbt_auto(sys_, rule, rule, [3])
    S_stream, (rom_stream,) = lqo_qbt_streamed(sys_, rule, rule, [3])
    assert np.array_equal(S_auto, S_stream)
    for a, b in ((rom_auto.A, rom_stream.A), (rom_auto.B, rom_stream.B),
                 (rom_auto.C, rom_stream.C), (rom_auto.Ms[0], rom_stream.Ms[0])):
        assert np.array_equal(a, b)
    rom_ref = reduce_from_matrices(
        build_data_matrices(collect_time_data(sys_, rule, rule)), 3)
    pts = [0.5 + 0.5j, 1.5]
    tf_agree(rom_ref, rom_auto, pts, rtol=1e-9, scale_sys=sys_)


def test_dataset_route_matches_oracle_on_equivalence_cases(monkeypatch):
    # lqo_qbt on a time dataset reads its arrays through the sampler
    # route's cross, never the whole matrices, and gives their models
    cases = _equivalence_cases() + _mimo_cases()
    oracle = []
    for sys_, rule_p, rule_q in cases:
        ds = collect_time_data(sys_, rule_p, rule_q)
        dm = build_data_matrices(ds)
        S = svd(dm.H).S
        rank = int(np.count_nonzero(S > databt.RANK_TOL * S[0]))
        oracle.append((ds, {r: reduce_from_matrices(dm, r)
                            for r in sorted({1, (rank + 1) // 2})}))

    def whole(*args, **kwargs):
        raise AssertionError("the whole data matrices were assembled")

    monkeypatch.setattr(databt, "build_data_matrices", whole)
    pts = [0.3 + 1.2j, 1.0, 2.5 + 0.4j]
    for (sys_, _, _), (ds, refs) in zip(cases, oracle):
        for r, rom_ref in refs.items():
            tf_agree(rom_ref, lqo_qbt(ds, r), pts, rtol=1e-9, scale_sys=sys_)


class ChannelBlindSampler:
    """Forwards to a system's kernel evaluators but hides its channel
    counts ``m`` and ``p``."""

    def __init__(self, sys_):
        self._sys = sys_

    def __getattr__(self, name):
        if name in ("m", "p"):
            raise AttributeError(name)
        return getattr(self._sys, name)


def test_time_domain_needs_no_channel_counts():
    rng = np.random.default_rng(101)
    sys_ = random_stable_system(rng, n=5, m=2, p=2)
    rule = log_trapezoid(1e-2, 10.0, 7)
    S, (rom,) = lqo_qbt_auto(ChannelBlindSampler(sys_), rule, rule, [3])
    S_ref, (rom_ref,) = lqo_qbt_auto(sys_, rule, rule, [3])
    assert np.array_equal(S, S_ref)
    assert np.array_equal(rom.A, rom_ref.A)


class OscillatingSampler:
    """Forwards to a scalar system but replaces its quadratic kernel by
    ``cos(1000 z1 z2)``, whose samples over the observability nodes gain
    two new directions with every controllability node: not of low rank
    in that mode."""

    def __init__(self, sys_):
        self._sys = sys_

    def __getattr__(self, name):
        return getattr(self._sys, name)

    def h2_grid(self, a, b, c):
        z2 = np.add.outer(np.asarray(b), np.asarray(c))
        vals = np.cos(1e3 * np.multiply.outer(np.asarray(a), z2))
        return vals[..., None, None, None]


def test_held_out_fibres_reject_samples_without_low_mode_rank():
    rule = log_trapezoid(1e-2, 10.0, 20)
    with pytest.raises(ValueError, match="j-mode basis .* not of low rank"):
        lqo_qbt_streamed(OscillatingSampler(scalar_s1()), rule, rule, [1])


# ------------------------------------------------------------ persistence


def test_dataset_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(83)
    sys_ = random_stable_system(rng, n=5, m=2, p=2)
    ds = collect_time_data(sys_, random_rule(rng), random_rule(rng))
    save_dataset(ds, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert back.domain == "time"
    assert (back.m, back.p) == (ds.m, ds.p)
    assert np.array_equal(back.p_nodes, ds.p_nodes)
    assert np.array_equal(back.q_sqrt_weights, ds.q_sqrt_weights)
    assert back.rule_p.kind == ds.rule_p.kind
    assert np.array_equal(back.rule_q.nodes, ds.rule_q.nodes)
    for name in ("h1_sum", "dh1_sum", "h1_in", "h1_out",
                 "h2_sum", "dh2_sum", "h2_in", "h2_quad"):
        assert np.array_equal(getattr(back, name), getattr(ds, name)), name
    rom_a = lqo_qbt(ds, 2)
    rom_b = lqo_qbt(back, 2)
    assert np.array_equal(rom_a.A, rom_b.A)


def _write_earlier_format(ds, directory, **changes):
    """Write `ds` as save_dataset did before datasets derived their nodes,
    weights and channel counts: the archive also holds the effective
    nodes and weights, and the manifest ``m``, ``p`` and a
    ``conjugate_closure`` flag. `changes` replaces stored arrays or
    manifest entries by name."""
    fields = (["h1_sum", "dh1_sum", "h1_in", "h1_out",
               "h2_sum", "dh2_sum", "h2_in", "h2_quad"] if ds.domain == "time"
              else ["tf1_in", "tf1_out", "tf2_cross", "tf2_quad"])
    nodes = ("p_nodes", "p_sqrt_weights", "q_nodes", "q_sqrt_weights")
    arrays = {name: getattr(ds, name) for name in nodes + tuple(fields)}
    for side in ("rule_p", "rule_q"):
        arrays[f"{side}_nodes"] = getattr(ds, side).nodes
        arrays[f"{side}_sqrt_weights"] = getattr(ds, side).sqrt_weights
    manifest = {
        "domain": ds.domain, "m": ds.m, "p": ds.p, "N_p": ds.Np, "N_q": ds.Nq,
        "conjugate_closure": ds.domain == "freq",
        "rule_p": {"kind": ds.rule_p.kind}, "rule_q": {"kind": ds.rule_q.kind},
        "file": "samples.npz", "fields": fields,
    }
    for name, value in changes.items():
        (arrays if name in arrays else manifest)[name] = value
    directory.mkdir()
    np.savez(directory / "samples.npz", **arrays)
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=1))


def _earlier_datasets():
    rng = np.random.default_rng(139)
    sys_ = random_stable_system(rng, n=5, m=2, p=2)
    rule_p = log_trapezoid(0.05, 20.0, 6)
    rule_q = log_trapezoid(0.07, 28.0, 5)
    return sys_, (collect_time_data(sys_, rule_p, rule_q),
                  collect_freq_data(sys_, rule_p, rule_q))


def test_earlier_format_files_reduce_to_the_same_rom(tmp_path):
    # files that also store nodes, weights and channel counts load to the
    # dataset they were written from, and reduce to its model bit for bit
    _, datasets = _earlier_datasets()
    for ds in datasets:
        _write_earlier_format(ds, tmp_path / ds.domain)
        back = load_dataset(tmp_path / ds.domain)
        for name in ("p_nodes", "p_sqrt_weights", "q_nodes", "q_sqrt_weights"):
            assert np.array_equal(getattr(back, name), getattr(ds, name)), name
        assert (back.m, back.p) == (ds.m, ds.p)
        rom, want = lqo_qbt(back, 3), lqo_qbt(ds, 3)
        for got, ref in zip((rom.A, rom.B, rom.C, *rom.Ms),
                            (want.A, want.B, want.C, *want.Ms)):
            assert np.array_equal(got, ref), ds.domain


def test_load_refuses_earlier_files_that_disagree(tmp_path):
    sys_, (ds, ds_f) = _earlier_datasets()
    # stored weights that differ from the rule's, even where every
    # (+w, -w) pair still agrees, and stored counts that differ
    cases = [
        (ds, {"q_sqrt_weights": 2.0 * ds.q_sqrt_weights}, "q_sqrt_weights"),
        (ds_f, {"q_sqrt_weights": 2.0 * ds_f.q_sqrt_weights}, "q_sqrt_weights"),
        (ds_f, {"p_nodes": np.abs(ds_f.p_nodes)}, "p_nodes"),
        (ds, {"m": 1}, "m"),
    ]
    for i, (dataset, changes, name) in enumerate(cases):
        _write_earlier_format(dataset, tmp_path / str(i), **changes)
        with pytest.raises(ValueError, match=f"^stored {name} disagrees with"):
            load_dataset(tmp_path / str(i))
    # a frequency file collected without conjugate closure holds samples
    # at the positive nodes only, whose matrices stay complex
    th, s = 1j * ds_f.rule_p.nodes, 1j * ds_f.rule_q.nodes
    raw = {
        "conjugate_closure": False,
        "p_nodes": ds_f.rule_p.nodes, "p_sqrt_weights": ds_f.rule_p.sqrt_weights,
        "q_nodes": ds_f.rule_q.nodes, "q_sqrt_weights": ds_f.rule_q.sqrt_weights,
        "N_p": th.size, "N_q": s.size,
        "tf1_in": sys_.tf1(s), "tf1_out": sys_.tf1(th),
        "tf2_cross": np.moveaxis(sys_.tf2_grid(-th, s), 2, 0),
        "tf2_quad": np.moveaxis(sys_.tf2_grid(-th, th), 2, 0),
    }
    _write_earlier_format(ds_f, tmp_path / "raw", **raw)
    with pytest.raises(ValueError, match="written without conjugate closure"):
        load_dataset(tmp_path / "raw")


def test_load_names_the_side_of_a_bad_rule(tmp_path):
    # the rules arrive from outside through the file; a bad array is
    # refused where it enters, with the side it belongs to
    _, datasets = _earlier_datasets()
    for ds in datasets:
        save_dataset(ds, tmp_path / ds.domain)
        path = tmp_path / ds.domain / "samples.npz"
        with np.load(path) as archive:
            good = dict(archive)
        for side in ("rule_p", "rule_q"):
            nodes = good[f"{side}_nodes"]
            nan = nodes.copy()
            nan[1] = np.nan
            for name, bad in ((f"{side}_nodes", nan),
                              (f"{side}_nodes", nodes[:, None]),
                              (f"{side}_nodes", nodes[::-1]),
                              (f"{side}_sqrt_weights", -good[f"{side}_sqrt_weights"])):
                np.savez(path, **{**good, name: bad})
                with pytest.raises(ValueError, match=f"^{side}: "):
                    load_dataset(tmp_path / ds.domain)


# ------------------------------------------------------- non-finite input


@pytest.mark.parametrize("method", ["h1_grid", "dh1_grid", "h2_grid", "dh2_grid"])
@pytest.mark.parametrize("entry", [
    lambda s, rule: collect_time_data(s, rule, rule),
    lambda s, rule: lqo_qbt_streamed(s, rule, rule, [2]),
], ids=["collect_time_data", "lqo_qbt_streamed"])
def test_wrong_sample_shape_names_the_method(method, entry):
    rng = np.random.default_rng(97)
    sys_ = random_stable_system(rng, n=4, m=2, p=2)
    rule = log_trapezoid(1e-2, 10.0, 5)
    with pytest.raises(ValueError, match=rf"sampler\.{method} returned shape .* expected"):
        entry(ShortSampler(sys_, method), rule)


class CallPoisonedSampler:
    """Forwards to a system but plants one NaN in the values of the calls
    to `method` that `hit(a, b, c)` selects."""

    def __init__(self, sys_, method, hit):
        self._sys, self._method, self._hit = sys_, method, hit

    def __getattr__(self, name):
        attr = getattr(self._sys, name)
        if name != self._method:
            return attr

        def poisoned(a, b, c):
            out = np.array(attr(a, b, c))
            if self._hit(a, b, c):
                out.flat[-1] = np.nan
            return out

        return poisoned


def test_non_finite_samples_are_rejected(tmp_path):
    rng = np.random.default_rng(89)
    sys_ = random_stable_system(rng, n=4, m=2, p=2)
    rule = log_trapezoid(1e-2, 10.0, 5)
    bad = PoisonedSampler(sys_)
    with pytest.raises(ValueError, match="h2_sum holds non-finite"):
        collect_time_data(bad, rule, rule)
    with pytest.raises(ValueError, match=r"sampler\.h2_grid returned NaN or inf"):
        lqo_qbt_streamed(bad, rule, rule, [2])

    # one NaN in a probe fibre across a subset of the observability nodes,
    # or in the cross of either method (fewer than nine nodes on both
    # leading axes, which no probe, held-out or single-node call has), is
    # named as well, wherever it falls
    rule9 = log_trapezoid(1e-2, 10.0, 9)
    n = rule9.nodes.size
    cases = [
        ("h2_grid", lambda a, b, c: len(b) < n and len(c) == n),
        ("h2_grid", lambda a, b, c: len(a) < n and len(b) < n),
        ("dh2_grid", lambda a, b, c: True),
    ]
    for method, hit in cases:
        sampler = CallPoisonedSampler(sys_, method, hit)
        with pytest.raises(ValueError, match=rf"sampler\.{method} returned NaN or inf"):
            lqo_qbt_streamed(sampler, rule9, rule9, [2])

    save_dataset(collect_time_data(sys_, rule, rule), tmp_path / "ds")
    path = tmp_path / "ds" / "samples.npz"
    with np.load(path) as archive:
        arrays = dict(archive)
    arrays["h1_out"][1, 0, 1] = np.inf
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="h1_out holds non-finite"):
        load_dataset(tmp_path / "ds")
