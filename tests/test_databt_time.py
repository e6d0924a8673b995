"""Tests for time-domain data-driven balanced truncation.

The central property: the weighted kernel-sample matrices coincide with
products of explicit quadrature factors of the Gramians (built naively in
conftest), so reduction from data must reproduce reduction from factors
without ever seeing state-space matrices.
"""

import json
import os
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PoisonedSampler,
    ShortSampler,
    assert_matrices_match,
    dh1,
    dh2_dz2,
    exact_rom,
    exact_values,
    factor_products,
    h1,
    h2,
    random_rule,
    random_stable_system,
    scalar_s1,
    tf2,
    tf_agree,
    time_factors,
)
from lqobt import (
    DataMatrices,
    KernelDataset,
    LqoSystem,
    QuadratureRule,
    collect_freq_data,
    collect_time_data,
    compute_gramians,
    h2_error,
    h2_norm,
    intrusive_bt,
    load_dataset,
    log_trapezoid,
    lqo_qbt,
    lqo_qbt_auto,
    reduce_from_matrices,
    save_dataset,
    synthesize_system,
)
from lqobt import databt, gramians, numcore
from lqobt.databt import build_data_matrices, lqo_qbt_streamed
from lqobt.errors import OrderError
from lqobt.numcore import RANK_TOL, SKETCH
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
            h1(sys_, tau[0] + t[i])[0, 0],
            h1(sys_, tau[1] + t[i])[0, 0],
            h2(sys_, t[0], tau[0] + t[i])[0, 0, 0],
            h2(sys_, t[0], tau[1] + t[i])[0, 0, 0],
            h2(sys_, t[1], tau[0] + t[i])[0, 0, 0],
            h2(sys_, t[1], tau[1] + t[i])[0, 0, 0],
        ]
        assert np.allclose(H[:, i], col, rtol=0, atol=1e-14)

    M = dm.M
    assert abs(M[0, 0] - dh1(sys_, tau[0] + t[0])[0, 0]) <= 1e-14
    assert abs(M[3, 1] - dh2_dz2(sys_, t[0], tau[1] + t[1])[0, 0, 0]) <= 1e-14

    h, g, K = dm.h, dm.g, dm.K
    want_h = [
        h1(sys_, tau[0])[0, 0],
        h1(sys_, tau[1])[0, 0],
        h2(sys_, t[0], tau[0])[0, 0, 0],
        h2(sys_, t[0], tau[1])[0, 0, 0],
        h2(sys_, t[1], tau[0])[0, 0, 0],
        h2(sys_, t[1], tau[1])[0, 0, 0],
    ]
    assert np.allclose(h[:, 0], want_h, rtol=0, atol=1e-14)
    assert np.allclose(g[0], [h1(sys_, t[0])[0, 0], h1(sys_, t[1])[0, 0]], atol=1e-14)
    want_k = [[h2(sys_, t[0], t[0]), h2(sys_, t[0], t[1])],
              [h2(sys_, t[1], t[0]), h2(sys_, t[1], t[1])]]
    assert np.allclose(K[0], np.array(want_k)[:, :, 0, 0, 0], rtol=0, atol=1e-14)


def test_weights_enter_as_square_roots():
    sys_ = scalar_s1()
    rule_p = QuadratureRule(np.array([1.0, 2.0]), np.array([0.7, 1.3]))
    rule_q = QuadratureRule(np.array([0.5]), np.array([2.0]))
    ds = collect_time_data(sys_, rule_p, rule_q)
    H = build_data_matrices(ds).H
    # linear row j=0, column i=1: phi_0 rho_1 h1(tau_0 + t_1)
    want = 2.0 * 1.3 * h1(sys_, 2.5)[0, 0]
    assert abs(H[0, 1] - want) <= 1e-14
    # quadratic row (k=1, j=0), column i=0: rho_1 phi_0 rho_0 h2(t_1, tau_0+t_0)
    want = 1.3 * 2.0 * 0.7 * h2(sys_, 2.0, 1.5)[0, 0, 0]
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
    # a dataset is checked when it is made, so its samples cannot change
    for dataset, families in ((ds, databt._TIME_FIELDS), (ds_f, databt._FREQ_FIELDS)):
        for name in families:
            with pytest.raises(ValueError, match="read-only"):
                getattr(dataset, name)[...] = 0.0


def test_data_matrices_validation():
    # H and M share their shape, h its rows with H, and g and each square
    # K block their columns with H
    H, h, g, K = np.ones((4, 3)), np.ones((4, 1)), np.ones((1, 3)), [np.eye(3)]
    DataMatrices(H, H, h, g, K)
    cases = [
        ((H, H[:, :2], h, g, K), "H and M must have identical shapes"),
        ((H, H, h[:3], g, K), "h must match the rows of H"),
        ((H, H, h, g[:, :2], K), "g must match the columns of H"),
        ((H, H, h, g, [np.eye(2)]), "each K block must be square in the columns of H"),
    ]
    for fields, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            DataMatrices(*fields)


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
    ref = exact_rom(build_data_matrices(ds), 3)
    tf_agree(ref, lqo_qbt(ds, 3), pts, rtol=1e-9, scale_sys=sys_)
    tf_agree(ref, lqo_qbt_streamed(sys_, rule_p, rule_p, [3])[1][0], pts,
             rtol=1e-9, scale_sys=sys_)
    ds_f = collect_freq_data(sys_, rule_p, rule_q)
    tf_agree(exact_rom(build_data_matrices(ds_f), 3), lqo_qbt(ds_f, 3),
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
    assert abs(tf2(rom, 0.0, 0.0)[0, 0, 0] - 1.0) <= 1e-3


def test_full_rank_reduction_reproduces_system():
    # with the sample matrix at full numerical rank the reduced model is a
    # state-space change of coordinates, independent of quadrature quality
    rng = np.random.default_rng(59)
    sys_ = random_stable_system(rng, n=5)
    ds = collect_time_data(sys_, log_trapezoid(1e-2, 50.0, 12),
                           log_trapezoid(2e-2, 40.0, 12))
    S = exact_values(build_data_matrices(ds).H)
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
    assert lqo_qbt(ds, np.int64(1)).r == 1


@pytest.mark.parametrize("order", [2.5, 3.0, True], ids=["2.5", "3.0", "True"])
@pytest.mark.parametrize("route", [
    lambda s, rp, rq, r: lqo_qbt(collect_time_data(s, rp, rq), r),
    lambda s, rp, rq, r: lqo_qbt_auto(s, rp, rq, [r], domain="time"),
    lambda s, rp, rq, r: lqo_qbt_auto(s, rp, rq, [r], domain="freq"),
    lambda s, rp, rq, r: intrusive_bt(s, r),
], ids=["lqo_qbt", "auto-time", "auto-freq", "intrusive_bt"])
def test_orders_that_are_not_integers_are_refused_by_name(route, order):
    # a float indexed the singular values (IndexError) and a bool reached
    # an ambiguous array truth value; both are refused as orders
    _, rule_p, rule_q = _tied_case()
    sys_ = random_stable_system(np.random.default_rng(79), n=5)
    with pytest.raises(OrderError, match=f"order {order!r} is not an integer"):
        route(sys_, rule_p, rule_q, order)


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
    S_direct = exact_values(dm.H)
    orders = [3, 5]
    S_stream, roms = lqo_qbt_streamed(sys_, rule_p, rule_q, orders)
    assert len(roms) == len(orders)
    # the compressed rows keep every singular value the direct path resolves
    lead = S_direct > RANK_TOL * S_direct[0]
    assert np.count_nonzero(S_stream > RANK_TOL * S_stream[0]) == lead.sum()
    assert np.allclose(S_stream[: lead.sum()], S_direct[lead], rtol=1e-8, atol=0)
    # the two routes may differ by a diagonal sign similarity, so compare
    # models through their transfer functions, not their matrices
    pts = [0.3 + 1.2j, 1.0, 2.5 + 0.4j]
    for r, rom_s in zip(orders, roms):
        tf_agree(exact_rom(dm, r), rom_s, pts, rtol=1e-9, scale_sys=sys_)


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
    (Vk, _, _), (Vj, _, _) = seen["_mode_bases"][1]
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


def _recording(fn, outputs):
    """`fn`, appending each call's result to `outputs`."""

    def recorded(*args, **kwargs):
        outputs.append(fn(*args, **kwargs))
        return outputs[-1]

    return recorded


def test_each_mode_basis_is_checked_once_and_its_inverse_feeds_the_cross(monkeypatch):
    # a passing pass, in time and in frequency, checks each basis once on
    # its held-out fibres: it inverts each interpolation block once, in
    # _mode_bases, and computes no condition number; the cross applies the
    # inverse _mode_bases returns, so doubling it doubles the core in each
    # mode (exactly: a power of two) and leaves the linear rows alone
    rng = np.random.default_rng(73)
    sys_ = random_stable_system(rng, n=6, m=2, p=2)
    rule = log_trapezoid(1e-2, 10.0, 11)
    ds = collect_freq_data(sys_, log_trapezoid(0.05, 20.0, 9),
                           log_trapezoid(0.07, 28.0, 9))
    for run in (lambda: lqo_qbt_streamed(sys_, rule, rule, []),
                lambda: databt._freq_compressed(ds)):
        seen, calls = {}, {"inv": [], "cond": []}
        with monkeypatch.context() as mp:
            for name, outputs in calls.items():
                mp.setattr(np.linalg, name, _recording(getattr(np.linalg, name), outputs))
            _spy(mp, "_mode_bases", seen)
            _spy(mp, "_compressed_matrices", seen)
            run()
        bases, dm = seen["_mode_bases"][1], seen["_compressed_matrices"][1]
        assert not calls["cond"]
        assert len(calls["inv"]) == len(bases) == 2
        assert all(out is G for out, (_, _, G) in zip(calls["inv"], bases))
        with monkeypatch.context() as mp:
            mp.setattr(databt, "_mode_bases",
                       lambda *args: [(V, I, 2.0 * G) for V, I, G in bases])
            _spy(mp, "_compressed_matrices", seen)
            run()
        doubled = seen["_compressed_matrices"][1]
        nl = dm.H.shape[0] - len(dm.K) * bases[0][0].shape[1] * bases[1][0].shape[1]
        for got, want in ((doubled.H, dm.H), (doubled.M, dm.M)):
            np.testing.assert_array_equal(got[:nl], want[:nl])
            np.testing.assert_allclose(got[nl:], 4.0 * want[nl:], rtol=1e-14, atol=0.0)


class CountingSampler:
    """Forwards to a system and records the node counts of every
    second-order kernel grid call, and in `grids` its nodes."""

    def __init__(self, sys_):
        self._sys, self.calls, self.grids = sys_, [], []

    def __getattr__(self, name):
        attr = getattr(self._sys, name)
        if name not in ("h2_grid", "dh2_grid"):
            return attr

        def counted(a, b, c):
            self.calls.append((name, len(a), len(b), len(c)))
            self.grids.append((name, a, b, c))
            return attr(a, b, c)

        return counted


def test_streamed_samples_come_in_bounded_blocks(monkeypatch):
    # past the single-node samples and the probe and held-out fibres of
    # both modes, the route reads the cross in column blocks of at most
    # _CROSS_UNITS nodes t_i, each at most r_k controllability nodes (one
    # per interpolation row (k, a)) and r_j observability nodes; the
    # blocks' columns are every t_i once, in order, and h2_grid and
    # dh2_grid read the same blocks. 230 columns make three blocks
    rng = np.random.default_rng(79)
    sys_ = random_stable_system(rng, n=5)
    rule_p, rule_q = log_trapezoid(1e-2, 20.0, 230), log_trapezoid(2e-2, 15.0, 17)
    sampler = CountingSampler(sys_)
    seen = {}
    mode_bases = databt._mode_bases

    def spied(*args):
        seen["bases"] = mode_bases(*args)
        seen["calls"] = len(sampler.grids)
        return seen["bases"]

    monkeypatch.setattr(databt, "_mode_bases", spied)
    lqo_qbt_streamed(sampler, rule_p, rule_q, [2])
    (Vk, Ik, _), (Vj, Ij, _) = seen["bases"]
    assert (Ik.size, Ij.size) == (Vk.shape[1], Vj.shape[1])
    before, cross = sampler.calls[:seen["calls"]], sampler.grids[seen["calls"]:]
    assert [c[0] for c in before] == ["h2_grid"] * len(before)
    assert all(c == 1 for _, _, _, c in before[:2])
    assert all(min(a, b) <= databt.PROBES for _, a, b, _ in before[2:])
    h2 = [c[1:] for c in cross if c[0] == "h2_grid"]
    dh2 = [c[1:] for c in cross if c[0] == "dh2_grid"]
    assert len(h2) == len(dh2) == -(-len(rule_p) // databt._CROSS_UNITS) >= 2
    for block, shifted_block in zip(h2, dh2):
        for nodes, shifted_nodes in zip(block, shifted_block):
            np.testing.assert_array_equal(nodes, shifted_nodes)
        a, b, c = block
        assert a.size <= Vk.shape[1] < len(rule_p)
        assert b.size <= Vj.shape[1] < len(rule_q)
        assert c.size <= databt._CROSS_UNITS
    np.testing.assert_array_equal(np.concatenate([c for _, _, c in h2]), rule_p.nodes)


def test_cross_blocks_give_the_single_block_models(monkeypatch):
    # blocks of 3 column units (four, the last ragged, at 11 nodes or node
    # pairs) give the models of one block on every input, the time
    # sampler, the time dataset and the frequency dataset, and so those
    # of the whole-matrix oracle
    rng = np.random.default_rng(73)
    sys_ = random_stable_system(rng, n=6, m=2, p=2)
    rule = log_trapezoid(1e-2, 10.0, 11)
    ds_time = collect_time_data(sys_, rule, rule)
    ds_freq = collect_freq_data(sys_, log_trapezoid(0.05, 20.0, 11),
                                log_trapezoid(0.07, 28.0, 11))
    routes = (
        (lambda r: lqo_qbt_streamed(sys_, rule, rule, [r])[1][0], ds_time),
        (lambda r: lqo_qbt(ds_time, r), ds_time),
        (lambda r: lqo_qbt(ds_freq, r), ds_freq),
    )
    pts = [0.3 + 1.2j, 1.0, 2.5 + 0.4j]
    for route, ds in routes:
        dm = build_data_matrices(ds)
        for r in (2, 4):
            single = route(r)
            with monkeypatch.context() as mp:
                mp.setattr(databt, "_CROSS_UNITS", 3)
                blocked = route(r)
            tf_agree(single, blocked, pts, rtol=1e-12)
            tf_agree(exact_rom(dm, r), blocked, pts, rtol=1e-9, scale_sys=sys_)


def test_time_pass_asks_for_linear_quadratic_samples():
    # the probes take a column subset, so a pass on the benchmark's system
    # at N=400 asks for at most 3 n^2 N quadratic entries (2.51 M, mostly
    # the cross's 2 n^2 N), where probes at every column took 7.12 M
    n, N = 50, 400
    sys_ = synthesize_system(n, damping=(0.1, 3.0), gain_decay=0.85, seed=21)
    rule = log_trapezoid(1e-2, 1e2, N)
    sampler = CountingSampler(sys_)
    lqo_qbt_auto(sampler, rule, rule, [10])
    # one input and output, so an entry per node triple
    assert sum(a * b * c for _, a, b, c in sampler.calls) <= 3 * n**2 * N


def test_time_pass_memory_holds_no_whole_cross():
    # H and M are allocated once and the cross is written into them in
    # column blocks: 39.8 MiB traced at N=400 on the benchmark's system,
    # against 56.2 MiB when the cross was read at every column at once
    n, N = 50, 400
    sys_ = synthesize_system(n, damping=(0.1, 3.0), gain_decay=0.85, seed=21)
    rule = log_trapezoid(1e-2, 1e2, N)
    tracemalloc.start()
    try:
        _, (rom,) = lqo_qbt_auto(sys_, rule, rule, [10])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rom.r == 10
    assert peak <= 45 * 2**20


def test_data_route_factors_only_sketch_sized_matrices(monkeypatch):
    # every factorization goes through numcore.svd, which the data routes
    # call as databt.svd: per time pass the two probe unfoldings and H, each
    # factored through its projection onto a sketch of SKETCH columns
    # (transposed, by numpy's LAPACK), never whole. The intrusive route
    # factors its whole L'U once per Gramians record (Gramians.hankel), in
    # the gramians module
    sys_ = synthesize_system(10, damping=(0.1, 3.0), gain_decay=0.85, seed=21)
    rule = log_trapezoid(1e-2, 1e2, 200)
    lapack, routed, factored = [], [], []

    def spy(module, calls):
        exact = module.svd

        def spied(*args, **kwargs):
            calls.append(args[0])
            return exact(*args, **kwargs)

        monkeypatch.setattr(module, "svd", spied)

    spy(np.linalg, lapack)
    spy(databt, routed)
    spy(gramians, factored)
    for passes in (1, 2):
        lqo_qbt_auto(sys_, rule, rule, [4])
        assert len(routed) == 3 * passes and not factored
    assert all(min(X.shape) > SKETCH for X in routed)
    assert len(lapack) == len(routed)
    assert all(min(X.shape) <= SKETCH for X in lapack)
    # at n=70 L'U is 140 x 70, past the sketch width on both sides; an
    # order sweep shares its record's one SVD, a second record makes one
    big = synthesize_system(70, damping=(0.1, 3.0), gain_decay=0.85, seed=21)
    gram = compute_gramians(big)
    for r in (2, 4, 6):
        intrusive_bt(big, r, gram)
    assert len(factored) == 1 and min(factored[0].shape) > SKETCH
    assert np.array_equal(factored[0], gram.L.T @ gram.U)
    intrusive_bt(sys_, 4)
    assert len(factored) == 2 and len(routed) == 6


class _NoScipy:
    def __getattr__(self, name):
        raise AssertionError(f"scipy.linalg.{name} called on a time route")


def test_time_routes_run_in_numpy_linear_algebra_only(monkeypatch):
    # numpy and scipy each link their own OpenBLAS, whose idle workers keep
    # spinning; the time routes (node exponentials, probes, sketches, cross
    # and projection) use numpy's alone, so one thread pool runs them.
    monkeypatch.setattr(numcore, "spla", _NoScipy())
    sys_ = synthesize_system(8, damping=(0.1, 3.0), gain_decay=0.85, seed=21)
    rule = log_trapezoid(1e-2, 1e2, SKETCH + 16)
    _, (rom,) = lqo_qbt_auto(sys_, rule, rule, [4], domain="time")
    assert lqo_qbt(collect_time_data(sys_, rule, rule), 4).n == rom.n == 4


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
    S_direct = exact_values(build_data_matrices(collect_time_data(sys_, rule, rule)).H)
    for values in (S, S_direct):
        assert np.count_nonzero(values > RANK_TOL * values[0]) == 14
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
    rom_ref = exact_rom(build_data_matrices(collect_time_data(sys_, rule, rule)), 3)
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
        S = exact_values(dm.H)
        rank = int(np.count_nonzero(S > RANK_TOL * S[0]))
        oracle.append((ds, {r: exact_rom(dm, r)
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



def test_dataset_refuses_the_other_domains_samples():
    # a family of the other domain would be neither checked, nor locked,
    # nor saved, so a dataset refuses it by name however it is made
    sys_ = scalar_s1()
    rule_p, rule_q = log_trapezoid(0.1, 2.0, 3), log_trapezoid(0.15, 3.0, 3)
    ds_t, ds_f = collect_time_data(sys_, rule_p, rule_q), collect_freq_data(sys_, rule_p, rule_q)
    for ds, twin, own, other in ((ds_t, ds_f, databt._TIME_FIELDS, databt._FREQ_FIELDS),
                                 (ds_f, ds_t, databt._FREQ_FIELDS, databt._TIME_FIELDS)):
        samples = {name: getattr(ds, name) for name in own}
        for name in other:
            match = f"^{ds.domain} dataset cannot hold {name}, a family of the other domain$"
            for bad in (np.array([np.nan, 1j]), getattr(twin, name)):
                with pytest.raises(ValueError, match=match):
                    KernelDataset(ds.domain, rule_p, rule_q, **samples, **{name: bad})
                with pytest.raises(ValueError, match=match):
                    replace(ds, **{name: bad})
        assert replace(ds, **{name: None for name in other}).domain == ds.domain


def test_dataset_refuses_samples_of_the_wrong_kind(tmp_path):
    # time-domain kernels are real, so a complex time sample is refused
    # where the dataset is made, naming its field, instead of losing its
    # imaginary part in the reduction; samples of either domain must be
    # numbers
    _, (ds, ds_f) = _earlier_datasets()
    for name in ("h1_in", "h2_sum"):
        with pytest.raises(ValueError, match=f"^{name} must be an array of real "
                                             "numbers, got complex128$"):
            replace(ds, **{name: getattr(ds, name) + 1e-3j})
    for dataset, name, numbers in ((ds, "h1_out", "real numbers"),
                                   (ds_f, "tf2_quad", "numbers")):
        arr = getattr(dataset, name)
        for bad, kind in ((arr.astype(object), "object"), (arr.astype(str), "<U"),
                          (arr > 0, "bool"), (arr.tolist(), "list")):
            with pytest.raises(ValueError, match=f"^{name} must be an array of "
                                                 f"{numbers}, got {kind}"):
                replace(dataset, **{name: bad})
    save_dataset(ds, tmp_path / "ds")
    path = tmp_path / "ds" / "samples.npz"
    with np.load(path) as archive:
        arrays = dict(archive)
    np.savez(path, **{**arrays, "h1_in": arrays["h1_in"] + 1e-3j})
    with pytest.raises(ValueError, match="^h1_in must be an array of real numbers"):
        load_dataset(tmp_path / "ds")


def test_load_names_a_damaged_manifest_or_archive(tmp_path):
    _, (ds, ds_f) = _earlier_datasets()
    for dataset in (ds, ds_f):
        directory = tmp_path / dataset.domain
        save_dataset(dataset, directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        path = directory / "samples.npz"
        with np.load(path) as archive:
            arrays = dict(archive)
        families = databt._TIME_FIELDS if dataset.domain == "time" else databt._FREQ_FIELDS

        def load(changed=manifest, members=arrays):
            (directory / "manifest.json").write_text(json.dumps(changed))
            np.savez(path, **members)
            return load_dataset(directory)

        with pytest.raises(ValueError, match="^manifest has no 'domain'$"):
            load({k: v for k, v in manifest.items() if k != "domain"})
        with pytest.raises(ValueError, match="^unknown domain 'Time'$"):
            load({**manifest, "domain": "Time"})
        with pytest.raises(ValueError, match="^rule_q: manifest has no 'rule_q'$"):
            load({k: v for k, v in manifest.items() if k != "rule_q"})
        with pytest.raises(ValueError, match="^rule_p: manifest has no 'kind'$"):
            load({**manifest, "rule_p": {}})
        for member, prefix in ((families[1], ""), ("rule_q_sqrt_weights", "rule_q: ")):
            with pytest.raises(ValueError, match=f"^{prefix}samples.npz has no "
                                                 f"'{member}'$"):
                load(members={k: v for k, v in arrays.items() if k != member})
        back = load()
        for name in families:
            assert np.array_equal(getattr(back, name), getattr(dataset, name))
        path.unlink()
        with pytest.raises(FileNotFoundError, match="samples.npz"):
            load_dataset(directory)


def test_load_reads_the_domain_families_whatever_the_manifest_lists(tmp_path):
    # the archive's members follow from the domain; the file name and
    # field list of earlier manifests are not read, so a listed name that
    # is no sample family, or a file elsewhere, changes nothing
    _, (ds, ds_f) = _earlier_datasets()
    save_dataset(ds, tmp_path / "elsewhere")
    for dataset in (ds, ds_f):
        directory = tmp_path / dataset.domain
        save_dataset(dataset, directory)
        families = databt._TIME_FIELDS if dataset.domain == "time" else databt._FREQ_FIELDS
        manifest = json.loads((directory / "manifest.json").read_text())
        assert set(manifest) == {"domain", "rule_p", "rule_q"}
        for extra in ({"fields": [*families, "rule_p_nodes"]},
                      {"fields": ["h1_in"], "file": "../elsewhere/samples.npz"}):
            (directory / "manifest.json").write_text(json.dumps({**manifest, **extra}))
            back = load_dataset(directory)
            for name in (*families, "p_nodes", "p_sqrt_weights", "q_nodes",
                         "q_sqrt_weights"):
                assert np.array_equal(getattr(back, name), getattr(dataset, name)), name


def _corrupt(corruption, pick, manifest, arrays, families):
    """Apply one corruption to a saved dataset's manifest and archive
    members, in place; returns the name an error must give."""
    name = families[pick % len(families)]
    if corruption in ("drop member", "rename member", "nan in member"):
        name = sorted(arrays)[pick % len(arrays)]
    if corruption == "drop domain":
        del manifest["domain"]
        return "domain"
    if corruption == "drop kind":
        side = ("rule_p", "rule_q")[pick % 2]
        del manifest[side]["kind"]
        return f"{side}: manifest has no 'kind'"
    if corruption in ("drop member", "rename member"):
        value = arrays.pop(name)
        if corruption == "rename member":
            arrays[name + "_old"] = value
        return name
    if corruption == "complex family":
        arrays[name] = arrays[name] + 1e-3j
    elif corruption == "truncate family":
        arrays[name] = arrays[name][:-1]
    else:  # nan in member
        arrays[name] = arrays[name].astype(arrays[name].dtype, copy=True)
        arrays[name].flat[pick % arrays[name].size] = np.nan
    # a rule's arrays are refused with the side they belong to
    return f"{name[:6]}: " if name.startswith("rule_") else name


@settings(derandomize=True, deadline=None, max_examples=80)
@given(domain=st.sampled_from(["time", "freq"]),
       corruption=st.sampled_from(["drop member", "rename member", "drop domain",
                                   "drop kind", "complex family", "truncate family",
                                   "nan in member"]),
       pick=st.integers(0, 2**16))
def test_load_names_a_corruption_or_returns_the_saved_dataset(domain, corruption, pick):
    # a damaged file either raises a ValueError naming the key or field, or
    # loads to the dataset it was saved from, array for array
    ds = dict(zip(("time", "freq"), _earlier_datasets()[1]))[domain]
    families = databt._TIME_FIELDS if domain == "time" else databt._FREQ_FIELDS
    with tempfile.TemporaryDirectory() as directory:
        save_dataset(ds, directory)
        with open(os.path.join(directory, "manifest.json")) as f:
            manifest = json.load(f)
        with np.load(os.path.join(directory, "samples.npz")) as archive:
            arrays = dict(archive)
        named = _corrupt(corruption, pick, manifest, arrays, families)
        with open(os.path.join(directory, "manifest.json"), "w") as f:
            json.dump(manifest, f)
        np.savez(os.path.join(directory, "samples.npz"), **arrays)
        try:
            back = load_dataset(directory)
        except ValueError as exc:
            assert named in str(exc), (corruption, str(exc))
            return
    for side in ("rule_p", "rule_q"):
        for name in ("nodes", "sqrt_weights"):
            assert np.array_equal(getattr(getattr(back, side), name),
                                  getattr(getattr(ds, side), name))
    for name in families:
        assert np.array_equal(getattr(back, name), getattr(ds, name)), name


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
    with pytest.raises(ValueError, match=r"sampler\.h2_grid returned NaN or inf"):
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
