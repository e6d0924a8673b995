"""Tests for frequency-domain data-driven balanced truncation.

The sample matrices are Loewner-type divided differences of transfer
function values. Collection always closes the node sets under
conjugation, mirroring them to negative frequencies, and a fixed
conjugate-pair unitary turns all matrices real; reduction must then agree
with the time-domain route and, at full rank, with the original system
exactly. The complex matrices before that pairing are the oracle.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    PoisonedSampler,
    ShortSampler,
    UncallableSampler,
    assert_matrices_match,
    complex_freq_matrices,
    exact_rom,
    exact_values,
    factor_products,
    freq_factors,
    random_rule,
    random_stable_system,
    scalar_s1,
    tf2,
    tf_agree,
)
from lqobt import (
    LqoSystem,
    QuadratureRule,
    collect_freq_data,
    collect_time_data,
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
from lqobt import databt
from lqobt.databt import build_data_matrices
from lqobt.errors import FrequencyCollisionError
from lqobt.numcore import RANK_TOL, svd
from test_acceptance import _equivalence_cases


def rule_of(nodes, sw=None):
    nodes = np.asarray(nodes, dtype=float)
    sw = np.ones(nodes.size) if sw is None else np.asarray(sw, dtype=float)
    return QuadratureRule(nodes, sw)


# ------------------------------------------------------------- collection


def test_conjugate_closure_interleaves_signed_nodes():
    sys_ = scalar_s1()
    rule_p = rule_of([1.0, 3.0], [0.8, 1.2])
    rule_q = rule_of([0.5, 2.0, 5.0])
    ds = collect_freq_data(sys_, rule_p, rule_q)
    assert ds.domain == "freq" and (ds.m, ds.p) == (1, 1)
    assert np.array_equal(ds.p_nodes, [1.0, -1.0, 3.0, -3.0])
    assert np.array_equal(ds.q_nodes, [0.5, -0.5, 2.0, -2.0, 5.0, -5.0])
    want = np.repeat(np.array([0.8, 1.2]) / np.sqrt(2.0 * np.pi), 2)
    assert np.allclose(ds.p_sqrt_weights, want, rtol=1e-15)
    assert ds.tf2_cross.shape == (1, 4, 6, 1, 1)


def test_colliding_node_sets_rejected(tmp_path):
    sys_ = scalar_s1()
    with pytest.raises(FrequencyCollisionError):
        collect_freq_data(sys_, rule_of([1.0, 2.0]), rule_of([2.0, 3.0]))
    with pytest.raises(FrequencyCollisionError):
        collect_freq_data(
            sys_, rule_of([1.0]), rule_of([1.0 + 1e-14])
        )
    # a dataset made any other way is checked as well: one copied with the
    # same rule on both sides, or loaded from a file whose rules collide
    ds = collect_freq_data(sys_, rule_of([1.0, 3.0]), rule_of([0.5, 2.0]))
    with pytest.raises(FrequencyCollisionError):
        replace(ds, rule_q=ds.rule_p)
    save_dataset(ds, tmp_path / "ds")
    path = tmp_path / "ds" / "samples.npz"
    with np.load(path) as archive:
        arrays = dict(archive)
    for name in ("nodes", "sqrt_weights"):
        arrays[f"rule_q_{name}"] = arrays[f"rule_p_{name}"]
    np.savez(path, **arrays)
    with pytest.raises(FrequencyCollisionError):
        load_dataset(tmp_path / "ds")


def test_samples_are_transfer_values():
    sys_ = scalar_s1()
    ds = collect_freq_data(sys_, rule_of([1.0, 3.0]), rule_of([0.5, 2.0]))
    th, s = ds.p_nodes, ds.q_nodes
    for j, sj in enumerate(s):
        assert abs(ds.tf1_in[j, 0, 0] - 1.0 / (1.0 + 1j * sj)) <= 1e-14
    for k, tk in enumerate(th):
        for j, sj in enumerate(s):
            want = 1.0 / ((1.0 - 1j * tk) * (1.0 + 1j * sj))
            assert abs(ds.tf2_cross[0, k, j, 0, 0] - want) <= 1e-14
        for l, tl in enumerate(th):
            want = 1.0 / ((1.0 - 1j * tk) * (1.0 + 1j * tl))
            assert abs(ds.tf2_quad[0, k, l, 0, 0] - want) <= 1e-14


# -------------------------------------------------------- matrix assembly


def test_scalar_loewner_entries_closed_form():
    # for H1(s) = 1/(s+1) the divided differences collapse to products of
    # simple poles, giving every entry of the complex matrices in closed
    # form, at the mirrored nodes as at the positive ones
    sys_ = scalar_s1()
    rule_p = rule_of([1.0, 3.0], [0.8, 1.2])
    rule_q = rule_of([0.5, 2.0], [1.5, 0.6])
    ds = collect_freq_data(sys_, rule_p, rule_q)
    dm = complex_freq_matrices(ds)
    th, rho = ds.p_nodes, ds.p_sqrt_weights
    s, phi = ds.q_nodes, ds.q_sqrt_weights

    for k in range(4):
        for l in range(4):
            pole = (1.0 + 1j * s[k]) * (1.0 + 1j * th[l])
            assert abs(dm.H[k, l] - phi[k] * rho[l] / pole) <= 1e-14
            assert abs(dm.M[k, l] + phi[k] * rho[l] / pole) <= 1e-14
    row = 4  # quadratic block, (k=0, j=0)
    for l in range(4):
        want = (
            rho[0] * phi[0] * rho[l]
            / ((1.0 - 1j * th[0]) * (1.0 + 1j * s[0]) * (1.0 + 1j * th[l]))
        )
        assert abs(dm.H[row, l] - want) <= 1e-14
    for l in range(4):
        assert abs(dm.g[0, l] - rho[l] / (1.0 + 1j * th[l])) <= 1e-14
        for k in range(4):
            want = rho[l] * rho[k] / ((1.0 - 1j * th[l]) * (1.0 + 1j * th[k]))
            assert abs(dm.K[0][l, k] - want) <= 1e-14
    # input block: first linear, then quadratic rows
    assert abs(dm.h[0, 0] - phi[0] / (1.0 + 1j * s[0])) <= 1e-14
    want = rho[0] * phi[0] / ((1.0 - 1j * th[0]) * (1.0 + 1j * s[0]))
    assert abs(dm.h[row, 0] - want) <= 1e-14


def test_sample_matrices_equal_resolvent_factor_products():
    # the complex matrices are conjugate transposed products of explicit
    # resolvent factors at the closed nodes and weights
    rng = np.random.default_rng(89)
    for m, p in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        sys_ = random_stable_system(rng, n=int(rng.integers(3, 11)), m=m, p=p)
        rule_p = random_rule(rng, max_nodes=5, lo=0.2, hi=4.0)
        rule_q = random_rule(rng, max_nodes=4, lo=0.2, hi=4.0, avoid=rule_p)
        ds = collect_freq_data(sys_, rule_p, rule_q)
        dm = complex_freq_matrices(ds)
        U, L = freq_factors(
            sys_, ds.p_nodes, ds.p_sqrt_weights,
            ds.q_nodes, ds.q_sqrt_weights,
        )
        prods = factor_products(sys_, U, L, hermitian=True)
        assert_matrices_match(dm, prods, tol=1e-10)


def test_quadratic_blocks_are_hermitian():
    rng = np.random.default_rng(97)
    sys_ = random_stable_system(rng, n=6, m=2, p=2)
    rule_p = random_rule(rng, lo=0.3, hi=5.0)
    rule_q = random_rule(rng, lo=0.3, hi=5.0, avoid=rule_p)
    ds = collect_freq_data(sys_, rule_p, rule_q)
    dm = complex_freq_matrices(ds)
    for Kq in dm.K:
        assert np.abs(Kq - Kq.conj().T).max() <= 1e-13 * (1 + np.abs(Kq).max())


# ---------------------------------------------------------- realification


def _pair_unitary():
    return np.array([[1.0, 1.0], [-1.0j, 1.0j]]) / np.sqrt(2.0)


@pytest.mark.parametrize("m, p", [(2, 1), (1, 2), (2, 2)])
def test_realification_matches_explicit_unitary(m, p):
    # the axis-wise pair transform must equal the full Kronecker unitary
    # (formed explicitly here, which only the test can afford); the second
    # rule pair has different node counts on the two sides (10 and 8 after
    # closure), and the input and output counts differ, so a swapped axis
    # in the layout cannot go unnoticed
    rng = np.random.default_rng(101)
    sys_ = random_stable_system(rng, n=3, m=m, p=p)
    for rule_p, rule_q in [
        (rule_of([0.7, 2.0], [0.9, 1.4]), rule_of([0.4, 1.1], [1.2, 0.8])),
        (log_trapezoid(0.05, 20.0, 5), log_trapezoid(0.07, 28.0, 4)),
    ]:
        _check_against_explicit_unitary(collect_freq_data(sys_, rule_p, rule_q))


def _check_against_explicit_unitary(ds):
    dm_c = complex_freq_matrices(ds)
    dm_r = build_data_matrices(ds)
    for X in (dm_r.H, dm_r.M, dm_r.h, dm_r.g, *dm_r.K):
        assert not np.iscomplexobj(X)

    Np, Nq, m, p = ds.Np, ds.Nq, ds.m, ds.p
    T2 = _pair_unitary()
    assert np.abs(T2 @ T2.conj().T - np.eye(2)).max() <= 1e-15
    T_lin = np.kron(np.eye(Nq // 2), np.kron(T2, np.eye(p)))
    T_quad = np.kron(
        np.eye(p),
        np.kron(
            np.eye(Np // 2),
            np.kron(T2, np.kron(np.eye(Nq // 2), np.kron(T2, np.eye(m)))),
        ),
    )
    nl = Nq * p
    T_rows = np.zeros((dm_c.H.shape[0],) * 2, dtype=complex)
    T_rows[:nl, :nl] = T_lin
    T_rows[nl:, nl:] = T_quad
    # columns (l pair, slot, b) paired, then permuted to (l pair, b, slot)
    perm = np.arange(Np * m).reshape(Np // 2, 2, m).transpose(0, 2, 1).ravel()
    T_cols = np.kron(np.eye(Np // 2), np.kron(T2, np.eye(m)))[perm]

    def close(got, want):
        scale = 1.0 + np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-10 * scale

    close(dm_r.H, T_rows @ dm_c.H @ T_cols.conj().T)
    close(dm_r.M, T_rows @ dm_c.M @ T_cols.conj().T)
    close(dm_r.h, T_rows @ dm_c.h)
    close(dm_r.g, dm_c.g @ T_cols.conj().T)
    for Kr, Kc in zip(dm_r.K, dm_c.K):
        close(Kr, T_cols @ Kc @ T_cols.conj().T)


def test_realification_preserves_singular_values():
    rng = np.random.default_rng(103)
    sys_ = random_stable_system(rng, n=5, m=2, p=1)
    rule_p = random_rule(rng, lo=0.2, hi=3.0)
    rule_q = random_rule(rng, lo=0.2, hi=3.0, avoid=rule_p)
    ds = collect_freq_data(sys_, rule_p, rule_q)
    S_c = exact_values(complex_freq_matrices(ds).H)
    S_r = exact_values(build_data_matrices(ds).H)
    assert np.allclose(S_r, S_c, rtol=1e-10, atol=1e-12 * S_c[0])


def test_complex_matrices_cannot_be_reduced():
    sys_ = scalar_s1()
    ds = collect_freq_data(sys_, rule_of([1.0, 2.0]), rule_of([0.5, 3.0]))
    with pytest.raises(ValueError, match=(
        r"^complex data matrices cannot produce a real reduced model; "
        r"collect frequency data with collect_freq_data, whose routes realify it$"
    )):
        reduce_from_matrices(complex_freq_matrices(ds), 1)


# --------------------------------------------------------------- reduction


def test_scalar_freq_rom_recovers_system():
    sys_ = scalar_s1()
    rule_p = log_trapezoid(1e-2, 1e2, 12)
    rule_q = log_trapezoid(1.5e-2, 1.5e2, 12)
    ds = collect_freq_data(sys_, rule_p, rule_q)
    rom = lqo_qbt(ds, 1)
    assert rom.provenance == "freq-qbt"
    assert abs(rom.A[0, 0] + 1.0) <= 1e-6
    assert abs(rom.tf1(0.0)[0, 0] - 1.0) <= 1e-6
    assert abs(tf2(rom, 0.0, 0.0)[0, 0, 0] - 1.0) <= 1e-6


def test_full_rank_freq_reduction_is_exact():
    # regardless of quadrature weights, a full-rank sample matrix makes the
    # reduced model a change of coordinates of the original system
    rng = np.random.default_rng(101)
    sys_ = random_stable_system(rng, n=4, m=2, p=2)
    rule_p = log_trapezoid(0.05, 20.0, 6)
    rule_q = log_trapezoid(0.08, 25.0, 6)
    ds = collect_freq_data(sys_, rule_p, rule_q)
    S = exact_values(build_data_matrices(ds).H)
    assert int(np.count_nonzero(S > 1e-13 * S[0])) == 4
    rom = lqo_qbt(ds, 4)
    pts = [0.3 + 1.0j, 1.5 + 0.2j, 0.1 - 2.0j]
    tf_agree(sys_, rom, pts, rtol=1e-9)
    assert h2_error(sys_, rom) <= 1e-9 * h2_norm(sys_)


def test_time_and_freq_routes_agree():
    # both data routes approximate the same balanced truncation, so their
    # relative errors must track the intrusive one closely
    sys_ = synthesize_system(6, damping=(0.2, 2.0), gain_decay=0.7, seed=11)
    norm = h2_norm(sys_)
    e_bt = h2_error(sys_, intrusive_bt(sys_, 2)) / norm

    rt = log_trapezoid(1e-2, 1e2, 100)
    e_time = h2_error(sys_, lqo_qbt(collect_time_data(sys_, rt, rt), 2)) / norm

    rule_p = log_trapezoid(1e-2, 1e3, 40)
    shift = (1e3 / 1e-2) ** (0.5 / 39)
    rule_q = log_trapezoid(1e-2 * shift, 1e3 * shift, 40)
    e_freq = h2_error(sys_, lqo_qbt(collect_freq_data(sys_, rule_p, rule_q), 2)) / norm

    assert e_time <= 1.2 * e_bt
    assert e_freq <= 1.2 * e_bt


# ------------------------------------------------------ compressed route


def _assert_resolved_values_match(S, S_full, floor=0.0):
    """The singular values above ``RANK_TOL`` agree in count, and in value
    to 1e-8 relative or `floor` times the largest."""
    lead = S_full > RANK_TOL * S_full[0]
    assert np.count_nonzero(S > RANK_TOL * S[0]) == lead.sum()
    assert np.allclose(S[: lead.sum()], S_full[lead], rtol=1e-8,
                       atol=floor * S_full[0])


def _assert_matches_oracle(sys_, ds, orders, pts, floor=0.0):
    """The compressed route against the whole real matrices and their
    exact SVD: resolved singular values, and the reduced models through
    their transfer functions (the routes may differ by a diagonal sign
    similarity)."""
    dm_full = build_data_matrices(ds)
    S_full = exact_values(dm_full.H)
    dm = databt._freq_compressed(ds)
    _assert_resolved_values_match(svd(dm.H).S, S_full, floor)
    for r in orders:
        tf_agree(exact_rom(dm_full, r), lqo_qbt(ds, r), pts,
                 rtol=1e-9, scale_sys=sys_)
    return dm


def test_compressed_route_matches_oracle_on_equivalence_cases():
    # some of these resolve singular values down to 3e-11 of the largest;
    # a row permutation of the whole matrix alone moves those by up to
    # 3e-7 relative, 3e-16 of the largest, so below 1e-8 relative they are
    # held to the decomposition's own backward error
    pts = [0.3 + 1.2j, 1.0, 2.5 + 0.4j]
    for sys_, rule_p, rule_q in _equivalence_cases():
        ds = collect_freq_data(sys_, rule_p, rule_q)
        S = exact_values(build_data_matrices(ds).H)
        rank = int(np.count_nonzero(S > RANK_TOL * S[0]))
        _assert_matches_oracle(sys_, ds, sorted({1, (rank + 1) // 2}), pts,
                               floor=1e-14)


def test_compressed_route_matches_oracle_on_acceptance_system():
    # the freq_direct benchmark's configuration: n=50, 100 nodes a side
    # staggered by half a geometric step, 200 after closure
    sys_ = synthesize_system(50, damping=(0.1, 3.0), gain_decay=0.85, seed=21)
    a, b, n_nodes = 1e-2, 1e2, 100
    shift = (b / a) ** (0.5 / (n_nodes - 1))
    ds = collect_freq_data(sys_, log_trapezoid(a, b, n_nodes),
                           log_trapezoid(a * shift, b * shift, n_nodes))
    dm = _assert_matches_oracle(sys_, ds, [10, 20], [0.3 + 1.2j, 1.0, 2.5 + 0.4j])
    # 200 linear rows and 50 x 50 quadratic ones, not the whole 40,200
    assert dm.H.shape == (2700, 200)


def test_compressed_route_never_builds_the_whole_rows(monkeypatch):
    rng = np.random.default_rng(131)
    sys_ = random_stable_system(rng, n=5, m=2, p=2)
    rule_p = log_trapezoid(0.05, 20.0, 12)
    rule_q = log_trapezoid(0.07, 28.0, 12)
    ds = collect_freq_data(sys_, rule_p, rule_q)
    rom_ref = exact_rom(build_data_matrices(ds), 3)

    def whole(*args, **kwargs):
        raise AssertionError("the whole data matrices were assembled")

    sizes = []
    loewner = databt._loewner

    def recorded(*args):
        out = loewner(*args)
        sizes.append(out.nbytes)
        return out

    monkeypatch.setattr(databt, "build_data_matrices", whole)
    monkeypatch.setattr(databt, "_loewner", recorded)
    rom = lqo_qbt(ds, 3)
    _, (rom_auto,) = lqo_qbt_auto(sys_, rule_p, rule_q, [3], domain="freq")
    # the positive-node half of the complex quadratic rows, which the
    # whole real rows are made of
    half = 16 * ds.p * ds.m**2 * (ds.Np // 2) * ds.Nq * ds.Np
    assert sizes and max(sizes) < half
    pts = [0.5 + 0.5j, 1.5]
    for got in (rom, rom_auto):
        tf_agree(rom_ref, got, pts, rtol=1e-9, scale_sys=sys_)


def _spy(monkeypatch, name, seen):
    """Rebind ``databt.<name>`` to record its calls' results in `seen`."""
    fn = getattr(databt, name)

    def spied(*args, **kwargs):
        seen[name] = fn(*args, **kwargs)
        return seen[name]

    monkeypatch.setattr(databt, name, spied)


def test_freq_cross_core_equals_compressed_whole_rows(monkeypatch):
    # the rows read off the cross of the real Loewner rows are the whole
    # real rows of every (k, j) pair compressed onto I_p (x) V_k (x) V_j;
    # two inputs and outputs, so the rows I_k pick inputs and pair slots
    rng = np.random.default_rng(137)
    sys_ = random_stable_system(rng, n=6, m=2, p=2)
    ds = collect_freq_data(sys_, log_trapezoid(0.05, 20.0, 9),
                           log_trapezoid(0.07, 28.0, 9))
    seen = {}
    _spy(monkeypatch, "_mode_bases", seen)
    cross = databt._freq_compressed(ds)
    (Vk, Ik, _), (Vj, Ij, _) = seen["_mode_bases"]
    assert (Ik.size, Ij.size) == (Vk.shape[1], Vj.shape[1])
    whole = build_data_matrices(ds)
    Np, Nq, m, p = ds.Np, ds.Nq, ds.m, ds.p
    nl = Nq * p
    for got, rows in ((cross.H, whole.H), (cross.M, whole.M)):
        quad = rows[nl:].reshape(p, Np, Nq, m, -1)
        quad = np.einsum("kar,js,qkjac->qrsc", Vk.reshape(Np, m, -1), Vj, quad)
        want = np.vstack([rows[:nl], quad.reshape(-1, rows.shape[1])])
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_probe_columns_double_until_the_held_out_gate_passes(monkeypatch):
    # at 40 nodes a side the n=50 system's k-mode probes at 16 column
    # pairs leave held-out fibres off their interpolant; the probes widen
    # to 32 of the 40 pairs, and the route still gives the oracle's model
    sys_ = synthesize_system(50, damping=(0.1, 3.0), gain_decay=0.85, seed=21)
    a, b, n_nodes = 1e-2, 1e2, 40
    shift = (b / a) ** (0.5 / (n_nodes - 1))
    ds = collect_freq_data(sys_, log_trapezoid(a, b, n_nodes),
                           log_trapezoid(a * shift, b * shift, n_nodes))
    shapes = []
    factor = databt.svd

    def spied(X, *args, **kwargs):
        shapes.append(X.shape)
        return factor(X, *args, **kwargs)

    monkeypatch.setattr(databt, "svd", spied)
    lqo_qbt(ds, 10)
    # the k mode twice, then the j mode and H
    assert len(shapes) == 4
    assert shapes[1] == (shapes[0][0], 2 * shapes[0][1])
    # two real fibres per probe pair, two real columns per column pair
    assert shapes[1][1] == (2 * databt.PROBES) * 2 * 32
    _assert_matches_oracle(sys_, ds, [4, 10, 20], [0.3 + 1.2j, 1.0, 2.5 + 0.4j])


def test_freq_route_memory_has_no_node_count_bound():
    # the probes hold the real Loewner rows at a column subset, not O(N^3)
    # slabs, and the cross is written into H and M in column blocks: 108
    # MiB traced at 512 nodes a side, against 165 MiB with the whole cross
    # and 409 MiB with probes at every column pair; and 513 a side, which a
    # size bound used to refuse, runs as well
    a, b = 1e-2, 1e2
    for n_nodes in (512, 513):
        sys_ = synthesize_system(50, damping=(0.1, 3.0), gain_decay=0.85, seed=21)
        shift = (b / a) ** (0.5 / (n_nodes - 1))
        rules = (log_trapezoid(a, b, n_nodes),
                 log_trapezoid(a * shift, b * shift, n_nodes))
        tracemalloc.start()
        try:
            _, (rom,) = lqo_qbt_auto(sys_, *rules, [10], domain="freq")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rom.r == 10
        assert peak <= 130 * 2**20


def test_freq_ill_conditioned_interpolation_rows_raise(monkeypatch):
    # as on the time route: rows on which the basis is nearly singular
    # amplify the round-off off the basis past MODE_TOL, and the held-out
    # fibres catch it
    rng = np.random.default_rng(79)
    sys_ = random_stable_system(rng, n=5)
    a, b, n_nodes = 1e-2, 1e4, 23
    shift = (b / a) ** (0.5 / (n_nodes - 1))
    ds = collect_freq_data(sys_, log_trapezoid(a, b, n_nodes),
                           log_trapezoid(a * shift, b * shift, n_nodes))

    def last_rows(V):
        # the highest frequencies, where every resolvent is nearly 1/(i w)
        return np.arange(V.shape[0] - V.shape[1], V.shape[0])

    monkeypatch.setattr(databt, "_interpolation_rows", last_rows)
    with pytest.raises(ValueError, match="k-mode basis .* ill-conditioned"):
        lqo_qbt(ds, 2)


class MovingPoleTransfer:
    """Forwards to a scalar system but replaces its quadratic transfer
    function by ``1 / (s2 + 1 + s1^2)``, real-coefficient and so conjugate
    symmetric. Its Loewner rows at one controllability node have rank one
    in ``j``, but the pole moves with the node, so every node pair adds new
    directions in that mode: not of low rank there. (A transcendental
    ``cos(1000 s1 s2)`` is of full rank at every node, so the probes alone
    span the whole mode and the check has nothing to find.)"""

    def __init__(self, sys_):
        self._sys = sys_

    def __getattr__(self, name):
        return getattr(self._sys, name)

    def tf2_grid(self, s1s, s2s):
        s1, s2 = np.asarray(s1s)[:, None], np.asarray(s2s)[None, :]
        return (1.0 / (s2 + 1.0 + s1**2))[..., None, None, None]


def test_held_out_slices_reject_samples_without_low_mode_rank():
    a, b, n_nodes = 1e-2, 10.0, 20
    shift = (b / a) ** (0.5 / (n_nodes - 1))
    ds = collect_freq_data(MovingPoleTransfer(scalar_s1()),
                           log_trapezoid(a, b, n_nodes),
                           log_trapezoid(a * shift, b * shift, n_nodes))
    with pytest.raises(ValueError, match="j-mode basis .* not of low rank"):
        lqo_qbt(ds, 1)


# ------------------------------------------------------- misc and round trip


def test_domain_guards():
    sys_ = scalar_s1()
    rule = rule_of([1.0, 2.0])
    time_ds = collect_time_data(sys_, rule, rule)
    # the entry points dispatch on the dataset's domain
    freq_ds = collect_freq_data(sys_, rule, rule_of([0.5, 3.0]))
    assert build_data_matrices(time_ds).domain == "time"
    assert build_data_matrices(freq_ds).domain == "freq"
    assert lqo_qbt(time_ds, 1).provenance == "time-qbt"
    assert lqo_qbt(freq_ds, 1).provenance == "freq-qbt"


def test_freq_dataset_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(107)
    sys_ = random_stable_system(rng, n=4, m=2, p=2)
    rule_p = random_rule(rng, lo=0.2, hi=3.0)
    rule_q = random_rule(rng, lo=0.2, hi=3.0, avoid=rule_p)
    ds = collect_freq_data(sys_, rule_p, rule_q)
    save_dataset(ds, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert back.domain == "freq" and (back.m, back.p) == (ds.m, ds.p)
    assert np.array_equal(back.p_nodes, ds.p_nodes)
    assert np.array_equal(back.q_sqrt_weights, ds.q_sqrt_weights)
    for name in ("tf1_in", "tf1_out", "tf2_cross", "tf2_quad"):
        got, want = getattr(back, name), getattr(ds, name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), name
    rom_a = lqo_qbt(ds, 2)
    rom_b = lqo_qbt(back, 2)
    assert np.array_equal(rom_a.A, rom_b.A)


def test_auto_freq_matches_lqo_qbt_bit_for_bit():
    rng = np.random.default_rng(109)
    sys_ = random_stable_system(rng, n=5, m=2, p=2)
    rule_p = log_trapezoid(0.05, 20.0, 8)
    rule_q = log_trapezoid(0.07, 28.0, 8)
    S, roms = lqo_qbt_auto(sys_, rule_p, rule_q, [2, 4], domain="freq")
    ds = collect_freq_data(sys_, rule_p, rule_q)
    # the singular values are those of the compressed rows, which keep
    # every one the whole matrix resolves
    _assert_resolved_values_match(S, exact_values(build_data_matrices(ds).H))
    for r, rom in zip([2, 4], roms):
        ref = lqo_qbt(ds, r)
        assert rom.provenance == "freq-qbt"
        for name in ("A", "B", "C"):
            assert np.array_equal(getattr(rom, name), getattr(ref, name)), name
        for got, want in zip(rom.Ms, ref.Ms):
            assert np.array_equal(got, want)


class TransferSampler:
    """Nothing but a system's two transfer-function evaluations: no
    channel counts and no state-space matrices."""

    def __init__(self, sys_):
        self.tf1, self.tf2_grid = sys_.tf1, sys_.tf2_grid


def test_auto_freq_needs_only_transfer_evaluations():
    # the frequency route reads the channel counts off the tf1 samples, so
    # a sampler without m and p reduces to the system's models bit for bit
    rng = np.random.default_rng(109)
    sys_ = random_stable_system(rng, n=5, m=2, p=2)
    rule_p = log_trapezoid(0.05, 20.0, 8)
    rule_q = log_trapezoid(0.07, 28.0, 8)
    S, roms = lqo_qbt_auto(TransferSampler(sys_), rule_p, rule_q, [2, 4], domain="freq")
    S_ref, roms_ref = lqo_qbt_auto(sys_, rule_p, rule_q, [2, 4], domain="freq")
    assert np.array_equal(S, S_ref)
    for rom, ref in zip(roms, roms_ref):
        for got, want in zip((rom.A, rom.B, rom.C, *rom.Ms), (ref.A, ref.B, ref.C, *ref.Ms)):
            assert np.array_equal(got, want)


def test_auto_refuses_an_unknown_domain():
    # the match names the unknown domain, so that no later refusal of
    # another check passes for this one
    rule = log_trapezoid(1e-2, 1e2, 20)
    with pytest.raises(ValueError, match="^unknown domain 'laplace'$"):
        lqo_qbt_auto(UncallableSampler(), rule, rule, [1], domain="laplace")


def test_collision_is_refused_before_any_sample():
    # the collision check reads only the rules, so a refusal costs no
    # resolvent
    rule = log_trapezoid(1e-2, 1e2, 20)
    for run in (collect_freq_data, lambda *args: lqo_qbt_auto(*args, [1], "freq")):
        with pytest.raises(FrequencyCollisionError):
            run(UncallableSampler(), rule, rule)


def test_tied_spectrum_warns_on_split():
    # the tied system of the time-domain test, with the observability
    # nodes staggered by half a geometric step as the CLI does
    sys_ = LqoSystem(
        -np.eye(2), np.eye(2), np.eye(2),
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
    )
    a, b, n = 1e-2, 20.0, 12
    shift = (b / a) ** (0.5 / (n - 1))
    rule_p = log_trapezoid(a, b, n)
    rule_q = log_trapezoid(a * shift, b * shift, n)
    with pytest.warns(UserWarning, match="near-tied"):
        lqo_qbt(collect_freq_data(sys_, rule_p, rule_q), 1)
    with pytest.warns(UserWarning, match="near-tied"):
        lqo_qbt_auto(sys_, rule_p, rule_q, [1], domain="freq")


def test_non_finite_transfer_samples_are_rejected():
    sys_ = scalar_s1()
    with pytest.raises(ValueError, match=r"sampler\.tf2_grid returned NaN or inf"):
        collect_freq_data(PoisonedSampler(sys_), rule_of([1.0, 2.0]),
                          rule_of([0.5, 3.0]))


def test_wrong_transfer_shape_names_the_method():
    rng = np.random.default_rng(113)
    sys_ = random_stable_system(rng, n=4, m=2, p=2)
    rule_p = log_trapezoid(0.05, 20.0, 4)
    rule_q = log_trapezoid(0.07, 28.0, 4)
    for method in ("tf1", "tf2_grid"):
        with pytest.raises(ValueError,
                           match=rf"sampler\.{method} returned shape .* expected"):
            collect_freq_data(ShortSampler(sys_, method), rule_p, rule_q)


@pytest.mark.parametrize("family, index", [
    ("tf2_cross", (1, 2, 3, 0, 1)),
    ("tf1_out", (3, 1, 0)),
])
def test_conjugate_asymmetric_samples_are_rejected(family, index):
    # a closed dataset is realified from the positive-frequency half, which
    # relies on X(-w) = conj X(w); a dataset with one sample breaking it
    # must be refused when it is made, so no route ever sees it
    rng = np.random.default_rng(127)
    sys_ = random_stable_system(rng, n=4, m=2, p=2)
    rule_p = log_trapezoid(0.05, 20.0, 4)
    rule_q = log_trapezoid(0.07, 28.0, 4)
    ds = collect_freq_data(sys_, rule_p, rule_q)
    samples = getattr(ds, family).copy()
    samples[index] += 1e-6 * np.abs(samples).max()
    with pytest.raises(ValueError, match=f"{family} is not conjugate symmetric"):
        replace(ds, **{family: samples})


def test_views_cannot_change_a_dataset_after_it_is_checked(tmp_path):
    # the arrays a dataset's samples are views of become read-only too, so
    # the caller's own handle cannot break conjugate symmetry afterwards;
    # memory numpy cannot lock is copied, and nothing else is
    rng = np.random.default_rng(131)
    sys_ = random_stable_system(rng, n=6)
    ds = collect_freq_data(sys_, log_trapezoid(0.05, 20.0, 9),
                           log_trapezoid(0.07, 28.0, 9))
    base = ds.tf1_out.copy()
    viewed = replace(ds, tf1_out=base[:])
    with pytest.raises(ValueError, match="read-only"):
        base[3] += 1.0
    assert np.shares_memory(viewed.tf1_out, base)
    buffer = bytearray(base.tobytes())
    over = replace(ds, tf1_out=np.frombuffer(buffer, base.dtype).reshape(base.shape))
    buffer[:] = bytes(len(buffer))
    assert np.array_equal(over.tf1_out, base)
    # collected, replaced and loaded datasets keep their arrays
    save_dataset(ds, tmp_path / "ds")
    for made in (ds, load_dataset(tmp_path / "ds")):
        again = replace(made)
        for name in databt._FREQ_FIELDS:
            assert getattr(again, name) is getattr(made, name)
