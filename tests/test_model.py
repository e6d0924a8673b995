"""Tests for the system container: construction contracts, kernel and
transfer-function evaluators, simulation, and persistence."""

import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import random_stable_system, scalar_s1
from lqobt import (
    LqoSystem,
    ReducedLqoSystem,
    Trajectory,
    collect_time_data,
    load_system,
    log_trapezoid,
    lqo_qbt_auto,
    lqo_qbt_streamed,
    save_system,
    select_channels,
)
from lqobt import databt, model
from lqobt.errors import FrequencyCollisionError, UnstableSystemError
from lqobt.numcore import expm


# --------------------------------------------------------- construction


def test_constructor_symmetrizes_quadratic_matrices():
    M = np.array([[0.0, 2.0], [0.0, 0.0]])
    sys_ = LqoSystem(-np.eye(2), np.ones(2), np.ones(2), [M])
    assert np.array_equal(sys_.Ms[0], np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_constructor_accepts_vectors_and_single_matrix():
    sys_ = scalar_s1()
    assert (sys_.n, sys_.m, sys_.p) == (1, 1, 1)
    assert sys_.B.shape == (1, 1)
    assert sys_.C.shape == (1, 1)
    assert len(sys_.Ms) == 1


def test_constructor_shape_errors():
    A = -np.eye(2)
    with pytest.raises(ValueError):
        LqoSystem(np.ones((2, 3)), np.ones(2), np.ones(2), [np.eye(2)])
    with pytest.raises(ValueError):
        LqoSystem(A, np.ones(3), np.ones(2), [np.eye(2)])
    with pytest.raises(ValueError):
        LqoSystem(A, np.ones(2), np.ones(3), [np.eye(2)])
    with pytest.raises(ValueError):
        LqoSystem(A, np.ones(2), np.ones(2), [np.eye(3)])
    with pytest.raises(ValueError):
        LqoSystem(A, np.ones(2), np.ones(2), [np.eye(2), np.eye(2)])
    with pytest.raises(ValueError):
        LqoSystem(A, np.array([np.nan, 1.0]), np.ones(2), [np.eye(2)])


def test_constructor_stability_check():
    with pytest.raises(UnstableSystemError):
        LqoSystem([[1.0]], [1.0], [1.0], [np.eye(1)], check_stability=True)
    sys_ = LqoSystem([[1.0]], [1.0], [1.0], [np.eye(1)])
    assert not sys_.is_stable
    assert sys_.spectral_abscissa() == 1.0


def test_system_matrices_are_frozen():
    sys_ = scalar_s1()
    with pytest.raises(ValueError):
        sys_.A[0, 0] = 5.0


def test_repr_mentions_dimensions():
    rng = np.random.default_rng(0)
    sys_ = random_stable_system(rng, n=4, m=2, p=3)
    assert repr(sys_) == "LqoSystem(n=4, m=2, p=3)"


# -------------------------------------------------------------- kernels


def test_scalar_kernel_closed_forms():
    sys_ = scalar_s1()
    assert abs(sys_.h1(0.0)[0, 0] - 1.0) <= 1e-14
    assert abs(sys_.h1(np.log(2.0))[0, 0] - 0.5) <= 1e-14
    assert abs(sys_.dh1(0.5)[0, 0] + np.exp(-0.5)) <= 1e-14
    assert abs(sys_.h2(1.0, 2.0)[0, 0, 0] - np.exp(-3.0)) <= 1e-14
    assert abs(sys_.dh2_dz2(1.0, 2.0)[0, 0, 0] + np.exp(-3.0)) <= 1e-14


def test_kernel_array_shapes_and_broadcasting():
    rng = np.random.default_rng(1)
    sys_ = random_stable_system(rng, n=5, m=2, p=3)
    z = np.array([0.1, 0.4, 1.0])
    assert sys_.h1(z).shape == (3, 3, 2)
    assert np.allclose(sys_.h1(z)[1], sys_.h1(z[1]))
    # scalar z1 broadcasts against array z2
    vals = sys_.h2(0.3, z)
    assert vals.shape == (3, 3, 2, 2)
    assert np.allclose(vals[2], sys_.h2(0.3, z[2]))
    # channel 1 against its closed form
    left = expm(sys_.A, 0.3) @ sys_.B
    right = expm(sys_.A, 0.7) @ sys_.B
    assert np.allclose(sys_.h2(0.3, 0.7)[1], left.T @ sys_.Ms[1] @ right,
                       rtol=0, atol=1e-13)


def test_h2_transpose_symmetry():
    # swapping the two time arguments transposes the kernel block
    rng = np.random.default_rng(2)
    for _ in range(5):
        sys_ = random_stable_system(rng, n=int(rng.integers(2, 8)), m=2, p=2)
        z1, z2 = rng.uniform(0.05, 2.0, 2)
        left = sys_.h2(z1, z2)
        right = sys_.h2(z2, z1).transpose(0, 2, 1)
        assert np.allclose(left, right, rtol=0, atol=1e-13)


def test_h1_semigroup_consistency():
    rng = np.random.default_rng(3)
    for _ in range(5):
        sys_ = random_stable_system(rng, n=int(rng.integers(2, 10)))
        z1, z2 = rng.uniform(0.05, 1.5, 2)
        want = sys_.C @ expm(sys_.A, z1) @ expm(sys_.A, z2) @ sys_.B
        got = sys_.h1(z1 + z2)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-13)


def test_kernel_derivatives_match_finite_differences():
    rng = np.random.default_rng(4)
    sys_ = random_stable_system(rng, n=6, m=2, p=2)
    d = 1e-5
    for z in (0.3, 1.1):
        fd = (sys_.h1(z + d) - sys_.h1(z - d)) / (2 * d)
        scale = 1.0 + np.abs(fd).max()
        assert np.abs(sys_.dh1(z) - fd).max() <= 1e-8 * scale
    z1 = 0.7
    for z2 in (0.2, 1.4):
        fd = (sys_.h2(z1, z2 + d) - sys_.h2(z1, z2 - d)) / (2 * d)
        scale = 1.0 + np.abs(fd).max()
        assert np.abs(sys_.dh2_dz2(z1, z2) - fd).max() <= 1e-8 * scale


def test_kernels_reject_negative_times():
    sys_ = scalar_s1()
    with pytest.raises(ValueError):
        sys_.h1(-0.1)
    with pytest.raises(ValueError):
        sys_.dh1(np.array([0.5, -0.5]))
    with pytest.raises(ValueError):
        sys_.h2(1.0, -1.0)
    with pytest.raises(ValueError):
        sys_.h1_grid([0.5], [-0.1])
    with pytest.raises(ValueError):
        sys_.h2_grid([0.5], [0.1], [-0.2])


# ----------------------------------------------------- grid evaluators


def test_grid_evaluators_match_pointwise():
    rng = np.random.default_rng(5)
    sys_ = random_stable_system(rng, n=5, m=2, p=2)
    b = np.array([0.2, 0.9, 1.4])
    # h2_grid has two product orders: with as many left rows (a, p, m) as
    # right columns (c, m) it forms the sum grid, with fewer it multiplies
    # the left rows by exp(A b_v) first
    for a, c in (([0.1, 0.7], [0.05, 0.6]), ([0.3], [0.05, 0.6, 1.1])):
        a, c = np.array(a), np.array(c)
        G1 = sys_.h1_grid(a, b)
        assert G1.shape == (a.size, 3, 2, 2)
        D1 = sys_.dh1_grid(a, b)
        for u in range(a.size):
            for v in range(b.size):
                assert np.allclose(G1[u, v], sys_.h1(a[u] + b[v]), atol=1e-13)
                assert np.allclose(D1[u, v], sys_.dh1(a[u] + b[v]), atol=1e-13)

        G2 = sys_.h2_grid(a, b, c)
        assert G2.shape == (a.size, 3, c.size, 2, 2, 2)
        D2 = sys_.dh2_grid(a, b, c)
        for u in range(a.size):
            for v in range(b.size):
                for w in range(c.size):
                    want = sys_.h2(a[u], b[v] + c[w])
                    assert np.allclose(G2[u, v, w], want, atol=1e-12)
                    wantd = sys_.dh2_dz2(a[u], b[v] + c[w])
                    assert np.allclose(D2[u, v, w], wantd, atol=1e-12)


def test_grid_evaluation_is_reproducible():
    # repeated bulk calls reuse cached intermediates; results must not drift
    rng = np.random.default_rng(6)
    sys_ = random_stable_system(rng, n=4)
    a, b, c = np.array([0.3, 1.0]), np.array([0.2, 0.8]), np.array([0.1, 0.5])
    first = sys_.h2_grid(a, b, c)
    second = sys_.h2_grid(a, b, c)
    assert np.array_equal(first, second)
    deriv = sys_.dh2_grid(a, b, c)
    assert not np.allclose(deriv, first)  # distinct quantities


# ------------------------------------------------- node exponential cache


def _cache_case():
    rng = np.random.default_rng(7)
    sys_ = random_stable_system(rng, n=5, m=2, p=2)
    rule_p = log_trapezoid(1e-2, 20.0, 9)
    rule_q = log_trapezoid(5e-2, 10.0, 7)
    nodes = set(rule_p.nodes) | set(rule_q.nodes) | {0.0}
    return sys_, rule_p, rule_q, nodes


def _fresh(sys_):
    return LqoSystem(sys_.A, sys_.B, sys_.C, sys_.Ms)


def _count_expm(monkeypatch):
    calls = []

    def counting(A, t=1.0):
        calls.append(float(t))
        return expm(A, t)

    monkeypatch.setattr(model, "expm", counting)
    return calls


def test_collection_exponentiates_each_node_once(monkeypatch):
    sys_, rule_p, rule_q, nodes = _cache_case()
    calls = _count_expm(monkeypatch)
    collect_time_data(sys_, rule_p, rule_q)
    assert len(calls) == len(nodes)
    assert set(calls) == nodes


def test_streamed_route_exponentiates_each_node_once(monkeypatch):
    # the probes, the held-out fibres and the cross all reuse the cached
    # exponentials of the nodes they share
    sys_, rule_p, rule_q, nodes = _cache_case()
    calls = _count_expm(monkeypatch)
    lqo_qbt_streamed(_fresh(sys_), rule_p, rule_q, [2])
    assert sorted(calls) == sorted(nodes)


def test_reduction_leaves_only_node_exponentials_cached():
    rng = np.random.default_rng(11)
    sys_ = random_stable_system(rng, n=6, m=2, p=2)
    rule = log_trapezoid(1e-2, 20.0, 40)
    lqo_qbt_auto(sys_, rule, rule, [3])
    n_exp = len(set(rule.nodes) | {0.0})
    info = sys_._exp_cache.cache_info()
    assert info.currsize == info.misses == n_exp
    assert info.maxsize == model._CACHE_BYTES // sys_.A.nbytes


def test_cache_budget_evicts_without_changing_samples(monkeypatch):
    sys_, rule_p, rule_q, nodes = _cache_case()
    reference = collect_time_data(_fresh(sys_), rule_p, rule_q)
    # room for eight exponentials, so the collection must evict
    monkeypatch.setattr(model, "_CACHE_BYTES", 8 * sys_.n * sys_.n * 8)
    calls = _count_expm(monkeypatch)
    capped_sys = _fresh(sys_)
    capped = collect_time_data(capped_sys, rule_p, rule_q)
    assert len(calls) > len(nodes)
    for name in databt._TIME_FIELDS:
        assert np.array_equal(getattr(capped, name), getattr(reference, name)), name
    info = capped_sys._exp_cache.cache_info()
    assert info.currsize == info.maxsize == 8


@pytest.mark.parametrize("evict", [False, True])
def test_cache_is_consistent_under_concurrent_use(monkeypatch, evict):
    # more threads than cores share one system, and every exponentiation
    # gives up the interpreter, so threads miss the same node together and
    # race to store it, or to evict, while others read
    sys_, rule_p, rule_q, _ = _cache_case()
    if evict:
        monkeypatch.setattr(model, "_CACHE_BYTES", 8 * sys_.n * sys_.n * 8)
    sys_ = _fresh(sys_)
    t, tau = rule_p.nodes, rule_q.nodes
    ref_sys = _fresh(sys_)
    want = (ref_sys.h2_grid(t, tau, t), ref_sys.dh1_grid(tau, t))

    def yielding(A, t=1.0):
        time.sleep(1e-4)
        return expm(A, t)

    monkeypatch.setattr(model, "expm", yielding)

    def work(_):
        return sys_.h2_grid(t, tau, t), sys_.dh1_grid(tau, t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(work, i) for i in range(16)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    info = sys_._exp_cache.cache_info()
    assert info.currsize <= info.maxsize
    assert info.currsize == min(info.maxsize, len(set(t) | set(tau)))


def test_pointwise_kernels_stay_uncached():
    sys_, _, _, _ = _cache_case()
    sys_.h1(np.array([0.3, 0.7]))
    sys_.h2(0.2, np.array([0.4, 0.9]))
    sys_.dh2_dz2(0.2, 0.4)
    info = sys_._exp_cache.cache_info()
    assert info.currsize == info.misses == info.hits == 0


# ---------------------------------------------------- transfer functions


def test_scalar_transfer_closed_forms():
    sys_ = scalar_s1()
    assert abs(sys_.tf1(0.0)[0, 0] - 1.0) <= 1e-14
    assert abs(sys_.tf1(1.0j)[0, 0] - (0.5 - 0.5j)) <= 1e-14
    assert abs(sys_.tf2(0.0, 0.0)[0, 0, 0] - 1.0) <= 1e-14
    assert abs(sys_.tf2(1.0j, -1.0j)[0, 0, 0] - 0.5) <= 1e-14


def test_transfer_functions_match_modal_expansion():
    # for diagonal A both transfer functions have an explicit pole expansion
    rng = np.random.default_rng(7)
    a = -rng.uniform(0.2, 3.0, 5)
    B = rng.standard_normal((5, 2))
    C = rng.standard_normal((2, 5))
    R = rng.standard_normal((5, 5))
    M = 0.5 * (R + R.T)
    sys_ = LqoSystem(np.diag(a), B, C, [M, 0.5 * M])
    for s1, s2 in [(0.4 + 1.1j, -0.3 + 0.7j), (2.0, 0.5j)]:
        want1 = (C / (s1 - a)[None, :]) @ B
        assert np.allclose(sys_.tf1(s1), want1, rtol=1e-12, atol=1e-13)
        want2 = (B / (s1 - a)[:, None]).T @ M @ (B / (s2 - a)[:, None])
        got = sys_.tf2(s1, s2)
        assert np.allclose(got[0], want2, rtol=1e-12, atol=1e-13)
        assert np.allclose(got[1], 0.5 * want2, rtol=1e-12, atol=1e-13)


def test_tf1_matches_laplace_integral():
    # dense trapezoid transform of the kernel reproduces the resolvent form
    sys_ = scalar_s1()
    t = np.linspace(0.0, 40.0, 20001)
    h = sys_.h1(t)[:, 0, 0]
    for s in (0.3, 0.5 + 0.8j):
        want = np.trapezoid(h * np.exp(-s * t), t)
        got = sys_.tf1(s)[0, 0]
        assert abs(got - want) <= 1e-6 * abs(want)


def test_tf2_grid_matches_pairwise():
    rng = np.random.default_rng(8)
    sys_ = random_stable_system(rng, n=4, m=2, p=2)
    s1s = np.array([0.2 + 1.0j, -0.1 - 0.4j])
    s2s = np.array([0.3j, 1.0 + 0.0j, 0.6 - 2.0j])
    G = sys_.tf2_grid(s1s, s2s)
    assert G.shape == (2, 3, 2, 2, 2)
    for u in range(2):
        for v in range(3):
            assert np.allclose(G[u, v], sys_.tf2(s1s[u], s2s[v]), atol=1e-13)


def test_resolvent_at_eigenvalue_raises():
    sys_ = scalar_s1()
    with pytest.raises(FrequencyCollisionError):
        sys_.tf1(-1.0)
    with pytest.raises(FrequencyCollisionError):
        sys_.tf2(-1.0, 0.0)
    for s1s, s2s in (([-1.0], [0.5j]), ([0.5j], [2.0, -1.0])):
        with pytest.raises(FrequencyCollisionError):
            sys_.tf2_grid(np.array(s1s), np.array(s2s))


def test_tf2_grid_solves_one_resolvent_per_distinct_node(monkeypatch):
    # the conjugate-closed quadratic grid has the same node set on both
    # sides, so it needs one resolvent per node, not one per grid entry
    rng = np.random.default_rng(12)
    sys_ = random_stable_system(rng, n=5, m=2, p=2)
    calls = []
    solve = LqoSystem._resolvent

    def counted(self, s, A, rhs):
        calls.append(s)
        return solve(self, s, A, rhs)

    monkeypatch.setattr(LqoSystem, "_resolvent", counted)
    th = np.array([0.3, -0.3, 1.2, -1.2, 4.0, -4.0])
    G = sys_.tf2_grid(-1j * th, 1j * th)
    assert len(calls) == th.size
    assert sorted(calls, key=lambda z: z.imag) == sorted(1j * th, key=lambda z: z.imag)
    calls.clear()
    sys_.tf2_grid(-1j * th, 1j * np.array([0.5, 2.0]))
    assert len(calls) == th.size + 2
    monkeypatch.undo()
    for u in range(th.size):
        for v in range(th.size):
            want = sys_.tf2(-1j * th[u], 1j * th[v])
            assert np.abs(G[u, v] - want).max() <= 1e-13 * np.abs(want).max()


# ------------------------------------------------------------ simulation


def test_simulate_zero_input_stays_at_rest():
    rng = np.random.default_rng(9)
    sys_ = random_stable_system(rng, n=4, m=2, p=2)
    traj = sys_.simulate(lambda t: np.zeros(2), np.linspace(0.0, 1.0, 11))
    assert np.abs(traj.states).max() == 0.0
    assert np.abs(traj.outputs).max() == 0.0


def test_simulate_homogeneous_scalar_closed_form():
    # x0=1, u=0: x(t)=exp(-t), y(t) = exp(-t) + exp(-2t)
    sys_ = scalar_s1()
    times = np.linspace(0.0, 1.0, 2001)
    traj = sys_.simulate(lambda t: 0.0, times, x0=[1.0])
    want = np.exp(-times) + np.exp(-2.0 * times)
    assert np.abs(traj.outputs[:, 0] - want).max() <= 1e-10
    assert abs(traj.outputs[-1, 0] - 0.503214724408055) <= 1e-10


def test_simulate_step_doubling_shows_fourth_order():
    sys_ = scalar_s1()
    u = lambda t: np.sin(2.0 * t)
    ref = sys_.simulate(u, np.linspace(0.0, 2.0, 16001)).outputs[-1, 0]
    errs = []
    for steps in (250, 500):
        got = sys_.simulate(u, np.linspace(0.0, 2.0, steps + 1)).outputs[-1, 0]
        errs.append(abs(got - ref))
    ratio = errs[0] / errs[1]
    assert 14.0 <= ratio <= 18.0


def test_simulate_validates_inputs():
    sys_ = scalar_s1()
    with pytest.raises(ValueError):
        sys_.simulate(lambda t: 0.0, np.array([0.0]))
    with pytest.raises(ValueError):
        sys_.simulate(lambda t: 0.0, np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValueError):
        sys_.simulate(lambda t: 0.0, np.array([0.0, 1.0]), x0=[1.0, 2.0])
    with pytest.raises(ValueError):
        sys_.simulate(lambda t: np.zeros(3), np.array([0.0, 1.0]))


def test_trajectory_validates_lengths():
    with pytest.raises(ValueError):
        Trajectory(np.zeros(3), np.zeros((2, 1)), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        Trajectory(np.zeros(3), np.zeros((3, 1)), np.zeros((2, 1)))


# ------------------------------------------------- reduced systems, slices


def test_reduced_system_carries_provenance():
    rom = ReducedLqoSystem([[-1.0]], [1.0], [1.0], [np.eye(1)], "intrusive-bt")
    assert rom.provenance == "intrusive-bt"
    assert rom.r == 1
    assert "intrusive-bt" in repr(rom)


def test_select_channels_values_and_errors():
    rng = np.random.default_rng(10)
    sys_ = random_stable_system(rng, n=5, m=3, p=2)
    sub = select_channels(sys_, input_index=2, output_index=1)
    assert (sub.n, sub.m, sub.p) == (5, 1, 1)
    assert np.array_equal(sub.B[:, 0], sys_.B[:, 2])
    assert np.array_equal(sub.C[0], sys_.C[1])
    assert np.array_equal(sub.Ms[0], sys_.Ms[1])
    with pytest.raises(ValueError):
        select_channels(sys_, input_index=3)
    with pytest.raises(ValueError):
        select_channels(sys_, output_index=2)


# ------------------------------------------------------------ persistence


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    sys_ = random_stable_system(rng, n=6, m=2, p=2)
    manifest = save_system(sys_, tmp_path / "sys", name="demo")
    back = load_system(manifest)
    assert np.array_equal(back.A, sys_.A)
    assert np.array_equal(back.B, sys_.B)
    assert np.array_equal(back.C, sys_.C)
    for got, want in zip(back.Ms, sys_.Ms):
        assert np.array_equal(got, want)


def test_load_system_manifest_errors(tmp_path):
    sys_ = scalar_s1()
    manifest = save_system(sys_, tmp_path, name="s1")
    text = open(manifest).read()

    bad = tmp_path / "missing_b.manifest"
    bad.write_text("\n".join(l for l in text.splitlines() if not l.startswith("B ")))
    with pytest.raises(ValueError):
        load_system(bad)

    bad = tmp_path / "unknown_key.manifest"
    bad.write_text(text + "zzz what\n")
    with pytest.raises(ValueError):
        load_system(bad)

    bad = tmp_path / "wrong_dim.manifest"
    bad.write_text(text.replace("n 1", "n 7"))
    with pytest.raises(ValueError):
        load_system(bad)


def test_load_system_stability_flag(tmp_path):
    unstable = LqoSystem([[1.0]], [1.0], [1.0], [np.eye(1)])
    manifest = save_system(unstable, tmp_path, name="u")
    load_system(manifest)  # no check by default
    with pytest.raises(UnstableSystemError):
        load_system(manifest, check_stability=True)
