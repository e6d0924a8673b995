"""Tests for the system container: construction contracts, the sampler
interface (kernel grids and transfer functions, against the pointwise
oracles of conftest), simulation, and persistence."""

import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.io
import scipy.linalg as spla

from conftest import dh1, dh2_dz2, h1, h2, random_stable_system, scalar_s1, tf2
from lqobt import (
    LqoSystem,
    ReducedLqoSystem,
    Trajectory,
    collect_freq_data,
    collect_time_data,
    load_system,
    log_trapezoid,
    lqo_qbt_auto,
    save_system,
    select_channels,
    synthesize_system,
)
from lqobt import databt, model
from lqobt.databt import lqo_qbt_streamed
from lqobt.cli import _input_signal
from lqobt.errors import FrequencyCollisionError
from lqobt.numcore import _schur_eigenvalues, expm


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
    with pytest.raises(ValueError, match="non-finite entries in a quadratic matrix"):
        LqoSystem(A, np.ones(2), np.ones(2), [np.diag([np.inf, 1.0])])


def test_constructor_stability_check():
    # construction accepts an unstable system; the queries report it
    sys_ = LqoSystem([[1.0]], [1.0], [1.0], [np.eye(1)])
    assert not sys_.is_stable
    assert sys_.spectral_abscissa() == 1.0


@pytest.mark.parametrize("kind", ["complex pairs", "real", "unstable"])
def test_stability_queries_read_the_kept_schur_form(kind, monkeypatch):
    # the diagonal of the real Schur form holds the real parts of the
    # eigenvalues, each 2x2 block in LAPACK's standard form, so the
    # queries need no eigenvalue solve; its blocks give the eigenvalues
    rng = np.random.default_rng(["complex pairs", "real", "unstable"].index(kind))
    blocks = 0
    for _ in range(20):
        n = int(rng.integers(1, 16))
        G = rng.standard_normal((n, n)) / np.sqrt(n)
        if kind == "real":  # a non-normal matrix with real eigenvalues
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            G = Q @ np.triu(G) @ Q.T
        shift = rng.uniform(0.3, 1.0) * (1 if kind == "unstable" else -1)
        A = G - (np.linalg.eigvals(G).real.max() - shift) * np.eye(n)
        want = np.linalg.eigvals(A)
        sys_ = LqoSystem(A, np.ones(n), np.ones(n), [np.eye(n)])
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigvals", None)
            assert abs(sys_.spectral_abscissa() - want.real.max()) <= 1e-12 * abs(A).max()
            assert sys_.is_stable == (kind != "unstable")
        T, Z = sys_.schur
        assert sys_.schur is sys_.schur and not (T.flags.writeable or Z.flags.writeable)
        got = _schur_eigenvalues(T)
        gap = np.abs(np.subtract.outer(got, want))
        assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-10 * abs(A).max()
        blocks += np.count_nonzero(T.diagonal(-1))
    assert (blocks > 0) == (kind != "real")


def test_system_matrices_are_frozen():
    sys_ = scalar_s1()
    with pytest.raises(ValueError):
        sys_.A[0, 0] = 5.0


def test_system_refuses_complex_matrices_by_name(tmp_path):
    # numpy's float conversion would keep the real part with only a
    # ComplexWarning; a system and a Matrix Market file name the matrix
    sys_ = random_stable_system(np.random.default_rng(3), n=4, m=2, p=2)
    A, B, C, (M0, M1) = sys_.A, sys_.B, sys_.C, sys_.Ms
    cases = [((A + 1e-3j, B, C, [M0, M1]), "A"),
             ((A, B[:, 0] + 1e-3j, C[0], [M0]), "B"),
             ((A, B, C.astype(complex), [M0, M1]), "C"),
             ((A, B, C, [M0, M1 * (1 + 1e-3j)]), "M_1")]
    for args, name in cases:
        with pytest.raises(ValueError, match=f"^{name} must be an array of real "
                                             "numbers, got complex128$"):
            LqoSystem(*args)
    with pytest.raises(ValueError, match="^A must be an array of real numbers"):
        ReducedLqoSystem(A + 1e-3j, B, C, [M0, M1], "intrusive-bt")
    manifest = save_system(sys_, tmp_path)
    scipy.io.mmwrite(tmp_path / "M_0.mtx", M0 + 1e-3j * np.eye(4))
    with pytest.raises(ValueError, match="^M_0 must be an array of real numbers"):
        load_system(manifest)


def test_repr_mentions_dimensions():
    rng = np.random.default_rng(0)
    sys_ = random_stable_system(rng, n=4, m=2, p=3)
    assert repr(sys_) == "LqoSystem(n=4, m=2, p=3)"


# -------------------------------------------------------------- kernels
#
# The kernels at single points, through the shipped grid evaluators: a zero
# second node leaves h1_grid(z, [0]) = h1(z) and h2_grid([z1], [z2], [0]) =
# h2(z1, z2).


def _h1(sys_, z, shift=False):
    grid = sys_.dh1_grid if shift else sys_.h1_grid
    return grid(np.atleast_1d(z), [0.0])[:, 0]


def _h2(sys_, z1, z2, shift=False):
    grid = sys_.dh2_grid if shift else sys_.h2_grid
    return grid([z1], np.atleast_1d(z2), [0.0])[0, :, 0]


def test_scalar_kernel_closed_forms():
    sys_ = scalar_s1()
    assert abs(_h1(sys_, 0.0)[0, 0, 0] - 1.0) <= 1e-14
    assert abs(_h1(sys_, np.log(2.0))[0, 0, 0] - 0.5) <= 1e-14
    assert abs(_h1(sys_, 0.5, shift=True)[0, 0, 0] + np.exp(-0.5)) <= 1e-14
    assert abs(_h2(sys_, 1.0, 2.0)[0, 0, 0, 0] - np.exp(-3.0)) <= 1e-14
    assert abs(_h2(sys_, 1.0, 2.0, shift=True)[0, 0, 0, 0] + np.exp(-3.0)) <= 1e-14


def test_kernel_array_shapes_and_broadcasting():
    rng = np.random.default_rng(1)
    sys_ = random_stable_system(rng, n=5, m=2, p=3)
    z = np.array([0.1, 0.4, 1.0])
    assert sys_.h1_grid(z, [0.0]).shape == (3, 1, 3, 2)
    assert np.allclose(_h1(sys_, z)[1], _h1(sys_, z[1])[0])
    # one left node against an array of right nodes
    vals = _h2(sys_, 0.3, z)
    assert sys_.h2_grid([0.3], z, [0.0]).shape == (1, 3, 1, 3, 2, 2)
    assert np.allclose(vals[2], _h2(sys_, 0.3, z[2])[0])
    # channel 1 against its closed form
    left = spla.expm(sys_.A * 0.3) @ sys_.B
    right = spla.expm(sys_.A * 0.7) @ sys_.B
    assert np.allclose(_h2(sys_, 0.3, 0.7)[0, 1], left.T @ sys_.Ms[1] @ right,
                       rtol=0, atol=1e-13)


def test_h2_transpose_symmetry():
    # swapping the two time arguments transposes the kernel block
    rng = np.random.default_rng(2)
    for _ in range(5):
        sys_ = random_stable_system(rng, n=int(rng.integers(2, 8)), m=2, p=2)
        z1, z2 = rng.uniform(0.05, 2.0, 2)
        left = _h2(sys_, z1, z2)
        right = _h2(sys_, z2, z1).transpose(0, 1, 3, 2)
        assert np.allclose(left, right, rtol=0, atol=1e-13)


def test_h1_semigroup_consistency():
    rng = np.random.default_rng(3)
    for _ in range(5):
        sys_ = random_stable_system(rng, n=int(rng.integers(2, 10)))
        z1, z2 = rng.uniform(0.05, 1.5, 2)
        want = sys_.C @ spla.expm(sys_.A * z1) @ spla.expm(sys_.A * z2) @ sys_.B
        got = _h1(sys_, z1 + z2)[0]
        assert np.allclose(got, want, rtol=1e-12, atol=1e-13)


def test_kernel_derivatives_match_finite_differences():
    rng = np.random.default_rng(4)
    sys_ = random_stable_system(rng, n=6, m=2, p=2)
    d = 1e-5
    for z in (0.3, 1.1):
        fd = (_h1(sys_, z + d) - _h1(sys_, z - d)) / (2 * d)
        scale = 1.0 + np.abs(fd).max()
        assert np.abs(_h1(sys_, z, shift=True) - fd).max() <= 1e-8 * scale
    z1 = 0.7
    for z2 in (0.2, 1.4):
        fd = (_h2(sys_, z1, z2 + d) - _h2(sys_, z1, z2 - d)) / (2 * d)
        scale = 1.0 + np.abs(fd).max()
        assert np.abs(_h2(sys_, z1, z2, shift=True) - fd).max() <= 1e-8 * scale


def test_kernels_reject_negative_times():
    sys_ = scalar_s1()
    with pytest.raises(ValueError):
        sys_.h1_grid([-0.1], [0.0])
    with pytest.raises(ValueError):
        sys_.dh1_grid([0.5, -0.5], [0.0])
    with pytest.raises(ValueError):
        sys_.h2_grid([1.0], [-1.0], [0.0])
    with pytest.raises(ValueError):
        sys_.dh2_grid([-1.0], [1.0], [0.0])
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
                assert np.allclose(G1[u, v], h1(sys_, a[u] + b[v]), atol=1e-13)
                assert np.allclose(D1[u, v], dh1(sys_, a[u] + b[v]), atol=1e-13)

        G2 = sys_.h2_grid(a, b, c)
        assert G2.shape == (a.size, 3, c.size, 2, 2, 2)
        D2 = sys_.dh2_grid(a, b, c)
        for u in range(a.size):
            for v in range(b.size):
                for w in range(c.size):
                    want = h2(sys_, a[u], b[v] + c[w])
                    assert np.allclose(G2[u, v, w], want, atol=1e-12)
                    wantd = dh2_dz2(sys_, a[u], b[v] + c[w])
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
    assert sys_._resolvent_cache.cache_info().currsize == 0


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


# ---------------------------------------------------- transfer functions


def test_scalar_transfer_closed_forms():
    sys_ = scalar_s1()
    assert abs(sys_.tf1(0.0)[0, 0] - 1.0) <= 1e-14
    assert abs(sys_.tf1(1.0j)[0, 0] - (0.5 - 0.5j)) <= 1e-14
    assert abs(sys_.tf2_grid([0.0], [0.0])[0, 0, 0, 0, 0] - 1.0) <= 1e-14
    assert abs(sys_.tf2_grid([1.0j], [-1.0j])[0, 0, 0, 0, 0] - 0.5) <= 1e-14


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
        got = sys_.tf2_grid([s1], [s2])[0, 0]
        assert np.allclose(got[0], want2, rtol=1e-12, atol=1e-13)
        assert np.allclose(got[1], 0.5 * want2, rtol=1e-12, atol=1e-13)
    # tf1 keeps the shape of a 2-d argument
    s = np.array([[0.4 + 1.1j, 2.0, 0.5j], [-0.3 + 0.7j, 1.0, 0.6 - 2.0j]])
    got = sys_.tf1(s)
    assert got.shape == (2, 3, 2, 2)
    for idx in np.ndindex(s.shape):
        want1 = (C / (s[idx] - a)[None, :]) @ B
        assert np.allclose(got[idx], want1, rtol=1e-12, atol=1e-13)


def test_tf1_matches_laplace_integral():
    # dense trapezoid transform of the kernel reproduces the resolvent form
    sys_ = scalar_s1()
    t = np.linspace(0.0, 40.0, 20001)
    h = h1(sys_, t)[:, 0, 0]
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
            assert np.allclose(G[u, v], tf2(sys_, s1s[u], s2s[v]), atol=1e-13)


def test_resolvent_at_eigenvalue_raises():
    # the error names the node
    sys_ = scalar_s1()
    with pytest.raises(FrequencyCollisionError, match=r"s = \(-1\+0j\)"):
        sys_.tf1(-1.0)
    with pytest.raises(FrequencyCollisionError, match=r"s = \(-1\+0j\)"):
        sys_.tf1(np.array([[0.5j, 2.0], [-1.0, 1.0j]]))
    for s1s, s2s in (([-1.0], [0.5j]), ([0.5j], [2.0, -1.0])):
        with pytest.raises(FrequencyCollisionError, match=r"s = \(-1\+0j\)"):
            sys_.tf2_grid(np.array(s1s), np.array(s2s))


def _count_solves(monkeypatch, pause=0.0):
    calls = []
    solve = np.linalg.solve

    def counting(a, b):
        # the nodes are imaginary, so each is the imaginary part of sI - A
        calls.append(float(a[0, 0].imag))
        time.sleep(pause)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


def test_tf2_grid_solves_one_resolvent_per_distinct_node(monkeypatch):
    # the conjugate-closed quadratic grid has the same node set on both
    # sides, so it needs one resolvent per node, not one per grid entry
    rng = np.random.default_rng(12)
    sys_ = random_stable_system(rng, n=5, m=2, p=2)
    calls = _count_solves(monkeypatch)
    th = np.array([0.3, -0.3, 1.2, -1.2, 4.0, -4.0])
    G = sys_.tf2_grid(-1j * th, 1j * th)
    assert len(calls) == th.size
    assert sorted(calls) == sorted(th)
    calls.clear()
    # the system keeps the resolvents, so a second call solves only its
    # new nodes
    sys_.tf2_grid(-1j * th, 1j * np.array([0.5, 2.0]))
    assert sorted(calls) == [0.5, 2.0]
    monkeypatch.undo()
    for u in range(th.size):
        for v in range(th.size):
            want = tf2(sys_, -1j * th[u], 1j * th[v])
            assert np.abs(G[u, v] - want).max() <= 1e-13 * np.abs(want).max()


# -------------------------------------------------- node resolvent cache


def _closed_freqs(rule_p, rule_q):
    """The frequencies of both rules' conjugate-closed nodes."""
    return sorted(np.concatenate(
        [databt._closed_nodes(rule)[0] for rule in (rule_p, rule_q)]))


def test_collection_solves_each_frequency_node_once(monkeypatch):
    # tf1 and tf2_grid read the same closed nodes from one cache: 2 (N_p +
    # N_q) solves, where a solve per call would make 2.5 times as many
    sys_, rule_p, rule_q, _ = _cache_case()
    calls = _count_solves(monkeypatch)
    collect_freq_data(sys_, rule_p, rule_q)
    assert len(calls) == 2 * (rule_p.nodes.size + rule_q.nodes.size)
    assert sorted(calls) == _closed_freqs(rule_p, rule_q)


def test_freq_route_solves_each_frequency_node_once(monkeypatch):
    sys_, rule_p, rule_q, _ = _cache_case()
    calls = _count_solves(monkeypatch)
    lqo_qbt_auto(sys_, rule_p, rule_q, [2], domain="freq")
    assert sorted(calls) == _closed_freqs(rule_p, rule_q)


def test_freq_reduction_leaves_only_node_resolvents_cached():
    sys_, rule_p, rule_q, _ = _cache_case()
    lqo_qbt_auto(sys_, rule_p, rule_q, [2], domain="freq")
    n_res = 2 * (rule_p.nodes.size + rule_q.nodes.size)
    info = sys_._resolvent_cache.cache_info()
    assert info.currsize == info.misses == n_res
    assert info.maxsize == model._CACHE_BYTES // (2 * sys_.B.nbytes)
    assert sys_._exp_cache.cache_info().currsize == 0


def test_resolvent_cache_budget_evicts_without_changing_samples(monkeypatch):
    sys_, rule_p, rule_q, _ = _cache_case()
    reference = collect_freq_data(_fresh(sys_), rule_p, rule_q)
    # room for eight resolvents, so the collection must evict
    monkeypatch.setattr(model, "_CACHE_BYTES", 8 * 2 * sys_.B.nbytes)
    calls = _count_solves(monkeypatch)
    capped_sys = _fresh(sys_)
    capped = collect_freq_data(capped_sys, rule_p, rule_q)
    assert len(calls) > 2 * (rule_p.nodes.size + rule_q.nodes.size)
    for name in databt._FREQ_FIELDS:
        assert np.array_equal(getattr(capped, name), getattr(reference, name)), name
    info = capped_sys._resolvent_cache.cache_info()
    assert info.currsize == info.maxsize == 8


def test_warm_system_collects_the_same_freq_samples():
    # a collection on a system whose cache already holds every node, and
    # others, reads the very samples a fresh system solves for
    sys_, rule_p, rule_q, _ = _cache_case()
    reference = collect_freq_data(_fresh(sys_), rule_p, rule_q)
    sys_.tf2_grid(1j * rule_q.nodes, -1j * np.array([0.5, 2.0]))
    collect_freq_data(sys_, rule_p, rule_q)
    warm = collect_freq_data(sys_, rule_p, rule_q)
    for name in databt._FREQ_FIELDS:
        assert np.array_equal(getattr(warm, name), getattr(reference, name)), name


@pytest.mark.parametrize("evict", [False, True])
def test_resolvent_cache_is_consistent_under_concurrent_use(monkeypatch, evict):
    # as for the exponentials: every solve gives up the interpreter, so
    # threads miss the same node together and race to store it, or to
    # evict, while others read
    sys_, rule_p, rule_q, _ = _cache_case()
    if evict:
        monkeypatch.setattr(model, "_CACHE_BYTES", 8 * 2 * sys_.B.nbytes)
    sys_ = _fresh(sys_)
    th, s = (databt._closed_nodes(rule)[0] for rule in (rule_p, rule_q))
    ref_sys = _fresh(sys_)
    want = (ref_sys.tf2_grid(-1j * th, 1j * s), ref_sys.tf1(1j * th))
    _count_solves(monkeypatch, pause=1e-4)

    def work(_):
        return sys_.tf2_grid(-1j * th, 1j * s), sys_.tf1(1j * th)

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
    info = sys_._resolvent_cache.cache_info()
    assert info.currsize == min(info.maxsize, th.size + s.size)


# ------------------------------------------------------------ simulation


def test_simulate_zero_input_stays_at_rest():
    rng = np.random.default_rng(9)
    sys_ = random_stable_system(rng, n=4, m=2, p=2)
    traj = sys_.simulate(lambda t: np.zeros(2), np.linspace(0.0, 1.0, 11))
    assert np.abs(traj.states).max() == 0.0
    assert np.abs(traj.outputs).max() == 0.0


def test_simulate_homogeneous_scalar_closed_form():
    # x0=1, u=0: x(t)=exp(-t), y(t) = exp(-t) + exp(-2t); one exponential
    # per distinct step, each exact to round-off, also on an uneven grid
    sys_ = scalar_s1()
    for times, tol in ((np.linspace(0.0, 1.0, 2001), 1e-10),
                       (np.array([0.0, 0.3, 1.0]), 1e-14)):
        traj = sys_.simulate(lambda t: 0.0, times, x0=[1.0])
        want = np.exp(-times) + np.exp(-2.0 * times)
        assert np.abs(traj.outputs[:, 0] - want).max() <= tol
        assert abs(traj.outputs[-1, 0] - 0.503214724408055) <= 1e-10


def test_simulate_follows_a_growing_mode_exactly():
    # x' = x from x0=1: x(5) = e^5, y = e^5 + e^10, in one step
    grow = LqoSystem([[1.0]], [1.0], [1.0], [np.eye(1)])
    y = grow.simulate(lambda t: 0.0, [0.0, 5.0], x0=[1.0]).outputs[-1, 0]
    want = np.exp(5.0) + np.exp(10.0)
    assert abs(y - want) <= 1e-14 * want


def test_simulate_step_doubling_shows_fourth_order():
    # x' = -x + sin 2t from rest: x = (sin 2t - 2 cos 2t)/5 + 0.4 exp(-t)
    # and y = x + x^2, here at t = 2. The homogeneous part is exact, so the
    # error is the input's cubic interpolant's, O(h^4); at 250 and 500
    # steps on [0, 1] it falls to round-off (6e-13 and 2e-14)
    x = (np.sin(4.0) - 2.0 * np.cos(4.0)) / 5.0 + 0.4 * np.exp(-2.0)
    sys_ = scalar_s1()
    errs = []
    for steps in (50, 100):
        got = sys_.simulate(lambda t: np.sin(2.0 * t),
                            np.linspace(0.0, 2.0, steps + 1)).outputs[-1, 0]
        errs.append(abs(got - (x + x * x)))
    ratio = errs[0] / errs[1]
    assert 14.0 <= ratio <= 18.0


def test_simulate_is_accurate_on_a_coarse_grid():
    # the smoke system's fastest modes are -3 +- 100i, which turn 5 rad a
    # step at 100 steps on [0, 5]; propagation is exact for them, so only
    # the input's interpolation errs. The CLI's excitation turns faster, so
    # it is held to the same bound at the CLI's default 2,000 steps
    sys_ = synthesize_system(20, damping=(0.1, 3.0), gain_decay=0.85, seed=21)
    for u, steps in ((np.sin, 100), (_input_signal, 2000)):
        ref = sys_.simulate(u, np.linspace(0.0, 5.0, 20001)).outputs[::20000 // steps]
        got = sys_.simulate(u, np.linspace(0.0, 5.0, steps + 1)).outputs
        assert np.abs(got - ref).max() <= 1e-6, steps


def test_simulate_validates_inputs():
    # each refusal by its message; numpy would keep the real part of a
    # complex value with only a ComplexWarning, and a NaN or inf would pass
    # the grid checks into every later output
    sys_ = scalar_s1()
    grid = np.array([0.0, 1.0])
    cases = [
        (dict(times=[0.0]), "need a 1-d grid with at least two points"),
        (dict(times=[0.0, 1.0, 0.5]), "time grid must be strictly increasing"),
        (dict(x0=[1.0, 2.0]), "x0 must have length 1"),
        (dict(u=lambda t: np.zeros(3)), "input signal must return 1 values"),
        (dict(times=grid + 0j), "times must be an array of real numbers"),
        (dict(times=[0.0, np.nan, 1.0]), "times must be finite"),
        (dict(times=[0.0, np.inf]), "times must be finite"),
        (dict(x0=np.array([1 + 2j])), "x0 must be an array of real numbers"),
        (dict(x0=[np.nan]), "x0 must be finite"),
        (dict(u=lambda t: 1 + 1j), "the input signal must be an array of real numbers"),
        (dict(u=lambda t: np.nan if 0.2 < t < 0.5 else 0.0),
         "the input signal is not finite at t = 0.3333"),
    ]
    for kwargs, message in cases:
        call = dict(u=lambda t: 0.0, times=grid, x0=None) | kwargs
        with pytest.raises(ValueError, match=message):
            sys_.simulate(**call)


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

    bad = tmp_path / "missing_m.manifest"
    bad.write_text("\n".join(l for l in text.splitlines() if not l.startswith("M ")))
    with pytest.raises(ValueError, match="lists no quadratic matrices"):
        load_system(bad)

    bad = tmp_path / "unknown_key.manifest"
    bad.write_text(text + "zzz what\n")
    with pytest.raises(ValueError):
        load_system(bad)

    bad = tmp_path / "wrong_dim.manifest"
    bad.write_text(text.replace("n 1", "n 7"))
    with pytest.raises(ValueError):
        load_system(bad)

