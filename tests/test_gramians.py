"""Tests for Gramians, Hankel singular values, intrusive balanced
truncation, and the H2-type norm and error measures.

Closed-form anchors come from the scalar system (A=-1, B=C=1, M=1), whose
Gramians are P=1/2, Q1=1/2, Q2=1/4, and from diagonal systems where every
Lyapunov solution is an explicit ratio. One test verifies the Gramian
definitions directly against dense numerical integrals of the kernels.
"""

import gc
import weakref
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
import scipy.linalg as spla

from conftest import (mp_h2_errors, mp_hankel_values, random_stable_system,
                      reference_h2_error, scalar_s1, tf_agree)
from lqobt import (
    LqoSystem,
    ReducedLqoSystem,
    compute_gramians,
    h2_error,
    h2_norm,
    hankel_singular_values,
    intrusive_bt,
    synthesize_system,
)
from lqobt import gramians, numcore
from lqobt.errors import UnstableSystemError
from lqobt.numcore import solve_lyapunov


# --------------------------------------------------------------- values


def test_scalar_gramian_values():
    g = compute_gramians(scalar_s1())
    assert abs(g.P[0, 0] - 0.5) <= 1e-12
    assert abs(g.Q1[0, 0] - 0.5) <= 1e-12
    assert abs(g.Q2[0, 0] - 0.25) <= 1e-12
    assert abs(g.Q[0, 0] - 0.75) <= 1e-12


def test_diagonal_gramian_closed_forms():
    # A=diag(-1,-2), B=[1,1]', C=[1,1], M=I:
    # P_ij = Q1_ij = 1/(i+j), and Q2 = MPM piped through the same ratios
    A = np.diag([-1.0, -2.0])
    sys_ = LqoSystem(A, np.ones(2), np.ones(2), [np.eye(2)])
    g = compute_gramians(sys_)
    want_p = np.array([[1.0 / 2.0, 1.0 / 3.0], [1.0 / 3.0, 1.0 / 4.0]])
    assert np.allclose(g.P, want_p, rtol=1e-12, atol=1e-13)
    assert np.allclose(g.Q1, want_p, rtol=1e-12, atol=1e-13)
    want_q2 = np.array([[1.0 / 4.0, 1.0 / 9.0], [1.0 / 9.0, 1.0 / 16.0]])
    assert np.allclose(g.Q2, want_q2, rtol=1e-12, atol=1e-13)
    assert np.allclose(g.Q, want_p + want_q2, rtol=1e-12, atol=1e-13)


def test_gramians_match_kernel_integrals():
    # P, Q1, Q2 are (iterated) integrals of kernel outer products; a dense
    # trapezoid evaluation over a long window must reproduce them
    rng = np.random.default_rng(13)
    sys_ = random_stable_system(rng, n=4)
    g = compute_gramians(sys_)
    t = np.linspace(0.0, 50.0, 1601)

    EB = np.stack([spla.expm(sys_.A * ti) @ sys_.B for ti in t])  # (T, n, m)
    P_num = np.trapezoid(EB @ EB.transpose(0, 2, 1), t, axis=0)
    assert np.abs(P_num - g.P).max() <= 1e-3 * (1.0 + np.abs(g.P).max())

    CE = np.stack([sys_.C @ spla.expm(sys_.A * ti) for ti in t])  # (T, p, n)
    Q1_num = np.trapezoid(CE.transpose(0, 2, 1) @ CE, t, axis=0)
    assert np.abs(Q1_num - g.Q1).max() <= 1e-3 * (1.0 + np.abs(g.Q1).max())

    # squared H2-type norm = int ||h1||^2 + sum_q double int of h2_q^2
    H1 = sys_.h1_grid(t, np.array([0.0]))[:, 0]  # (T, p, m)
    lin = np.trapezoid(np.einsum("tpm,tpm->t", H1, H1), t)
    K = sys_.h2_grid(t, t, np.array([0.0]))[:, :, 0]  # (T, T, p, m, m)
    dens = np.einsum("stqlk,stqlk->st", K, K)
    quad = np.trapezoid(np.trapezoid(dens, t, axis=1), t)
    got = h2_norm(sys_, g)
    assert abs(got - np.sqrt(lin + quad)) <= 1e-3 * got


def test_gramian_factors_reproduce_gramians():
    rng = np.random.default_rng(17)
    for _ in range(5):
        sys_ = random_stable_system(rng, n=int(rng.integers(2, 15)), m=2, p=2)
        g = compute_gramians(sys_)
        for fac, full in ((g.U, g.P), (g.L, g.Q)):
            scale = 1.0 + np.abs(full).max()
            assert np.abs(fac @ fac.T - full).max() <= 1e-9 * scale


def test_gramians_require_stability():
    with pytest.raises(UnstableSystemError):
        compute_gramians(LqoSystem([[0.5]], [1.0], [1.0], [np.eye(1)]))


def test_zero_input_matrix_gives_zero_gramians():
    sys_ = LqoSystem(-np.eye(3), np.zeros((3, 1)), np.ones(3), [np.eye(3)])
    g = compute_gramians(sys_)
    assert np.abs(g.P).max() <= 1e-14
    assert np.abs(g.Q2).max() <= 1e-14
    assert g.U.shape == (3, 0)
    assert hankel_singular_values(g).size == 0


# -------------------------------------------------- Hankel singular values


def test_scalar_hankel_value():
    hsv = hankel_singular_values(compute_gramians(scalar_s1()))
    assert hsv.shape == (1,)
    assert abs(hsv[0] - np.sqrt(3.0 / 8.0)) <= 1e-12


def test_hankel_values_are_similarity_invariant():
    rng = np.random.default_rng(19)
    for _ in range(5):
        n = int(rng.integers(2, 10))
        sys_ = random_stable_system(rng, n=n, m=2, p=2)
        T = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        Ti = np.linalg.inv(T)
        other = LqoSystem(
            T @ sys_.A @ Ti,
            T @ sys_.B,
            sys_.C @ Ti,
            [Ti.T @ M @ Ti for M in sys_.Ms],
        )
        a = hankel_singular_values(compute_gramians(sys_))
        b = hankel_singular_values(compute_gramians(other))
        k = min(a.size, b.size)
        assert np.abs(a[:k] - b[:k]).max() <= 1e-9 * a[0]


def test_hankel_values_reduce_to_classical_without_quadratic_term():
    rng = np.random.default_rng(23)
    sys_ = random_stable_system(rng, n=8, ms_scale=0.0)
    g = compute_gramians(sys_)
    want = np.sqrt(np.maximum(np.linalg.eigvals(g.P @ g.Q1).real, 0.0))
    want = np.sort(want)[::-1]
    hsv = hankel_singular_values(g)
    k = hsv.size
    # the eigenvalue route squares the values, so it only carries about
    # half machine precision near the bottom of the spectrum
    assert np.abs(hsv - want[:k]).max() <= 1e-7 * (1.0 + want[0])


@pytest.mark.parametrize("seed", [21, 3, 7])
def test_hankel_values_match_a_40_digit_reference(seed):
    # L factors the whole Q = Q1 + Q2 and U factors P; every value of L'U
    # must match the square roots of the eigenvalues of P Q, built in
    # eigenvector coordinates at 40 digits, to 1e-12 relative (measured:
    # at most 5e-14 on these three systems)
    sys_ = synthesize_system(20, damping=(0.1, 3.0), gain_decay=0.85, seed=seed)
    want = mp_hankel_values(sys_)
    hsv = hankel_singular_values(compute_gramians(sys_))
    assert hsv.shape == want.shape
    assert np.abs(hsv / want - 1.0).max() <= 1e-12


# ------------------------------------------------------------ intrusive BT


def test_full_order_bt_reproduces_transfer_functions():
    rng = np.random.default_rng(29)
    sys_ = random_stable_system(rng, n=6, m=2, p=2)
    rom = intrusive_bt(sys_, 6)
    assert rom.provenance == "intrusive-bt"
    pts = [0.3 + 1.0j, 2.0 + 0.0j, -0.2 + 3.0j]
    tf_agree(sys_, rom, pts, rtol=1e-9)
    assert h2_error(sys_, rom) <= 1e-7 * h2_norm(sys_)


def test_scalar_bt_is_exact_at_full_order():
    sys_ = scalar_s1()
    rom = intrusive_bt(sys_, 1)
    assert abs(rom.A[0, 0] + 1.0) <= 1e-12
    # invariants preserved by the balancing transform
    assert abs(rom.C[0, 0] * rom.B[0, 0] - 1.0) <= 1e-12
    assert abs(rom.B[0, 0] ** 2 * rom.Ms[0][0, 0] - 1.0) <= 1e-12


def test_bt_leading_hankel_values_nearly_preserved():
    # truncation keeps the controllability side exactly; the quadratic
    # observability source couples to the discarded block, so preservation
    # is exact for the linear part and approximate otherwise
    rng = np.random.default_rng(42)
    sys_ = random_stable_system(rng, n=10)
    lin = LqoSystem(sys_.A, sys_.B, sys_.C, [np.zeros((10, 10))])
    hsv = hankel_singular_values(compute_gramians(lin))
    rom = intrusive_bt(lin, 4)
    hsv_r = hankel_singular_values(compute_gramians(rom))
    assert np.abs(hsv_r - hsv[:4]).max() <= 1e-8 * hsv[0]

    hsv = hankel_singular_values(compute_gramians(sys_))
    rom = intrusive_bt(sys_, 4)
    hsv_r = hankel_singular_values(compute_gramians(rom))
    assert np.abs(hsv_r[:2] - hsv[:2]).max() <= 1e-4 * hsv[0]


def test_bt_error_shrinks_with_order():
    sys_ = synthesize_system(16, damping=(0.2, 2.0), gain_decay=0.6, seed=3)
    g = compute_gramians(sys_)
    errs = [h2_error(sys_, intrusive_bt(sys_, r, g)) for r in (2, 6, 12)]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] <= 1e-4 * h2_norm(sys_, g)


def test_bt_order_bounds():
    sys_ = scalar_s1()
    with pytest.raises(ValueError):
        intrusive_bt(sys_, 0)
    with pytest.raises(ValueError):
        intrusive_bt(sys_, 2)


def test_bt_rejects_zero_hankel_spectrum():
    sys_ = LqoSystem(-np.eye(2), np.zeros((2, 1)), np.ones(2), [np.eye(2)])
    with pytest.raises(ValueError, match="L'U of the Gramian factors .* is "
                                         "identically zero"):
        intrusive_bt(sys_, 1)


def test_bt_warns_on_tied_truncation():
    # two identical decoupled scalar subsystems give an exactly tied pair
    A = -np.eye(2)
    B = np.eye(2)
    C = np.eye(2)
    Ms = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    sys_ = LqoSystem(A, B, C, Ms)
    hsv = hankel_singular_values(compute_gramians(sys_))
    assert abs(hsv[0] - hsv[1]) <= 1e-13 * hsv[0]
    with pytest.warns(UserWarning, match="near-tied"):
        intrusive_bt(sys_, 1)


def test_hankel_values_and_bt_past_the_sketch_width_match_an_exact_svd():
    # past order 64, L'U is wider than numcore.svd's first sketch. Its
    # resolvable values and the BT models it gives must match an exact SVD
    # of the same L'U by scipy, and the square-root projection W'AV of that
    # SVD's factors. The models are compared up to r = 10, their H2
    # errors up to r = 18.
    systems = [synthesize_system(100, damping=(0.1, 3.0), gain_decay=0.85, seed=s)
               for s in (1, 2, 3)]
    systems.append(synthesize_system(100, seed=21))  # flat decay, synth's default
    pts = [0.3 + 1.2j, 1.0, 2.5 + 0.4j]
    for sys_ in systems:
        g = compute_gramians(sys_)
        H = g.L.T @ g.U
        assert min(H.shape) > numcore.SKETCH
        Z, S, Yh = spla.svd(H, full_matrices=False)
        hsv = hankel_singular_values(g)
        rank = numcore._resolvable_rank(S)
        assert numcore._resolvable_rank(hsv) == rank
        assert np.abs(hsv[:rank] - S[:rank]).max() <= 1e-14 * S[0]
        for r in (2, 4, 6, 10, 14, 18):
            scale = 1.0 / np.sqrt(S[:r])
            W, V = g.L @ Z[:, :r] * scale, g.U @ Yh[:r].T * scale
            ref = LqoSystem(W.T @ sys_.A @ V, W.T @ sys_.B, sys_.C @ V,
                            [V.T @ M @ V for M in sys_.Ms])
            rom = intrusive_bt(sys_, r, g)
            if r <= 10:
                tf_agree(ref, rom, pts, rtol=1e-9, scale_sys=sys_)
            e, e_ref = h2_error(sys_, rom), h2_error(sys_, ref)
            assert abs(e - e_ref) <= 1e-10 * e_ref, r


@pytest.mark.parametrize("case", ["acceptance", "random"])
def test_bt_rom_is_balanced_on_the_controllability_side(case):
    # the truncated model of balanced coordinates keeps the leading block
    # of the balanced controllability Gramian, diag(sigma_1 .. sigma_r):
    # the shared projection checked against the Gramians themselves
    if case == "acceptance":
        sys_ = synthesize_system(50, damping=(0.1, 3.0), gain_decay=0.85, seed=21)
        orders = (2, 6, 10)
    else:
        sys_ = random_stable_system(np.random.default_rng(31), n=12, m=2, p=2)
        orders = (2, 6, 11)
    g = compute_gramians(sys_)
    hsv = hankel_singular_values(g)
    for r in orders:
        rom = intrusive_bt(sys_, r, g)
        P = solve_lyapunov(rom.A.T, rom.B @ rom.B.T)
        assert np.abs(P - np.diag(hsv[:r])).max() <= 1e-10 * hsv[0]


# ------------------------------------------------------- norms and errors


def test_scalar_h2_norm():
    assert abs(h2_norm(scalar_s1()) - np.sqrt(0.75)) <= 1e-12


def test_h2_norm_of_silent_system_is_zero():
    sys_ = LqoSystem(-np.eye(3), np.ones(3), np.zeros(3), [np.zeros((3, 3))])
    assert h2_norm(sys_) == 0.0


def test_h2_norm_matches_classical_form_without_quadratic_term():
    rng = np.random.default_rng(31)
    for _ in range(5):
        sys_ = random_stable_system(rng, n=int(rng.integers(2, 12)), ms_scale=0.0)
        P = solve_lyapunov(sys_.A.T, sys_.B @ sys_.B.T)
        want = np.sqrt(np.trace(sys_.C @ P @ sys_.C.T))
        assert abs(h2_norm(sys_) - want) <= 1e-9 * (1.0 + want)


def test_h2_error_of_identical_copy_is_negligible():
    rng = np.random.default_rng(37)
    sys_ = random_stable_system(rng, n=6, m=2, p=2)
    copy = ReducedLqoSystem(sys_.A, sys_.B, sys_.C, list(sys_.Ms), "intrusive-bt")
    # a trace form of the squared error would cancel fully here; the sum
    # of squares over the Hammarling factor resolves it
    assert h2_error(sys_, copy) <= 1e-12 * h2_norm(sys_)


def test_h2_error_resolves_errors_below_sqrt_eps():
    # A trace form of the squared error cancels to its round-off, about
    # eps * ||sys||^2, so it cannot tell errors below sqrt(eps) * ||sys||
    # apart; h2_error's sum of squares must. A change of coordinates has
    # no error at all, and a perturbation dC of C alone has the closed form
    # err^2 = trace(dC P dC'), as states and quadratic terms are unchanged.
    rng = np.random.default_rng(59)
    sys_ = random_stable_system(rng, n=8, m=2, p=2)
    norm = h2_norm(sys_)
    for _ in range(5):
        T = rng.standard_normal((8, 8)) + 4.0 * np.eye(8)
        Ti = np.linalg.inv(T)
        similar = ReducedLqoSystem(
            Ti @ sys_.A @ T, Ti @ sys_.B, sys_.C @ T,
            [T.T @ M @ T for M in sys_.Ms], "intrusive-bt",
        )
        assert h2_error(sys_, similar) <= 1e-12 * norm
    P = solve_lyapunov(sys_.A.T, sys_.B @ sys_.B.T)
    for scale in (1e-7, 1e-10):
        dC = scale * rng.standard_normal(sys_.C.shape)
        rom = ReducedLqoSystem(sys_.A, sys_.B, sys_.C + dC, list(sys_.Ms),
                               "intrusive-bt")
        want = np.sqrt(np.trace(dC @ P @ dC.T))
        assert abs(h2_error(sys_, rom) - want) <= 1e-4 * want


def test_h2_error_against_silent_rom_equals_norm():
    # a reduced model without input leaves h2_error the full model's kept
    # Hammarling factor alone, which must give the norm that h2_norm reads
    # off the Bartels-Stewart Q
    systems = [
        scalar_s1(),
        synthesize_system(50, damping=(0.1, 3.0), gain_decay=0.85, seed=21),
        synthesize_system(40, m=2, p=2, damping=(0.1, 3.0), gain_decay=0.85, seed=5),
    ]
    for sys_ in systems:
        rom = ReducedLqoSystem([[-1.0]], np.zeros((1, sys_.m)), np.ones((sys_.p, 1)),
                               [np.eye(1)] * sys_.p, "intrusive-bt")
        norm = h2_norm(sys_)
        assert abs(h2_error(sys_, rom) - norm) <= 1e-12 * norm, sys_.n


def test_h2_error_input_validation():
    sys_ = scalar_s1()
    wrong = ReducedLqoSystem(
        -np.eye(2), np.eye(2), np.ones((1, 2)), [np.eye(2)], "intrusive-bt"
    )
    with pytest.raises(ValueError, match="input/output dimensions differ"):
        h2_error(sys_, wrong)
    unstable = ReducedLqoSystem([[0.5]], [1.0], [1.0], [np.eye(1)], "time-qbt")
    with pytest.raises(UnstableSystemError):
        h2_error(sys_, unstable)


def test_unstable_full_model_raises_unstable_system_error():
    # the full model is checked as a system, before any Lyapunov solve can
    # turn the failure into a LyapunovError
    rom = ReducedLqoSystem([[-1.0]], [1.0], [1.0], [np.eye(1)], "intrusive-bt")
    for A in ([[0.5]], [[0.0, 1.0], [-1.0, 0.0]]):
        n = len(A)
        sys_ = LqoSystem(A, np.ones(n), np.ones(n), [np.eye(n)])
        with pytest.raises(UnstableSystemError):
            h2_norm(sys_)
        with pytest.raises(UnstableSystemError):
            h2_error(sys_, rom)


def _twin(sys_):
    return LqoSystem(sys_.A, sys_.B, sys_.C, sys_.Ms)


def _sweep_equals_fresh_objects(sys_, orders, roms, errors):
    # each order from a fresh system and fresh Gramians, bit for bit
    for r, rom, err in zip(orders, roms, errors):
        fresh = _twin(sys_)
        ref = intrusive_bt(fresh, r, gramians=compute_gramians(fresh))
        for X, Y in zip((rom.A, rom.B, rom.C, *rom.Ms), (ref.A, ref.B, ref.C, *ref.Ms)):
            assert np.array_equal(X, Y), r
        assert h2_error(_twin(sys_), ref) == err, r
    assert h2_norm(sys_) == h2_norm(_twin(sys_))


def _counting(calls, module, name):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    return counted


def test_order_sweep_factors_once_and_solves_each_system_once(monkeypatch):
    # one system's record solves its Gramians once, factors P and the whole
    # Q once each and L'U once for all orders; the ROMs it scores reuse its one Hammarling recursion
    # and have no Gramians of their own
    sys_ = synthesize_system(12, damping=(0.1, 3.0), gain_decay=0.85, seed=21)
    orders = range(2, 9)
    calls = {"svd": 0, "solve_lyapunov": 0, "psd_sqrt_factor": 0,
             "compute_gramians": 0, "_hammarling": 0}
    with monkeypatch.context() as m:
        for name in calls:
            m.setattr(gramians, name, _counting(calls, gramians, name))
        compute_gramians(sys_)
        roms = [intrusive_bt(sys_, r) for r in orders]
        assert calls == {"svd": 1, "solve_lyapunov": 3, "psd_sqrt_factor": 2,
                         "compute_gramians": len(roms), "_hammarling": 0}
        errors = [h2_error(sys_, rom) for rom in roms]
        h2_norm(sys_)  # the one compute_gramians call past intrusive_bt's
        assert calls == {"svd": 1, "solve_lyapunov": 3, "psd_sqrt_factor": 2,
                         "compute_gramians": len(roms) + 1, "_hammarling": 1}
    _sweep_equals_fresh_objects(sys_, orders, roms, errors)


def test_gramians_are_kept_once_per_system_and_cannot_change(monkeypatch):
    # compute_gramians hands every caller the same record, and h2_error
    # every ROM the same part of the full model's Hammarling recursion, so
    # none may change them, and they live exactly as long as their system
    records, factors = weakref.WeakKeyDictionary(), weakref.WeakKeyDictionary()
    monkeypatch.setattr(gramians, "_RECORDS", records)
    monkeypatch.setattr(gramians, "_ERROR_FACTORS", factors)
    sys_ = synthesize_system(4, m=2, p=2, seed=21)
    g = compute_gramians(sys_)
    assert compute_gramians(sys_) is g
    assert compute_gramians(_twin(sys_)) is not g
    rom = intrusive_bt(sys_, 2)
    h2_error(sys_, rom)
    f = factors[sys_]
    h2_error(sys_, intrusive_bt(sys_, 3))
    assert factors[sys_] is f
    assert rom not in records and rom not in factors  # a scored ROM keeps nothing
    T, Z = sys_.schur  # the system's one Schur form, which h2_error reads
    assert sys_.schur is sys_.schur
    for X in (g.P, g.Q1, g.Q2, g.Q, T, Z, g.U, g.L,
              g.hankel.Z, g.hankel.S, g.hankel.Y, f.S, f.V, f.CU, *f.K):
        with pytest.raises(ValueError):
            X[0, ...] = 1.0
    for rec, name in ((g, "P"), (g, "Q"), (g, "L"), (g, "hankel"), (f, "S"), (f, "K")):
        with pytest.raises(FrozenInstanceError):
            setattr(rec, name, None)
    del sys_, g, f, T, Z
    gc.collect()
    assert len(records) == 0 and len(factors) == 0
    # a failed stability check stores nothing
    unstable = LqoSystem([[0.5]], np.ones((1, 2)), np.ones((2, 1)), [np.eye(1)] * 2)
    with pytest.raises(UnstableSystemError):
        h2_norm(unstable)
    with pytest.raises(UnstableSystemError):
        h2_error(unstable, rom)
    assert len(records) == 0 and len(factors) == 0


def test_order_sweep_schur_forms_of_a_do_not_grow_with_orders(monkeypatch):
    # Bartels-Stewart needs one Schur form per coefficient; each system
    # keeps its own real one, which decides its stability and whose
    # complex form h2_error makes without another factorization. So an
    # order sweep makes 4 real Schur forms of A (the kept one and one in
    # each of compute_gramians' three solve_lyapunov calls) and one of each
    # scored ROM, and no eigenvalue solve.
    n = 12
    original = spla.schur
    shapes = []

    def spy(A, *args, **kwargs):
        shapes.append(A.shape)
        return original(A, *args, **kwargs)

    def no_eigvals(*args, **kwargs):
        raise AssertionError("np.linalg.eigvals called")

    monkeypatch.setattr(spla, "schur", spy)
    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    for n_orders in (2, 7):
        shapes.clear()
        sys_ = synthesize_system(n, damping=(0.1, 3.0), gain_decay=0.85, seed=21)
        g = compute_gramians(sys_)
        for r in range(2, 2 + n_orders):
            h2_error(sys_, intrusive_bt(sys_, r, gramians=g))
        assert shapes.count((n, n)) == 4, shapes
        assert len(shapes) == 4 + n_orders, shapes


@pytest.mark.parametrize("case", ["acceptance", "mimo", "linear"])
def test_h2_error_matches_assembled_error_system(case):
    # The assembled reference is the square root of a trace, tr(B'QB) of
    # the whole difference system, that cancels down to the error's size,
    # so it carries round-off of order eps * ||sys||^2 in the squared error;
    # h2_error's sum of squares does not cancel. So agreement is bounded on
    # the squared error, scaled by the squared norm of the full model: a
    # 1e-12 bound relative to the error itself would test the reference's
    # round-off (test_h2_error_matches_a_40_digit_reference holds h2_error
    # to that). The synthesized systems' errors stay above 3e-4 of their
    # norms, so there the error itself agrees to 1e-10 of the norm. The
    # random linear system's errors fall to 1e-7 of its norm (its numerical
    # rank is 11), and near such an error the trace's round-off alone moves
    # the reference by up to sqrt(eps) of the norm.
    if case == "acceptance":
        sys_ = synthesize_system(50, damping=(0.1, 3.0), gain_decay=0.85, seed=21)
    elif case == "mimo":
        sys_ = synthesize_system(40, m=2, p=2, damping=(0.1, 3.0), gain_decay=0.85, seed=5)
    else:
        sys_ = random_stable_system(np.random.default_rng(41), n=30, ms_scale=0.0)
    g = compute_gramians(sys_)
    norm = h2_norm(sys_, g)
    hsv = hankel_singular_values(g)
    rank = int(np.count_nonzero(hsv > 1e-13 * hsv[0]))
    for r in range(2, min(20, rank) + 1):
        rom = intrusive_bt(sys_, r, g)
        got, want = h2_error(sys_, rom), reference_h2_error(sys_, rom)
        assert abs(got**2 - want**2) <= 1e-12 * norm**2, r
        if case != "linear":
            assert abs(got - want) <= 1e-10 * norm, r


def test_h2_error_matches_a_40_digit_reference():
    # the reference eigendecomposes A and each A_r at 40 digits, so its
    # cancelling trace is exact to double precision; a trace form in double
    # precision is off by up to 2.2e-9 of the error on these models
    sys_ = synthesize_system(12, damping=(0.1, 3.0), gain_decay=0.85, seed=3)
    g = compute_gramians(sys_)
    orders = range(2, 11)
    roms = [intrusive_bt(sys_, r, g) for r in orders]
    for r, rom, want in zip(orders, roms, mp_h2_errors(sys_, roms)):
        assert abs(h2_error(sys_, rom) - want) <= 1e-12 * want, r
