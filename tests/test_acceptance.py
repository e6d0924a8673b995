"""Package-level acceptance checks.

Each test exercises one advertised guarantee of the library end to end
and prints a single ``[criterion N] PASS/FAIL`` line with the measured
figure, so a full run yields a nine-line scorecard. The tolerances and
runtime budgets are part of the contract and are asserted, not merely
reported. Tests share one fixed-seed n=50 benchmark system and cache its
expensive quadrature sweeps at module scope.
"""

import time

import numpy as np

from conftest import (
    factor_products,
    freq_factors,
    random_rule,
    random_stable_system,
    scalar_s1,
    time_factors,
)
from lqobt import (
    UnstableSystemError,
    build_data_matrices,
    collect_freq_data,
    collect_time_data,
    compute_gramians,
    h2_error,
    h2_norm,
    hankel_singular_values,
    intrusive_bt,
    log_trapezoid,
    lqo_qbt,
    lqo_qbt_auto,
    solve_lyapunov,
    svd,
    synthesize_system,
)
from lqobt import databt

_CACHE = {}


def _verdict(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _benchmark():
    """Fixed-seed n=50 oscillator benchmark shared by criteria 4-8."""
    if "bench" not in _CACHE:
        _CACHE["bench"] = synthesize_system(
            50, damping=(0.1, 3.0), gain_decay=0.85, seed=21
        )
    return _CACHE["bench"]


def _benchmark_gramians():
    if "gram" not in _CACHE:
        _CACHE["gram"] = compute_gramians(_benchmark())
    return _CACHE["gram"]


# the order sweep of criterion 6 shares the N=400 collection with
# criteria 4, 5, and 8, so those orders are materialized in one pass
_ORDERS = {400: list(range(2, 21))}


def _benchmark_qbt(n_nodes):
    key = ("qbt", n_nodes)
    if key not in _CACHE:
        orders = _ORDERS.get(n_nodes, [10])
        rule = log_trapezoid(1e-2, 1e2, n_nodes)
        S, roms = lqo_qbt_auto(_benchmark(), rule, rule, orders)
        _CACHE[key] = (S, dict(zip(orders, roms)))
    return _CACHE[key]


def _equivalence_cases():
    """Twenty random (system, rule, rule) triples with n <= 20 and
    m, p in {1, 2}, regenerated deterministically."""
    if "cases20" not in _CACHE:
        rng = np.random.default_rng(42)
        cases = []
        for _ in range(20):
            m = int(rng.integers(1, 3))
            p = int(rng.integers(1, 3))
            sys_ = random_stable_system(rng, m=m, p=p)
            rule_p = random_rule(rng)
            rule_q = random_rule(rng, avoid=rule_p)
            cases.append((sys_, rule_p, rule_q))
        _CACHE["cases20"] = cases
    return _CACHE["cases20"]


def _mimo_cases():
    """Six m=p=2 triples for the MIMO variant of the equivalence check."""
    if "cases_mimo" not in _CACHE:
        rng = np.random.default_rng(99)
        cases = []
        for _ in range(6):
            sys_ = random_stable_system(rng, m=2, p=2)
            rule_p = random_rule(rng)
            rule_q = random_rule(rng, avoid=rule_p)
            cases.append((sys_, rule_p, rule_q))
        _CACHE["cases_mimo"] = cases
    return _CACHE["cases_mimo"]


def _worst_matrix_dev(dm, products):
    """Largest max-abs deviation over the five sample matrices, each
    scaled by ``1 + max |entry|`` of the reference."""
    H, M, h, g, K = products
    pairs = [(dm.H, H), (dm.M, M), (dm.h, h), (dm.g, g)]
    pairs += list(zip(dm.K, K))
    worst = 0.0
    for got, want in pairs:
        if not want.size:
            continue
        scale = 1.0 + np.abs(want).max()
        worst = max(worst, np.abs(got - want).max() / scale)
    return worst


def _equivalence_devs(cases):
    """Worst time-domain and frequency-domain sample-matrix deviations
    from the explicit factor products over the given cases."""
    worst_t = worst_f = 0.0
    for sys_, rule_p, rule_q in cases:
        ds = collect_time_data(sys_, rule_p, rule_q)
        dm = build_data_matrices(ds)
        prod = factor_products(sys_, *time_factors(sys_, rule_p, rule_q))
        worst_t = max(worst_t, _worst_matrix_dev(dm, prod))

        # the complex matrices at the conjugate-closed nodes, before the
        # pairing that makes them real
        ds_f = collect_freq_data(sys_, rule_p, rule_q)
        dm_f = databt._complex_freq_matrices(ds_f)
        U, L = freq_factors(sys_, ds_f.p_nodes, ds_f.p_sqrt_weights,
                            ds_f.q_nodes, ds_f.q_sqrt_weights)
        prod_f = factor_products(sys_, U, L, hermitian=True)
        worst_f = max(worst_f, _worst_matrix_dev(dm_f, prod_f))
    return worst_t, worst_f


def _exactness_dev(m, p, seed):
    """Full-rank data-driven reduction versus full-order intrusive
    balanced truncation on a random n=5 system, compared through both
    transfer functions at ten random points."""
    rng = np.random.default_rng(seed)
    sys_ = random_stable_system(rng, n=5, m=m, p=p)
    rule = log_trapezoid(1e-2, 1e2, 12)
    ds = collect_time_data(sys_, rule, rule)
    dm = build_data_matrices(ds)
    S = svd(dm.H).S
    rank = int((S > 1e-10 * S[0]).sum())
    rom_q = lqo_qbt(ds, rank)
    rom_b = intrusive_bt(sys_, sys_.n)
    points = rng.uniform(-0.2, 0.5, 10) + 1j * rng.uniform(0.1, 8.0, 10)
    worst = 0.0
    for i, sp in enumerate(points):
        dev1 = np.abs(rom_q.tf1(sp) - rom_b.tf1(sp)).max()
        ref1 = max(np.abs(rom_b.tf1(sp)).max(), 1e-12)
        s2 = points[(i + 3) % points.size]
        t_q = np.asarray(rom_q.tf2(sp, s2))
        t_b = np.asarray(rom_b.tf2(sp, s2))
        dev2 = np.abs(t_q - t_b).max()
        ref2 = max(np.abs(t_b).max(), 1e-12)
        worst = max(worst, dev1 / ref1, dev2 / ref2)
    return rank, worst, sys_


def _safe_h2_error(sys_, rom):
    try:
        return h2_error(sys_, rom)
    except UnstableSystemError:
        return float("inf")


def test_criterion_1_factor_product_equivalence():
    t0 = time.perf_counter()
    worst_t, worst_f = _equivalence_devs(_equivalence_cases())
    dt = time.perf_counter() - t0
    ok = worst_t <= 1e-10 and worst_f <= 1e-10 and dt < 10.0
    _verdict(1, ok, f"time worst {worst_t:.2e}, freq worst {worst_f:.2e} "
                    f"(tol 1e-10); {dt:.1f} s < 10 s")


def test_criterion_2_scalar_analytic_values():
    t0 = time.perf_counter()
    s1 = scalar_s1()
    A, B, C, M = s1.A, s1.B, s1.C, s1.Ms[0]
    gram = compute_gramians(s1)
    P = solve_lyapunov(A.T, B @ B.T)
    Q1 = solve_lyapunov(A, C.T @ C)
    Q2 = solve_lyapunov(A, M @ P @ M)
    devs = [
        np.abs(P - 0.5).max(),
        np.abs(Q1 - 0.5).max(),
        np.abs(Q2 - 0.25).max(),
        np.abs(gram.Q - 0.75).max(),
        abs(hankel_singular_values(gram)[0] - np.sqrt(3.0 / 8.0)),
        abs(h2_norm(s1, gram) - np.sqrt(0.75)),
        np.abs(s1.h1(0.7) - np.exp(-0.7)).max(),
        np.abs(s1.h2(0.3, 0.4) - np.exp(-0.7)).max(),
        np.abs(s1.tf1(1.0j) - (0.5 - 0.5j)).max(),
        np.abs(np.asarray(s1.tf2(1.0j, -1.0j)) - 0.5).max(),
    ]
    dt = time.perf_counter() - t0
    worst = max(devs)
    ok = worst <= 1e-12 and dt < 1.0
    _verdict(2, ok, f"worst deviation {worst:.2e} (tol 1e-12); "
                    f"{1e3 * dt:.0f} ms < 1 s")


def test_criterion_3_full_rank_exactness():
    t0 = time.perf_counter()
    rank, worst, _ = _exactness_dev(1, 1, seed=7)
    dt = time.perf_counter() - t0
    ok = rank == 5 and worst <= 1e-6 and dt < 5.0
    _verdict(3, ok, f"rank {rank}, worst transfer deviation {worst:.2e} "
                    f"(tol 1e-6); {dt:.1f} s < 5 s")


def test_criterion_4_hankel_value_convergence():
    t0 = time.perf_counter()
    S, _ = _benchmark_qbt(400)
    hsv = hankel_singular_values(_benchmark_gramians())
    got = S[:10] / S[0]
    want = hsv[:10] / hsv[0]
    rel = float((np.abs(got - want) / want).max())
    dt = time.perf_counter() - t0
    ok = rel <= 1e-2 and dt < 60.0
    _verdict(4, ok, f"leading-10 normalized HSV rel dev {rel:.2e} "
                    f"(tol 1e-2); {dt:.1f} s < 60 s")


def test_criterion_5_error_reaches_bt_accuracy():
    t0 = time.perf_counter()
    bench = _benchmark()
    e_bt = h2_error(bench, intrusive_bt(bench, 10, _benchmark_gramians()))
    errors = {}
    for n_nodes in (50, 100, 200, 400, 800):
        _, roms = _benchmark_qbt(n_nodes)
        errors[n_nodes] = _safe_h2_error(bench, roms[10])
    ratio = errors[800] / e_bt
    dt = time.perf_counter() - t0
    ok = ratio <= 1.1 and dt < 300.0
    trail = ", ".join(f"{n}: {errors[n] / e_bt:.3f}" for n in sorted(errors))
    _verdict(5, ok, f"error/BT ratio at N=800: {ratio:.4f} (<= 1.1); "
                    f"sweep [{trail}]; {dt:.0f} s < 300 s")


def test_criterion_6_monotone_order_sweep():
    t0 = time.perf_counter()
    bench = _benchmark()
    gram = _benchmark_gramians()
    _, roms = _benchmark_qbt(400)
    orders = _ORDERS[400]
    e_bt = [h2_error(bench, intrusive_bt(bench, r, gram)) for r in orders]
    e_qbt = [_safe_h2_error(bench, roms[r]) for r in orders]
    steps = [curve[i + 1] / curve[i]
             for curve in (e_bt, e_qbt) for i in range(len(orders) - 1)]
    worst_step = max(steps)
    worst_ratio = max(q / b for q, b in zip(e_qbt, e_bt))
    dt = time.perf_counter() - t0
    ok = worst_step <= 1.05 and worst_ratio <= 2.0 and dt < 300.0
    _verdict(6, ok, f"worst step ratio {worst_step:.3f} (<= 1.05), "
                    f"worst error ratio {worst_ratio:.3f} (<= 2); "
                    f"{dt:.0f} s < 300 s")


def test_criterion_7_lyapunov_residuals():
    systems = [sys_ for sys_, _, _ in _equivalence_cases()]
    systems += [sys_ for sys_, _, _ in _mimo_cases()]
    systems.append(scalar_s1())
    systems.append(_exactness_dev(1, 1, seed=7)[2])
    systems.append(_exactness_dev(2, 2, seed=17)[2])
    systems.append(_benchmark())
    worst = 0.0
    for sys_ in systems:
        A, B, C = sys_.A, sys_.B, sys_.C
        P = solve_lyapunov(A.T, B @ B.T)
        W2 = sum(M @ P @ M for M in sys_.Ms)
        for A_eq, W in ((A.T, B @ B.T), (A, C.T @ C), (A, W2)):
            X = solve_lyapunov(A_eq, W)
            res = np.linalg.norm(A_eq.T @ X + X @ A_eq + W)
            worst = max(worst, res / max(1.0, np.linalg.norm(W)))
    ok = worst <= 1e-9
    _verdict(7, ok, f"worst relative residual {worst:.2e} over "
                    f"{len(systems)} systems x 3 equations (tol 1e-9)")


def test_criterion_8_simulation_checks():
    # fourth-order convergence on the scalar benchmark, homogeneous
    # response from x(0)=1 against the closed form exp(-1) + exp(-2)
    s1 = scalar_s1()
    exact = np.exp(-1.0) + np.exp(-2.0)
    x0 = np.array([1.0])

    def zero(t):
        return np.zeros(1)

    errs = []
    for steps in (250, 500):
        times = np.linspace(0.0, 1.0, steps + 1)
        y = s1.simulate(zero, times, x0=x0).outputs[-1, 0]
        errs.append(abs(y - exact))
    conv = errs[0] / errs[1]

    # reduced models must track the full model under a broadband input
    bench = _benchmark()
    rom_bt = intrusive_bt(bench, 10, _benchmark_gramians())
    rom_qbt = _benchmark_qbt(400)[1][10]
    times = np.linspace(0.0, 5.0, 2001)

    def u(t):
        return np.array([5.0 * (np.cos(5.0 * np.pi * t)
                                + np.sin(12.0 * np.pi * t)
                                * np.exp(-0.4 * t))])

    y_f = bench.simulate(u, times).outputs[:, 0]
    y_b = rom_bt.simulate(u, times).outputs[:, 0]
    y_q = rom_qbt.simulate(u, times).outputs[:, 0]
    sim_ratio = np.abs(y_f - y_q).max() / np.abs(y_f - y_b).max()

    ok = 14.0 <= conv <= 18.0 and sim_ratio <= 2.0
    _verdict(8, ok, f"RK4 halving ratio {conv:.2f} (16 +- 2); "
                    f"max-error ratio vs BT {sim_ratio:.4f} (<= 2)")


def test_criterion_9_mimo_paths():
    cases = _mimo_cases()
    for sys_, _, _ in cases:
        assert not np.allclose(sys_.Ms[0], sys_.Ms[1])
    worst_t, worst_f = _equivalence_devs(cases)
    rank, worst_x, sys_x = _exactness_dev(2, 2, seed=17)
    assert not np.allclose(sys_x.Ms[0], sys_x.Ms[1])
    ok = (worst_t <= 1e-10 and worst_f <= 1e-10
          and rank == 5 and worst_x <= 1e-6)
    _verdict(9, ok, f"equivalence worst {max(worst_t, worst_f):.2e} "
                    f"(tol 1e-10); exactness rank {rank}, "
                    f"worst {worst_x:.2e} (tol 1e-6)")
