"""Tests for quadrature rules: construction contracts, the two built-in
log-axis rules, convergence on kernel-type integrands, and CSV round trips."""

import numpy as np
import pytest

from lqobt import QuadratureRule, clenshaw_curtis, log_trapezoid


# ------------------------------------------------------------ contracts


def test_rule_validation_errors():
    good_n = np.array([1.0, 2.0])
    good_w = np.array([1.0, 1.0])
    with pytest.raises(ValueError, match="nodes and sqrt_weights must be 1-d"):
        QuadratureRule(np.array([[1.0, 2.0]]), good_w)
    with pytest.raises(ValueError):
        QuadratureRule(good_n, np.array([1.0]))
    with pytest.raises(ValueError):
        QuadratureRule(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        QuadratureRule(np.array([1.0, np.inf]), good_w)
    with pytest.raises(ValueError):
        QuadratureRule(np.array([2.0, 1.0]), good_w)
    with pytest.raises(ValueError):
        QuadratureRule(np.array([0.0, 1.0]), good_w)
    with pytest.raises(ValueError):
        QuadratureRule(good_n, np.array([1.0, 0.0]))
    # numpy's float conversion would keep the real part with only a warning
    for args, name in (((good_n + 1e-9j, good_w), "nodes"),
                       ((good_n, good_w.astype(complex)), "sqrt_weights")):
        with pytest.raises(ValueError, match=f"^{name} must be an array of real "
                                             "numbers, got complex128$"):
            QuadratureRule(*args)


def test_rule_arrays_are_frozen():
    rule = log_trapezoid(1.0, 10.0, 4)
    with pytest.raises(ValueError):
        rule.nodes[0] = 5.0
    with pytest.raises(ValueError):
        rule.sqrt_weights[0] = 5.0


def test_weights_are_squared_sqrt_weights():
    rule = QuadratureRule(np.array([0.3, 1.7]), np.array([0.9, 1.1]))
    assert np.array_equal(rule.weights, rule.sqrt_weights**2)
    assert len(rule) == 2


def test_integrate_contract():
    rule = QuadratureRule(np.array([1.0, 2.0, 3.0]), np.sqrt([0.5, 1.0, 0.5]))
    vals = np.array([2.0, 4.0, 6.0])
    assert abs(rule.integrate(vals) - (1.0 + 4.0 + 3.0)) <= 1e-14
    # array-valued samples integrate along the leading axis
    mat = np.stack([np.full((2, 2), v) for v in vals])
    assert np.allclose(rule.integrate(mat), 8.0 * np.ones((2, 2)))
    with pytest.raises(ValueError, match="sample count does not match node count"):
        rule.integrate(np.ones(4))


# --------------------------------------------------------- log trapezoid


def test_log_trapezoid_two_nodes():
    rule = log_trapezoid(1.0, 10.0, 2)
    assert np.allclose(rule.nodes, [1.0, 10.0], rtol=0, atol=0)
    assert np.allclose(rule.weights, [4.5, 4.5], rtol=1e-15)


def test_log_trapezoid_nodes_are_geometric():
    rule = log_trapezoid(0.1, 10.0, 3)
    assert np.allclose(rule.nodes, [0.1, 1.0, 10.0], rtol=1e-13)


def test_log_trapezoid_integrates_constants_exactly():
    for a, b, n in [(1e-2, 1e2, 7), (0.5, 2.0, 33), (1e-3, 30.0, 400)]:
        rule = log_trapezoid(a, b, n)
        total = rule.weights.sum()
        assert abs(total - (b - a)) <= 1e-12 * (b - a)


def test_log_trapezoid_rejects_bad_intervals():
    with pytest.raises(ValueError):
        log_trapezoid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        log_trapezoid(2.0, 1.0, 4)
    with pytest.raises(ValueError):
        log_trapezoid(1.0, 2.0, 1)


@pytest.mark.parametrize("rule", [log_trapezoid, clenshaw_curtis])
def test_integral_float_counts_give_the_integer_rule(rule):
    # both generators take the count that the interval check returns
    want, got = rule(1e-2, 1e2, 10), rule(1e-2, 1e2, 10.0)
    assert np.array_equal(got.nodes, want.nodes)
    assert np.array_equal(got.sqrt_weights, want.sqrt_weights)
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="need at least 2 nodes"):
            rule(1e-2, 1e2, bad)


# ------------------------------------------------------ Clenshaw-Curtis


def test_clenshaw_curtis_endpoints_exact():
    rule = clenshaw_curtis(1e-2, 1e2, 9)
    assert rule.nodes[0] == 1e-2
    assert rule.nodes[-1] == 1e2
    assert rule.kind == "clenshaw-curtis"


def test_clenshaw_curtis_log_constant_identity():
    # the rule lives on a log axis, so integrating 1/t is integrating a
    # constant in the transformed variable and must be near exact
    for n in (5, 9, 17):
        rule = clenshaw_curtis(0.1, 10.0, n)
        got = rule.integrate(1.0 / rule.nodes)
        assert abs(got - np.log(100.0)) <= 1e-12 * np.log(100.0)


def test_two_node_clenshaw_curtis_integrates_the_log_constant():
    # two nodes, the endpoints, each of weight 1 on [-1, 1]: no cosine
    # correction, and 1/t, a constant on the log axis, integrates exactly
    rule = clenshaw_curtis(0.1, 10.0, 2)
    assert np.array_equal(rule.nodes, [0.1, 10.0])
    assert abs(rule.integrate(1.0 / rule.nodes) - np.log(100.0)) <= 1e-15 * np.log(100.0)


def test_clenshaw_curtis_converges_spectrally():
    a, b = 0.1, 30.0
    exact = np.exp(-a) - np.exp(-b)
    errs = []
    for n in (9, 17, 33):
        rule = clenshaw_curtis(a, b, n)
        errs.append(abs(rule.integrate(np.exp(-rule.nodes)) - exact) / exact)
    assert errs[2] < errs[0]
    assert errs[2] <= 1e-8


# ------------------------------------------------- kernel-energy integral


def test_trapezoid_kernel_energy_convergence():
    # target: the integral of exp(-2 t) over the truncated window; the
    # window [1e-3, 30] itself clips about 1e-3 of the untruncated value
    a, b = 1e-3, 30.0
    exact = 0.5 * (np.exp(-2 * a) - np.exp(-2 * b))
    errs = []
    for n in (100, 400):
        rule = log_trapezoid(a, b, n)
        got = rule.integrate(np.exp(-2.0 * rule.nodes))
        errs.append(abs(got - exact) / exact)
    assert errs[1] < errs[0]
    assert errs[1] <= 1e-3
    rule = log_trapezoid(a, b, 400)
    got = rule.integrate(np.exp(-2.0 * rule.nodes))
    assert abs(got - 0.5) <= 2e-3
