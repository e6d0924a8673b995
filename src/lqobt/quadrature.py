"""Quadrature rules on positive intervals, tailored to kernel energy integrals.

Both generators place nodes logarithmically: the integrands of interest decay
like exponentials of the node value, so resolution near the left endpoint
matters far more than near the right. Rules store square-root weights because
downstream factorizations weight samples by ``sqrt(w)`` on each side.
"""

from dataclasses import dataclass

import numpy as np

from .numcore import _read_only, _real

__all__ = ["QuadratureRule", "log_trapezoid", "clenshaw_curtis"]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and square-root weights of a quadrature rule.

    Invariants, enforced at construction: real arrays (a complex one
    raises, naming it), nodes strictly increasing and positive, square-root
    weights positive, equal lengths. Both arrays are then read-only, with
    every array they are views of (:func:`lqobt.numcore._read_only`), so
    the invariants keep holding.
    """

    nodes: np.ndarray
    sqrt_weights: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        nodes = np.atleast_1d(_real(self.nodes, "nodes"))
        sw = np.atleast_1d(_real(self.sqrt_weights, "sqrt_weights"))
        if nodes.ndim != 1 or sw.ndim != 1:
            raise ValueError("nodes and sqrt_weights must be 1-d")
        if nodes.shape != sw.shape:
            raise ValueError(
                f"{nodes.size} nodes but {sw.size} square-root weights"
            )
        if nodes.size == 0:
            raise ValueError("empty quadrature rule")
        if not (np.isfinite(nodes).all() and np.isfinite(sw).all()):
            raise ValueError("non-finite quadrature data")
        if nodes[0] <= 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be positive and strictly increasing")
        if np.any(sw <= 0.0):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "nodes", _read_only(nodes))
        object.__setattr__(self, "sqrt_weights", _read_only(sw))

    def __len__(self):
        return self.nodes.size

    @property
    def weights(self):
        """Plain weights, ``sqrt_weights**2``."""
        return self.sqrt_weights**2

    def integrate(self, values):
        """Apply the rule to samples taken at the nodes (leading axis)."""
        values = np.asarray(values)
        if values.shape[0] != self.nodes.size:
            raise ValueError("sample count does not match node count")
        return np.tensordot(self.weights, values, axes=(0, 0))


def log_trapezoid(a, b, n):
    """Composite trapezoid rule on log-equispaced nodes in ``[a, b]``.

    Parameters
    ----------
    a, b
        Interval endpoints, ``0 < a < b``.
    n
        Number of nodes, at least 2.
    """
    n = _check_interval(a, b, n)
    nodes = np.geomspace(a, b, n)
    w = np.empty(n)
    w[0] = 0.5 * (nodes[1] - nodes[0])
    w[-1] = 0.5 * (nodes[-1] - nodes[-2])
    if n > 2:
        w[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])
    return QuadratureRule(nodes, np.sqrt(w), kind="log-trapezoid")


def clenshaw_curtis(a, b, n):
    """Clenshaw-Curtis rule mapped through the substitution ``t = exp(u)``.

    Chebyshev extrema are placed on ``[log a, log b]`` and exponentiated;
    each weight picks up the change-of-variables Jacobian (the node value
    times the half-width of the log interval).

    Parameters
    ----------
    a, b
        Interval endpoints, ``0 < a < b``.
    n
        Number of nodes, at least 2.
    """
    n = _check_interval(a, b, n)
    m = n - 1
    j = np.arange(n)
    x = np.cos(np.pi * j / m)[::-1]
    w = _cc_weights(m)[::-1]
    half = 0.5 * (np.log(b) - np.log(a))
    u = np.log(a) + (x + 1.0) * half
    nodes = np.exp(u)
    # endpoints of geomspace are exact; keep them so for the CC map too
    nodes[0], nodes[-1] = a, b
    return QuadratureRule(nodes, np.sqrt(w * nodes * half), kind="clenshaw-curtis")


def _cc_weights(m):
    """Clenshaw-Curtis weights on [-1, 1] for nodes cos(j*pi/m), j = 0..m."""
    j = np.arange(m + 1)
    c = np.where((j == 0) | (j == m), 1.0, 2.0)
    kmax = m // 2
    k = np.arange(1, kmax + 1)
    if kmax:
        bk = np.where(2 * k == m, 1.0, 2.0)
        corr = (bk / (4.0 * k**2 - 1.0)) @ np.cos(
            2.0 * np.pi * np.outer(k, j) / m
        )
    else:
        corr = 0.0
    return (c / m) * (1.0 - corr)


def _check_interval(a, b, n):
    """The node count `n` as an ``int``, once the interval and the count
    are checked; an integral float such as ``10.0`` counts as 10."""
    if not (np.isfinite(a) and np.isfinite(b) and 0.0 < a < b):
        raise ValueError(f"need 0 < a < b, got a={a}, b={b}")
    if int(n) != n or n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    return int(n)
