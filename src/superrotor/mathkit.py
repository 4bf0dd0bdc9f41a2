"""Quadrature rules and the order-doubling rule.

This module imports only the standard library. A rule is built once per
process as Python floats (gauss_legendre and the domain builders), which
the scalar quadrature route of rates reads directly; array callers read the
same floats as read-only numpy arrays, built on first access.

Direction averages take the ring rule: the rates and the dissipator average
the azimuth exactly, so the package builds no product sphere rule.

The degree-2 Legendre family the anisotropy algebra needs lives in rates
(rates.assoc_legendre2), beside the closed form that must load without
numpy.
"""

import functools
import math

from .params import Frozen

# Half-line rules integrate against the weight exp(-q^2) on [0, inf).
# Truncating at HALFLINE_CUT leaves a tail below exp(-49) ~ 5e-22, under
# double-precision resolution of the integrals handled here.
HALFLINE_CUT = 7.0
# a quadrature value is converged while doubling its order moves it by at
# most this fraction of the largest magnitude among the values compared
ORDER_DOUBLING_TOL = 1e-3

def _peak(value):
    # largest magnitude of a scalar or of an array's entries
    mag = abs(value)
    return float(mag.max()) if hasattr(mag, "max") else float(mag)


def order_doubling_drift(base, *fine):
    """(drift, converged) of a quadrature value against its order-doubled
    values: max |f - base| over the fine values f, divided by the largest
    entry magnitude among base and all f (drift 0 when they all vanish).
    Values may be scalars or equal-shape arrays.  A non-finite value gives
    a NaN drift, which is never converged.
    """
    diffs = [_peak(f - base) for f in fine]
    scales = [_peak(v) for v in (base, *fine)]
    diff, scale = max(diffs), max(scales)
    if math.isnan(sum(diffs) + sum(scales)):
        drift = math.nan
    else:
        drift = 0.0 if scale == 0.0 else diff / scale
    return drift, bool(drift <= ORDER_DOUBLING_TOL)


@functools.cache
def gauss_legendre(n):
    """The n-point Gauss-Legendre rule on [-1, 1]: (nodes, weights), two
    tuples of floats with the nodes ascending.

    Newton's method on the three-term recurrence of P_n (Hale & Townsend,
    SIAM J. Sci. Comput. 35 (2013) A652), from Tricomi's first-order node
    estimate, one root per symmetric pair. Each weight is
    2 / ((1 - x)(1 + x) P_n'(x)^2) at the converged node, P_n' from its last
    Newton step; the factored 1 - x^2 keeps the edge weights accurate to a
    few 1e-13.
    """
    n = int(n)
    if n < 1:
        raise ValueError("gauss_legendre: n must be >= 1")
    nodes = [0.0] * n
    weights = [0.0] * n
    for k in range((n + 1) // 2):
        # the k-th largest root, near cos(pi (k + 3/4) / (n + 1/2))
        x = (1.0 - (n - 1) / (8.0 * n**3)) * math.cos(math.pi * (k + 0.75) / (n + 0.5))
        for _ in range(100):
            step, dp = _legendre_newton(n, x)
            x -= step
            if abs(step) <= 1e-15:
                break
        else:
            raise ArithmeticError(f"gauss_legendre: Newton failed at n={n}")
        if 2 * k + 1 == n:
            x = 0.0
        # P_n' at x + step, moved to x along P_n'' = 2x P_n' / (1 - x^2), the
        # Legendre equation at a root
        edge = (1.0 - x) * (1.0 + x)
        w = 2.0 / (edge * (dp - step * 2.0 * x * dp / edge) ** 2)
        nodes[k], nodes[n - 1 - k] = -x, x
        weights[k] = weights[n - 1 - k] = w
    return tuple(nodes), tuple(weights)


def _legendre_newton(n, x):
    # (P_n(x) / P_n'(x), P_n'(x)) from the three-term recurrence
    p_prev, p = 1.0, x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))
    return p / dp, dp


class QuadratureRule(Frozen):
    """Nodes and weights of one make_rule domain.

    node_floats and weight_floats hold the rule as tuples of Python floats
    (a node of the ring is an (x, y, z) tuple); nodes and weights are the
    same values as read-only numpy arrays, built on first access.
    """

    def __init__(self, node_floats, weight_floats):
        vars(self).update(node_floats=node_floats, weight_floats=weight_floats)

    def __len__(self):
        return len(self.weight_floats)

    @functools.cached_property
    def nodes(self):
        return _read_only(self.node_floats)

    @functools.cached_property
    def weights(self):
        return _read_only(self.weight_floats)


def _read_only(values):
    import numpy as np

    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def _half_line_rule(order):
    # Affine map of the symmetric Gauss-Legendre rule onto [0, HALFLINE_CUT]
    # with the Gaussian weight folded in. Unlike folded Gauss-Hermite, the
    # node clustering at q = 0 resolves fractional powers of q: the moment
    # q^(21/5) is reproduced to ~1e-13 relative at order 48.
    x, w = gauss_legendre(order)
    q = [0.5 * (xi + 1.0) * HALFLINE_CUT for xi in x]
    wq = [0.5 * HALFLINE_CUT * wi * math.exp(-qi * qi) for qi, wi in zip(q, w)]
    return q, wq


def _circle_rule(order):
    phi = [2.0 * math.pi * k / order for k in range(order)]
    return phi, [2.0 * math.pi / order] * order


def _ring_rule(order):
    # order is a target node count of the product sphere rule these rings
    # span with 2*n_theta uniform azimuths: n_theta Gauss nodes in
    # cos(theta), placed at phi = 0, each weighted by the full azimuth
    # 2*pi*w_theta. Integrands invariant under rotations about z (or made
    # so by an exact azimuth average, as in the rates and the dissipator)
    # need no azimuths. Order 302 gives 13 rings (a 13 x 26 = 338-node
    # sphere).
    n_theta = math.ceil(math.sqrt(order / 2.0))
    ct, wt = gauss_legendre(n_theta)
    nodes = [(math.sqrt(1.0 - c * c), 0.0, c) for c in ct]
    return nodes, [2.0 * math.pi * w for w in wt]


# the rule builder of each domain: order -> (nodes, weights)
_BUILDERS = {
    "interval": gauss_legendre,
    "half_line": _half_line_rule,
    "circle": _circle_rule,
    "ring": _ring_rule,
}


def make_rule(domain, order):
    """Return the QuadratureRule of one of these domains:

      interval   -- Gauss-Legendre on [-1, 1]; weights sum to 2
      half_line  -- rule for integrals Int_0^inf f(q) exp(-q^2) dq;
                    the exponential weight is folded into the weights
      circle     -- uniform trapezoid in the angle on [0, 2*pi); exact for
                    trigonometric polynomials of degree < node count
      ring       -- Gauss(cos theta) nodes at phi = 0, unit vectors of shape
                    (N, 3), weights 2*pi*w_theta summing to 4*pi; exact on the
                    sphere for integrands invariant under rotations about z

    order must be >= 4. For the ring the order is a minimum node count of
    the product sphere rule that the rings span (see _ring_rule). Each
    (domain, order) rule is built once per process and shared: its floats
    are tuples and its arrays read-only.
    """
    if domain not in _BUILDERS:
        raise ValueError(f"make_rule: unknown domain tag {domain!r}")
    order = int(order)
    if order < 4:
        raise ValueError("make_rule: order must be >= 4")
    return _shared_rule(domain, order)


@functools.cache
def _shared_rule(domain, order):
    nodes, weights = _BUILDERS[domain](order)
    return QuadratureRule(tuple(nodes), tuple(weights))
