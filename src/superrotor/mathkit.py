"""Quadrature rules, the real gamma function and the order-doubling rule.

The degree-2 Legendre family the anisotropy algebra needs lives in rates
(rates.assoc_legendre2), beside the closed form that must load without
numpy.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

# Half-line rules integrate against the weight exp(-q^2) on [0, inf).
# Truncating at HALFLINE_CUT leaves a tail below exp(-49) ~ 5e-22, under
# double-precision resolution of the integrals handled here.
HALFLINE_CUT = 7.0
# a quadrature value is converged while doubling its order moves it by at
# most this fraction of the largest magnitude among the values compared
ORDER_DOUBLING_TOL = 1e-3

_DOMAINS = ("interval", "half_line", "circle", "sphere", "ring")


def order_doubling_drift(base, *fine):
    """(drift, converged) of a quadrature value against its order-doubled
    values: max |f - base| over the fine values f, divided by the largest
    entry magnitude among base and all f (drift 0 when they all vanish).
    Values may be scalars or equal-shape arrays.  A non-finite value gives
    a NaN drift, which is never converged.
    """
    base = np.asarray(base)
    diff = np.max([np.max(np.abs(np.asarray(f) - base)) for f in fine])
    scale = np.max([np.max(np.abs(v)) for v in (base, *fine)])
    drift = 0.0 if scale == 0.0 else float(diff) / float(scale)
    return drift, bool(drift <= ORDER_DOUBLING_TOL)


def gamma_real(x):
    """Real gamma function for x > 0.

    Delegates to math.gamma, which is well below 1e-12 relative error on
    the range used here; the accuracy is pinned by tests against an
    integral-representation oracle.
    """
    x = float(x)
    if x <= 0.0:
        raise ValueError("gamma_real: requires x > 0")
    return math.gamma(x)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights bound to a semantic domain.

    domain:
      interval   -- Gauss-Legendre on [-1, 1]; weights sum to 2
      half_line  -- rule for integrals Int_0^inf f(q) exp(-q^2) dq;
                    the exponential weight is folded into the weights
      circle     -- uniform trapezoid in the angle on [0, 2*pi); exact for
                    trigonometric polynomials of degree < node count
      sphere     -- product Gauss(cos theta) x uniform(phi) rule; nodes are
                    unit vectors of shape (N, 3); weights sum to 4*pi
      ring       -- the sphere rule's Gauss(cos theta) nodes at phi = 0,
                    weights 2*pi*w_theta summing to 4*pi; exact on the sphere
                    for integrands invariant under rotations about z
    """

    domain: str
    nodes: np.ndarray
    weights: np.ndarray

    def __len__(self):
        return len(self.weights)


def _interval_rule(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _half_line_rule(order):
    # Affine map of the symmetric Gauss-Legendre rule onto [0, HALFLINE_CUT]
    # with the Gaussian weight folded in. Unlike folded Gauss-Hermite, the
    # node clustering at q = 0 resolves fractional powers of q: the moment
    # q^(21/5) is reproduced to ~1e-13 relative at order 48.
    x, w = np.polynomial.legendre.leggauss(order)
    q = 0.5 * (x + 1.0) * HALFLINE_CUT
    wq = 0.5 * HALFLINE_CUT * w * np.exp(-q * q)
    return q, wq


def _circle_rule(order):
    phi = 2.0 * np.pi * np.arange(order) / order
    w = np.full(order, 2.0 * np.pi / order)
    return phi, w


def _ring_rule(order):
    # The polar half of the sphere rule of the same order: its n_theta Gauss
    # nodes in cos(theta), placed at phi = 0, each weighted by the full
    # azimuth 2*pi*w_theta. Integrands invariant under rotations about z
    # (or made so by an exact azimuth average) need nothing more.
    n_theta = int(np.ceil(np.sqrt(order / 2.0)))
    ct, wt = np.polynomial.legendre.leggauss(n_theta)
    nodes = np.stack([np.sqrt(1.0 - ct * ct), np.zeros_like(ct), ct], axis=-1)
    return nodes, 2.0 * np.pi * wt


def _sphere_rule(order):
    # order is a target node count. The rings of _ring_rule times 2*n_theta
    # uniform azimuths: exact for polynomials of degree 2*n_theta - 1 in
    # cos(theta) and for azimuthal charges below 2*n_theta. Spectral shapes
    # carry charges up to 4j, so this rule aliases them once
    # 4*j_max >= 2*n_theta; the dissipator and the rates average the
    # azimuth exactly on the rings instead and do not depend on it.
    # Requesting 302 nodes yields the 13 x 26 = 338-node rule.
    ring, ring_w = _ring_rule(order)
    n_phi = 2 * len(ring_w)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    st, ct = ring[:, 0:1], ring[:, 2:3]
    nodes = np.stack(
        [st * np.cos(phi), st * np.sin(phi), ct + 0.0 * phi], axis=-1
    ).reshape(-1, 3)
    return nodes, np.repeat(ring_w / n_phi, n_phi)


def make_rule(domain, order):
    """Return the QuadratureRule of one of the supported domains.

    order must be >= 4. For the sphere the order is interpreted as a
    minimum total node count (see _sphere_rule); the ring rule of an order
    holds the polar nodes of the sphere rule of that order. Each (domain,
    order) rule is built once per process and shared: its nodes and weights
    are read-only.
    """
    if domain not in _DOMAINS:
        raise ValueError(f"make_rule: unknown domain tag {domain!r}")
    order = int(order)
    if order < 4:
        raise ValueError("make_rule: order must be >= 4")
    return _shared_rule(domain, order)


@functools.cache
def _shared_rule(domain, order):
    builder = {
        "interval": _interval_rule,
        "half_line": _half_line_rule,
        "circle": _circle_rule,
        "sphere": _sphere_rule,
        "ring": _ring_rule,
    }[domain]
    nodes, weights = builder(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(domain, nodes, weights)
