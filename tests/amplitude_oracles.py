"""Oracles of the coupling matrix, its circle average and the sphere rule.

The package assembles the coupling matrix and the linearized forward
amplitude from the three band vectors of rates.template_bands. These helpers
keep independent forms of the same quantities:
- coupling_matrix_explicit writes each band of B_j out from P_2^k of the
  scaled projection, with its own divisors and geometry contractions;
- coupling_templates and averaged_coupling are the dense five-template form
  sum_a g_a(n') T_a with scattering.geometry_factors;
- circle_basis spans the impact plane of one incoming direction, for the
  tests that build impact directions one by one.

test_scattering checks coupling_matrix against the explicit form to 1e-14
and the contraction against a circle quadrature of coupling_matrix to
1e-12; the rate and energy-shift oracles of test_rates read the templates.

The package averages directions on rings (mathkit's ring rule) and builds
no azimuths; product_rule gives the oracles the full product sphere rule.
"""

import math

import numpy as np

from superrotor.mathkit import make_rule
from superrotor.rates import _kappa_for_mode, assoc_legendre2, template_bands
from superrotor.scattering import _check_unit, _circle_bases, geometry_factors

_EXY = np.array([1.0, 1j, 0.0])  # e_x + i e_y


def circle_basis(n_prime):
    """Orthonormal pair (u, v) spanning the plane perpendicular to n_prime:
    the package's _circle_bases of the one direction."""
    u, v = _circle_bases(_check_unit(n_prime, "n_prime")[None])
    return u[0], v[0]


def coupling_matrix_explicit(j, n_prime, e_b, mol, kappa_mode="exact"):
    """Coupling matrix B_j for a unit n_prime and a (c, 3) stack e_b of impact
    directions orthogonal to it, as the (c, d, d) stack.

    The diagonal carries P_2 of the scaled projection 2m/(2j+1), the first
    band P_2^1, the second band P_2^2, each contracted with the collision
    geometry.
    """
    n_prime = np.asarray(n_prime, dtype=float)
    e = np.asarray(e_b, dtype=float)
    ratio = mol.alpha_aniso / mol.alpha_mean
    d = 2 * j + 1
    m = np.arange(-j, j + 1, dtype=float)
    kap = _kappa_for_mode(j, kappa_mode)
    out = np.zeros((len(e), d, d), dtype=complex)
    e_z, e_xy = e[:, 2], e @ _EXY
    n_z, n_xy = n_prime[2], complex(_EXY @ n_prime)

    i = np.arange(d)
    diag_geom = 2.5 * e_z**2 + 0.5 * n_z**2 - 1.0
    diag = -(ratio / 3.0) * kap * assoc_legendre2(0, 2.0 * m / (2.0 * j + 1.0))
    out[:, i, i] = np.multiply.outer(diag_geom, diag)
    if d >= 2:
        plus = 5.0 * e_z * e_xy + n_z * n_xy
        i = np.arange(d - 1)
        band1 = (ratio / 18.0) * kap * assoc_legendre2(1, (2.0 * m[:-1] + 1.0) / (2.0 * j + 1.0))
        out[:, i, i + 1] = np.multiply.outer(plus, band1)
        out[:, i + 1, i] = np.multiply.outer(np.conj(plus), band1)
    if d >= 3:
        twist = 5.0 * e_xy**2 + n_xy**2
        i = np.arange(d - 2)
        band2 = -(ratio / 72.0) * kap * assoc_legendre2(2, (2.0 * m[:-2] + 2.0) / (2.0 * j + 1.0))
        out[:, i, i + 2] = np.multiply.outer(twist, band2)
        out[:, i + 2, i] = np.multiply.outer(np.conj(twist), band2)
    return out


def coupling_templates(j, mol, kappa_mode="exact"):
    """The five real banded templates of block j as a (5, d, d) array.

    T_1 holds the diagonal, T_2 and T_4 the first and second superdiagonal
    of template_bands; T_3 and T_5 are their transposes.
    """
    diag, band1, band2 = template_bands(j, mol, kappa_mode)
    d = len(diag)
    i = np.arange(d)
    t = np.zeros((5, d, d))
    t[0][i, i] = diag
    t[1][i[:-1], i[:-1] + 1] = band1
    t[2] = t[1].T
    t[3][i[:-2], i[:-2] + 2] = band2
    t[4] = t[3].T
    return t


def averaged_coupling(j, n_prime, mol, kappa_mode="exact"):
    """Circle average of the coupling matrix, sum_a g_a(n') T_a."""
    g = geometry_factors(n_prime)
    t = coupling_templates(j, mol, kappa_mode)
    return np.tensordot(g, t, axes=(0, 0))


def product_rule(order, n_phi=None):
    """(nodes (N, 3), weights (N,)) of the rings of make_rule("ring", order)
    times n_phi uniform azimuths, ring after ring; by default twice as many
    azimuths as rings, the product sphere rule of that order: exact for
    polynomials of degree 2 n_rings - 1 in cos(theta) and for azimuthal
    charges below n_phi, with weights summing to 4 pi."""
    ring = make_rule("ring", order)
    if n_phi is None:
        n_phi = 2 * len(ring)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    st, ct = ring.nodes[:, 0:1], ring.nodes[:, 2:3]
    nodes = np.stack([st * np.cos(phi), st * np.sin(phi), ct + 0.0 * phi], axis=-1)
    return nodes.reshape(-1, 3), np.repeat(ring.weights / n_phi, n_phi)
