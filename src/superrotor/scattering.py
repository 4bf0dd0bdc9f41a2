"""Anisotropy coupling matrices and eikonal scattering amplitudes.

The long-range interaction seen by a fast-spinning linear rotor is a van der
Waals potential whose orientation dependence couples magnetic sublevels with
|m - m'| <= 2 inside a fixed j block. This module builds those banded
coupling matrices, B_j = sum_a h_a(n', e_b) T_a over the templates T_a of
rates.template_bands, and evaluates the matrix-valued eikonal amplitudes
three ways, all forward: a linearized closed form (the circle average of
h_a is geometry_factors(n')), a spectral (fractional matrix power)
evaluation, and the impact-parameter integral of the Schiff route
(schiff_amplitude_full), the spectral one's quadrature partner.
Each amplitude is a plain (2j + 1, 2j + 1) complex array indexed by (m, m')
with m running -j..j, in internal length units (multiply by
UnitScales.length for SI).

The Schiff amplitude and the b-space cross section share one radial integral
(_radial_jump_integral): Gauss panels in b from the core radius, where the
phase a/b^5 reaches PHASE_CAP, out to b_max, and inside the core an exact
rule in u = b^-5 (_core_integral) that resolves the oscillation rather than
averaging it out.

Everything runs in internal units with hbar = 1. The pieces the numpy-free
rate route shares with this module (kappa, eikonal_strength, forward_scalar
and the template bands) are defined in rates and re-exported here.
"""

import math

import numpy as np

from .mathkit import make_rule, order_doubling_drift
from .params import HBAR
from .rates import (
    TEMPLATE_OFFSETS,
    assoc_legendre2,
    eikonal_strength,
    forward_scalar,
    kappa,
    template_bands,
)

# where the accumulated eikonal phase |a|/b^5 reaches this, the radial panels
# in b hand over to the core's rule in u = b^-5 (_core_integral)
PHASE_CAP = 50.0
# the core's rule: half-periods pi/|a| in u, Gauss nodes on each, and the
# binomial weights of 30 rounds of pairwise averaging of the partial sums,
# which fall on the last 31 of them
_CORE_HALF_PERIODS = 48
_CORE_NODES = 12
_CORE_AVERAGING = np.array([math.comb(30, k) for k in range(31)]) / 2.0**30

_EXY = np.array([1.0, 1j, 0.0])  # e_x + i e_y


def _check_unit(v, name, ndim=1):
    # a unit 3-vector, or with ndim=2 a (c, 3) stack of them
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v, axis=-1)
    if v.ndim != ndim or v.shape[-1] != 3 or np.any(np.abs(norm - 1.0) > 1e-9):
        raise ValueError(f"{name} must be a unit 3-vector")
    return v


def _circle_bases(nodes):
    """(n, 3) stacks (u, v): for each row of the (n, 3) stack of unit vectors
    nodes, an orthonormal pair spanning the plane perpendicular to it."""
    helper = np.where(np.abs(nodes[:, :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    u = np.cross(nodes, helper)
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    return u, np.cross(nodes, u)


def _circle_directions(nodes, phi):
    """(n, c, 3) stack of impact directions cos(phi) u + sin(phi) v around
    each row of the (n, 3) stack nodes."""
    u, v = _circle_bases(nodes)
    return np.cos(phi)[:, None] * u[:, None, :] + np.sin(phi)[:, None] * v[:, None, :]


def _place_bands(coeffs, bands):
    """(c, d, d) stack of sum_a coeffs[a] T_a: coefficient a times band |k|
    of rates.template_bands on the diagonal k = TEMPLATE_OFFSETS[a], for
    coeffs a (5, c) stack ordered as TEMPLATE_OFFSETS."""
    d = len(bands[0])
    out = np.zeros((len(coeffs[0]), d, d), dtype=complex)
    flat = out.reshape(len(out), d * d)
    for c_a, k in zip(coeffs, TEMPLATE_OFFSETS):
        # diagonal k is every (d + 1)-th flat entry from k, or from -k d below
        start = k if k >= 0 else -k * d
        stop = start + (d - abs(k)) * (d + 1)
        flat[:, start : stop : d + 1] = np.multiply.outer(c_a, bands[abs(k)])
    return out


def _collision_factors(n_prime, e):
    """Collision-geometry factors h_a(n', e_b) for a (..., c, 3) stack e of
    impact directions around the (..., 3) incoming directions n_prime, each
    of shape (..., c) and ordered as TEMPLATE_OFFSETS:
    h_0 = -(5 e_z^2 + n_z^2 - 2), h_+1 = -(2/3)(5 e_z e_+ + n_z n_+),
    h_+2 = -(2/3)(5 e_+^2 + n_+^2) and h_-1, h_-2 their conjugates, with
    e_+ = e_x + i e_y and n_+ likewise.
    Their circle average over e_b is geometry_factors(n')."""
    e_z, e_plus = e[..., 2], e @ _EXY
    n_z, n_plus = n_prime[..., 2, None], (n_prime @ _EXY)[..., None]
    h1 = -(2.0 / 3.0) * (5.0 * e_z * e_plus + n_z * n_plus)
    h2 = -(2.0 / 3.0) * (5.0 * e_plus**2 + n_plus**2)
    return [-(5.0 * e_z**2 + n_z**2 - 2.0), h1, h1.conj(), h2, h2.conj()]


def coupling_matrix(j, n_prime, e_b, mol, kappa_mode="exact"):
    """Banded coupling matrix B_j for incoming direction n_prime and impact
    direction e_b (which must be orthogonal to n_prime).

    B_j = sum_a h_a(n', e_b) T_a: the collision-geometry factors of
    _collision_factors on the templates of rates.template_bands. Hermitian
    by construction; identically zero when alpha_aniso = 0. Returns the
    (d, d) complex array, d = 2j + 1. e_b may also be a (c, 3) stack of
    impact directions around the one n_prime; the result is then the
    (c, d, d) stack of their matrices.
    """
    j = int(j)
    if j < 0:
        raise ValueError("coupling_matrix: j must be >= 0")
    n_prime = _check_unit(n_prime, "n_prime")
    stacked = np.ndim(e_b) == 2
    e = _check_unit(np.atleast_2d(e_b), "e_b", ndim=2)
    if np.any(np.abs(e @ n_prime) >= 1e-12):
        raise ValueError("coupling_matrix: e_b must be orthogonal to n_prime")

    out = _place_bands(_collision_factors(n_prime, e), template_bands(j, mol, kappa_mode))
    return out if stacked else out[0]


def geometry_factors(n):
    """Direction factors g_1..g_5 pairing with the templates T_1..T_5 of
    rates.template_bands: [P2(n_z), n_z n_+, n_z n_-, n_+^2, n_-^2] with
    n_+- = n_x +- i n_y."""
    n = _check_unit(n, "n")
    n_plus = n[0] + 1j * n[1]
    n_minus = n[0] - 1j * n[1]
    p2 = assoc_legendre2(0, n[2])
    return np.array([p2, n[2] * n_plus, n[2] * n_minus, n_plus**2, n_minus**2])


def forward_amplitude_linearized(j, q, n_prime, spec, kappa_mode="exact"):
    """Forward amplitude with the fractional matrix power expanded to first
    order: c(q) (identity + (2/5) sum_a g_a(n') T_a), the analytic circle
    average of the coupling matrix. Returns the (2j + 1, 2j + 1) array.
    """
    j = int(j)
    if j < 0 or q <= 0.0:
        raise ValueError("forward_amplitude_linearized: need j >= 0 and q > 0")
    g = geometry_factors(n_prime)
    bbar = _place_bands(g[:, None], template_bands(j, spec.molecule, kappa_mode))[0]
    return forward_scalar(q, spec) * (np.eye(2 * j + 1) + 0.4 * bbar)


def spectral_shapes(j, nodes, spec, kappa_mode="exact"):
    """q-independent shapes S(n') of the spectral forward amplitude
    F(q, n') = c(q) S(n'), for an (n, 3) stack of incoming directions.

    S(n') is the circle average of (identity + B(n', e_b))^{2/5} over the
    impact directions e_b, each power taken by hermitian eigendecomposition;
    returns the (n, d, d) stack. B is quadratic in e_b, so the node phi + pi
    of the uniform circle rule repeats the node phi: an even
    quad_order_circle sums the first half of the circle at twice the
    weight, an odd one the whole circle. Each incoming direction takes one
    eigh of its own stack of circle nodes. Raises when any eigenvalue of
    identity + B is non-positive: the fractional-power branch only exists
    inside the weak-anisotropy regime and clamping would silently falsify
    results.
    """
    j = int(j)
    if j < 0:
        raise ValueError("spectral_shapes: need j >= 0")
    nodes = _check_unit(nodes, "nodes", ndim=2)
    rule = make_rule("circle", spec.numerics.quad_order_circle)
    phi, weights = rule.nodes, rule.weights
    if len(phi) % 2 == 0:
        phi, weights = phi[: len(phi) // 2], 2.0 * weights[: len(phi) // 2]
    # (5, n, c): the impact directions are orthogonal to each node by construction
    coeffs = np.array(_collision_factors(nodes, _circle_directions(nodes, phi)))
    bands = template_bands(j, spec.molecule, kappa_mode)
    d = 2 * j + 1
    out = np.empty((len(nodes), d, d), dtype=complex)
    for k in range(len(nodes)):
        lam, vec = np.linalg.eigh(np.eye(d) + _place_bands(coeffs[:, k], bands))
        if np.any(lam <= 0.0):
            raise ValueError("anisotropy too large for fractional-power branch")
        powers = (vec * lam[:, None, :] ** 0.4) @ vec.conj().transpose(0, 2, 1)
        out[k] = np.tensordot(weights, powers, axes=1) / (2.0 * math.pi)
    return out


def forward_amplitude_spectral(j, q, n_prime, spec, kappa_mode="exact"):
    """Forward amplitude through the exact fractional power of the phase
    matrix: the (2j + 1, 2j + 1) array c(q) S(n') with the shape S from
    spectral_shapes."""
    j = int(j)
    if j < 0 or q <= 0.0:
        raise ValueError("forward_amplitude_spectral: need j >= 0 and q > 0")
    n_prime = _check_unit(n_prime, "n_prime")
    return forward_scalar(q, spec) * spectral_shapes(j, n_prime[None], spec, kappa_mode)[0]


def _phase_panels(rule, b, b_max, mag):
    """(nodes, weights) of the interval rule mapped onto each panel of
    [b, b_max]. A panel starting at b is pi / (5 mag / b^6) wide, so the
    phase a/b^5 of strength |a| = mag advances by at most pi across it, but
    no wider than b itself (where the phase has died out, that width would
    grow as b^6) and cut at b_max."""
    while b < b_max:
        db = min(math.pi / (5.0 * mag / b**6), b, b_max - b)
        yield 0.5 * (rule.nodes + 1.0) * db + b, 0.5 * db * rule.weights
        b += db


def _core_integral(a_phase):
    """Int_0^b_min db b e^{ia/b^5} over the core b_min = (|a| /
    PHASE_CAP)^(1/5), integrated exactly in u = b^-5 as
    Int_{u0}^inf du u^(-7/5)/5 e^{iau}, u0 = PHASE_CAP/|a|:
    _CORE_HALF_PERIODS half-periods pi/|a| of _CORE_NODES Gauss nodes each,
    whose alternating partial sums _CORE_AVERAGING combines."""
    rule = make_rule("interval", _CORE_NODES)
    half = math.pi / abs(a_phase)
    u = PHASE_CAP / abs(a_phase) + half * (
        np.arange(_CORE_HALF_PERIODS)[:, None] + 0.5 * (rule.nodes + 1.0)
    )
    f = u**-1.4 * np.exp(1j * a_phase * u)
    partial = np.cumsum(f @ (0.1 * half * rule.weights))
    return _CORE_AVERAGING @ partial[-len(_CORE_AVERAGING):]


def _radial_jump_integral(a_phase, pts, bmax_factor):
    """Int_0^inf db b (e^{i a/b^5} - 1) for one eigenchannel.

    Inside b_min (accumulated phase PHASE_CAP) the core takes e^{ia/b^5}
    from _core_integral and -b on one panel of pts nodes. The oscillatory
    zone out to b_max = bmax_factor |a|^(1/5) is covered by panels holding
    the phase advance below pi each, none wider than their start radius
    (_phase_panels); the far tail adds the leading term i a/(3 b_max^3) of
    e^{i a/b^5} - 1 ~ i a/b^5.
    """
    if a_phase == 0.0:
        return 0.0 + 0.0j
    mag = abs(a_phase)
    b_min = (mag / PHASE_CAP) ** 0.2
    b_max = bmax_factor * mag**0.2
    rule = make_rule("interval", pts)
    xs = 0.5 * (rule.nodes + 1.0) * b_min
    ws = 0.5 * b_min * rule.weights
    total = _core_integral(a_phase)
    # summed as complex numbers: numpy pairs the terms of a real sum in
    # another order, which would move the forward amplitudes by an ulp
    total -= np.sum(ws * xs, dtype=complex)
    for xs, ws in _phase_panels(rule, b_min, b_max, mag):
        total += np.sum(ws * xs * (np.exp(1j * a_phase / xs**5) - 1.0))
    return total + 1j * a_phase / (3.0 * b_max**3)


def _schiff_entries(j, q, n_in, spec, pts, bmax_factor):
    rule = make_rule("circle", spec.numerics.quad_order_circle)
    e_b = _circle_directions(n_in[None], rule.nodes)[0]
    d = 2 * int(j) + 1
    a_q = eikonal_strength(q, spec)
    lams, vecs = np.linalg.eigh(np.eye(d) + coupling_matrix(j, n_in, e_b, spec.molecule))
    acc = np.zeros((d, d), dtype=complex)
    for w, lam, vec in zip(rule.weights, lams, vecs):
        radial = np.array([_radial_jump_integral(a_q * lv, pts, bmax_factor) for lv in lam])
        acc += w * ((vec * radial) @ vec.conj().T)
    return -(1j * q / (2.0 * math.pi * HBAR)) * acc


def schiff_amplitude_full(j, q, n_in, spec):
    """Forward eikonal amplitude in direction n_in by 2D impact-parameter
    quadrature.

    Integrates the matrix exponential of the phase (via eigendecomposition)
    over the impact plane perpendicular to n_in. Returns (entries,
    converged): the (2j + 1, 2j + 1) array at twice b_nodes and twice
    b_max, and whether doubling both moved the result by at most 0.1%
    (mathkit.order_doubling_drift); intended for small j at desk scale.  The
    core is integrated exactly (_core_integral) and the far tail resolved
    out to b_max, so the flag sees both the panels' error and the
    truncation: on n1 (a = 1) the isotropic forward Im f meets its closed
    form to 1.3e-14 relative, and at j = 0 with b_max = 1 the amplitude,
    8.2e-2 off its doubled b_max, reports not converged.  At j >= 1 it is
    the quadrature partner of forward_amplitude_spectral.
    """
    j = int(j)
    if j < 0 or q <= 0.0:
        raise ValueError("schiff_amplitude_full: need j >= 0 and q > 0")
    n_in = _check_unit(n_in, "n_in")
    num = spec.numerics
    base = _schiff_entries(j, q, n_in, spec, num.b_nodes, num.b_max)
    fine = _schiff_entries(j, q, n_in, spec, 2 * num.b_nodes, 2.0 * num.b_max)
    _, converged = order_doubling_drift(base, fine)
    return fine, converged


def scalar_cross_section_closed_form(q, spec):
    """Isotropic elastic cross section 2 pi Gamma(3/5) sin(3pi/10) a(q)^{2/5}."""
    a_q = eikonal_strength(q, spec)
    return 2.0 * math.pi * math.gamma(0.6) * math.sin(0.3 * math.pi) * a_q**0.4


def scalar_cross_section_bspace(q, spec):
    """Isotropic elastic cross section from the impact-parameter norm integral
    2 pi Int db b |e^{i a/b^5} - 1|^2.

    This equals the scattered-wave norm Int d^2n |f|^2 of the eikonal
    amplitude, so comparing against (4 pi hbar / q) Im f(forward) tests the
    optical theorem without an angular grid (whose slowly decaying large-angle
    tail is not capturable at desk scale).  |e^{i a/b^5} - 1|^2 is
    -2 Re(e^{i a/b^5} - 1), so this is -4 pi Re of the forward
    _radial_jump_integral at b_nodes, the radial integral of
    schiff_amplitude_full, plus the second-order tail a^2/(8 b_max^8) that
    the integral's first-order tail term, imaginary, leaves out.  On n1 it
    reads 7.56986765 against the closed form's 7.56986754 (1.5e-8 relative,
    the panels' error at 8 nodes).
    """
    a_q = eikonal_strength(q, spec)
    b_max = spec.numerics.b_max * a_q**0.2
    jump = _radial_jump_integral(a_q, spec.numerics.b_nodes, spec.numerics.b_max)
    # tail: 2 - 2 cos(a/b^5) ~ a^2/b^10
    return 2.0 * math.pi * (-2.0 * jump.real + a_q**2 / (8.0 * b_max**8))
