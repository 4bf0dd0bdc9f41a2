"""Anisotropy coupling matrices and eikonal scattering amplitudes.

The long-range interaction seen by a fast-spinning linear rotor is a van der
Waals potential whose orientation dependence couples magnetic sublevels with
|m - m'| <= 2 inside a fixed j block. This module builds those banded
coupling matrices and evaluates the matrix-valued eikonal amplitudes three
ways: a linearized forward closed form, a spectral (fractional matrix power)
forward evaluation, and the full angle-resolved impact-parameter integral.

Everything runs in internal units with hbar = 1.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .mathkit import assoc_legendre2, gamma_real, make_rule, order_doubling_drift
from .params import HBAR

# branch phase of the 2/5-power radial integrals, exp(i 3 pi / 10)
EIKONAL_PHASE = complex(math.cos(0.3 * math.pi), math.sin(0.3 * math.pi))

# beyond this accumulated eikonal phase the unimodular exponential is treated
# as averaging to zero (unitarity-saturated core of the collision)
PHASE_CAP = 50.0

_EZ = np.array([0.0, 0.0, 1.0])
_EXY = np.array([1.0, 1j, 0.0])  # e_x + i e_y


@dataclass(frozen=True)
class CouplingMatrix:
    """Banded anisotropy matrix for one j block at fixed collision geometry."""

    j: int
    n_prime: np.ndarray
    e_b: np.ndarray
    entries: np.ndarray


@dataclass(frozen=True)
class AmplitudeMatrix:
    """Matrix-valued scattering amplitude on one j block.

    Entries are indexed by (m, m') with m running -j..j; values carry length
    units of the internal system (multiply by UnitScales.length for SI).
    """

    j: int
    q: float
    n_in: np.ndarray
    n_out: np.ndarray
    entries: np.ndarray
    units: str = "internal length (hbar = mu = q_th = 1 for SI input)"
    converged: bool = True

    @property
    def dim(self):
        return 2 * self.j + 1


def kappa(j):
    """Angular prefactor sqrt(j(j+1)/((2j-1)(2j+3))), defined as 0 at j = 0.

    The j = 0 numerator vanishes, so the negative denominator is never
    evaluated; the j = 0 block carries no anisotropic coupling. For j >= 1
    the value decreases monotonically toward the large-j limit 1/2.
    """
    j = int(j)
    if j < 0:
        raise ValueError("kappa: j must be >= 0")
    if j == 0:
        return 0.0
    return math.sqrt(j * (j + 1.0) / ((2.0 * j - 1.0) * (2.0 * j + 3.0)))


def _kappa_for_mode(j, kappa_mode):
    # "half" replaces the prefactor by its large-j limit for every j,
    # matching the approximation baked into the closed-form rate
    if kappa_mode == "exact":
        return kappa(j)
    if kappa_mode == "half":
        return 0.5
    raise ValueError(f"unknown kappa_mode {kappa_mode!r}")


def eikonal_strength(q, spec):
    """Radial phase strength a(q) = 3 pi mu C_6 / (8 hbar q).

    The eikonal phase of the isotropic potential is a(q)/b^5 at impact
    parameter b, via the trajectory kernel Int dz (b^2+z^2)^-3 = 3 pi/(8 b^5).
    """
    if q <= 0.0:
        raise ValueError("eikonal_strength: q must be positive")
    th = spec.thermal
    return 3.0 * math.pi * th.reduced_mass * spec.gas.c6 / (8.0 * HBAR * q)


def forward_scalar(q, spec):
    """Isotropic forward amplitude c(q) = (q/2hbar) Gamma(3/5) a(q)^{2/5} e^{i3pi/10}."""
    a = eikonal_strength(q, spec)
    return (q / (2.0 * HBAR)) * gamma_real(0.6) * a**0.4 * EIKONAL_PHASE


def _check_unit(v, name, ndim=1):
    # a unit 3-vector, or with ndim=2 a (c, 3) stack of them
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v, axis=-1)
    if v.ndim != ndim or v.shape[-1] != 3 or np.any(np.abs(norm - 1.0) > 1e-9):
        raise ValueError(f"{name} must be a unit 3-vector")
    return v


def circle_basis(n_prime):
    """Orthonormal pair (u, v) spanning the plane perpendicular to n_prime."""
    n_prime = _check_unit(n_prime, "n_prime")
    helper = np.array([1.0, 0.0, 0.0]) if abs(n_prime[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(n_prime, helper)
    u /= np.linalg.norm(u)
    v = np.cross(n_prime, u)
    return u, v


def _circle_directions(n_prime, phi):
    """(c, 3) stack of impact directions cos(phi) u + sin(phi) v."""
    u, v = circle_basis(n_prime)
    return np.outer(np.cos(phi), u) + np.outer(np.sin(phi), v)


def coupling_matrix(j, n_prime, e_b, mol, kappa_mode="exact"):
    """Banded coupling matrix B_j for incoming direction n_prime and impact
    direction e_b (which must be orthogonal to n_prime).

    Entries follow the large-j sublevel-coupling form: the diagonal carries
    P_2 of the scaled projection 2m/(2j+1), the first band P_2^1, the second
    band P_2^2, each contracted with the collision geometry. Hermitian by
    construction; identically zero when alpha_aniso = 0. e_b may also be a
    (c, 3) stack of impact directions around the one n_prime; the entries are
    then the (c, d, d) stack of their matrices.
    """
    j = int(j)
    if j < 0:
        raise ValueError("coupling_matrix: j must be >= 0")
    n_prime = _check_unit(n_prime, "n_prime")
    stacked = np.ndim(e_b) == 2
    e = _check_unit(np.atleast_2d(e_b), "e_b", ndim=2)
    if np.any(np.abs(e @ n_prime) >= 1e-12):
        raise ValueError("coupling_matrix: e_b must be orthogonal to n_prime")

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
    if not stacked:
        e, out = e[0], out[0]
    return CouplingMatrix(j, n_prime, e, out)


def template_bands(j, mol, kappa_mode="exact"):
    """The three band vectors of coupling_templates for block j.

    Returns (diag, band1, band2): the diagonal of T_1 (length d = 2j + 1),
    the first superdiagonal of T_2 (length d - 1) and the second
    superdiagonal of T_4 (length d - 2, empty for j = 0). Every other
    template entry is zero or a transpose of these, so an O(d) reader
    such as the rate bracket needs nothing else.
    """
    j = int(j)
    if j < 0:
        raise ValueError("template_bands: j must be >= 0")
    ratio = mol.alpha_aniso / mol.alpha_mean
    m = np.arange(-j, j + 1, dtype=float)
    kap = _kappa_for_mode(j, kappa_mode)
    diag = (ratio / 6.0) * kap * assoc_legendre2(0, 2.0 * m / (2.0 * j + 1.0))
    band1 = -(ratio / 12.0) * kap * assoc_legendre2(1, (2.0 * m[:-1] + 1.0) / (2.0 * j + 1.0))
    band2 = (ratio / 48.0) * kap * assoc_legendre2(2, (2.0 * m[:-2] + 2.0) / (2.0 * j + 1.0))
    return diag, band1, band2


def coupling_templates(j, mol, kappa_mode="exact"):
    """Geometry-independent band templates of the circle-averaged coupling.

    Returns an array of five real banded matrices T_1..T_5 such that the
    average of the coupling matrix over the impact-direction circle equals
    sum_a g_a(n') T_a with g from geometry_factors. T_3 and T_5 are the
    transposes of T_2 and T_4, making the assembled matrix hermitian. The
    band entries come from template_bands.
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


def geometry_factors(n):
    """Direction factors pairing with coupling_templates: [P2(n_z), n_z n_+,
    n_z n_-, n_+^2, n_-^2] with n_+- = n_x +- i n_y."""
    n = _check_unit(n, "n")
    n_plus = n[0] + 1j * n[1]
    n_minus = n[0] - 1j * n[1]
    p2 = assoc_legendre2(0, n[2])
    return np.array([p2, n[2] * n_plus, n[2] * n_minus, n_plus**2, n_minus**2])


def averaged_coupling(j, n_prime, mol, kappa_mode="exact"):
    """Analytic average of the coupling matrix over the impact-plane circle.

    Derived from the circle identities for quadratic e_b contractions; a
    circle quadrature of coupling_matrix reproduces it to 1e-12 (the tests'
    oracle).
    """
    g = geometry_factors(n_prime)
    t = coupling_templates(j, mol, kappa_mode)
    return np.tensordot(g, t, axes=(0, 0))


def forward_amplitude_linearized(j, q, n_prime, spec, kappa_mode="exact"):
    """Forward amplitude with the fractional matrix power expanded to first
    order: c(q) * (identity + (2/5) * circle-averaged coupling), the average
    taken analytically (averaged_coupling).
    """
    j = int(j)
    if j < 0 or q <= 0.0:
        raise ValueError("forward_amplitude_linearized: need j >= 0 and q > 0")
    bbar = averaged_coupling(j, n_prime, spec.molecule, kappa_mode)
    n_prime = _check_unit(n_prime, "n_prime")
    entries = forward_scalar(q, spec) * (np.eye(2 * j + 1) + 0.4 * bbar)
    return AmplitudeMatrix(j, float(q), n_prime, n_prime, entries)


def spectral_shapes(j, nodes, spec, kappa_mode="exact"):
    """q-independent shapes S(n') of the spectral forward amplitude
    F(q, n') = c(q) S(n'), for an (n, 3) stack of incoming directions.

    S(n') is the circle average of (identity + B(n', e_b))^{2/5} over the
    impact directions e_b, each power taken by hermitian eigendecomposition;
    returns the (n, d, d) stack. Raises when any eigenvalue of identity + B
    is non-positive: the fractional-power branch only exists inside the
    weak-anisotropy regime and clamping would silently falsify results.
    """
    j = int(j)
    if j < 0:
        raise ValueError("spectral_shapes: need j >= 0")
    rule = make_rule("circle", spec.numerics.quad_order_circle)
    d = 2 * j + 1
    out = np.empty((len(nodes), d, d), dtype=complex)
    for k, n_prime in enumerate(nodes):
        e_b = _circle_directions(n_prime, rule.nodes)
        coup = coupling_matrix(j, n_prime, e_b, spec.molecule, kappa_mode).entries
        lam, vec = np.linalg.eigh(np.eye(d) + coup)
        if np.any(lam <= 0.0):
            raise ValueError("anisotropy too large for fractional-power branch")
        powers = (vec * lam[:, None, :] ** 0.4) @ vec.conj().transpose(0, 2, 1)
        out[k] = np.tensordot(rule.weights, powers, axes=1) / (2.0 * math.pi)
    return out


def forward_amplitude_spectral(j, q, n_prime, spec, kappa_mode="exact"):
    """Forward amplitude through the exact fractional power of the phase
    matrix: c(q) S(n') with the shape S from spectral_shapes."""
    j = int(j)
    if j < 0 or q <= 0.0:
        raise ValueError("forward_amplitude_spectral: need j >= 0 and q > 0")
    n_prime = _check_unit(n_prime, "n_prime")
    entries = forward_scalar(q, spec) * spectral_shapes(j, n_prime[None], spec, kappa_mode)[0]
    return AmplitudeMatrix(j, float(q), n_prime, n_prime, entries)


def _radial_jump_integral(a_phase, c_transverse, pts, bmax_factor, phase_cap=PHASE_CAP):
    """Int_0^inf db b e^{-i c b} (e^{i a/b^5} - 1) for one eigenchannel.

    Inside b_min (accumulated phase beyond phase_cap) the unimodular
    exponential averages to zero, leaving -b e^{-icb}. The oscillatory zone
    is covered by panels holding the combined phase advance below pi each;
    the far tail uses e^{i a/b^5} - 1 ~ i a/b^5.
    """
    if a_phase == 0.0:
        return 0.0 + 0.0j
    mag = abs(a_phase)
    b_min = (mag / phase_cap) ** 0.2
    b_max = bmax_factor * mag**0.2
    xg, wg = np.polynomial.legendre.leggauss(pts)
    xs = 0.5 * (xg + 1.0) * b_min
    ws = 0.5 * b_min * wg
    total = np.sum(ws * (-xs) * np.exp(-1j * c_transverse * xs))
    b = b_min
    while b < b_max:
        rate = 5.0 * mag / b**6 + abs(c_transverse)
        db = min(math.pi / rate, b_max - b)
        xs = 0.5 * (xg + 1.0) * db + b
        ws = 0.5 * db * wg
        total += np.sum(
            ws * xs * np.exp(-1j * c_transverse * xs) * (np.exp(1j * a_phase / xs**5) - 1.0)
        )
        b += db
    if abs(c_transverse) * b_max < 0.5:
        # leading tail of the phase expansion; only meaningful while the
        # plane-wave factor is still slow out at b_max
        total += 1j * a_phase / (3.0 * b_max**3)
    return total


def _schiff_entries(j, q, n_out, n_in, spec, pts):
    rule = make_rule("circle", spec.numerics.quad_order_circle)
    e_b = _circle_directions(n_in, rule.nodes)
    d = 2 * int(j) + 1
    a_q = eikonal_strength(q, spec)
    transfer = (q / HBAR) * (np.asarray(n_out, dtype=float) - np.asarray(n_in, dtype=float))
    lams, vecs = np.linalg.eigh(np.eye(d) + coupling_matrix(j, n_in, e_b, spec.molecule).entries)
    acc = np.zeros((d, d), dtype=complex)
    for w, lam, vec, c_t in zip(rule.weights, lams, vecs, e_b @ transfer):
        radial = np.array(
            [_radial_jump_integral(a_q * lv, c_t, pts, spec.numerics.b_max) for lv in lam]
        )
        acc += w * ((vec * radial) @ vec.conj().T)
    return -(1j * q / (2.0 * math.pi * HBAR)) * acc


def schiff_amplitude_full(j, q, n_out, n_in, spec):
    """Full angle-resolved eikonal amplitude by 2D impact-parameter quadrature.

    Integrates the matrix exponential of the phase (via eigendecomposition)
    against the transverse plane-wave factor. The converged flag reports
    whether doubling the radial node count moves the result by at most 0.1%
    (mathkit.order_doubling_drift); intended for small j at desk scale.
    """
    j = int(j)
    if j < 0 or q <= 0.0:
        raise ValueError("schiff_amplitude_full: need j >= 0 and q > 0")
    n_in = _check_unit(n_in, "n_in")
    n_out = _check_unit(n_out, "n_out")
    base = _schiff_entries(j, q, n_out, n_in, spec, spec.numerics.b_nodes)
    fine = _schiff_entries(j, q, n_out, n_in, spec, 2 * spec.numerics.b_nodes)
    _, converged = order_doubling_drift(base, fine)
    return AmplitudeMatrix(j, float(q), n_in, n_out, fine, converged=converged)


def scalar_cross_section_closed_form(q, spec):
    """Isotropic elastic cross section 2 pi Gamma(3/5) sin(3pi/10) a(q)^{2/5}."""
    a_q = eikonal_strength(q, spec)
    return 2.0 * math.pi * gamma_real(0.6) * math.sin(0.3 * math.pi) * a_q**0.4


def scalar_cross_section_bspace(q, spec, pts=None):
    """Isotropic elastic cross section from the impact-parameter norm integral
    2 pi Int db b |e^{i a/b^5} - 1|^2.

    This equals the scattered-wave norm Int d^2n |f|^2 of the eikonal
    amplitude, so comparing against (4 pi hbar / q) Im f(forward) tests the
    optical theorem without an angular grid (whose slowly decaying large-angle
    tail is not capturable at desk scale).
    """
    if pts is None:
        pts = spec.numerics.b_nodes
    a_q = eikonal_strength(q, spec)
    b_min = (a_q / PHASE_CAP) ** 0.2
    b_max = spec.numerics.b_max * a_q**0.2
    xg, wg = np.polynomial.legendre.leggauss(pts)
    # unitarity-saturated core: |e^{iPhi} - 1|^2 averages to 2
    total = b_min**2
    b = b_min
    while b < b_max:
        rate = 5.0 * a_q / b**6
        db = min(math.pi / rate, b_max - b)
        xs = 0.5 * (xg + 1.0) * db + b
        ws = 0.5 * db * wg
        total += np.sum(ws * xs * (2.0 - 2.0 * np.cos(a_q / xs**5)))
        b += db
    # tail: 2 - 2 cos(a/b^5) ~ a^2/b^10
    total += a_q**2 / (8.0 * b_max**8)
    return 2.0 * math.pi * total
