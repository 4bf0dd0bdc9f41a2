"""Decoherence and alignment-decay rates of rotational coherences.

Two routes to the pair decay rate gamma_{jj'} are provided: a closed form
(thermal average done analytically) and a direct quadrature of the
forward-amplitude rate integral. The quadrature route is the oracle for the
closed form; with the kappa -> 1/2 override they agree to well below a
percent, and the residual difference at small j measures the closed form's
large-j character.

This module imports only the standard library, so the rates and sweep
commands run without numpy on the closed form and on the linearized
quadrature route: that route reads the quadrature rules of mathkit as
Python floats and evaluates the isotropic forward amplitude (forward_scalar)
here, and the rows of the linearized chain generator (chain_row) from the
template band values (template_band), beside the degree-2 Legendre family
they are built from. The linearized rate is minus collision_weight times
the top corner of its chain, read from chain_row; lindblad's chain
generators write every entry in chain_row's form, band 0 as one square,
so the rate is minus the dissipator's corner to rounding at any j.
collision_weight and the sphere moments TEMPLATE_MOMENTS are read by
lindblad's jump family too. scattering re-exports the scalar pieces. The
spectral rate sums its own bracket of the ring shapes (_spectral_bracket)
rather than build lindblad's spectral family, which spans every block
from j' to j; the tests pin it to that family's corner. The spectral
backend imports numpy and scattering when called, template_bands and
energy_shift_matrix numpy; the quadrature route looks mathkit's helpers up
on that module at each call.
"""

import math

from .params import HBAR, record

# branch phase of the 2/5-power radial integrals, exp(i 3 pi / 10)
EIKONAL_PHASE = complex(math.cos(0.3 * math.pi), math.sin(0.3 * math.pi))


class RateResult(record("RateResult", "j j_prime gamma method a_coefficient metadata")):
    """One computed pair rate; gamma_signal is the alignment-signal rate
    2*gamma valid when j_prime = j - 2."""

    __slots__ = ()

    def __new__(cls, j, j_prime, gamma, method, a_coefficient, metadata=None):
        if gamma < 0.0 or a_coefficient < 0.0:
            raise ValueError("rates are non-negative by construction")
        metadata = {} if metadata is None else metadata
        return super().__new__(cls, j, j_prime, gamma, method, a_coefficient, metadata)

    @property
    def gamma_signal(self):
        return 2.0 * self.gamma

    @property
    def converged(self):
        return bool(self.metadata.get("converged", True))

    def __hash__(self):
        # the metadata dict cannot hash and stays out: records that compare
        # equal have equal value fields, so they hash equal
        return hash(self[:5])


def assoc_legendre2(k, x):
    """Associated Legendre function P_2^k(x) for k in {0, 1, 2}, |x| <= 1.

    x is a float or a float array: plain arithmetic serves both, so the
    closed form and the array callers (the coupling templates, the rate
    bracket) share this one definition. The k=1 member is returned in
    magnitude form, 3*x*sqrt(1-x^2), without the Condon-Shortley phase.
    Every quantity built from these values is either squared or
    sign-symmetric, so the phase convention cannot be observed downstream;
    a dedicated test asserts exactly that.
    """
    outside = abs(x) > 1.0
    if outside.any() if hasattr(outside, "any") else outside:
        raise ValueError("assoc_legendre2: argument outside [-1, 1]")
    if k == 0:
        return (3.0 * x * x - 1.0) / 2.0
    if k == 1:
        return 3.0 * x * (1.0 - x * x) ** 0.5
    if k == 2:
        return 3.0 * (1.0 - x * x)
    raise ValueError("assoc_legendre2: k must be 0, 1 or 2")


def _p2sq_guarded(k, x):
    # arguments outside [-1, 1] correspond to empty m-sums of the underlying
    # rate integral and contribute zero (occurs only for the second band at
    # j or j' = 0)
    if abs(x) > 1.0:
        return 0.0
    p = assoc_legendre2(k, x)
    return p * p


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


# the k-th band of the templates is (ratio / _BAND_DIVISORS[k]) kappa P_2^k
_BAND_DIVISORS = (6.0, -12.0, 48.0)


def template_band(k, j, m, mol, kappa_mode="exact"):
    """Entry of band k (0 diagonal, 1 first, 2 second superdiagonal) of
    block j's coupling templates in row m, a float or a float array.

    (ratio / D_k) kappa_j P_2^k((2m + k)/(2j + 1)) with D = 6, -12, 48 and
    ratio = alpha_aniso / alpha_mean: the diagonal of T_1, the first
    superdiagonal of T_2 and the second superdiagonal of T_4
    (template_bands reads whole bands, the rate route one row).
    """
    ratio = mol.alpha_aniso / mol.alpha_mean
    kap = _kappa_for_mode(j, kappa_mode)
    x = (2.0 * m + k) / (2.0 * j + 1.0)
    return (ratio / _BAND_DIVISORS[k]) * kap * assoc_legendre2(k, x)


# the diagonal m' - m = k each template T_1..T_5 lies on; T_3 and T_5 are
# the transposes of T_2 and T_4, so diagonal k holds band |k| of
# template_bands
TEMPLATE_OFFSETS = (0, 1, -1, 2, -2)

# sphere moments Int d^2n' |g|^2 of the coupling geometry factor g of band
# q, by |q|: P2(n_z), n_z n_+- and n_+-^2.  Cross moments vanish by
# azimuthal charge, so the circle-averaged coupling contributes one Lindblad
# channel per template and the linearized rate bracket one term per band.
TEMPLATE_MOMENTS = (4.0 * math.pi / 5.0, 8.0 * math.pi / 15.0, 32.0 * math.pi / 15.0)


def template_bands(j, mol, kappa_mode="exact"):
    """The three band vectors of block j's coupling templates.

    The circle average of the coupling matrix is sum_a g_a(n') T_a with the
    direction factors g of scattering.geometry_factors and five real banded
    templates: T_1 diagonal, T_2 and T_4 on the first and second
    superdiagonal, T_3 and T_5 their transposes. Returns (diag, band1,
    band2): the diagonal of T_1 (length d = 2j + 1), the first superdiagonal
    of T_2 (length d - 1) and the second superdiagonal of T_4 (length d - 2,
    empty for j = 0). Every other template entry is zero or a transpose of
    these, so the amplitudes and the dissipator need nothing else.
    """
    j = int(j)
    if j < 0:
        raise ValueError("template_bands: j must be >= 0")
    import numpy as np

    m = np.arange(-j, j + 1, dtype=float)
    diag = template_band(0, j, m, mol, kappa_mode)
    band1 = template_band(1, j, m[:-1], mol, kappa_mode)
    band2 = template_band(2, j, m[:-2], mol, kappa_mode)
    return diag, band1, band2


def eikonal_strength(q, spec):
    """Radial phase strength a(q) = 3 pi mu C_6 / (8 hbar q).

    The eikonal phase of the isotropic potential is a(q)/b^5 at impact
    parameter b, via the trajectory kernel Int dz (b^2+z^2)^-3 = 3 pi/(8 b^5).
    """
    if q <= 0.0:
        raise ValueError("eikonal_strength: q must be positive")
    return 3.0 * math.pi * spec.reduced_mass * spec.gas.c6 / (8.0 * HBAR * q)


def forward_scalar(q, spec):
    """Isotropic forward amplitude c(q) = (q/2hbar) Gamma(3/5) a(q)^{2/5} e^{i3pi/10}."""
    a = eikonal_strength(q, spec)
    return (q / (2.0 * HBAR)) * math.gamma(0.6) * a**0.4 * EIKONAL_PHASE


def a_coefficient(j, j_prime):
    """Dimensionless rotational-state factor of the closed-form rate.

    Five Legendre terms: the squared diagonal difference plus one first-band
    and one second-band term for each of j and j'. Symmetric under j <-> j';
    grouping the band terms pairwise keeps the symmetry exact in floating
    point. j and j_prime are integers; returns a float.
    """
    j = int(j)
    j_prime = int(j_prime)
    if j < 0 or j_prime < 0:
        raise ValueError("a_coefficient: j and j_prime must be >= 0")
    top_j = 2.0 * j / (2.0 * j + 1.0)
    top_jp = 2.0 * j_prime / (2.0 * j_prime + 1.0)
    diff = assoc_legendre2(0, top_j) - assoc_legendre2(0, top_jp)
    band1 = (
        _p2sq_guarded(1, (2.0 * j - 1.0) / (2.0 * j + 1.0)) / 6.0
        + _p2sq_guarded(1, (2.0 * j_prime - 1.0) / (2.0 * j_prime + 1.0)) / 6.0
    )
    band2 = (
        _p2sq_guarded(2, (2.0 * j - 2.0) / (2.0 * j + 1.0)) / 24.0
        + _p2sq_guarded(2, (2.0 * j_prime - 2.0) / (2.0 * j_prime + 1.0)) / 24.0
    )
    return diff * diff + band1 + band2


def _closed_form_rates(pairs, spec):
    # RateResult rows for (j, j') pairs: one prefactor for all of them
    mol = spec.molecule
    q_th = spec.thermal_momentum
    constant = math.gamma(2.6) * math.gamma(0.6) ** 2 * math.sqrt(math.pi) / 10.0
    aniso = (mol.alpha_aniso / (30.0 * mol.alpha_mean)) ** 2
    strength = eikonal_strength(q_th, spec) ** 0.8
    prefactor = (
        constant
        * spec.gas.density
        * q_th**3
        / (spec.reduced_mass * HBAR**2)
        * aniso
        * strength
    )
    rows = []
    for j, jp in pairs:
        coeff = a_coefficient(j, jp)
        rows.append(RateResult(j, jp, prefactor * coeff, "closed_form", coeff))
    return rows


def gamma_closed_form(j, j_prime, spec):
    """Closed-form pair decay rate.

    gamma = Gamma(13/5) Gamma(3/5)^2 sqrt(pi)/10 * n_g q_th^3/(mu hbar^2)
            * (alpha_aniso/(30 alpha_mean))^2
            * (3 pi mu C_6 / (8 hbar q_th))^{4/5} * A_{jj'}.
    """
    return _closed_form_rates([(int(j), int(j_prime))], spec)[0]


def chain_row(j, j_prime, Q, m, mol, kappa_mode="exact"):
    """(diagonal, band 1, band 2) of the linearized generator at row m of
    chain (j, j', Q), in units of collision_weight: the entries [i, i],
    [i, i + 1] and [i, i + 2] of the chain whose i-th entry is (m, m - Q)
    of block (j, j').

    With f_q = 0.16 TEMPLATE_MOMENTS[q] and t_q(j, m) = template_band(q, j,
    m), zero where m or m + q leaves -j .. j, band q couples (m, m - Q) and
    (m + q, m - Q + q) with the gain f_q t_q(j, m) t_q(j', m - Q), and the
    diagonal is that gain at q = 0 minus the mean of k(j, m) and
    k(j', m - Q), where k(j, m) = f_0 t_0(j, m)^2 + sum_{q=1,2} f_q
    (t_q(j, m - q)^2 + t_q(j, m)^2).  Standard library only; the numpy
    route of both jump families, lindblad._chain_generators, is its oracle
    in the tests.
    """
    def band(q, block, row):
        if -block <= row and row + q <= block:
            return template_band(q, block, row, mol, kappa_mode)
        return 0.0

    f0, f1, f2 = (0.16 * moment for moment in TEMPLATE_MOMENTS)

    def loss(block, row):
        # the band q >= 1 terms of k(block, row)
        return sum(f * (band(q, block, row - q) ** 2 + band(q, block, row) ** 2)
                   for q, f in ((1, f1), (2, f2)))

    row = m - Q
    # k(j, m) + k(j', m - Q) - 2 f_0 t_0 t_0' with its f_0 terms as one
    # square: summed apart, they cancel and lose digits at large j
    diag = -0.5 * (f0 * (band(0, j, m) - band(0, j_prime, row)) ** 2
                   + loss(j, m) + loss(j_prime, row))
    return (diag, f1 * band(1, j, m) * band(1, j_prime, row),
            f2 * band(2, j, m) * band(2, j_prime, row))


def _spectral_bracket(j, j_prime, spec, kappa_mode, rule):
    # A of the spectral backend on a ring rule: the forward amplitude is
    # c(q) S(n'), and the bracket reads the top-corner columns of the
    # q-independent shapes S at the rule's nodes
    from . import scattering

    mj = scattering.spectral_shapes(j, rule.nodes, spec, kappa_mode)
    mp = scattering.spectral_shapes(j_prime, rule.nodes, spec, kappa_mode)
    bracket = (
        abs(mj[:, -1, -1] - mp[:, -1, -1]) ** 2
        + (abs(mj[:, :-1, -1]) ** 2).sum(axis=1)
        + (abs(mp[:, :-1, -1]) ** 2).sum(axis=1)
    )
    return 2.0 * math.pi * float((rule.weights * bracket).sum())


def thermal_q_integral(spec, order, power, fn):
    """Thermal radial integral Int dq q^power nu_th(q) fn(c(q)) of the
    isotropic forward amplitude c(q), on the half-line rule of the given
    order with q = q_th x: (q_th / pi^1.5) sum_i w_i x_i^power fn(c(q_th x_i)).

    Every thermal average here factorizes into this radial integral times
    a q-independent direction integral: collision_weight takes fn = |c|^2
    at power 3, the gas shift fn = Re c at power 2.  fn maps one
    complex value; the sum runs over the rule's floats.
    """
    from . import mathkit

    q_th = spec.thermal_momentum
    rule = mathkit.make_rule("half_line", order)
    total = 0.0
    for x, w in zip(rule.node_floats, rule.weight_floats):
        total += w * x**power * fn(forward_scalar(q_th * x, spec))
    return float(q_th / math.pi**1.5 * total)


def collision_weight(spec, order):
    """2 pi (n_g/mu) Int dq q^3 nu_th(q) |c(q)|^2 on the half-line rule of
    the given order: the radial factor of the dissipator and of every rate,
    gamma = collision_weight A / 4 pi with A the direction integral."""
    radial = thermal_q_integral(spec, order, 3, lambda c: abs(c) ** 2)
    return 2.0 * math.pi * spec.gas.density / spec.reduced_mass * radial


def _quadrature_rates(pairs, spec, amplitude_backend, kappa_mode):
    # RateResult rows for (j, j') pairs, gamma = collision_weight A / 4 pi.
    # The radial factors at n_q and 2 n_q and the ring rules do not depend
    # on the pair and are evaluated once; each pair adds its direction
    # integrals A(n_s), A(2 n_s) and its own order-doubling drift: the
    # linearized A is one chain_row corner at both sphere orders, the
    # spectral A a _spectral_bracket on each ring rule.
    if amplitude_backend not in ("linearized", "spectral"):
        raise ValueError(f"unknown amplitude_backend {amplitude_backend!r}")
    from . import mathkit

    nq = spec.numerics.quad_order_q
    ns = spec.numerics.quad_order_sphere
    r, r_fine = (collision_weight(spec, order) / (4.0 * math.pi) for order in (nq, 2 * nq))
    rings = mathkit.make_rule("ring", ns), mathkit.make_rule("ring", 2 * ns)
    rows = []
    for j, j_prime in pairs:
        if amplitude_backend == "linearized":
            # exact at every sphere order: -4 pi times the top diagonal entry
            # of chain (j, j', j - j')
            a = a_fine = -4.0 * math.pi * chain_row(
                j, j_prime, j - j_prime, j, spec.molecule, kappa_mode)[0]
        else:
            a, a_fine = (_spectral_bracket(j, j_prime, spec, kappa_mode, ring) for ring in rings)
        base = r * a
        drift, converged = mathkit.order_doubling_drift(base, r_fine * a, r * a_fine)
        meta = {
            "converged": converged,
            "order_doubling_drift": drift,
        }
        rows.append(
            RateResult(j, j_prime, base, "quadrature", a_coefficient(j, j_prime), meta)
        )
    return rows


def gamma_numeric(j, j_prime, spec, amplitude_backend="linearized", kappa_mode="exact"):
    """Pair decay rate by direct quadrature of the forward-amplitude rate
    integral: (n_g/2mu) Int dq q^3 nu_th 2pi Int d^2n' [squared corner-column
    differences of the forward amplitudes].

    The integrand factorizes into |c(q)|^2 times a q-independent sphere
    bracket, so the rate is collision_weight(n_q) A / 4 pi with one radial
    quadrature. The linearized bracket is a sum of band terms whose sphere
    moments are TEMPLATE_MOMENTS, so its A is exact and quad_order_sphere
    does not change it: A is -4 pi times the top diagonal entry of chain
    (j, j', j - j') of the linearized generator (chain_row), so gamma is
    minus that entry of the dissipator's generator, which
    lindblad._chain_generators writes in the same form. The spectral
    bracket is invariant under rotations about z (it reads the moduli of a
    column that such a rotation rephases), so its A(n_s) is summed on the
    ring rule of n_s, and gamma is minus the spectral generator's corner
    up to the ring shapes' rounding. The
    convergence flag in the metadata reports whether doubling either
    quadrature order moves the value by at most 0.1%
    (mathkit.order_doubling_drift). This is the one-pair case of the
    quadrature sweep (sweep_rates).
    """
    j = int(j)
    j_prime = int(j_prime)
    if j < 0 or j_prime < 0:
        raise ValueError("gamma_numeric: j and j_prime must be >= 0")
    return _quadrature_rates([(j, j_prime)], spec, amplitude_backend, kappa_mode)[0]


def energy_shift_matrix(j, spec, with_diagnostics=False):
    """Isotropic gas-induced energy shift block s_iso * identity.

    H_g comes from the hermitian part of the thermally averaged forward
    amplitude, -2 pi hbar^2 (n_g/mu) Int dq q^2 nu_th(q) Int d^2n
    herm(F(qn, qn)), with herm(F) = Re c(q) (I + A(n)).  The identity gives
    this block: the thermal_q_integral of Re c times 4 pi.  The sphere mean
    of A belongs to the dissipator's jump family (DissipatorSet.aniso_mean),
    which lindblad adds; it vanishes in the linearized model.  The
    diagnostics report the radial order-doubling drift.
    """
    j = int(j)
    if j < 0:
        raise ValueError("energy_shift_matrix: j must be >= 0")
    import numpy as np

    from . import mathkit

    def shift_once(order_q):
        re_c = thermal_q_integral(spec, order_q, 2, lambda c: c.real)
        scalar = (-2.0 * math.pi * HBAR**2 * spec.gas.density / spec.reduced_mass
                  * re_c * 4.0 * math.pi)
        return scalar * np.eye(2 * j + 1)

    base = shift_once(spec.numerics.quad_order_q)
    if not with_diagnostics:
        return base
    drift, converged = mathkit.order_doubling_drift(
        base, shift_once(2 * spec.numerics.quad_order_q)
    )
    return base, {"converged": converged, "order_doubling_drift": drift}


def sweep_rates(j_range, spec, method="closed_form", amplitude_backend="linearized",
                kappa_mode="exact"):
    """Alignment-decay rows Gamma_j = 2 gamma_{j,j-2} over the given j values:
    a tuple of RateResult, one per j.

    method selects closed_form or quadrature rows; every j must lie within
    the numerics basis limits and be >= 2 (the j-2 partner must exist).
    Every factor that does not depend on j (the closed-form prefactor, the
    radial quadrature brackets, the quadrature rules) is evaluated once per
    sweep.
    """
    if method not in ("closed_form", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    pairs = []
    for j in j_range:
        j = int(j)
        if j < 2:
            raise ValueError("sweep_rates: j values must be >= 2")
        if j > spec.numerics.j_max:
            raise ValueError(f"sweep_rates: j={j} exceeds basis limit {spec.numerics.j_max}")
        pairs.append((j, j - 2))
    if method == "closed_form":
        rows = _closed_form_rates(pairs, spec)
    else:
        rows = _quadrature_rates(pairs, spec, amplitude_backend, kappa_mode)
    return tuple(rows)


def rate_table_csv(rows, rate_scale=1.0):
    """Render RateResult rows as CSV (12 significant digits, LF endings).

    rate_scale converts internal rates to the config's unit system; pass
    UnitScales.rate for SI output.
    """
    lines = ["j,j_prime,gamma,Gamma_signal,a_coeff,method"]
    for r in rows:
        lines.append(
            f"{r.j},{r.j_prime},{r.gamma * rate_scale:.11e},"
            f"{r.gamma_signal * rate_scale:.11e},{r.a_coefficient:.11e},{r.method}"
        )
    return "\n".join(lines) + "\n"
