"""Decoherence and alignment-decay rates of rotational coherences.

Two routes to the pair decay rate gamma_{jj'} are provided: a closed form
(thermal average done analytically) and a direct quadrature of the
forward-amplitude rate integral. The quadrature route is the oracle for the
closed form; with the kappa -> 1/2 override they agree to well below a
percent, and the residual difference at small j measures the closed form's
large-j character.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .mathkit import assoc_legendre2, gamma_real, make_rule, order_doubling_drift
from .params import HBAR
from .scattering import forward_scalar, spectral_shapes, template_bands

# Validation hook: the negative-control check multiplies the closed-form
# prefactor through this module constant to prove the acceptance suite can
# fail. Never set it to anything but 1.0 outside that check.
_PREFACTOR_SCALE = 1.0


@dataclass(frozen=True)
class RateResult:
    """One computed pair rate; gamma_signal is the alignment-signal rate
    2*gamma valid when j_prime = j - 2."""

    j: int
    j_prime: int
    gamma: float
    method: str
    a_coefficient: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.gamma < 0.0 or self.a_coefficient < 0.0:
            raise ValueError("rates are non-negative by construction")

    @property
    def gamma_signal(self):
        return 2.0 * self.gamma

    @property
    def converged(self):
        return bool(self.metadata.get("converged", True))


@dataclass(frozen=True)
class RateTable:
    """Ordered collection of RateResult rows from a sweep."""

    rows: tuple
    method: str

    def __len__(self):
        return len(self.rows)


def _p2sq_guarded(k, x):
    # arguments outside [-1, 1] correspond to empty m-sums of the underlying
    # rate integral and contribute zero (occurs only for the second band at
    # j or j' = 0)
    inside = np.abs(x) <= 1.0
    return np.where(inside, np.square(assoc_legendre2(k, np.where(inside, x, 0.0))), 0.0)


def a_coefficient(j, j_prime):
    """Dimensionless rotational-state factor of the closed-form rate.

    Five Legendre terms: the squared diagonal difference plus one first-band
    and one second-band term for each of j and j'. Symmetric under j <-> j';
    grouping the band terms pairwise keeps the symmetry exact in floating
    point. j and j_prime may be integers (returns a float) or equal-shape
    integer arrays (returns the array of coefficients).
    """
    j = np.asarray(j, dtype=np.int64)
    j_prime = np.asarray(j_prime, dtype=np.int64)
    if np.any(j < 0) or np.any(j_prime < 0):
        raise ValueError("a_coefficient: j and j_prime must be >= 0")
    top_j = 2.0 * j / (2.0 * j + 1.0)
    top_jp = 2.0 * j_prime / (2.0 * j_prime + 1.0)
    diff = np.square(assoc_legendre2(0, top_j) - assoc_legendre2(0, top_jp))
    band1 = (
        _p2sq_guarded(1, (2.0 * j - 1.0) / (2.0 * j + 1.0)) / 6.0
        + _p2sq_guarded(1, (2.0 * j_prime - 1.0) / (2.0 * j_prime + 1.0)) / 6.0
    )
    band2 = (
        _p2sq_guarded(2, (2.0 * j - 2.0) / (2.0 * j + 1.0)) / 24.0
        + _p2sq_guarded(2, (2.0 * j_prime - 2.0) / (2.0 * j_prime + 1.0)) / 24.0
    )
    out = diff + band1 + band2
    return out if np.ndim(out) else float(out)


def _closed_form_rates(pairs, spec):
    # RateResult rows for (j, j') pairs: one prefactor, one a_coefficient pass
    th = spec.thermal
    mol = spec.molecule
    constant = gamma_real(2.6) * gamma_real(0.6) ** 2 * math.sqrt(math.pi) / 10.0
    aniso = (mol.alpha_aniso / (30.0 * mol.alpha_mean)) ** 2
    strength = (
        3.0 * math.pi * th.reduced_mass * spec.gas.c6 / (8.0 * HBAR * th.thermal_momentum)
    ) ** 0.8
    prefactor = (
        _PREFACTOR_SCALE
        * constant
        * th.density
        * th.thermal_momentum**3
        / (th.reduced_mass * HBAR**2)
        * aniso
        * strength
    )
    coeffs = a_coefficient([j for j, _ in pairs], [jp for _, jp in pairs]).tolist()
    return [
        RateResult(j, jp, prefactor * coeff, "closed_form", coeff)
        for (j, jp), coeff in zip(pairs, coeffs)
    ]


def gamma_closed_form(j, j_prime, spec):
    """Closed-form pair decay rate.

    gamma = Gamma(13/5) Gamma(3/5)^2 sqrt(pi)/10 * n_g q_th^3/(mu hbar^2)
            * (alpha_aniso/(30 alpha_mean))^2
            * (3 pi mu C_6 / (8 hbar q_th))^{4/5} * A_{jj'}.
    """
    return _closed_form_rates([(int(j), int(j_prime))], spec)[0]


def _corner_coefficients(j, spec, kappa_mode):
    # the top-corner column of block j's templates: the diagonal corner, the
    # first-band and the second-band neighbor; the j = 0 block has no band
    # partners (empty m-sums)
    diag, band1, band2 = template_bands(j, spec.molecule, kappa_mode)
    if j == 0:
        return diag[-1], 0.0, 0.0
    return diag[-1], band1[-1], band2[-1]


def _corner_integrand_linearized(j, j_prime, spec, kappa_mode):
    # The forward amplitude is c(q) * (identity + (2/5) averaged coupling),
    # and the rate integrand touches only the top-corner column of each
    # block, so three template coefficients per block suffice. Returns the
    # bracket as a function of an (n, 3) stack of sphere nodes.
    t0j, b1j, b2j = _corner_coefficients(j, spec, kappa_mode)
    t0p, b1p, b2p = _corner_coefficients(j_prime, spec, kappa_mode)

    def bracket(nodes):
        nz = nodes[:, 2]
        n_plus_sq = nodes[:, 0] ** 2 + nodes[:, 1] ** 2
        p2 = assoc_legendre2(0, np.clip(nz, -1.0, 1.0))
        return 0.16 * (
            (t0j - t0p) ** 2 * p2**2
            + (b1j**2 + b1p**2) * nz**2 * n_plus_sq
            + (b2j**2 + b2p**2) * n_plus_sq**2
        )

    return bracket


def _corner_integrand_spectral(j, j_prime, spec, kappa_mode):
    # the forward amplitude is c(q) S(n'); the bracket needs the top-corner
    # columns of the q-independent shapes S at the given nodes
    def bracket(nodes):
        mj = spectral_shapes(j, nodes, spec, kappa_mode)
        mp = spectral_shapes(j_prime, nodes, spec, kappa_mode)
        return (
            np.abs(mj[:, -1, -1] - mp[:, -1, -1]) ** 2
            + np.sum(np.abs(mj[:, :-1, -1]) ** 2, axis=1)
            + np.sum(np.abs(mp[:, :-1, -1]) ** 2, axis=1)
        )

    return bracket


def thermal_q_integral(spec, order, power, fn):
    """Thermal radial integral Int dq q^power nu_th(q) fn(c(q)) of the
    isotropic forward amplitude c(q), on the half-line rule of the given
    order with q = q_th x: (q_th / pi^1.5) sum_i w_i x_i^power fn(c(q_th x_i)).

    Every thermal average here factorizes into this radial integral times
    a q-independent direction integral: the rates and the jump weights take
    fn = |c|^2 at power 3, the gas shift fn = Re c at power 2.
    """
    q_th = spec.thermal.thermal_momentum
    rule = make_rule("half_line", order)
    c = np.array([forward_scalar(q_th * x, spec) for x in rule.nodes])
    return float(q_th / math.pi**1.5 * np.sum(rule.weights * rule.nodes**power * fn(c)))


def _quadrature_rates(pairs, spec, amplitude_backend, kappa_mode):
    # RateResult rows for (j, j') pairs. The radial brackets R(n_q), R(2 n_q)
    # and the ring rules do not depend on the pair and are evaluated once;
    # each pair adds its ring brackets A(n_s), A(2 n_s) and its own
    # order-doubling drift.
    integrand = {
        "linearized": _corner_integrand_linearized,
        "spectral": _corner_integrand_spectral,
    }.get(amplitude_backend)
    if integrand is None:
        raise ValueError(f"unknown amplitude_backend {amplitude_backend!r}")
    th = spec.thermal
    nq = spec.numerics.quad_order_q
    ns = spec.numerics.quad_order_sphere
    pref = th.density / (2.0 * th.reduced_mass)
    r, r_fine = (
        thermal_q_integral(spec, order, 3, lambda c: np.abs(c) ** 2) for order in (nq, 2 * nq)
    )
    rings = make_rule("ring", ns), make_rule("ring", 2 * ns)
    coeffs = a_coefficient([j for j, _ in pairs], [jp for _, jp in pairs]).tolist()
    rows = []
    for (j, j_prime), coeff in zip(pairs, coeffs):
        bracket = integrand(j, j_prime, spec, kappa_mode)
        a, a_fine = (
            2.0 * math.pi * np.sum(ring.weights * bracket(ring.nodes)) for ring in rings
        )
        base = pref * r * a
        drift, converged = order_doubling_drift(base, pref * r_fine * a, pref * r * a_fine)
        meta = {
            "converged": converged,
            "order_q": nq,
            "order_sphere": ns,
            "order_doubling_drift": drift,
            "backend": amplitude_backend,
            "kappa_mode": kappa_mode,
        }
        rows.append(RateResult(j, j_prime, base, "quadrature", coeff, meta))
    return rows


def gamma_numeric(j, j_prime, spec, amplitude_backend="linearized", kappa_mode="exact"):
    """Pair decay rate by direct quadrature of the forward-amplitude rate
    integral: (n_g/2mu) Int dq q^3 nu_th 2pi Int d^2n' [squared corner-column
    differences of the forward amplitudes].

    The integrand factorizes into |c(q)|^2 times a q-independent sphere
    bracket, so the rate is (n_g/2mu) R(n_q) A(n_s) with one radial and one
    sphere quadrature. Both brackets are invariant under rotations about z
    (the linearized one reads only n_z and n_x^2 + n_y^2, the spectral one
    the moduli of a column that such a rotation rephases), so the sphere
    quadrature sums them on the rings of the sphere rule only. The
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


def signal_decay_rate(j, spec):
    """Alignment-signal rate Gamma_j = 2 gamma_{j,j-2}; read it off the
    gamma_signal field of the returned pair rate."""
    j = int(j)
    if j < 2:
        raise ValueError("signal_decay_rate: needs j >= 2")
    return gamma_closed_form(j, j - 2, spec)


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
    th = spec.thermal

    def shift_once(order_q):
        re_c = thermal_q_integral(spec, order_q, 2, np.real)
        scalar = -2.0 * math.pi * HBAR**2 * th.density / th.reduced_mass * re_c * 4.0 * math.pi
        return scalar * np.eye(2 * j + 1)

    base = shift_once(spec.numerics.quad_order_q)
    if not with_diagnostics:
        return base
    drift, converged = order_doubling_drift(base, shift_once(2 * spec.numerics.quad_order_q))
    return base, {"converged": converged, "order_doubling_drift": drift}


def sweep_rates(j_range, spec, method="closed_form", amplitude_backend="linearized",
                kappa_mode="exact"):
    """Alignment-decay table Gamma_j = 2 gamma_{j,j-2} over the given j values.

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
    return RateTable(tuple(rows), method)


def rate_table_csv(results, rate_scale=1.0):
    """Render rate rows as CSV (12 significant digits, LF endings).

    rate_scale converts internal rates to the config's unit system; pass
    UnitScales.rate for SI output.
    """
    if isinstance(results, RateTable):
        results = results.rows
    lines = ["j,j_prime,gamma,Gamma_signal,a_coeff,method"]
    for r in results:
        lines.append(
            f"{r.j},{r.j_prime},{r.gamma * rate_scale:.11e},"
            f"{r.gamma_signal * rate_scale:.11e},{r.a_coefficient:.11e},{r.method}"
        )
    return "\n".join(lines) + "\n"
