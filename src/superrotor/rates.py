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

from .mathkit import assoc_legendre2, gamma_real, make_rule
from .params import HBAR
from .scattering import coupling_templates, forward_amplitude_spectral, forward_scalar

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

    @property
    def monotone_beyond_peak(self):
        """True when Gamma_j decreases monotonically past its maximum row."""
        gammas = [r.gamma for r in self.rows]
        peak = int(np.argmax(gammas))
        tail = gammas[peak:]
        return all(b < a for a, b in zip(tail, tail[1:]))


def _p2sq_guarded(k, x):
    # arguments outside [-1, 1] correspond to empty m-sums of the underlying
    # rate integral and contribute zero (occurs only for the second band at
    # j or j' = 0)
    if abs(x) > 1.0:
        return 0.0
    return float(assoc_legendre2(k, x)) ** 2


def a_coefficient(j, j_prime):
    """Dimensionless rotational-state factor of the closed-form rate.

    Five Legendre terms: the squared diagonal difference plus one first-band
    and one second-band term for each of j and j'. Symmetric under j <-> j';
    grouping the band terms pairwise keeps the symmetry exact in floating
    point.
    """
    j = int(j)
    j_prime = int(j_prime)
    if j < 0 or j_prime < 0:
        raise ValueError("a_coefficient: j and j_prime must be >= 0")
    top_j = 2.0 * j / (2.0 * j + 1.0)
    top_jp = 2.0 * j_prime / (2.0 * j_prime + 1.0)
    diff = (float(assoc_legendre2(0, top_j)) - float(assoc_legendre2(0, top_jp))) ** 2
    band1 = (
        _p2sq_guarded(1, (2.0 * j - 1.0) / (2.0 * j + 1.0)) / 6.0
        + _p2sq_guarded(1, (2.0 * j_prime - 1.0) / (2.0 * j_prime + 1.0)) / 6.0
    )
    band2 = (
        _p2sq_guarded(2, (2.0 * j - 2.0) / (2.0 * j + 1.0)) / 24.0
        + _p2sq_guarded(2, (2.0 * j_prime - 2.0) / (2.0 * j_prime + 1.0)) / 24.0
    )
    return diff + band1 + band2


def gamma_closed_form(j, j_prime, spec):
    """Closed-form pair decay rate.

    gamma = Gamma(13/5) Gamma(3/5)^2 sqrt(pi)/10 * n_g q_th^3/(mu hbar^2)
            * (alpha_aniso/(30 alpha_mean))^2
            * (3 pi mu C_6 / (8 hbar q_th))^{4/5} * A_{jj'}.
    """
    th = spec.thermal
    mol = spec.molecule
    coeff = a_coefficient(j, j_prime)
    constant = gamma_real(2.6) * gamma_real(0.6) ** 2 * math.sqrt(math.pi) / 10.0
    aniso = (mol.alpha_aniso / (30.0 * mol.alpha_mean)) ** 2
    strength = (
        3.0 * math.pi * th.reduced_mass * spec.gas.c6 / (8.0 * HBAR * th.thermal_momentum)
    ) ** 0.8
    gamma = (
        _PREFACTOR_SCALE
        * constant
        * th.density
        * th.thermal_momentum**3
        / (th.reduced_mass * HBAR**2)
        * aniso
        * strength
        * coeff
    )
    return RateResult(int(j), int(j_prime), gamma, "closed_form", coeff)


def _corner_integrand_linearized(j, j_prime, spec, nodes, kappa_mode):
    # The forward amplitude is c(q) * (identity + (2/5) averaged coupling),
    # and the rate integrand touches only the top-corner column of each
    # block: the diagonal corner, the first-band neighbor and the
    # second-band neighbor. Their template coefficients suffice.
    def corner(jv):
        t = coupling_templates(jv, spec.molecule, kappa_mode)
        top = 2 * jv
        t0 = t[0][top, top]
        # the j = 0 block has no band partners (empty m-sums)
        b1 = t[1][top - 1, top] if jv >= 1 else 0.0
        b2 = t[3][top - 2, top] if jv >= 1 else 0.0
        return t0, b1, b2
    t0j, b1j, b2j = corner(j)
    t0p, b1p, b2p = corner(j_prime)
    nz = nodes[:, 2]
    n_plus_sq = nodes[:, 0] ** 2 + nodes[:, 1] ** 2
    p2 = assoc_legendre2(0, np.clip(nz, -1.0, 1.0))
    return 0.16 * (
        (t0j - t0p) ** 2 * p2**2
        + (b1j**2 + b1p**2) * nz**2 * n_plus_sq
        + (b2j**2 + b2p**2) * n_plus_sq**2
    )


def _corner_integrand_spectral(j, j_prime, spec, nodes, kappa_mode):
    # q-independent geometry part of the spectral forward amplitude,
    # extracted by dividing out the scalar c(q) at a reference momentum
    q_ref = spec.thermal.thermal_momentum
    c_ref = forward_scalar(q_ref, spec)

    def power_matrix(jv, n):
        amp = forward_amplitude_spectral(jv, q_ref, n, spec, kappa_mode)
        return amp.entries / c_ref

    out = np.empty(len(nodes))
    for k, n in enumerate(nodes):
        n = n / np.linalg.norm(n)
        term = 0.0
        mj = power_matrix(j, n)
        mp = power_matrix(j_prime, n)
        term += abs(mj[-1, -1] - mp[-1, -1]) ** 2
        term += float(np.sum(np.abs(mj[:-1, -1]) ** 2))
        term += float(np.sum(np.abs(mp[:-1, -1]) ** 2))
        out[k] = term
    return out


def _gamma_quadrature_once(j, j_prime, spec, backend, kappa_mode, order_q, order_sphere):
    th = spec.thermal
    q_rule = make_rule("half_line", order_q)
    x, wx = q_rule.nodes, q_rule.weights
    q = th.thermal_momentum * x
    # Int dq q^3 nu_th(q) |c(q)|^2 with q = q_th x; the Gaussian weight
    # already lives in wx
    c_sq = np.array([abs(forward_scalar(qv, spec)) ** 2 if qv > 0 else 0.0 for qv in q])
    weight_q = th.thermal_momentum / math.pi**1.5 * np.sum(wx * x**3 * c_sq)

    sphere = make_rule("sphere", order_sphere)
    if backend == "linearized":
        bracket = _corner_integrand_linearized(j, j_prime, spec, sphere.nodes, kappa_mode)
    elif backend == "spectral":
        bracket = _corner_integrand_spectral(j, j_prime, spec, sphere.nodes, kappa_mode)
    else:
        raise ValueError(f"unknown amplitude_backend {backend!r}")
    angular = 2.0 * math.pi * np.sum(sphere.weights * bracket)
    return th.density / (2.0 * th.reduced_mass) * weight_q * angular


def gamma_numeric(j, j_prime, spec, amplitude_backend="linearized", kappa_mode="exact"):
    """Pair decay rate by direct quadrature of the forward-amplitude rate
    integral: (n_g/2mu) Int dq q^3 nu_th 2pi Int d^2n' [squared corner-column
    differences of the forward amplitudes].

    The convergence flag in the metadata reports whether doubling either
    quadrature order moves the value by more than 0.1%.
    """
    j = int(j)
    j_prime = int(j_prime)
    if j < 0 or j_prime < 0:
        raise ValueError("gamma_numeric: j and j_prime must be >= 0")
    nq = spec.numerics.quad_order_q
    ns = spec.numerics.quad_order_sphere
    base = _gamma_quadrature_once(j, j_prime, spec, amplitude_backend, kappa_mode, nq, ns)
    fine_q = _gamma_quadrature_once(j, j_prime, spec, amplitude_backend, kappa_mode, 2 * nq, ns)
    fine_s = _gamma_quadrature_once(j, j_prime, spec, amplitude_backend, kappa_mode, nq, 2 * ns)
    scale = max(abs(base), abs(fine_q), abs(fine_s))
    drift = 0.0 if scale == 0.0 else max(abs(fine_q - base), abs(fine_s - base)) / scale
    meta = {
        "converged": bool(drift <= 1e-3),
        "order_q": nq,
        "order_sphere": ns,
        "order_doubling_drift": drift,
        "backend": amplitude_backend,
        "kappa_mode": kappa_mode,
    }
    return RateResult(j, j_prime, base, "quadrature", a_coefficient(j, j_prime), meta)


def signal_decay_rate(j, spec):
    """Alignment-signal rate Gamma_j = 2 gamma_{j,j-2}; read it off the
    gamma_signal field of the returned pair rate."""
    j = int(j)
    if j < 2:
        raise ValueError("signal_decay_rate: needs j >= 2")
    return gamma_closed_form(j, j - 2, spec)


def energy_shift_matrix(j, spec, backend="linearized", with_diagnostics=False):
    """Gas-induced energy shift block <jm|H_g|jm'> from the hermitian part
    of the thermally averaged forward amplitude:
    -2 pi hbar^2 (n_g/mu) Int dq q^2 nu_th(q) Int d^2n herm(F(qn, qn)).

    The amplitude factorizes as c(q) times a q-independent hermitian
    geometry matrix, so the hermitian part is Re(c) times that matrix.  The
    q integral is a quadrature.  In the linearized model the direction
    integral of identity + (2/5) sum_a g_a T_a is exactly 4 pi times the
    identity, because every geometry factor g_a is a degree-2 harmonic with
    zero sphere average; the shift is then one scalar, equal for every j.
    The spectral direction integral is a sphere quadrature.
    """
    j = int(j)
    if j < 0:
        raise ValueError("energy_shift_matrix: j must be >= 0")
    if backend not in ("linearized", "spectral"):
        raise ValueError(f"unknown backend {backend!r}")
    th = spec.thermal
    d = 2 * j + 1

    def shift_once(order_q, order_sphere):
        q_rule = make_rule("half_line", order_q)
        x, wx = q_rule.nodes, q_rule.weights
        q = th.thermal_momentum * x
        re_c = np.array([forward_scalar(qv, spec).real if qv > 0 else 0.0 for qv in q])
        weight_q = th.thermal_momentum / math.pi**1.5 * np.sum(wx * x**2 * re_c)

        if backend == "linearized":
            geom = 4.0 * math.pi * np.eye(d, dtype=complex)
        else:
            sphere = make_rule("sphere", order_sphere)
            geom = np.zeros((d, d), dtype=complex)
            q_ref = th.thermal_momentum
            c_ref = forward_scalar(q_ref, spec)
            for n, w in zip(sphere.nodes, sphere.weights):
                n = n / np.linalg.norm(n)
                amp = forward_amplitude_spectral(j, q_ref, n, spec)
                geom += w * (amp.entries / c_ref)
        matrix = -2.0 * math.pi * HBAR**2 * th.density / th.reduced_mass * weight_q * geom
        return 0.5 * (matrix + matrix.conj().T)

    base = shift_once(spec.numerics.quad_order_q, spec.numerics.quad_order_sphere)
    if not with_diagnostics:
        return base
    fine = shift_once(2 * spec.numerics.quad_order_q, 2 * spec.numerics.quad_order_sphere)
    scale = max(np.max(np.abs(base)), np.max(np.abs(fine)), 1e-300)
    drift = np.max(np.abs(fine - base)) / scale
    return base, {"converged": bool(drift <= 1e-3), "order_doubling_drift": float(drift)}


def delta_frequency(j, j_prime, spec):
    """Coherence oscillation frequency: free rotor spacing plus the corner
    gas-shift difference, (E_j - E_j')/hbar + (s_j - s_j')/hbar.

    The gas-shift part is an artifact definition (the underlying short-time
    law names the frequency without defining it); outputs that report it say
    so. In the linearized model the shift is block-scalar and identical
    across blocks, so the second term vanishes.
    """
    mol = spec.molecule
    free = (mol.rotational_energy(j) - mol.rotational_energy(j_prime)) / HBAR
    s_j = energy_shift_matrix(j, spec)[-1, -1].real
    s_jp = energy_shift_matrix(j_prime, spec)[-1, -1].real
    return free + (s_j - s_jp) / HBAR


def sweep_rates(j_range, spec, method="closed_form", amplitude_backend="linearized",
                kappa_mode="exact"):
    """Alignment-decay table Gamma_j = 2 gamma_{j,j-2} over the given j values.

    method selects closed_form or quadrature rows; every j must lie within
    the numerics basis limits and be >= 2 (the j-2 partner must exist).
    """
    if method not in ("closed_form", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    rows = []
    for j in j_range:
        j = int(j)
        if j < 2:
            raise ValueError("sweep_rates: j values must be >= 2")
        if j > spec.numerics.j_max:
            raise ValueError(f"sweep_rates: j={j} exceeds basis limit {spec.numerics.j_max}")
        if method == "closed_form":
            rows.append(gamma_closed_form(j, j - 2, spec))
        else:
            rows.append(gamma_numeric(j, j - 2, spec, amplitude_backend, kappa_mode))
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
