"""Self-contained acceptance checks for the rate and propagation pipeline.

Each criterion returns a CriterionResult; run_acceptance executes the full
list against a SystemSpec (the builtin normalized benchmark by default).  The
checks pair every closed-form claim with an independent numerical route, so a
regression in either route surfaces as a disagreement rather than a silently
shifted value.
"""

import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import lindblad as lb
from . import rates, scattering
from .mathkit import gamma_real, make_rule
from .params import builtin_config, load_config

SINE_HALF_PERIODS = 48


@dataclass
class CriterionResult:
    name: str
    passed: bool
    summary: str
    runtime: float = 0.0
    detail: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "summary": self.summary,
            "runtime_s": round(self.runtime, 3),
            "detail": {k: _plain(v) for k, v in self.detail.items()},
        }


def _plain(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


def _default_spec():
    return load_config(builtin_config("n1"))


def _zero_aniso(spec):
    return replace(spec, molecule=replace(spec.molecule, alpha_aniso=0.0))


# -- oscillatory radial integrals ------------------------------------------
#
# int_0^inf b sin(a/b^5) db and int_0^inf b sin^2(a/(2 b^5)) db via u = 1/b^5.
# The head [0, pi/a] integrates u^(-7/5) trig(au) exactly in the s = u^(3/5)
# variable; the alternating half-period tail is accelerated by repeated
# averaging of partial sums.


def _head_piece(a, trig, points=64):
    s_max = (math.pi / a) ** 0.6
    x, w = np.polynomial.legendre.leggauss(points)
    s = 0.5 * (x + 1.0) * s_max
    ws = 0.5 * s_max * w
    u = s ** (5.0 / 3.0)
    with np.errstate(divide="ignore"):
        frac = np.where(s > 0, s ** (-5.0 / 3.0), 0.0)
    return float(np.sum(ws * (5.0 / 3.0) * frac * trig(a * u)))


def _tail_piece(a, trig, half_periods=SINE_HALF_PERIODS, points=12):
    x, w = np.polynomial.legendre.leggauss(points)
    terms = []
    for k in range(1, half_periods + 1):
        u0 = k * math.pi / a
        u1 = (k + 1) * math.pi / a
        u = 0.5 * (x + 1.0) * (u1 - u0) + u0
        wu = 0.5 * (u1 - u0) * w
        terms.append(float(np.sum(wu * u ** (-1.4) * trig(a * u))))
    partial = np.cumsum(terms)
    for _ in range(min(30, len(partial) - 1)):
        partial = 0.5 * (partial[:-1] + partial[1:])
    return float(partial[-1])


def sine_integral_b(a):
    """int_0^inf b sin(a / b^5) db for a > 0."""
    if a <= 0:
        raise ValueError("a must be positive")
    return 0.2 * (_head_piece(a, np.sin) + _tail_piece(a, np.sin))


def sine_sq_integral_b(a):
    """int_0^inf b sin^2(a / (2 b^5)) db for a > 0."""
    if a <= 0:
        raise ValueError("a must be positive")
    head = _head_piece(a, lambda x: 1.0 - np.cos(x))
    tail_const = 2.5 * (math.pi / a) ** (-0.4)
    tail_cos = _tail_piece(a, np.cos)
    return 0.1 * (head + tail_const - tail_cos)


# -- criteria ----------------------------------------------------------------


def criterion_closed_form_prefactor(spec=None):
    """gamma/A equals Gamma(13/5) Gamma(3/5)^2 sqrt(pi)/10 to 1e-9."""
    base = _default_spec()
    expected = gamma_real(2.6) * gamma_real(0.6) ** 2 * math.sqrt(math.pi) / 10.0
    res = rates.gamma_closed_form(10, 8, base)
    measured = res.gamma / res.a_coefficient
    err = abs(measured - expected)
    return CriterionResult(
        name="closed-form prefactor",
        passed=err <= 1e-9,
        summary="gamma/A = %.12f vs %.12f (err %.2e)" % (measured, expected, err),
        detail={"measured": measured, "expected": expected, "error": err},
    )


def criterion_quadrature_vs_closed_form(spec=None):
    """Linearized quadrature in kappa-half mode matches the closed form to 0.5%."""
    spec = spec or _default_spec()
    spec = replace(
        spec, numerics=replace(spec.numerics, quad_order_q=48, quad_order_sphere=302)
    )
    devs = {}
    worst = 0.0
    for j in (4, 6, 10, 14, 20):
        closed = rates.gamma_closed_form(j, j - 2, spec).gamma
        quad = rates.gamma_numeric(j, j - 2, spec, kappa_mode="half").gamma
        rel = abs(quad - closed) / closed if closed > 0 else abs(quad)
        devs["j=%d" % j] = rel
        worst = max(worst, rel)
    return CriterionResult(
        name="quadrature vs closed form",
        passed=worst <= 5e-3,
        summary="max relative deviation %.2e over j in {4,6,10,14,20}" % worst,
        detail=devs,
    )


def criterion_large_j_asymptote(spec=None):
    """j A(j, j-2) -> 6 and the signal rate falls off as 1/j."""
    ratio = 500 * rates.a_coefficient(500, 498) / 6.0
    base = _default_spec()
    js = np.array([200, 320, 500, 800, 1000])
    signals = np.array(
        [rates.gamma_closed_form(j, j - 2, base).gamma * 2.0 for j in js]
    )
    slope = float(np.polyfit(np.log(js), np.log(signals), 1)[0])
    passed = 0.99 <= ratio <= 1.01 and abs(slope + 1.0) <= 0.05
    return CriterionResult(
        name="large-j asymptote",
        passed=passed,
        summary="500 A(500,498)/6 = %.6f, log-log slope %.4f" % (ratio, slope),
        detail={"ratio_at_500": ratio, "slope": slope},
    )


def criterion_small_j_guards(spec=None):
    """A(0,0) = 0 exactly and A(2,0) hits its tabulated value."""
    a00 = rates.a_coefficient(0, 0)
    a20 = rates.a_coefficient(2, 0)
    err = abs(a20 - 1.5318)
    return CriterionResult(
        name="small-j guard values",
        passed=(a00 == 0.0) and err <= 1e-5,
        summary="A(0,0) = %g, A(2,0) = %.7f (err %.2e)" % (a00, a20, err),
        detail={"a00": a00, "a20": a20, "a20_error": err},
    )


def criterion_isotropic_stationarity(spec=None):
    """The dissipator annihilates isotropic states."""
    spec = spec or _default_spec()
    layout = lb.BasisLayout(2, 8)
    dset = lb.build_dissipator(spec, layout)
    uniform = {j: 1.0 / len(list(layout.js)) for j in layout.js}
    worst = 0.0
    for pops in ({layout.j_min: 1.0}, {layout.j_max: 1.0}, uniform):
        iso = lb.isotropic_state(layout, pops)
        action = dset.apply(iso.matrix)
        worst = max(worst, float(np.max(np.abs(action))) / dset.jump_scale)
    return CriterionResult(
        name="isotropic stationarity",
        passed=worst <= 1e-10,
        summary="max |D rho| / jump scale = %.2e over 3 isotropic states" % worst,
        detail={"worst_relative_action": worst},
    )


def criterion_block_population_conservation(spec=None):
    """Block populations stay put over 3 e-foldings of the slowest coherence."""
    spec = spec or _default_spec()
    layout = lb.BasisLayout(8, 15)
    dset = lb.build_dissipator(spec, layout)
    rho0 = lb.centrifuge_state(layout, lb.gaussian_profile(layout, 11.5, 2.0))
    gammas = [
        rates.gamma_closed_form(j, k, spec).gamma
        for j in layout.js
        for k in layout.js
        if j != k
    ]
    g_min = min(gammas)
    t_final = 3.0 / g_min if g_min > 0 else 1.0
    spread = lb.coherent_frequency_spread(spec, dset)
    dt = 0.099 / spread if spread > 0 else t_final / 100
    pops = lb.propagate(rho0, dset, spec, t_final, dt, record_every=10**9).block_populations()
    drift = float(np.max(np.abs(pops[-1] - pops[0])))
    return CriterionResult(
        name="block-population conservation",
        passed=drift <= 1e-8,
        summary="max population drift %.2e over t = %.2f (D = %d)"
        % (drift, t_final, layout.dim),
        detail={"drift": drift, "t_final": t_final, "dimension": layout.dim},
    )


def _fit_pair(spec, j, j_prime):
    layout = lb.BasisLayout(j_prime, j)
    dset = lb.build_dissipator(spec, layout, kappa_mode="half")
    rho0 = lb.centrifuge_state(layout, {j_prime: 2**-0.5, j: 2**-0.5})
    gamma = rates.gamma_closed_form(j, j_prime, spec).gamma
    window = 0.03 / gamma if gamma > 0 else 0.1
    traj = lb.propagate(rho0, dset, spec, window, window / 80, record_every=1)
    fit = lb.extract_decay_rate(list(zip(traj.times, np.abs(traj.corner_coherence(j, j_prime)))))
    fit_sig = lb.extract_decay_rate(list(zip(traj.times, traj.signal(j))))
    err = abs(fit - gamma) / gamma if gamma > 0 else abs(fit)
    err_sig = abs(fit_sig - 2 * gamma) / (2 * gamma) if gamma > 0 else abs(fit_sig)
    return gamma, fit, err, fit_sig, err_sig


def criterion_propagator_rate_consistency(spec=None):
    """Propagated coherence and signal decay reproduce the rate module."""
    spec = spec or _default_spec()
    detail = {}
    worst = 0.0
    for j, j_prime in ((10, 8), (12, 10)):
        gamma, fit, err, fit_sig, err_sig = _fit_pair(spec, j, j_prime)
        detail["pair_%d_%d" % (j, j_prime)] = [gamma, fit, err, fit_sig, err_sig]
        worst = max(worst, err, err_sig)
    return CriterionResult(
        name="propagator rate consistency",
        passed=worst <= 0.02,
        summary="max fit deviation %.2e over pairs (10,8), (12,10)" % worst,
        detail=detail,
    )


def criterion_optical_theorem(spec=None):
    """Isotropic full amplitude: optical theorem and forward closed form."""
    spec = _zero_aniso(spec or _default_spec())
    q = spec.thermal.thermal_momentum
    ez = np.array([0.0, 0.0, 1.0])
    amp = scattering.schiff_amplitude_full(0, q, ez, ez, spec)
    f0 = complex(amp.entries[0, 0])
    sigma_tot = 4.0 * math.pi / q * f0.imag
    sigma_el = scattering.scalar_cross_section_bspace(q, spec)
    opt_err = abs(sigma_tot - sigma_el) / sigma_el
    closed_im = scattering.forward_scalar(q, spec).imag
    fwd_err = abs(f0.imag - closed_im) / abs(closed_im)
    passed = opt_err <= 0.02 and fwd_err <= 0.01 and amp.converged
    return CriterionResult(
        name="optical theorem",
        passed=passed,
        summary="optical-theorem error %.2e, forward Im error %.2e" % (opt_err, fwd_err),
        detail={
            "sigma_total": sigma_tot,
            "sigma_elastic": sigma_el,
            "optical_error": opt_err,
            "forward_error": fwd_err,
            "converged": amp.converged,
        },
    )


def criterion_linearization_scaling(spec=None):
    """The spectral-linearized gap grows quadratically in the anisotropy."""
    base = _default_spec()

    def gap(eps):
        mol = replace(base.molecule, alpha_aniso=1.5 * eps)
        s = replace(base, molecule=mol)
        q = s.thermal.thermal_momentum
        n = np.array([0.6, 0.0, 0.8])
        lin = scattering.forward_amplitude_linearized(3, q, n, s)
        spc = scattering.forward_amplitude_spectral(3, q, n, s)
        return float(np.max(np.abs(spc.entries - lin.entries)))

    ratio = gap(0.04) / gap(0.02)
    passed = abs(ratio - 4.0) <= 0.8
    return CriterionResult(
        name="linearization error scaling",
        passed=passed,
        summary="gap ratio %.4f for eps 0.02 -> 0.04 (target 4 +- 20%%)" % ratio,
        detail={"ratio": ratio},
    )


def criterion_radial_integral_table(spec=None):
    """Oscillatory quadrature reproduces both radial sine integrals at a = 1."""
    g35 = gamma_real(0.6)
    ref1 = 0.5 * g35 * math.cos(0.3 * math.pi)
    ref2 = 0.25 * g35 * math.sin(0.3 * math.pi)
    v1 = sine_integral_b(1.0)
    v2 = sine_sq_integral_b(1.0)
    err1 = abs(v1 - ref1)
    err2 = abs(v2 - ref2)
    return CriterionResult(
        name="radial integral table",
        passed=err1 <= 1e-6 and err2 <= 1e-6,
        summary="sine integral err %.2e, sine-squared err %.2e" % (err1, err2),
        detail={"i1": v1, "i1_ref": ref1, "i2": v2, "i2_ref": ref2},
    )


def criterion_zero_anisotropy_null(spec=None):
    """Delta alpha = 0 kills rates, dissipator action, and anisotropy."""
    spec = _zero_aniso(spec or _default_spec())
    closed = rates.gamma_closed_form(10, 8, spec).gamma
    quad = rates.gamma_numeric(10, 8, spec).gamma
    layout = lb.BasisLayout(2, 5)
    dset = lb.build_dissipator(spec, layout)
    rng = np.random.default_rng(0)
    m = rng.normal(size=(layout.dim, layout.dim)) + 1j * rng.normal(
        size=(layout.dim, layout.dim)
    )
    m = m @ m.conj().T
    state = lb.RotorState.from_matrix(layout, m / np.trace(m).real)
    action = float(np.max(np.abs(dset.apply(state.matrix))))
    q = spec.thermal.thermal_momentum
    n = np.array([0.6, 0.0, 0.8])
    lin = scattering.forward_amplitude_linearized(3, q, n, spec).entries
    spc = scattering.forward_amplitude_spectral(3, q, n, spec).entries
    scalar = scattering.forward_scalar(q, spec)
    aniso = max(
        float(np.max(np.abs(lin - scalar * np.eye(7)))),
        float(np.max(np.abs(spc - scalar * np.eye(7)))),
    ) / abs(scalar)
    passed = (
        closed == 0.0
        and quad == 0.0
        and action <= 1e-14 * dset.jump_scale
        and aniso <= 1e-14
    )
    return CriterionResult(
        name="zero-anisotropy null",
        passed=passed,
        summary="rates (%g, %g), dissipator %.1e, amplitude anisotropy %.1e"
        % (closed, quad, action, aniso),
        detail={
            "gamma_closed": closed,
            "gamma_quadrature": quad,
            "dissipator_action": action,
            "amplitude_anisotropy": aniso,
        },
    )


CRITERIA = (
    ("closed-form prefactor", criterion_closed_form_prefactor),
    ("quadrature vs closed form", criterion_quadrature_vs_closed_form),
    ("large-j asymptote", criterion_large_j_asymptote),
    ("small-j guard values", criterion_small_j_guards),
    ("isotropic stationarity", criterion_isotropic_stationarity),
    ("block-population conservation", criterion_block_population_conservation),
    ("propagator rate consistency", criterion_propagator_rate_consistency),
    ("optical theorem", criterion_optical_theorem),
    ("linearization error scaling", criterion_linearization_scaling),
    ("radial integral table", criterion_radial_integral_table),
    ("zero-anisotropy null", criterion_zero_anisotropy_null),
)


def run_acceptance(spec=None, names=None):
    """Run the acceptance criteria, timing each into its runtime; names
    optionally filters by criterion name."""
    results = []
    for name, fn in CRITERIA:
        if names is not None and name not in names:
            continue
        t0 = time.perf_counter()
        res = fn(spec)
        res.runtime = time.perf_counter() - t0
        results.append(res)
    return results


def report_text(results):
    lines = []
    for r in results:
        lines.append(
            "[%s] %-32s %s (%.2fs)"
            % ("PASS" if r.passed else "FAIL", r.name, r.summary, r.runtime)
        )
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(
        "%d/%d criteria passed" % (len(results) - n_fail, len(results))
    )
    return "\n".join(lines) + "\n"


def report_json(results):
    return json.dumps(
        {
            "criteria": [r.as_dict() for r in results],
            "all_passed": all(r.passed for r in results),
        },
        indent=2,
    )