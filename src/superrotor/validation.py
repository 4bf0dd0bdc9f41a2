"""Self-contained acceptance checks for the rate and propagation pipeline.

Each criterion returns (passed, summary, detail); run_acceptance runs the
list CRITERIA, which names each, against a SystemSpec (the builtin normalized
benchmark by default) and records every verdict as a CriterionResult.  The
checks pair every closed-form claim with an independent numerical route, so a
regression in either route surfaces as a disagreement rather than a silently
shifted value.  The radial integral table checks the radial integral of
scattering, the one the full Schiff amplitude is built from.
"""

import json
import math
import time

import numpy as np

from . import lindblad as lb
from . import rates, scattering
from .params import builtin_config, load_config, record


class CriterionResult(record("CriterionResult", "name passed summary runtime detail")):
    """One criterion's verdict as run_acceptance records it: its name, pass or
    fail, a one-line summary, its runtime in seconds and the measured values
    behind the verdict (detail, a dict of JSON values)."""

    __slots__ = ()

    def as_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "summary": self.summary,
            "runtime_s": round(self.runtime, 3),
            "detail": self.detail,
        }


def _default_spec():
    return load_config(builtin_config("n1"))


def _zero_aniso(spec):
    return spec._replace(molecule=spec.molecule._replace(alpha_aniso=0.0))


# -- criteria ----------------------------------------------------------------


def criterion_closed_form_prefactor(spec=None):
    """gamma/A equals Gamma(13/5) Gamma(3/5)^2 sqrt(pi)/10 to 1e-9."""
    base = _default_spec()
    expected = math.gamma(2.6) * math.gamma(0.6) ** 2 * math.sqrt(math.pi) / 10.0
    res = rates.gamma_closed_form(10, 8, base)
    measured = res.gamma / res.a_coefficient
    err = abs(measured - expected)
    return (
        err <= 1e-9,
        "gamma/A = %.12f vs %.12f (err %.2e)" % (measured, expected, err),
        {"measured": measured, "expected": expected, "error": err},
    )


def criterion_quadrature_vs_closed_form(spec=None):
    """Linearized quadrature in kappa-half mode matches the closed form to 0.5%."""
    spec = spec or _default_spec()
    spec = spec._replace(
        numerics=spec.numerics._replace(quad_order_q=48, quad_order_sphere=302)
    )
    devs = {}
    worst = 0.0
    for j in (4, 6, 10, 14, 20):
        closed = rates.gamma_closed_form(j, j - 2, spec).gamma
        quad = rates.gamma_numeric(j, j - 2, spec, kappa_mode="half").gamma
        rel = abs(quad - closed) / closed if closed > 0 else abs(quad)
        devs["j=%d" % j] = rel
        worst = max(worst, rel)
    return (
        worst <= 5e-3,
        "max relative deviation %.2e over j in {4,6,10,14,20}" % worst,
        devs,
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
    return (
        passed,
        "500 A(500,498)/6 = %.6f, log-log slope %.4f" % (ratio, slope),
        {"ratio_at_500": ratio, "slope": slope},
    )


def criterion_small_j_guards(spec=None):
    """A(0,0) = 0 exactly and A(2,0) hits its tabulated value."""
    a00 = rates.a_coefficient(0, 0)
    a20 = rates.a_coefficient(2, 0)
    err = abs(a20 - 1.5318)
    return (
        (a00 == 0.0) and err <= 1e-5,
        "A(0,0) = %g, A(2,0) = %.7f (err %.2e)" % (a00, a20, err),
        {"a00": a00, "a20": a20, "a20_error": err},
    )


def criterion_isotropic_stationarity(spec=None):
    """The dissipator annihilates isotropic states."""
    spec = spec or _default_spec()
    layout = lb.BasisLayout(2, 8)
    dset = lb.build_dissipator(spec, layout)
    worst = 0.0
    for pops in ({layout.j_min: 1.0}, {layout.j_max: 1.0}, dict.fromkeys(layout.js, 1.0)):
        iso = lb.isotropic_state(layout, pops)
        action = dset.apply(iso.matrix)
        worst = max(worst, float(np.max(np.abs(action))) / dset.jump_scale)
    return (
        worst <= 1e-10,
        "max |D rho| / jump scale = %.2e over 3 isotropic states" % worst,
        {"worst_relative_action": worst},
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
    dt = 0.99 * lb.STEP_GUARD / spread if spread > 0 else t_final / 100
    pops = lb.propagate(rho0, dset, spec, t_final, dt, record_every=10**9).block_populations()
    drift = float(np.max(np.abs(pops[-1] - pops[0])))
    return (
        drift <= 1e-8,
        "max population drift %.2e over t = %.2f (D = %d)" % (drift, t_final, layout.dim),
        {"drift": drift, "t_final": t_final, "dimension": layout.dim},
    )


def _fit_pair(spec, j, j_prime):
    layout = lb.BasisLayout(j_prime, j)
    dset = lb.build_dissipator(spec, layout, kappa_mode="half")
    rho0 = lb.centrifuge_state(layout, {j_prime: 1.0, j: 1.0})
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
    return (
        worst <= 0.02,
        "max fit deviation %.2e over pairs (10,8), (12,10)" % worst,
        detail,
    )


def criterion_optical_theorem(spec=None):
    """Isotropic full amplitude: 4 pi Im f(0) / q is the elastic cross
    section, and Im f(0) the forward closed form."""
    spec = _zero_aniso(spec or _default_spec())
    q = spec.thermal_momentum
    ez = np.array([0.0, 0.0, 1.0])
    amp, converged = scattering.schiff_amplitude_full(0, q, ez, spec)
    f0 = complex(amp[0, 0])
    sigma_tot = 4.0 * math.pi / q * f0.imag
    sigma_el = scattering.scalar_cross_section_bspace(q, spec)
    opt_err = abs(sigma_tot - sigma_el) / sigma_el
    closed_im = scattering.forward_scalar(q, spec).imag
    fwd_err = abs(f0.imag - closed_im) / abs(closed_im)
    passed = opt_err <= 0.02 and fwd_err <= 0.01 and converged
    return (
        passed,
        "optical-theorem error %.2e, forward Im error %.2e" % (opt_err, fwd_err),
        {
            "sigma_total": sigma_tot,
            "sigma_elastic": sigma_el,
            "optical_error": opt_err,
            "forward_error": fwd_err,
            "converged": converged,
        },
    )


def criterion_linearization_scaling(spec=None):
    """The spectral-linearized gap grows quadratically in the anisotropy."""
    base = _default_spec()

    def gap(eps):
        mol = base.molecule._replace(alpha_aniso=1.5 * eps)
        s = base._replace(molecule=mol)
        q = s.thermal_momentum
        n = np.array([0.6, 0.0, 0.8])
        lin = scattering.forward_amplitude_linearized(3, q, n, s)
        spc = scattering.forward_amplitude_spectral(3, q, n, s)
        return float(np.max(np.abs(spc - lin)))

    ratio = gap(0.04) / gap(0.02)
    passed = abs(ratio - 4.0) <= 0.8
    return (
        passed,
        "gap ratio %.4f for eps 0.02 -> 0.04 (target 4 +- 20%%)" % ratio,
        {"ratio": ratio},
    )


def criterion_radial_integral_table(spec=None):
    """The radial integral I = Int_0^inf db b (e^{ia/b^5} - 1) of scattering
    at a = 1, with n1's numerics at the doubled node count that
    schiff_amplitude_full returns, reproduces both radial sine integrals:
    Im I = Int b sin(1/b^5) db and -Re I / 2 = Int b sin^2(1/(2 b^5)) db."""
    numerics = _default_spec().numerics
    g35 = math.gamma(0.6)
    ref1 = 0.5 * g35 * math.cos(0.3 * math.pi)
    ref2 = 0.25 * g35 * math.sin(0.3 * math.pi)
    total = scattering._radial_jump_integral(1.0, 2 * numerics.b_nodes, numerics.b_max)
    v1 = float(total.imag)
    v2 = float(-0.5 * total.real)
    err1 = abs(v1 - ref1)
    err2 = abs(v2 - ref2)
    return (
        err1 <= 1e-6 and err2 <= 1e-6,
        "sine integral err %.2e, sine-squared err %.2e" % (err1, err2),
        {"i1": v1, "i1_ref": ref1, "i2": v2, "i2_ref": ref2},
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
    q = spec.thermal_momentum
    n = np.array([0.6, 0.0, 0.8])
    lin = scattering.forward_amplitude_linearized(3, q, n, spec)
    spc = scattering.forward_amplitude_spectral(3, q, n, spec)
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
    return (
        passed,
        "rates (%g, %g), dissipator %.1e, amplitude anisotropy %.1e"
        % (closed, quad, action, aniso),
        {
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
    """CriterionResult records of the criteria in CRITERIA order, each timed
    into its runtime; names, when given, selects criteria by name.  Raises
    ValueError listing the names CRITERIA lacks before any criterion runs."""
    unknown = [n for n in names or () if n not in dict(CRITERIA)]
    if unknown:
        raise ValueError("unknown criteria: %s" % ", ".join(unknown))
    results = []
    for name, check in CRITERIA:
        if names is None or name in names:
            t0 = time.perf_counter()
            passed, summary, detail = check(spec)
            results.append(
                CriterionResult(name, bool(passed), summary, time.perf_counter() - t0, detail)
            )
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