import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superrotor import rates
from superrotor.mathkit import make_rule
from superrotor.params import HBAR, builtin_config, load_config, normalized_document
from superrotor.rates import (
    RateResult,
    a_coefficient,
    delta_frequency,
    energy_shift_matrix,
    gamma_closed_form,
    gamma_numeric,
    rate_table_csv,
    signal_decay_rate,
    sweep_rates,
)
from superrotor.scattering import coupling_templates, forward_scalar, geometry_factors

# frozen 30-digit mpmath oracles
CONSTANT = 0.561951028726822104  # Gamma(13/5) Gamma(3/5)^2 sqrt(pi) / 10
A_10_8 = 0.5476053866347758
GAMMA_10_8_N1 = 0.307727410355761439
GAMMA_SIGNAL_10_N1 = 0.615454820711522878
A_TAIL_500 = 0.998250738526130528  # A(500,498) * 500 / 6


def n1_spec(**numerics):
    doc = json.loads(builtin_config("n1"))
    if numerics:
        doc["numerics"] = numerics
    return load_config(json.dumps(doc))


def modified_n1(**changes):
    doc = json.loads(builtin_config("n1"))
    for section, key, value in changes.get("set", []):
        doc[section][key] = value
    return load_config(json.dumps(doc))


def test_a_coefficient_examples():
    assert a_coefficient(0, 0) == 0.0
    assert a_coefficient(2, 0) == pytest.approx(1.5318, abs=1e-12)
    assert a_coefficient(10, 8) == pytest.approx(A_10_8, rel=1e-12)


def test_a_coefficient_asymptote():
    ratio = 500 * a_coefficient(500, 498) / 6.0
    assert ratio == pytest.approx(A_TAIL_500, rel=1e-12)
    assert 0.99 <= ratio <= 1.01


def test_a_coefficient_guards():
    with pytest.raises(ValueError):
        a_coefficient(-1, 3)
    # only the second-band terms ever leave the Legendre domain (j or j' = 0)
    assert a_coefficient(0, 1) > 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 80), st.integers(0, 80))
def test_a_coefficient_symmetric_and_nonnegative(j, jp):
    assert a_coefficient(j, jp) == a_coefficient(jp, j)
    assert a_coefficient(j, jp) >= 0.0


def test_gamma_closed_form_n1():
    spec = n1_spec()
    res = gamma_closed_form(10, 8, spec)
    assert res.gamma == pytest.approx(GAMMA_10_8_N1, rel=1e-12)
    assert res.method == "closed_form"
    assert res.a_coefficient == pytest.approx(A_10_8, rel=1e-12)
    # normalized groups are 1, so gamma/A is the bare constant
    assert res.gamma / res.a_coefficient == pytest.approx(CONSTANT, abs=1e-9)


def test_gamma_zero_anisotropy():
    spec = modified_n1(set=[("molecule", "alpha_aniso", 0.0)])
    assert gamma_closed_form(10, 8, spec).gamma == 0.0
    assert gamma_numeric(10, 8, spec).gamma == 0.0


def test_gamma_scaling_laws():
    spec = n1_spec()
    base = gamma_closed_form(12, 10, spec).gamma
    triple_density = modified_n1(set=[("gas", "density", 3.0)])
    assert gamma_closed_form(12, 10, triple_density).gamma == pytest.approx(3 * base, rel=1e-12)
    double_aniso = modified_n1(set=[("molecule", "alpha_aniso", 60.0)])
    assert gamma_closed_form(12, 10, double_aniso).gamma == pytest.approx(4 * base, rel=1e-12)
    # q_th -> q_th/2 via T -> T/4; rate carries q_th^(3 - 4/5)
    cold = modified_n1(set=[("gas", "temperature", 0.125)])
    both = (gamma_closed_form(12, 10, spec).gamma, gamma_closed_form(12, 10, cold).gamma)
    assert both[0] / both[1] == pytest.approx(2 ** (11.0 / 5.0), rel=1e-10)


def test_gamma_numeric_half_mode_is_closed_form():
    spec = n1_spec()
    for j, jp in ((10, 8), (8, 8), (3, 0)):
        closed = gamma_closed_form(j, jp, spec).gamma
        quad = gamma_numeric(j, jp, spec, kappa_mode="half")
        assert quad.method == "quadrature"
        assert quad.converged
        assert quad.gamma == pytest.approx(closed, rel=1e-10)


def test_gamma_numeric_exact_kappa_converges_to_half():
    spec = n1_spec()
    for j, bound in ((10, 0.02), (25, 0.01)):
        exact = gamma_numeric(j, j - 2, spec, kappa_mode="exact").gamma
        half = gamma_numeric(j, j - 2, spec, kappa_mode="half").gamma
        assert abs(exact / half - 1.0) <= bound


def test_gamma_numeric_spectral_backend_small_anisotropy():
    spec = modified_n1(set=[("molecule", "alpha_aniso", 0.03)])
    lin = gamma_numeric(4, 2, spec, amplitude_backend="linearized").gamma
    spc = gamma_numeric(4, 2, spec, amplitude_backend="spectral").gamma
    assert spc == pytest.approx(lin, rel=5e-3)


@pytest.mark.parametrize("kappa", ["exact", "half"])
@pytest.mark.parametrize("backend", ["linearized", "spectral"])
def test_gamma_numeric_rings_match_sphere_rule(backend, kappa):
    # oracle: the bracket summed over every node of the sphere rule; the
    # rings carry the same integral because both brackets are invariant
    # under rotations about z
    doc = json.loads(builtin_config("n1"))
    doc["molecule"]["alpha_aniso"] = 0.06
    doc["numerics"] = {"quad_order_sphere": 30, "quad_order_circle": 32}
    spec = load_config(json.dumps(doc))
    bracket = {
        "linearized": rates._corner_integrand_linearized,
        "spectral": rates._corner_integrand_spectral,
    }[backend]
    sphere = make_rule("sphere", spec.numerics.quad_order_sphere)
    angular = 2.0 * math.pi * np.sum(sphere.weights * bracket(4, 2, spec, sphere.nodes, kappa))
    radial = rates.thermal_q_integral(
        spec, spec.numerics.quad_order_q, 3, lambda c: np.abs(c) ** 2
    )
    oracle = spec.thermal.density / (2.0 * spec.thermal.reduced_mass) * radial * angular
    got = gamma_numeric(4, 2, spec, amplitude_backend=backend, kappa_mode=kappa).gamma
    assert abs(got - oracle) <= 1e-12 * oracle


def test_gamma_numeric_validation():
    spec = n1_spec()
    with pytest.raises(ValueError):
        gamma_numeric(-2, 0, spec)
    with pytest.raises(ValueError):
        gamma_numeric(2, 0, spec, amplitude_backend="brute")


def test_signal_decay_rate():
    spec = n1_spec()
    res = signal_decay_rate(10, spec)
    assert res.gamma_signal == pytest.approx(GAMMA_SIGNAL_10_N1, rel=1e-12)
    assert res.j_prime == 8
    with pytest.raises(ValueError):
        signal_decay_rate(1, spec)


def test_signal_rate_large_j_limit():
    spec = n1_spec()
    targets = [signal_decay_rate(j, spec).gamma_signal * j for j in (100, 300, 900)]
    limit = 2.0 * CONSTANT * 6.0
    errs = [abs(t / limit - 1.0) for t in targets]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.01


def test_energy_shift_isotropic_block_scalar():
    spec = modified_n1(set=[("molecule", "alpha_aniso", 0.0)])
    s0 = energy_shift_matrix(0, spec)
    s3 = energy_shift_matrix(3, spec)
    np.testing.assert_allclose(s3, s0[0, 0] * np.eye(7), rtol=0, atol=1e-13 * abs(s0[0, 0]))


def test_energy_shift_hermitian_and_band_free():
    spec = n1_spec()
    s4, diag = energy_shift_matrix(4, spec, with_diagnostics=True)
    assert diag["converged"]
    assert np.max(np.abs(s4 - s4.conj().T)) <= 1e-14 * np.max(np.abs(s4))
    off = s4 - np.diag(np.diag(s4))
    assert np.max(np.abs(off)) <= 1e-12 * np.max(np.abs(np.diag(s4)))


def test_energy_shift_linearized_matches_sphere_quadrature():
    # oracle: the sphere-node sum of identity + (2/5) sum_a g_a T_a that the
    # closed form 4 pi * identity replaces, on the same radial quadrature
    spec = n1_spec()
    th = spec.thermal
    q_rule = make_rule("half_line", spec.numerics.quad_order_q)
    x = q_rule.nodes
    re_c = np.array([forward_scalar(th.thermal_momentum * xv, spec).real for xv in x])
    weight_q = th.thermal_momentum / math.pi**1.5 * np.sum(q_rule.weights * x**2 * re_c)
    sphere = make_rule("sphere", spec.numerics.quad_order_sphere)
    for j in (0, 3, 10):
        d = 2 * j + 1
        t = coupling_templates(j, spec.molecule)
        geom = sum(
            w * (np.eye(d) + 0.4 * np.tensordot(geometry_factors(n), t, axes=(0, 0)))
            for n, w in zip(sphere.nodes, sphere.weights)
        )
        oracle = -2.0 * math.pi * HBAR**2 * th.density / th.reduced_mass * weight_q * geom
        shift = energy_shift_matrix(j, spec)
        assert np.max(np.abs(shift - oracle)) <= 1e-13 * np.max(np.abs(oracle))


def test_delta_frequency():
    iso = modified_n1(set=[("molecule", "alpha_aniso", 0.0)])
    assert delta_frequency(5, 5, iso) == pytest.approx(0.0, abs=1e-12)
    # rigid rotor spacing: (E_2 - E_0)/hbar = 6/(2 I) with I = 10
    assert delta_frequency(2, 0, iso) == pytest.approx(0.3, rel=1e-12)
    spec = n1_spec()
    assert delta_frequency(10, 8, spec) == pytest.approx(1.9, rel=1e-6)


def test_sweep_rates_shape_and_positivity():
    spec = n1_spec()
    table = sweep_rates(range(10, 201), spec)
    assert len(table) == 191
    assert all(r.gamma > 0.0 for r in table.rows)
    assert table.monotone_beyond_peak


def test_sweep_rates_loglog_slope():
    spec = n1_spec()
    js = np.array([200, 320, 500, 800, 1000])
    table = sweep_rates(js, spec)
    signals = np.array([r.gamma_signal for r in table.rows])
    slope = np.polyfit(np.log(js), np.log(signals), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.05)


def test_sweep_rates_method_agreement():
    spec = n1_spec(quad_order_q=32, quad_order_sphere=200)
    closed = sweep_rates([4, 8, 12, 20], spec, method="closed_form")
    quad = sweep_rates([4, 8, 12, 20], spec, method="quadrature", kappa_mode="half")
    for a, b in zip(closed.rows, quad.rows):
        assert b.gamma == pytest.approx(a.gamma, rel=5e-3)


def test_sweep_rates_guards():
    spec = n1_spec(j_max=50)
    with pytest.raises(ValueError, match="exceeds basis limit"):
        sweep_rates([10, 60], spec)
    with pytest.raises(ValueError, match=">= 2"):
        sweep_rates([1, 5], spec)
    with pytest.raises(ValueError, match="unknown method"):
        sweep_rates([4], spec, method="table")


def test_rate_result_invariants():
    with pytest.raises(ValueError):
        RateResult(2, 0, -1.0, "closed_form", 0.5)
    res = RateResult(4, 2, 0.25, "closed_form", 0.5)
    assert res.gamma_signal == 0.5
    assert res.converged


def test_rate_table_csv_format_and_determinism():
    spec = n1_spec()
    table = sweep_rates([2, 3, 4], spec)
    text = rate_table_csv(table)
    again = rate_table_csv(sweep_rates([2, 3, 4], spec))
    assert text == again
    lines = text.splitlines()
    assert lines[0] == "j,j_prime,gamma,Gamma_signal,a_coeff,method"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "2" and first[1] == "0"
    assert first[5] == "closed_form"
    # 12 significant digits in scientific notation
    assert "e" in first[2] and len(first[2].split("e")[0].replace("-", "").replace(".", "")) == 12
    scaled = rate_table_csv(table, rate_scale=2.0)
    assert float(scaled.splitlines()[1].split(",")[2]) == pytest.approx(
        2.0 * float(first[2]), rel=1e-10
    )


def test_si_round_trip_rate_invariant():
    si_text = json.dumps(
        {
            "units": {"system": "SI"},
            "molecule": {
                "mass": 4.65e-26,
                "moment_of_inertia": 1.4e-46,
                "alpha_mean": 1.74e-30,
                "alpha_aniso": 6.9e-31,
            },
            "gas": {"mass": 6.65e-27, "temperature": 295.0, "density": 2.4e20, "c6": 9.6e-79},
        }
    )
    spec_si = load_config(si_text)
    spec_rt = load_config(normalized_document(spec_si))
    g_si = gamma_closed_form(30, 28, spec_si).gamma
    g_rt = gamma_closed_form(30, 28, spec_rt).gamma
    assert g_rt == pytest.approx(g_si, rel=1e-12)
    # converting the internal rate back to SI lands in a physical range (1/s)
    rate_si = g_si * spec_si.scales.rate
    assert 1e-3 < rate_si < 1e12