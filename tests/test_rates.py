import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amplitude_oracles import coupling_templates, product_rule
from superrotor import rates
from superrotor.mathkit import make_rule
from superrotor.params import HBAR, builtin_config, load_config, normalized_document
from superrotor.rates import (
    RateResult,
    a_coefficient,
    energy_shift_matrix,
    gamma_closed_form,
    gamma_numeric,
    rate_table_csv,
    sweep_rates,
)
from superrotor.scattering import forward_scalar, geometry_factors, spectral_shapes

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
    gamma = gamma_numeric(10, 8, spec).gamma
    # +0.0: a -0.0 would print as "-0" in validate and as -0.0e+00 in a CSV
    assert gamma == 0.0 and math.copysign(1.0, gamma) == 1.0


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


def sphere_bracket(j, jp, spec, backend, kappa, nodes):
    """The rate bracket of the pair (j, jp) at the directions nodes (n, 3):
    the squared corner-column differences of the q-independent amplitude
    shapes, the linearized corner read off the full (5, d, d) templates."""
    if backend == "spectral":
        mj, mp = (spectral_shapes(jv, nodes, spec, kappa) for jv in (j, jp))
        return (
            np.abs(mj[:, -1, -1] - mp[:, -1, -1]) ** 2
            + np.sum(np.abs(mj[:, :-1, -1]) ** 2, axis=1)
            + np.sum(np.abs(mp[:, :-1, -1]) ** 2, axis=1)
        )

    def corner(jv):
        t = coupling_templates(jv, spec.molecule, kappa)
        top = 2 * jv
        if jv == 0:
            return t[0][0, 0], 0.0, 0.0
        return t[0][top, top], t[1][top - 1, top], t[3][top - 2, top]

    (t0j, b1j, b2j), (t0p, b1p, b2p) = corner(j), corner(jp)
    nz = nodes[:, 2]
    n_plus_sq = nodes[:, 0] ** 2 + nodes[:, 1] ** 2
    p2 = 1.5 * nz**2 - 0.5
    return 0.16 * (
        (t0j - t0p) ** 2 * p2**2
        + (b1j**2 + b1p**2) * nz**2 * n_plus_sq
        + (b2j**2 + b2p**2) * n_plus_sq**2
    )


@pytest.mark.parametrize("kappa", ["exact", "half"])
@pytest.mark.parametrize("backend", ["linearized", "spectral"])
def test_gamma_numeric_rings_match_sphere_rule(backend, kappa):
    # oracle: the bracket summed over every node of the sphere rule.  The
    # spectral rings carry the same integral because its bracket is
    # invariant under rotations about z; the linearized rate reads the
    # bracket's sphere moments, which this rule integrates exactly
    doc = json.loads(builtin_config("n1"))
    doc["molecule"]["alpha_aniso"] = 0.06
    doc["numerics"] = {"quad_order_sphere": 30, "quad_order_circle": 32}
    spec = load_config(json.dumps(doc))
    nodes, weights = product_rule(spec.numerics.quad_order_sphere)
    bracket = sphere_bracket(4, 2, spec, backend, kappa, nodes)
    angular = 2.0 * math.pi * np.sum(weights * bracket)
    radial = rates.thermal_q_integral(
        spec, spec.numerics.quad_order_q, 3, lambda c: np.abs(c) ** 2
    )
    oracle = spec.gas.density / (2.0 * spec.reduced_mass) * radial * angular
    got = gamma_numeric(4, 2, spec, amplitude_backend=backend, kappa_mode=kappa).gamma
    assert abs(got - oracle) <= 1e-12 * oracle


@pytest.mark.parametrize("kappa", ["exact", "half"])
def test_linearized_gamma_ignores_the_sphere_order(kappa):
    # the linearized bracket's sphere moments are exact, so no sphere order
    # moves a linearized rate or flags it, not even two Gauss nodes (order 4)
    for j in (2, 3, 10, 40, 100):
        rows = [
            gamma_numeric(j, j - 2, n1_spec(quad_order_sphere=order), kappa_mode=kappa)
            for order in (4, 8, 30, 302)
        ]
        for row in rows:
            assert abs(row.gamma - rows[-1].gamma) <= 1e-15 * rows[-1].gamma
            assert row.converged


@pytest.mark.parametrize("kappa", ["exact", "half"])
def test_chain_row_population_chain_conserves_population(kappa):
    # on the population chain (j, j, 0) the generator is symmetric, so each
    # column sums as its row: diagonal, both bands and the bands of the rows
    # above; the dissipator moves population within block j and loses none
    mol = n1_spec().molecule
    none = (0.0, 0.0, 0.0)
    for j in (0, 1, 2, 5, 40, 200):
        rows = {m: rates.chain_row(j, j, 0, m, mol, kappa) for m in range(-j, j + 1)}
        scale = max(abs(row[0]) for row in rows.values())
        for m, (diag, band1, band2) in rows.items():
            above = rows.get(m - 1, none)[1] + rows.get(m - 2, none)[2]
            assert abs(diag + band1 + band2 + above) <= 1e-14 * scale, (j, m)
        # no band reaches past the chain's end
        assert rows[j][1:] == (0.0, 0.0)
        assert j == 0 or rows[j - 1][2] == 0.0


@pytest.mark.parametrize("kappa", ["exact", "half"])
def test_chain_row_of_the_conjugate_chain_is_the_same_row(kappa):
    # coherence (m', m) of block (j', j) is the conjugate of (m, m') of
    # (j, j'): row m of chain (j, j', Q) is row m - Q of chain (j', j, -Q)
    mol = n1_spec().molecule
    for j, jp, shifts in ((10, 8, range(-10, 11)), (3, 0, range(-5, 6)),
                          (40, 37, range(-39, 40)), (1000, 998, (-1000, -3, 0, 2, 1000))):
        for shift in shifts:
            for m in range(max(-j, shift - jp), min(j, jp + shift) + 1):
                row = rates.chain_row(j, jp, shift, m, mol, kappa)
                swapped = rates.chain_row(jp, j, -shift, m - shift, mol, kappa)
                assert swapped == pytest.approx(row, rel=1e-15, abs=0.0), (j, jp, shift, m)


def per_pair_oracle(j, jp, spec, backend, kappa):
    # the per-pair quadrature the shared sweep route replaces: both radial
    # brackets and both ring sums recomputed for this pair alone
    def radial(order):
        return rates.thermal_q_integral(spec, order, 3, lambda c: np.abs(c) ** 2)

    def angular(order):
        ring = make_rule("ring", order)
        bracket = sphere_bracket(j, jp, spec, backend, kappa, ring.nodes)
        return 2.0 * math.pi * np.sum(ring.weights * bracket)

    nq, ns = spec.numerics.quad_order_q, spec.numerics.quad_order_sphere
    pref = spec.gas.density / (2.0 * spec.reduced_mass)
    base = pref * radial(nq) * angular(ns)
    fine = (pref * radial(2 * nq) * angular(ns), pref * radial(nq) * angular(2 * ns))
    drift = max(abs(f - base) for f in fine) / max(abs(base), *(abs(f) for f in fine))
    return base, drift, drift <= 1e-3


@pytest.mark.parametrize(
    "backend,kappa,js",
    [
        ("linearized", "exact", [2, 3, 10, 37, 100]),
        ("linearized", "half", [2, 3, 10, 37, 100]),
        ("spectral", "exact", [2, 3, 4, 5]),
        ("spectral", "half", [2, 3, 4, 5]),
    ],
)
def test_sweep_quadrature_matches_per_pair_oracle(backend, kappa, js):
    spec = n1_spec() if backend == "linearized" else modified_n1(
        set=[("molecule", "alpha_aniso", 0.03)]
    )
    rows = sweep_rates(js, spec, method="quadrature", amplitude_backend=backend,
                       kappa_mode=kappa)
    for j, row in zip(js, rows):
        gamma, drift, converged = per_pair_oracle(j, j - 2, spec, backend, kappa)
        single = gamma_numeric(j, j - 2, spec, amplitude_backend=backend, kappa_mode=kappa)
        for res in (row, single):
            assert (res.j, res.j_prime) == (j, j - 2)
            assert abs(res.gamma - gamma) <= 1e-14 * gamma
            assert abs(res.metadata["order_doubling_drift"] - drift) <= 1e-12
            assert res.converged == converged


def test_quadrature_sweep_radial_once(monkeypatch):
    # the radial bracket does not depend on j: a sweep evaluates c(q) once
    # per radial node of the base and the doubled order, not once per row
    spec = n1_spec()
    calls = []

    def counted(q, spec):
        calls.append(q)
        return forward_scalar(q, spec)

    monkeypatch.setattr(rates, "forward_scalar", counted)
    rows = sweep_rates(range(2, 101), spec, method="quadrature")
    assert len(rows) == 99
    assert spec.numerics.quad_order_q == 48
    assert 0 < len(calls) <= 48 + 96


def test_gamma_numeric_large_j_memory():
    # the corner coefficients are read from O(d) band vectors, never from
    # the (5, d, d) templates (153 MB at j = 1000)
    spec = n1_spec()
    tracemalloc.start()
    try:
        res = gamma_numeric(1000, 998, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged and res.gamma > 0.0
    assert peak < 8 * 2**20


def test_closed_form_sweep_rows_match_scalars():
    # a closed-form sweep row is the single-pair closed-form rate exactly
    spec = n1_spec()
    for row in sweep_rates(range(2, 40), spec):
        single = gamma_closed_form(row.j, row.j_prime, spec)
        assert (row.gamma, row.a_coefficient) == (single.gamma, single.a_coefficient)


def test_gamma_numeric_validation():
    spec = n1_spec()
    with pytest.raises(ValueError):
        gamma_numeric(-2, 0, spec)
    with pytest.raises(ValueError):
        gamma_numeric(2, 0, spec, amplitude_backend="brute")


def test_signal_decay_rate():
    # the alignment-signal rate Gamma_j is gamma_signal of the pair (j, j - 2)
    spec = n1_spec()
    res = gamma_closed_form(10, 8, spec)
    assert res.gamma_signal == pytest.approx(GAMMA_SIGNAL_10_N1, rel=1e-12)
    with pytest.raises(ValueError):
        gamma_closed_form(1, -1, spec)


def test_signal_rate_large_j_limit():
    spec = n1_spec()
    targets = [gamma_closed_form(j, j - 2, spec).gamma_signal * j for j in (100, 300, 900)]
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
    q_rule = make_rule("half_line", spec.numerics.quad_order_q)
    x = q_rule.nodes
    re_c = np.array([forward_scalar(spec.thermal_momentum * xv, spec).real for xv in x])
    weight_q = spec.thermal_momentum / math.pi**1.5 * np.sum(q_rule.weights * x**2 * re_c)
    sphere = product_rule(spec.numerics.quad_order_sphere)
    for j in (0, 3, 10):
        d = 2 * j + 1
        t = coupling_templates(j, spec.molecule)
        geom = sum(
            w * (np.eye(d) + 0.4 * np.tensordot(geometry_factors(n), t, axes=(0, 0)))
            for n, w in zip(*sphere)
        )
        pref = -2.0 * math.pi * HBAR**2 * spec.gas.density / spec.reduced_mass
        oracle = pref * weight_q * geom
        shift = energy_shift_matrix(j, spec)
        assert np.max(np.abs(shift - oracle)) <= 1e-13 * np.max(np.abs(oracle))


def test_delta_frequency():
    # the free-rotor coherence frequency (E_j - E_j')/hbar
    def delta_frequency(j, j_prime, spec):
        mol = spec.molecule
        return (mol.rotational_energy(j) - mol.rotational_energy(j_prime)) / HBAR

    iso = modified_n1(set=[("molecule", "alpha_aniso", 0.0)])
    assert delta_frequency(5, 5, iso) == pytest.approx(0.0, abs=1e-12)
    # rigid rotor spacing: (E_2 - E_0)/hbar = 6/(2 I) with I = 10
    assert delta_frequency(2, 0, iso) == pytest.approx(0.3, rel=1e-12)
    spec = n1_spec()
    assert delta_frequency(10, 8, spec) == pytest.approx(1.9, rel=1e-6)


def monotone_beyond_peak(rows):
    """True when Gamma_j decreases monotonically past its maximum row."""
    gammas = [r.gamma for r in rows]
    tail = gammas[int(np.argmax(gammas)) :]
    return all(b < a for a, b in zip(tail, tail[1:]))


def test_sweep_rates_shape_and_positivity():
    spec = n1_spec()
    rows = sweep_rates(range(10, 201), spec)
    assert len(rows) == 191
    assert all(r.gamma > 0.0 for r in rows)
    assert monotone_beyond_peak(rows)


def test_sweep_rates_loglog_slope():
    spec = n1_spec()
    js = np.array([200, 320, 500, 800, 1000])
    signals = np.array([r.gamma_signal for r in sweep_rates(js, spec)])
    slope = np.polyfit(np.log(js), np.log(signals), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.05)


def test_sweep_rates_method_agreement():
    spec = n1_spec(quad_order_q=32, quad_order_sphere=200)
    closed = sweep_rates([4, 8, 12, 20], spec, method="closed_form")
    quad = sweep_rates([4, 8, 12, 20], spec, method="quadrature", kappa_mode="half")
    for a, b in zip(closed, quad):
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


def test_rate_records_hash_by_value():
    spec = n1_spec()
    first, second = gamma_numeric(10, 8, spec), gamma_numeric(10, 8, spec)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert hash(gamma_closed_form(10, 8, spec)) == hash(gamma_closed_form(10, 8, spec))
    for method in ("closed_form", "quadrature"):
        rows = sweep_rates(range(2, 30), spec, method=method)
        assert len(set(rows)) == len(rows) == 28
        assert set(rows) == set(sweep_rates(range(2, 30), spec, method=method))


def test_rate_table_csv_format_and_determinism():
    spec = n1_spec()
    rows = sweep_rates([2, 3, 4], spec)
    text = rate_table_csv(rows)
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
    scaled = rate_table_csv(rows, rate_scale=2.0)
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