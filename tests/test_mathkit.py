import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import lpmv

from superrotor import lindblad, rates, scattering
from superrotor.mathkit import (
    ORDER_DOUBLING_TOL,
    assoc_legendre2,
    gamma_real,
    make_rule,
    order_doubling_drift,
)
from superrotor.params import builtin_config, load_config

# Frozen from a 30-digit mpmath run kept outside the package.
GAMMA_3_5 = 1.48919224881281710239433338832
GAMMA_13_5 = 1.42962455886030441829856005279
HALF_GAUSS_MOMENT_21_5 = 0.714812279430152209  # Int_0^inf q^(21/5) e^{-q^2} dq


def test_legendre_values():
    assert assoc_legendre2(0, 0.5) == pytest.approx(-0.125, abs=1e-15)
    assert assoc_legendre2(0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert assoc_legendre2(1, 0.6) == pytest.approx(1.44, abs=1e-14)
    assert assoc_legendre2(2, 0.6) == pytest.approx(1.92, abs=1e-14)
    assert assoc_legendre2(2, -1.0) == pytest.approx(0.0, abs=1e-15)


def test_legendre_array_input():
    x = np.linspace(-1, 1, 7)
    out = assoc_legendre2(0, x)
    assert out.shape == x.shape
    np.testing.assert_allclose(out, (3 * x**2 - 1) / 2, atol=1e-15)


def test_legendre_domain_errors():
    with pytest.raises(ValueError):
        assoc_legendre2(0, 1.0001)
    with pytest.raises(ValueError):
        assoc_legendre2(1, np.array([0.0, -1.2]))
    with pytest.raises(ValueError):
        assoc_legendre2(3, 0.5)


def test_legendre_phase_convention_unobservable():
    # scipy's lpmv carries the Condon-Shortley phase; squares must agree.
    x = np.linspace(-0.999, 0.999, 41)
    for k in (0, 1, 2):
        ours = assoc_legendre2(k, x)
        ref = lpmv(k, 2, x)
        np.testing.assert_allclose(ours**2, ref**2, rtol=1e-13, atol=1e-13)


def test_gamma_values():
    assert gamma_real(0.6) == pytest.approx(GAMMA_3_5, rel=1e-14)
    assert gamma_real(2.6) == pytest.approx(GAMMA_13_5, rel=1e-14)
    assert gamma_real(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert gamma_real(5) == pytest.approx(24.0, rel=1e-15)


def test_gamma_domain_error():
    with pytest.raises(ValueError):
        gamma_real(0.0)
    with pytest.raises(ValueError):
        gamma_real(-1.3)


@given(st.floats(min_value=0.1, max_value=20.0))
def test_gamma_recurrence(x):
    assert gamma_real(x + 1.0) == pytest.approx(x * gamma_real(x), rel=1e-12)


def test_interval_rule_exactness():
    rule = make_rule("interval", 4)
    assert np.sum(rule.weights) == pytest.approx(2.0, abs=1e-14)
    # order-4 Gauss is exact through degree 7
    assert np.sum(rule.weights * rule.nodes**6) == pytest.approx(2.0 / 7.0, abs=1e-14)
    assert np.sum(rule.weights * rule.nodes**3) == pytest.approx(0.0, abs=1e-14)


def test_half_line_rule_moments():
    rule = make_rule("half_line", 48)
    q, w = rule.nodes, rule.weights
    assert np.sum(w) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-13)
    assert np.sum(w * q**2) == pytest.approx(math.sqrt(math.pi) / 4, rel=1e-13)
    # fractional moment driving the rate integrals
    got = np.sum(w * q ** (21.0 / 5.0))
    assert got == pytest.approx(HALF_GAUSS_MOMENT_21_5, rel=1e-8)


def test_half_line_rule_converges_with_order():
    err = []
    for order in (16, 32, 48):
        rule = make_rule("half_line", order)
        got = np.sum(rule.weights * rule.nodes ** (21.0 / 5.0))
        err.append(abs(got / HALF_GAUSS_MOMENT_21_5 - 1.0))
    assert err[2] < err[1] < err[0]
    assert err[2] < 1e-12


def test_circle_rule():
    rule = make_rule("circle", 16)
    phi, w = rule.nodes, rule.weights
    assert np.sum(w) == pytest.approx(2 * math.pi, rel=1e-14)
    assert np.sum(w * np.cos(phi) ** 2) == pytest.approx(math.pi, rel=1e-12)
    # uniform rule kills all pure harmonics below the node count
    for k in range(1, 16):
        assert abs(np.sum(w * np.exp(1j * k * phi))) < 1e-12


def test_sphere_rule():
    rule = make_rule("sphere", 302)
    n, w = rule.nodes, rule.weights
    assert len(rule) >= 302
    assert n.shape == (len(w), 3)
    np.testing.assert_allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-14)
    assert np.sum(w) == pytest.approx(4 * math.pi, rel=1e-13)
    assert np.sum(w * n[:, 2] ** 2) == pytest.approx(4 * math.pi / 3, rel=1e-12)
    p2 = assoc_legendre2(0, n[:, 2])
    assert np.sum(w * p2**2) == pytest.approx(4 * math.pi / 5, rel=1e-12)
    # odd integrands vanish by symmetry of the product rule
    assert abs(np.sum(w * n[:, 0] * n[:, 2])) < 1e-13


def test_ring_rule():
    # the polar nodes of the sphere rule of the same order, at phi = 0, each
    # carrying its full azimuth
    for order in (30, 302):
        ring, sphere = make_rule("ring", order), make_rule("sphere", order)
        n_phi = 2 * len(ring)
        assert len(sphere) == len(ring) * n_phi
        np.testing.assert_allclose(ring.nodes, sphere.nodes[::n_phi], atol=1e-15)
        np.testing.assert_allclose(
            ring.weights, sphere.weights.reshape(len(ring), n_phi).sum(axis=1), rtol=1e-13
        )
    n, w = ring.nodes, ring.weights
    assert np.all(n[:, 1] == 0.0)
    assert np.sum(w) == pytest.approx(4 * math.pi, rel=1e-13)
    p2 = assoc_legendre2(0, n[:, 2])
    assert np.sum(w * p2**2) == pytest.approx(4 * math.pi / 5, rel=1e-12)


def test_rule_validation():
    with pytest.raises(ValueError):
        make_rule("segment", 8)
    with pytest.raises(ValueError):
        make_rule("interval", 3)


def test_make_rule_shared_read_only():
    # one rule per (domain, order), shared by every caller: its arrays must
    # be read-only so that no caller can corrupt another's quadrature
    for domain, order in (("half_line", 48), ("ring", 302), ("sphere", 30), ("circle", 16)):
        first, again = make_rule(domain, order), make_rule(domain, float(order))
        np.testing.assert_array_equal(first.nodes, again.nodes)
        np.testing.assert_array_equal(first.weights, again.weights)
        with pytest.raises(ValueError):
            first.nodes[0] = 0.0
        with pytest.raises(ValueError):
            first.weights[0] = 0.0
    # the arguments are checked on every call, not only on the first
    for _ in range(2):
        with pytest.raises(ValueError):
            make_rule("segment", 8)
        with pytest.raises(ValueError):
            make_rule("interval", 3)


def test_order_doubling_drift_rule():
    drift, converged = order_doubling_drift(2.0, 2.01)
    assert drift == pytest.approx(0.01 / 2.01, rel=1e-12) and not converged
    assert order_doubling_drift(0.0, 0.0) == (0.0, True)
    drift, converged = order_doubling_drift(np.ones(3), np.ones(3), 1.0005 * np.ones(3))
    assert drift == pytest.approx(0.0005 / 1.0005, rel=1e-12) and converged
    # a non-finite value anywhere is never converged
    for fine in ((1.0, np.nan), (np.nan, 1.0), (1.0, np.inf)):
        drift, converged = order_doubling_drift(1.0, *fine)
        assert math.isnan(drift) and not converged


def _n1(alpha_aniso=None):
    doc = json.loads(builtin_config("n1"))
    if alpha_aniso is not None:
        doc["molecule"]["alpha_aniso"] = alpha_aniso
    return load_config(json.dumps(doc))


def _gamma_site():
    res = rates.gamma_numeric(10, 8, _n1())
    return res.converged, res.metadata["order_doubling_drift"]


def _shift_site():
    _, diag = rates.energy_shift_matrix(4, _n1(), with_diagnostics=True)
    return diag["converged"], diag["order_doubling_drift"]


def _dissipator_site():
    dset = lindblad.build_dissipator(_n1(), lindblad.BasisLayout(2, 4))
    return dset.converged, dset.metadata["order_doubling_drift"]


def _schiff_site():
    ez = np.array([0.0, 0.0, 1.0])
    return scattering.schiff_amplitude_full(0, 1.0, ez, ez, _n1(alpha_aniso=0.0)).converged, None


@pytest.mark.parametrize(
    "module,site",
    [
        (rates, _gamma_site),
        (rates, _shift_site),
        (lindblad, _dissipator_site),
        (scattering, _schiff_site),
    ],
    ids=["gamma_numeric", "energy_shift_matrix", "build_dissipator", "schiff_amplitude_full"],
)
def test_order_doubling_sites_share_one_rule(monkeypatch, module, site):
    seen = []

    def spy(*values):
        seen.append(order_doubling_drift(*values))
        return seen[-1]

    monkeypatch.setattr(module, "order_doubling_drift", spy)
    converged, reported = site()
    assert len(seen) == 1
    drift, flag = seen[0]
    assert type(drift) is float and type(converged) is bool
    assert converged == flag == (drift <= ORDER_DOUBLING_TOL)
    if reported is not None:
        assert type(reported) is float and reported == drift
