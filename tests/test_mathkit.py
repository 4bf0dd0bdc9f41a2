import json
import math
import pathlib

import mpmath
import numpy as np
import pytest
from scipy.special import lpmv

from amplitude_oracles import product_rule
from superrotor import lindblad, mathkit, rates, scattering
from superrotor.mathkit import (
    ORDER_DOUBLING_TOL,
    gauss_legendre,
    make_rule,
    order_doubling_drift,
)
from superrotor.rates import assoc_legendre2
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
    # the closed forms take Gamma(3/5) and Gamma(13/5) from math.gamma
    assert math.gamma(0.6) == pytest.approx(GAMMA_3_5, rel=1e-14)
    assert math.gamma(2.6) == pytest.approx(GAMMA_13_5, rel=1e-14)
    assert math.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert math.gamma(5) == pytest.approx(24.0, rel=1e-15)


GAUSS_ORDERS = (4, 8, 13, 16, 18, 48, 96)


@pytest.mark.parametrize("n", GAUSS_ORDERS)
def test_gauss_legendre_matches_mpmath(n):
    # 30-digit Golub-Welsch oracle: nodes to 1e-15, weights to 5e-13 relative
    with mpmath.workdps(30):
        x_ref, w_ref = mpmath.mp.gauss_quadrature(n, "legendre")
        ref = sorted(zip(x_ref, w_ref))
    x, w = gauss_legendre(n)
    assert list(x) == sorted(x) and len(x) == len(w) == n
    assert max(abs(xi - float(xr)) for xi, (xr, _) in zip(x, ref)) <= 1e-15
    assert max(abs(float(wi / wr - 1)) for wi, (_, wr) in zip(w, ref)) <= 5e-13


@pytest.mark.parametrize("n", GAUSS_ORDERS)
def test_gauss_legendre_matches_numpy(n):
    x, w = gauss_legendre(n)
    x_np, w_np = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(x, x_np, rtol=2e-12, atol=0)
    np.testing.assert_allclose(w, w_np, rtol=2e-12, atol=0)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 13, 18, 48, 96))
def test_gauss_legendre_exact_through_degree_2n_minus_1(n):
    x, w = gauss_legendre(n)
    for k in range(2 * n):
        want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        got = math.fsum(wi * xi**k for xi, wi in zip(x, w))
        assert abs(got - want) <= 1e-14, (n, k)
    # x^(2n) is missed by exactly the Gauss remainder
    # 2^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^2)
    got = math.fsum(wi * xi ** (2 * n) for xi, wi in zip(x, w))
    miss = 2 ** (2 * n + 1) * math.factorial(n) ** 4 / (
        (2 * n + 1) * math.factorial(2 * n) ** 2
    )
    assert abs(2.0 / (2 * n + 1) - got - miss) <= 1e-14


def test_one_gauss_legendre_rule_in_src():
    src = pathlib.Path(mathkit.__file__).parent
    assert not [p.name for p in src.glob("*.py") if "leggauss" in p.read_text()]
    assert make_rule("interval", 13).node_floats == gauss_legendre(13)[0]
    assert make_rule("interval", 13).weight_floats == gauss_legendre(13)[1]


def test_rule_arrays_are_its_floats():
    # array callers and the scalar rate route read the same values
    for domain, order in (("interval", 8), ("half_line", 48), ("ring", 302), ("circle", 16)):
        rule = make_rule(domain, order)
        assert rule.nodes.tolist() == [list(n) if isinstance(n, tuple) else n
                                       for n in rule.node_floats]
        assert rule.weights.tolist() == list(rule.weight_floats)
        assert len(rule) == len(rule.weight_floats) == len(rule.nodes)


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
    # the product sphere rule of the test oracle, against which the direction
    # averages are checked
    n, w = product_rule(302)
    assert len(w) >= 302
    assert n.shape == (len(w), 3)
    np.testing.assert_allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-14)
    assert np.sum(w) == pytest.approx(4 * math.pi, rel=1e-13)
    assert np.sum(w * n[:, 2] ** 2) == pytest.approx(4 * math.pi / 3, rel=1e-12)
    p2 = assoc_legendre2(0, n[:, 2])
    assert np.sum(w * p2**2) == pytest.approx(4 * math.pi / 5, rel=1e-12)
    # odd integrands vanish by symmetry of the product rule
    assert abs(np.sum(w * n[:, 0] * n[:, 2])) < 1e-13


def test_ring_rule():
    # the polar nodes of the product sphere rule of the same order, at
    # phi = 0, each carrying its full azimuth
    for order in (30, 302):
        ring, (nodes, weights) = make_rule("ring", order), product_rule(order)
        n_phi = 2 * len(ring)
        assert len(weights) == len(ring) * n_phi
        np.testing.assert_allclose(ring.nodes, nodes[::n_phi], atol=1e-15)
        np.testing.assert_allclose(
            ring.weights, weights.reshape(len(ring), n_phi).sum(axis=1), rtol=1e-13
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
    for domain, order in (("half_line", 48), ("ring", 302), ("circle", 16)):
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
    _, converged = scattering.schiff_amplitude_full(0, 1.0, ez, _n1(alpha_aniso=0.0))
    return converged, None


@pytest.mark.parametrize(
    "module,site",
    [
        (mathkit, _gamma_site),
        (mathkit, _shift_site),
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


def test_gauss_legendre_takes_each_weight_from_its_newton_steps(monkeypatch):
    # P_n' comes from the last Newton evaluation of each root: no further
    # recurrence per weight (82 and 154 evaluations with one)
    calls = []
    newton = mathkit._legendre_newton
    monkeypatch.setattr(mathkit, "_legendre_newton", lambda n, x: calls.append(n) or newton(n, x))
    for n, want in ((48, 58), (96, 106)):
        calls.clear()
        gauss_legendre.__wrapped__(n)
        assert len(calls) == want, n
