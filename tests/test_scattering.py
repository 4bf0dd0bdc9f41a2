import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from superrotor.mathkit import make_rule
from superrotor.params import builtin_config, load_config
from superrotor.scattering import (
    AmplitudeMatrix,
    averaged_coupling,
    circle_basis,
    coupling_matrix,
    coupling_templates,
    eikonal_strength,
    forward_amplitude_linearized,
    forward_amplitude_spectral,
    forward_scalar,
    geometry_factors,
    kappa,
    scalar_cross_section_bspace,
    scalar_cross_section_closed_form,
    schiff_amplitude_full,
    spectral_shapes,
)

# frozen 30-digit oracle: Gamma(3/5)/2 * exp(i 3 pi/10)
C_Q1_N1 = 0.437662620840218559 + 0.602390918590507079j

EZ = np.array([0.0, 0.0, 1.0])
EX = np.array([1.0, 0.0, 0.0])
N_DIAG = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)


def n1_spec():
    return load_config(builtin_config("n1"))


def eps_spec(eps, **numerics):
    # epsilon = 2 alpha_aniso / (3 alpha_mean)
    doc = json.loads(builtin_config("n1"))
    doc["molecule"]["alpha_aniso"] = 1.5 * eps
    if numerics:
        doc["numerics"] = numerics
    return load_config(json.dumps(doc))


def averaged_coupling_quadrature(j, n_prime, mol, order=64, kappa_mode="exact"):
    """Oracle of averaged_coupling: the circle-quadrature average of the
    coupling matrix over the impact directions."""
    u, v = circle_basis(n_prime)
    rule = make_rule("circle", order)
    e_b = np.cos(rule.nodes)[:, None] * u + np.sin(rule.nodes)[:, None] * v
    coup = coupling_matrix(j, n_prime, e_b, mol, kappa_mode).entries
    return np.tensordot(rule.weights, coup, axes=1) / (2.0 * math.pi)


def random_direction(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_kappa_values():
    assert kappa(0) == 0.0
    assert kappa(1) == pytest.approx(math.sqrt(0.4), rel=1e-12)
    assert kappa(10**6) == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(ValueError):
        kappa(-1)


def test_kappa_monotone_to_half():
    # kappa^2 = u/(4u-3) with u = j(j+1) falls monotonically, so kappa
    # approaches its large-j limit 1/2 from above
    vals = [kappa(j) for j in range(1, 400)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(v > 0.5 for v in vals)


def test_coupling_zero_anisotropy():
    spec = eps_spec(0.0)
    coup = coupling_matrix(4, N_DIAG, *_basis_vec(N_DIAG), mol=spec.molecule)
    assert np.max(np.abs(coup.entries)) == 0.0


def _basis_vec(n):
    from superrotor.scattering import circle_basis

    u, _ = circle_basis(n)
    return (u,)


def test_coupling_axial_example():
    # alpha_aniso/alpha_mean = 3, n' = e_z, e_b = e_x
    doc = json.loads(builtin_config("n1"))
    doc["molecule"]["alpha_aniso"] = 3.0
    spec = load_config(json.dumps(doc))
    coup = coupling_matrix(1, EZ, EX, spec.molecule)
    b = coup.entries
    assert b[1, 1] == pytest.approx(-kappa(1) / 4.0, rel=1e-12)
    assert abs(b[0, 1]) < 1e-15 and abs(b[1, 2]) < 1e-15


def test_coupling_hermitian_and_banded():
    spec = n1_spec()
    rng = np.random.default_rng(7)
    for j in (1, 2, 4, 9):
        n = random_direction(rng)
        from superrotor.scattering import circle_basis

        u, v = circle_basis(n)
        phi = rng.uniform(0, 2 * math.pi)
        e_b = math.cos(phi) * u + math.sin(phi) * v
        b = coupling_matrix(j, n, e_b, spec.molecule).entries
        assert np.max(np.abs(b - b.conj().T)) <= 1e-14 * max(1.0, np.max(np.abs(b)))
        for row in range(2 * j + 1):
            for col in range(2 * j + 1):
                if abs(row - col) > 2:
                    assert b[row, col] == 0.0


def test_coupling_stack_matches_single_calls():
    spec = n1_spec()
    rng = np.random.default_rng(5)
    for j in (0, 1, 4):
        for mode in ("exact", "half"):
            n = random_direction(rng)
            u, v = circle_basis(n)
            phis = rng.uniform(0, 2 * math.pi, size=7)
            stack = np.array([math.cos(p) * u + math.sin(p) * v for p in phis])
            coup = coupling_matrix(j, n, stack, spec.molecule, mode)
            assert coup.entries.shape == (7, 2 * j + 1, 2 * j + 1)
            for e_b, b in zip(stack, coup.entries):
                single = coupling_matrix(j, n, e_b, spec.molecule, mode).entries
                np.testing.assert_array_equal(b, single)


def test_coupling_orthogonality_guard():
    spec = n1_spec()
    tilted = np.array([0.0, math.sin(0.01), math.cos(0.01)])
    with pytest.raises(ValueError, match="orthogonal"):
        coupling_matrix(2, EZ, tilted, spec.molecule)
    # one bad row in a stack of impact directions trips the guard
    with pytest.raises(ValueError, match="orthogonal"):
        coupling_matrix(2, EZ, np.array([EX, tilted, [0.0, 1.0, 0.0]]), spec.molecule)
    # the incoming direction stays a single vector
    with pytest.raises(ValueError, match="n_prime"):
        coupling_matrix(2, np.array([EZ, EZ]), EX, spec.molecule)


def test_trajectory_kernel_constant():
    # Int dz (b^2+z^2)^-3 at b=1 equals 3 pi/8, the constant inside a(q)
    val, err = quad(lambda z: (1.0 + z * z) ** -3, -np.inf, np.inf)
    assert val == pytest.approx(3.0 * math.pi / 8.0, abs=1e-8)


def test_forward_scalar_value():
    spec = n1_spec()
    assert eikonal_strength(1.0, spec) == pytest.approx(1.0, rel=1e-14)
    assert forward_scalar(1.0, spec) == pytest.approx(C_Q1_N1, rel=1e-12)


def test_linearized_isotropic_collapses_to_scalar():
    spec = eps_spec(0.0)
    for j in (0, 3):
        amp = forward_amplitude_linearized(j, 1.0, N_DIAG, spec)
        np.testing.assert_allclose(amp.entries, C_Q1_N1 * np.eye(2 * j + 1), rtol=1e-12)


def test_linearized_axial_kills_first_band():
    spec = n1_spec()
    amp = forward_amplitude_linearized(6, 1.0, EZ, spec)
    i = np.arange(12)
    assert np.max(np.abs(amp.entries[i, i + 1])) < 1e-14
    # second band survives? no: n_+^2 = 0 on axis, so only the diagonal is left
    assert np.max(np.abs(amp.entries[i[:-1], i[:-1] + 2])) < 1e-14
    assert np.max(np.abs(np.diag(amp.entries, 0))) > 0.1


def test_linearized_backends_agree():
    spec = n1_spec()
    rng = np.random.default_rng(11)
    n = random_direction(rng)
    a1 = forward_amplitude_linearized(6, 1.3, n, spec)
    bbar = averaged_coupling_quadrature(6, n, spec.molecule, spec.numerics.quad_order_circle)
    a2 = forward_scalar(1.3, spec) * (np.eye(13) + 0.4 * bbar)
    scale = np.max(np.abs(a1.entries))
    assert np.max(np.abs(a1.entries - a2)) <= 1e-12 * scale


def circle_loop_shape(j, n_prime, spec, kappa_mode):
    """Oracle: S(n') node by node on the circle, one coupling matrix and one
    eigendecomposition of identity + B per impact direction."""
    u, v = circle_basis(n_prime)
    rule = make_rule("circle", spec.numerics.quad_order_circle)
    d = 2 * j + 1
    acc = np.zeros((d, d), dtype=complex)
    for phi, w in zip(rule.nodes, rule.weights):
        e_b = math.cos(phi) * u + math.sin(phi) * v
        coup = coupling_matrix(j, n_prime, e_b, spec.molecule, kappa_mode)
        lam, vec = np.linalg.eigh(np.eye(d) + coup.entries)
        acc += w * ((vec * lam**0.4) @ vec.conj().T)
    return acc / (2.0 * math.pi)


def test_spectral_shapes_match_circle_loop():
    # alpha_aniso / alpha_mean = 1 keeps identity + B positive while the
    # fractional power is far from its linearization
    spec = eps_spec(2.0 / 3.0)
    rng = np.random.default_rng(13)
    nodes = np.array([EZ, EX, N_DIAG] + [random_direction(rng) for _ in range(3)])
    for j in (0, 1, 3, 6):
        for mode in ("exact", "half"):
            shapes = spectral_shapes(j, nodes, spec, mode)
            assert shapes.shape == (len(nodes), 2 * j + 1, 2 * j + 1)
            for n, shape in zip(nodes, shapes):
                oracle = circle_loop_shape(j, n, spec, mode)
                assert np.max(np.abs(shape - oracle)) <= 1e-13 * np.max(np.abs(oracle))
            amp = forward_amplitude_spectral(j, 1.3, nodes[2], spec, mode).entries
            np.testing.assert_array_equal(amp, forward_scalar(1.3, spec) * shapes[2])


def test_forward_is_scalar_times_hermitian():
    spec = n1_spec()
    amp = forward_amplitude_linearized(4, 0.8, N_DIAG, spec)
    h = amp.entries / forward_scalar(0.8, spec)
    assert np.max(np.abs(h - h.conj().T)) <= 1e-12


def test_forward_q_scaling():
    spec = n1_spec()
    f1 = forward_amplitude_linearized(5, 1.0, N_DIAG, spec).entries
    f2 = forward_amplitude_linearized(5, 2.0, N_DIAG, spec).entries
    mask = np.abs(f1) > 1e-14
    np.testing.assert_allclose(f2[mask] / f1[mask], 2**0.6, rtol=1e-10)


def test_spectral_linearization_limit():
    spec = eps_spec(1e-6)
    lin = forward_amplitude_linearized(3, 1.0, N_DIAG, spec).entries
    spc = forward_amplitude_spectral(3, 1.0, N_DIAG, spec).entries
    assert np.max(np.abs(spc - lin)) <= 1e-9 * np.max(np.abs(lin))


def test_spectral_second_order_scaling():
    devs = {}
    for eps in (0.01, 0.02, 0.04):
        spec = eps_spec(eps)
        lin = forward_amplitude_linearized(2, 1.0, N_DIAG, spec).entries
        spc = forward_amplitude_spectral(2, 1.0, N_DIAG, spec).entries
        devs[eps] = np.max(np.abs(spc - lin))
    assert devs[0.04] / devs[0.02] == pytest.approx(4.0, rel=0.2)
    assert devs[0.02] / devs[0.01] == pytest.approx(4.0, rel=0.2)


def test_spectral_branch_violation_raises():
    spec = n1_spec()  # anisotropy ratio 30 pushes eigenvalues far below -1
    with pytest.raises(ValueError, match="anisotropy too large"):
        forward_amplitude_spectral(4, 1.0, N_DIAG, spec)


def test_averaged_coupling_matches_quadrature():
    spec = n1_spec()
    rng = np.random.default_rng(3)
    for j in (1, 4):
        n = random_direction(rng)
        analytic = averaged_coupling(j, n, spec.molecule)
        numeric = averaged_coupling_quadrature(j, n, spec.molecule, order=64)
        assert np.max(np.abs(analytic - numeric)) <= 1e-12 * max(1.0, np.max(np.abs(analytic)))
        assert np.max(np.abs(analytic - analytic.conj().T)) <= 1e-13


def test_templates_pair_with_geometry():
    spec = n1_spec()
    t = coupling_templates(5, spec.molecule)
    assert t.shape == (5, 11, 11)
    np.testing.assert_array_equal(t[2], t[1].T)
    np.testing.assert_array_equal(t[4], t[3].T)
    g = geometry_factors(N_DIAG)
    assert g[2] == np.conj(g[1]) and g[4] == np.conj(g[3])
    with pytest.raises(ValueError, match="template_bands"):
        coupling_templates(-1, spec.molecule)


def test_schiff_isotropic_forward_matches_closed_form():
    spec = eps_spec(0.0)
    amp = schiff_amplitude_full(0, 1.0, EZ, EZ, spec)
    assert amp.converged
    val = amp.entries[0, 0]
    assert val.imag == pytest.approx(C_Q1_N1.imag, rel=0.01)
    assert val.real == pytest.approx(C_Q1_N1.real, rel=0.01)


def test_schiff_optical_theorem():
    spec = eps_spec(0.0)
    q = 1.0
    amp = schiff_amplitude_full(0, q, EZ, EZ, spec)
    sigma_opt = 4.0 * math.pi / q * amp.entries[0, 0].imag
    sigma_b = scalar_cross_section_bspace(q, spec)
    sigma_closed = scalar_cross_section_closed_form(q, spec)
    assert sigma_opt == pytest.approx(sigma_b, rel=0.02)
    assert sigma_b == pytest.approx(sigma_closed, rel=0.005)


def test_schiff_off_forward_runs_and_flags():
    spec = eps_spec(0.0)
    tilt = np.array([math.sin(0.05), 0.0, math.cos(0.05)])
    amp = schiff_amplitude_full(0, 1.0, tilt, EZ, spec)
    assert isinstance(amp, AmplitudeMatrix)
    assert amp.converged
    # off-forward amplitude is smaller than forward for this potential
    fwd = schiff_amplitude_full(0, 1.0, EZ, EZ, spec)
    assert abs(amp.entries[0, 0]) < abs(fwd.entries[0, 0])


def test_schiff_matches_spectral_forward():
    spec = eps_spec(0.05)
    full = schiff_amplitude_full(2, 1.0, N_DIAG, N_DIAG, spec)
    fwd = forward_amplitude_spectral(2, 1.0, N_DIAG, spec)
    scale = np.max(np.abs(fwd.entries))
    assert np.max(np.abs(full.entries - fwd.entries)) <= 0.01 * scale
