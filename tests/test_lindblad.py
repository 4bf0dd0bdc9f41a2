import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from superrotor import lindblad as lb
from superrotor import scattering
from superrotor.mathkit import make_rule
from superrotor.params import HBAR, builtin_config, load_config
from superrotor.rates import energy_shift_matrix, gamma_closed_form, gamma_numeric


def n1_spec(**changes):
    doc = json.loads(builtin_config("n1"))
    for section, key, value in changes.get("set", []):
        doc[section][key] = value
    if "numerics" in changes:
        doc["numerics"] = changes["numerics"]
    return load_config(json.dumps(doc))


def spectral_spec(**changes):
    # small anisotropy keeps the fractional-power branch well inside its
    # domain; reduced sphere and circle orders keep the node stack cheap
    return n1_spec(
        set=[("molecule", "alpha_aniso", 0.06)] + list(changes.get("set", [])),
        numerics={"quad_order_sphere": 30, "quad_order_circle": 32},
    )


def backend_cases(**changes):
    return [("linearized", n1_spec(**changes)), ("spectral", spectral_spec(**changes))]


def random_state(layout, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(layout.dim, layout.dim)) + 1j * rng.normal(
        size=(layout.dim, layout.dim)
    )
    m = m @ m.conj().T
    return lb.RotorState.from_matrix(layout, m / np.trace(m).real)


def product_rule(spec, n_phi):
    """(nodes, weights) of the rings of the spec's sphere rule times n_phi
    uniform azimuths."""
    ring = make_rule("ring", spec.numerics.quad_order_sphere)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    st, ct = ring.nodes[:, 0:1], ring.nodes[:, 2:3]
    nodes = np.stack([st * np.cos(phi), st * np.sin(phi), ct + 0.0 * phi], axis=-1)
    return nodes.reshape(-1, 3), np.repeat(ring.weights / n_phi, n_phi)


def literal_jumps(spec, layout, backend, sphere=None):
    """Literal (weight, jump) pairs of the quadrature-discretized (q, n') family.

    Each jump is the dense block-diagonal forward amplitude F(q_i n_k) of
    the public scattering routines, with weight
    2 pi (n_g/mu) (q_th/pi^1.5) w_i x_i^3 W_k.  Since F(q, n) = c(q) S(n)
    (test_forward_is_scalar_times_hermitian), S is evaluated once per
    sphere node at q_th and rescaled by c(q_i) at each radial node.  The
    sphere nodes and weights default to the spec's sphere rule.
    """
    amplitude = {
        "linearized": scattering.forward_amplitude_linearized,
        "spectral": scattering.forward_amplitude_spectral,
    }[backend]
    q_th = spec.thermal.thermal_momentum
    c_ref = scattering.forward_scalar(q_th, spec)
    radial = make_rule("half_line", spec.numerics.quad_order_q)
    if sphere is None:
        rule = make_rule("sphere", spec.numerics.quad_order_sphere)
        sphere = rule.nodes, rule.weights
    pref = 2.0 * math.pi * spec.gas.density / spec.thermal.reduced_mass * q_th / math.pi**1.5
    for n, w_n in zip(*sphere):
        shape = scipy.linalg.block_diag(
            *[amplitude(j, q_th, n, spec).entries / c_ref for j in layout.js]
        )
        for x, w_x in zip(radial.nodes, radial.weights):
            c = scattering.forward_scalar(q_th * x, spec)
            yield pref * w_x * x**3 * w_n, c * shape


def literal_dissipator_action(spec, layout, backend, rho, sphere=None):
    out = np.zeros_like(rho)
    for w, jump in literal_jumps(spec, layout, backend, sphere):
        gain = jump @ rho @ jump.conj().T
        k = jump.conj().T @ jump
        out += w * (gain - 0.5 * (k @ rho + rho @ k))
    return out


def test_layout_indexing():
    layout = lb.BasisLayout(2, 4)
    assert layout.dim == 5 + 7 + 9
    assert layout.offset(2) == 0
    assert layout.offset(3) == 5
    assert layout.index(3, -3) == 5
    assert layout.index(3, 3) == 11
    offsets = [layout.offset(j) for j in layout.js]
    assert offsets == sorted(set(offsets))
    with pytest.raises(ValueError):
        layout.index(5, 0)
    with pytest.raises(ValueError):
        layout.index(3, 4)
    with pytest.raises(ValueError):
        lb.BasisLayout(4, 2)


def test_rotor_state_validation():
    layout = lb.BasisLayout(0, 1)
    good = np.diag([0.4, 0.2, 0.2, 0.2]).astype(complex)
    state = lb.RotorState.from_matrix(layout, good)
    assert state.purity() == pytest.approx(0.28)
    assert state.min_eigenvalue() == pytest.approx(0.2)
    bad_herm = good.copy()
    bad_herm[0, 1] = 0.1
    with pytest.raises(ValueError, match="hermitian"):
        lb.RotorState.from_matrix(layout, bad_herm)
    with pytest.raises(ValueError, match="trace"):
        lb.RotorState.from_matrix(layout, 2 * good)
    with pytest.raises(ValueError, match="shape"):
        lb.RotorState.from_matrix(layout, np.eye(3, dtype=complex) / 3)


def test_centrifuge_state_examples():
    layout = lb.BasisLayout(9, 13)
    pure = lb.centrifuge_state(layout, {10: 1.0})
    assert pure.purity() == pytest.approx(1.0, abs=1e-14)
    assert pure.matrix[layout.index(10, 10), layout.index(10, 10)] == pytest.approx(1.0)

    two = lb.centrifuge_state(layout, {10: 2**-0.5, 12: 2**-0.5})
    nonzero = np.abs(two.matrix) > 1e-15
    assert nonzero.sum() == 4
    assert np.allclose(np.abs(two.matrix[nonzero]), 0.5)

    rng = np.random.default_rng(3)
    c = rng.normal(size=5) + 1j * rng.normal(size=5)
    c /= np.linalg.norm(c)
    state = lb.centrifuge_state(layout, dict(zip(layout.js, c)))
    assert np.linalg.matrix_rank(state.matrix, tol=1e-10) == 1
    with pytest.raises(ValueError, match="norm"):
        lb.centrifuge_state(layout, {10: 0.5})
    with pytest.raises(ValueError):
        lb.centrifuge_state(layout, {2: 1.0})


def test_isotropic_state_examples():
    layout = lb.BasisLayout(5, 5)
    iso = lb.isotropic_state(layout, {5: 1.0})
    np.testing.assert_allclose(np.diag(iso.matrix).real, np.full(11, 1.0 / 11.0))
    assert np.trace(iso.matrix).real == 1.0

    pair = lb.isotropic_state(lb.BasisLayout(0, 1), {0: 0.5, 1: 0.5})
    np.testing.assert_allclose(np.diag(pair.matrix).real, [0.5, 1 / 6, 1 / 6, 1 / 6])
    with pytest.raises(ValueError, match="nonnegative"):
        lb.isotropic_state(layout, {5: -1.0})
    with pytest.raises(ValueError, match="sum"):
        lb.isotropic_state(layout, {5: 0.7})


def test_gaussian_profile():
    layout = lb.BasisLayout(4, 12)
    prof = lb.gaussian_profile(layout, 8.0, 1.5)
    assert math.fsum(abs(c) ** 2 for c in prof.values()) == pytest.approx(1.0, abs=1e-12)
    assert max(prof, key=lambda j: abs(prof[j])) == 8
    with pytest.raises(ValueError):
        lb.gaussian_profile(layout, 8.0, 0.0)
    with pytest.raises(ValueError, match=r"center 1000 .* window \[4, 12\]"):
        lb.gaussian_profile(layout, 1000.0, 0.1)


def test_build_dissipator_guards():
    spec = n1_spec()
    layout = lb.BasisLayout(0, 2)
    with pytest.raises(ValueError, match="minimum 24"):
        lb.build_dissipator(n1_spec(numerics={"quad_order_q": 16}), layout)
    with pytest.raises(ValueError, match="26 nodes"):
        lb.build_dissipator(n1_spec(numerics={"quad_order_sphere": 8}), layout)
    with pytest.raises(ValueError, match="backend"):
        lb.build_dissipator(spec, layout, backend="exactish")
    dset = lb.build_dissipator(spec, layout)
    assert dset.converged
    n_literal = sum(1 for _ in literal_jumps(spec, layout, "linearized"))
    assert n_literal == spec.numerics.quad_order_q * dset.metadata["sphere_nodes"]


def test_apply_matches_literal_jump_sum_linearized():
    spec = n1_spec()
    layout = lb.BasisLayout(0, 3)
    dset = lb.build_dissipator(spec, layout)
    # each template is one op on its own diagonal
    assert dset.offsets.tolist() == list(lb.TEMPLATE_OFFSETS)
    state = random_state(layout, seed=7)
    fast = dset.apply(state.matrix)
    lit = literal_dissipator_action(spec, layout, "linearized", state.matrix)
    assert np.max(np.abs(fast - lit)) <= 1e-12 * np.max(np.abs(fast))


def test_apply_matches_literal_jump_sum_spectral():
    spec = spectral_spec()
    layout = lb.BasisLayout(1, 3)
    dset = lb.build_dissipator(spec, layout, backend="spectral")
    # one op per ring and band q in [-2 j_max, 2 j_max]
    n_rings = len(make_rule("ring", spec.numerics.quad_order_sphere))
    assert len(dset.offsets) == n_rings * 13
    assert sorted({int(q) for q in dset.offsets}) == list(range(-6, 7))
    state = random_state(layout, seed=11)
    fast = dset.apply(state.matrix)
    # the literal family's shapes carry azimuthal charges up to 4 j_max, so
    # the oracle needs 4 j_max + 1 azimuths on the same polar nodes to
    # average them exactly.  The literal route carries the uncancelled
    # identity part of every jump, so its roundoff floor sits well above
    # the reduced path's
    sphere = product_rule(spec, 4 * layout.j_max + 1)
    lit = literal_dissipator_action(spec, layout, "spectral", state.matrix, sphere)
    assert np.max(np.abs(fast - lit)) <= 1e-8 * np.max(np.abs(fast))


def test_spectral_apply_keeps_sectors():
    # the 32-node sphere rule has 8 azimuths, fewer than the 4 j_max = 16
    # charges of j = 4 shapes; the ring family averages them exactly, so a
    # state on one (j, j', Q) sector maps into that sector only
    spec = spectral_spec()
    layout = lb.BasisLayout(2, 4)
    dset = lb.build_dissipator(spec, layout, backend="spectral")
    jj, jp, qq = np.broadcast_arrays(*chain_keys(layout))
    rng = np.random.default_rng(31)
    for sector in ((4, 4, 0), (4, 2, 1), (3, 4, -2)):
        inside = (jj == sector[0]) & (jp == sector[1]) & (qq == sector[2])
        noise = rng.normal(size=inside.shape) + 1j * rng.normal(size=inside.shape)
        rho = np.where(inside, noise, 0)
        out = dset.apply(rho)
        assert np.max(np.abs(out[inside])) > 0
        assert np.all(out[~inside] == 0), sector


def test_apply_matches_dense_oracle():
    # apply multiplies chain generators into chain values; the oracle forms
    # every jump and the anticommutator densely
    spec, sspec = n1_spec(), spectral_spec()
    full = lb.BasisLayout(2, 5)
    spectral = lb.build_dissipator(sspec, lb.BasisLayout(2, 4), backend="spectral")
    probe_layout = lb.BasisLayout(8, 15)
    probe = lb.centrifuge_state(probe_layout, lb.gaussian_profile(probe_layout, 11.5, 2.0))
    jj, jp, qq = np.broadcast_arrays(*chain_keys(spectral.layout))
    rng = np.random.default_rng(37)
    noise = rng.normal(size=jj.shape) + 1j * rng.normal(size=jj.shape)
    sector = np.where((jj == 4) & (jp == 2) & (qq == 1), noise, 0)
    band3 = band_beyond_chain_family()
    unequal = unequal_weights_family(spec, lb.BasisLayout(2, 4))
    cases = [
        (lb.build_dissipator(spec, full), random_state(full, seed=41).matrix),
        (spectral, random_state(spectral.layout, seed=43).matrix),
        (lb.build_dissipator(spec, probe_layout), probe.matrix),
        (spectral, sector),
        (band3, random_state(band3.layout, seed=29).matrix),
        (unequal, random_state(unequal.layout, seed=47).matrix),
    ]
    for k, (dset, rho) in enumerate(cases):
        oracle = dense_action(dset, rho)
        assert np.max(np.abs(dset.apply(rho) - oracle)) <= 1e-14 * np.max(np.abs(oracle)), k


def built_and_retained(build):
    """build()'s result and the bytes it leaves allocated (tracemalloc)."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_dissipator_keeps_only_its_diagonals():
    # no gain matrix is stored: a linearized family on j in [20, 40]
    # (D = 1281) keeps its five diagonals (51 kB), not a D^2 gain per offset
    spec = n1_spec()
    lb.build_dissipator(spec, lb.BasisLayout(2, 3))  # builds the shared rules
    dset, kept = built_and_retained(lambda: lb.build_dissipator(spec, lb.BasisLayout(20, 40)))
    assert kept < 2 * 2**20
    assert not hasattr(dset, "bands")
    spec = spectral_spec()
    lb.build_dissipator(spec, lb.BasisLayout(1, 2), backend="spectral")
    dset, kept = built_and_retained(
        lambda: lb.build_dissipator(spec, lb.BasisLayout(6, 10), backend="spectral")
    )
    assert kept < 2 * dset.diagonals.nbytes
    arrays = [v for v in vars(dset).values() if isinstance(v, np.ndarray)]
    assert max(a.nbytes for a in arrays) == dset.diagonals.nbytes


def test_dissipator_structural_properties():
    layout = lb.BasisLayout(2, 5)
    state = random_state(layout, seed=2)
    for backend, spec in backend_cases():
        dset = lb.build_dissipator(spec, layout, backend=backend)
        action = dset.apply(state.matrix)
        scale = np.max(np.abs(action))
        assert abs(np.trace(action)) <= 1e-12 * scale, backend
        assert np.max(np.abs(action - action.conj().T)) <= 1e-13 * scale, backend
        for j, sl in layout.blocks():
            assert abs(np.trace(action[sl, sl])) <= 1e-12 * scale, backend


def test_dissipator_zero_anisotropy_null():
    layout = lb.BasisLayout(0, 3)
    state = random_state(layout, seed=5)
    for backend, spec in backend_cases(set=[("molecule", "alpha_aniso", 0.0)]):
        dset = lb.build_dissipator(spec, layout, backend=backend)
        action = dset.apply(state.matrix)
        assert np.max(np.abs(action)) <= 1e-15 * dset.jump_scale, backend


def test_isotropic_states_stationary():
    layout = lb.BasisLayout(3, 6)
    for backend, spec in backend_cases():
        dset = lb.build_dissipator(spec, layout, backend=backend)
        for pops in ({3: 1.0}, {6: 1.0}, {3: 0.25, 4: 0.25, 5: 0.25, 6: 0.25}):
            iso = lb.isotropic_state(layout, pops)
            action = dset.apply(iso.matrix)
            assert np.max(np.abs(action)) <= 1e-10 * dset.jump_scale, backend


def test_corner_decay_matches_rate_module():
    # the stretched corner's generator diagonal is -gamma(j, j - 2) of the
    # rate module, from small j up to superrotor j
    spec = n1_spec()
    for j in (4, 10, 40, 100):
        layout = lb.BasisLayout(j - 2, j)
        rho = lb.centrifuge_state(layout, {j - 2: 2**-0.5, j: 2**-0.5})
        for mode in ("half", "exact"):
            dset = lb.build_dissipator(spec, layout, kappa_mode=mode)
            action = dset.apply(rho.matrix)
            idx = (layout.index(j, j), layout.index(j - 2, j - 2))
            rate = -(action[idx] / rho.corner_coherence(j, j - 2)).real
            oracle = gamma_numeric(j, j - 2, spec, kappa_mode=mode).gamma
            assert rate == pytest.approx(oracle, rel=1e-10), (j, mode)


def test_propagate_unitary_limit():
    spec = n1_spec()
    layout = lb.BasisLayout(2, 4)
    state = random_state(layout, seed=9)
    traj = lb.propagate(state, None, spec, 0.5, 0.005)
    assert traj[-1].purity() == pytest.approx(state.purity(), abs=1e-8)
    np.testing.assert_allclose(
        np.diag(traj[-1].matrix).real, np.diag(state.matrix).real, atol=1e-10
    )
    empty = lb.DissipatorSet.empty(layout)
    traj2 = lb.propagate(state, empty, spec, 0.5, 0.005)
    np.testing.assert_allclose(traj2[-1].matrix, traj[-1].matrix, atol=1e-12)


def test_propagate_coherence_rotates_at_delta():
    spec = n1_spec()
    layout = lb.BasisLayout(2, 4)
    rho0 = lb.centrifuge_state(layout, {2: 2**-0.5, 4: 2**-0.5})
    traj = lb.propagate(rho0, None, spec, 0.02, 0.001, record_every=1)
    phases = np.unwrap([np.angle(s.corner_coherence(4, 2)) for s in traj])
    times = [s.time for s in traj]
    slope = np.polyfit(times, phases, 1)[0]
    mol = spec.molecule
    delta = (mol.rotational_energy(4) - mol.rotational_energy(2)) / HBAR
    assert -slope == pytest.approx(delta, rel=1e-8)


def test_propagate_two_level_fit():
    spec = n1_spec()
    layout = lb.BasisLayout(8, 10)
    dset = lb.build_dissipator(spec, layout, kappa_mode="half")
    rho0 = lb.centrifuge_state(layout, {8: 2**-0.5, 10: 2**-0.5})
    gamma = gamma_closed_form(10, 8, spec).gamma
    window = 0.03 / gamma
    traj = lb.propagate(rho0, dset, spec, window, window / 80, record_every=1)
    fit = lb.extract_decay_rate([(s.time, abs(s.corner_coherence(10, 8))) for s in traj])
    assert fit == pytest.approx(gamma, rel=0.02)
    fit_sig = lb.extract_decay_rate([(s.time, lb.alignment_signal(s, 10)) for s in traj])
    assert fit_sig == pytest.approx(2 * gamma, rel=0.02)


def test_propagate_short_time_law():
    spec = n1_spec()
    layout = lb.BasisLayout(4, 6)
    dset = lb.build_dissipator(spec, layout, kappa_mode="half")
    rho0 = lb.centrifuge_state(layout, {4: 2**-0.5, 6: 2**-0.5})
    gamma = gamma_closed_form(6, 4, spec).gamma
    t_end = 0.05 / gamma
    traj = lb.propagate(rho0, dset, spec, t_end, t_end / 50, record_every=1)
    for s in traj[1:]:
        expected = 0.5 * (1.0 - gamma * s.time)
        assert abs(s.corner_coherence(6, 4)) == pytest.approx(expected, rel=5e-3)


def test_propagate_conservation_and_positivity():
    spec = n1_spec()
    layout = lb.BasisLayout(4, 8)
    dset = lb.build_dissipator(spec, layout)
    rho0 = lb.centrifuge_state(layout, lb.gaussian_profile(layout, 6.0, 1.2))
    traj = lb.propagate(rho0, dset, spec, 2.0, 0.01)
    pops0 = rho0.block_populations()
    for state in traj:
        pops = state.block_populations()
        assert max(abs(pops[j] - pops0[j]) for j in layout.js) <= 1e-8
        assert state.min_eigenvalue() >= -1e-9
    purities = [s.purity() for s in traj]
    assert all(b <= a + 1e-8 for a, b in zip(purities, purities[1:]))


def test_propagate_isotropic_fixed_point():
    spec = n1_spec()
    layout = lb.BasisLayout(3, 5)
    dset = lb.build_dissipator(spec, layout)
    iso = lb.isotropic_state(layout, {3: 0.5, 4: 0.3, 5: 0.2})
    traj = lb.propagate(iso, dset, spec, 1.0, 0.01)
    assert np.max(np.abs(traj[-1].matrix - iso.matrix)) <= 1e-8


def test_propagate_guards():
    spec = n1_spec()
    layout = lb.BasisLayout(2, 6)
    state = random_state(layout, seed=1)
    spread = lb.coherent_frequency_spread(spec, lb.DissipatorSet.empty(layout))
    with pytest.raises(lb.StepSizeViolation, match="step-size violation"):
        lb.propagate(state, None, spec, 1.0, 0.5 / spread)
    with pytest.raises(ValueError, match="positive"):
        lb.propagate(state, None, spec, -1.0, 0.01)
    for t_final, dt in (
        (math.inf, 0.01), (math.nan, 0.01), (1.0, math.nan), (1.0, math.inf), (1e300, 1e-300)
    ):
        with pytest.raises(ValueError, match="finite"):
            lb.propagate(state, None, spec, t_final, dt)
    other = lb.build_dissipator(spec, lb.BasisLayout(0, 1))
    with pytest.raises(ValueError, match="layout"):
        lb.propagate(state, other, spec, 0.1, 0.001)
    for record_every in (0, -3):
        with pytest.raises(ValueError, match="record_every"):
            lb.propagate(state, None, spec, 0.1, 0.001, record_every=record_every)


def test_spectral_gas_shift_follows_kappa():
    # oracle: H_g(j) = -2 pi hbar^2 (n_g/mu) Int dq q^2 nu_th Re c(q) times
    # the sphere sum of the public spectral shape F(q_th n)/c(q_th) at the
    # dissipator's kappa; the isotropic factor is energy_shift_matrix / 4 pi
    spec = spectral_spec()
    layout = lb.BasisLayout(1, 3)
    dset = lb.build_dissipator(spec, layout, backend="spectral", kappa_mode="half")
    q_th = spec.thermal.thermal_momentum
    c_th = scattering.forward_scalar(q_th, spec)
    sphere = make_rule("sphere", spec.numerics.quad_order_sphere)
    levels, residual = lb._hamiltonian(spec, dset)
    for level, (j, sl) in zip(levels, layout.blocks()):
        h = level * np.eye(2 * j + 1) + np.diag(residual[sl])
        geom = sum(
            w * scattering.forward_amplitude_spectral(j, q_th, n, spec, "half").entries / c_th
            for n, w in zip(sphere.nodes, sphere.weights)
        )
        oracle = energy_shift_matrix(j, spec)[0, 0] / (4.0 * math.pi) * geom
        shift = h - spec.molecule.rotational_energy(j) * np.eye(2 * j + 1)
        assert np.max(np.abs(shift - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_evolve_exact_cross_check():
    spec = n1_spec()
    layout = lb.BasisLayout(2, 4)
    dset = lb.build_dissipator(spec, layout)
    rho0 = lb.centrifuge_state(layout, {2: 0.6, 3: 0.5, 4: math.sqrt(1 - 0.61)})
    exact = evolve_exact(rho0, dset, spec, 0.2)
    chain = lb.propagate(rho0, dset, spec, 0.2, 0.002)[-1]
    assert np.max(np.abs(exact.matrix - chain.matrix)) <= 1e-10


def test_evolve_exact_spectral_backend():
    spec = spectral_spec()
    layout = lb.BasisLayout(1, 3)
    dset = lb.build_dissipator(spec, layout, backend="spectral")
    rho0 = lb.centrifuge_state(layout, {1: 2**-0.5, 3: 2**-0.5})
    exact = evolve_exact(rho0, dset, spec, 0.5)
    chain = lb.propagate(rho0, dset, spec, 0.5, 0.005)[-1]
    assert np.max(np.abs(exact.matrix - chain.matrix)) <= 1e-10


def test_spectral_propagate_at_step_bound_matches_exact():
    # the block scalars E_j + s_iso rotate at the full coherent spread and
    # enter each chain's eigenvalues in closed form; the chain generators
    # carry the dissipator and the residual shift, so a mixed state sampled
    # near the dt * max|Delta| = 0.1 bound still lands on the Liouvillian
    # exponential
    spec = spectral_spec()
    layout = lb.BasisLayout(2, 4)
    dset = lb.build_dissipator(spec, layout, backend="spectral")
    coherent = lb.centrifuge_state(layout, lb.gaussian_profile(layout, 3.0, 1.0))
    iso = lb.isotropic_state(layout, {j: 1.0 / 3.0 for j in layout.js})
    rho0 = lb.RotorState.from_matrix(layout, 0.5 * (coherent.matrix + iso.matrix))
    dt = 0.099 / lb.coherent_frequency_spread(spec, dset)
    t_final = 200 * dt
    chain = lb.propagate(rho0, dset, spec, t_final, dt)[-1]
    exact = evolve_exact(rho0, dset, spec, t_final)
    assert np.max(np.abs(exact.matrix - chain.matrix)) <= 1e-10


def sparse_mixed_state(layout, rng, rank, support):
    """Mixture of rank random pure states, each on a random subset of about
    a fraction support of the basis, so that many chains start empty."""
    d = layout.dim
    mat = np.zeros((d, d), dtype=complex)
    for _ in range(rank):
        vec = (rng.normal(size=d) + 1j * rng.normal(size=d)) * (rng.random(d) < support)
        vec[rng.integers(d)] += 1.0
        mat += rng.random() * np.outer(vec, vec.conj())
    return lb.RotorState.from_matrix(layout, mat / np.trace(mat).real)


def chain_keys(layout):
    """(j, j', Q = m - m') of every matrix entry."""
    jm = np.array([(j, m) for j in layout.js for m in range(-j, j + 1)])
    return jm[:, 0][:, None], jm[:, 0][None, :], jm[:, 1][:, None] - jm[:, 1][None, :]


@settings(max_examples=30, deadline=None)
@given(
    j_min=st.integers(0, 3),
    n_blocks=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 3),
    support=st.floats(0.05, 1.0),
    t=st.floats(0.0, 50.0),
)
def test_chain_flow_properties(j_min, n_blocks, seed, rank, support, t):
    spec = n1_spec()
    layout = lb.BasisLayout(j_min, j_min + n_blocks - 1)
    dset = lb.build_dissipator(spec, layout)
    rho0 = sparse_mixed_state(layout, np.random.default_rng(seed), rank, support)
    flow = lb._chain_flow(rho0, dset, np.zeros(n_blocks), np.zeros(layout.dim))
    out = np.zeros((layout.dim, layout.dim), dtype=complex)
    out[rho0.pattern.rows, rho0.pattern.cols] = flow(t)
    assert abs(np.trace(out) - 1.0) <= 1e-12
    assert np.max(np.abs(out - out.conj().T)) <= 1e-14
    assert np.linalg.eigvalsh(out)[0] >= -1e-9
    for j, sl in layout.blocks():
        assert abs(np.trace(out[sl, sl]) - np.trace(rho0.matrix[sl, sl])) <= 1e-12
    # (j, j', Q) is conserved: a sector empty at t = 0 stays exactly zero
    keys = np.stack(np.broadcast_arrays(*chain_keys(layout)), axis=-1)
    occupied = {tuple(k) for k in keys[rho0.matrix != 0]}
    empty = np.array([[tuple(k) not in occupied for k in row] for row in keys])
    assert np.all(out[empty] == 0)


def dense_jumps(dset):
    """(collision_weight * w_k, A_k) with A_k the dense D x D jump."""
    d = dset.layout.dim
    for w, q, a in zip(dset.weights, dset.offsets.tolist(), dset.diagonals):
        op = np.zeros((d, d), dtype=complex)
        rows = np.arange(max(0, -q), d - max(0, q))
        op[rows, rows + q] = a[rows]
        yield dset.collision_weight * w, op


def dense_action(dset, rho):
    """Oracle of DissipatorSet.apply:
    sum_k cw w_k (A_k rho A_k^+ - {A_k^+ A_k, rho}/2) on the dense jumps."""
    out = np.zeros(rho.shape, dtype=complex)
    for w, op in dense_jumps(dset):
        k = op.conj().T @ op
        out += w * (op @ rho @ op.conj().T - 0.5 * (k @ rho + rho @ k))
    return out


def evolve_exact(rho0, dset, spec, t_final):
    """Oracle of propagate: the Liouvillian of the dense jumps and of
    H + H_g, exponentiated by scipy; practical only for D <= 60."""
    layout = rho0.layout
    d = layout.dim
    if d > 60:
        raise ValueError("exact path limited to D <= 60 (D = %d)" % d)
    levels, residual = lb._hamiltonian(spec, dset)
    h = np.diag(np.repeat(levels, layout.block_sizes) + residual)
    eye = np.eye(d)
    # row-major vec(A rho B) = kron(A, B^T) vec(rho)
    sup = (-1j / HBAR) * (np.kron(h, eye) - np.kron(eye, h.T))
    kmat = np.zeros((d, d), dtype=complex)
    for w, op in dense_jumps(dset):
        sup += w * np.kron(op, op.conj())
        kmat += w * op.conj().T @ op
    sup -= 0.5 * (np.kron(kmat, eye) + np.kron(eye, kmat.T))
    vec = scipy.linalg.expm(sup * t_final) @ rho0.matrix.reshape(-1)
    return lb.RotorState.from_matrix(layout, vec.reshape(d, d), rho0.time + t_final)


def rk4_frames(rho0, dset, spec, t_final, dt, record_every):
    """Fixed-step RK4 oracle on the matrix products of the dense jumps.

    It runs in the rotating frame of the block scalars, where only the
    dissipator and the residual gas shift are left, and applies their
    phases to every recorded frame; returns the recorded D x D matrices,
    the initial one first.
    """
    layout = rho0.layout
    levels, residual = lb._hamiltonian(spec, dset)
    jumps = list(dense_jumps(dset))
    kmat = sum((w * op.conj().T @ op for w, op in jumps), np.zeros((layout.dim, layout.dim)))
    coherent = (-1j / HBAR) * np.diag(residual)

    def deriv(rho):
        out = coherent @ rho - rho @ coherent - 0.5 * (kmat @ rho + rho @ kmat)
        for w, op in jumps:
            out += w * (op @ rho @ op.conj().T)
        return out

    sizes = layout.block_sizes
    omega = np.repeat(np.repeat((levels[:, None] - levels[None, :]) / HBAR, sizes, 0), sizes, 1)
    n_steps = int(round(t_final / dt))
    rho = rho0.matrix
    frames = [rho]
    for step in range(1, n_steps + 1):
        k1 = deriv(rho)
        k2 = deriv(rho + (0.5 * dt) * k1)
        k3 = deriv(rho + (0.5 * dt) * k2)
        k4 = deriv(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % record_every == 0:
            frames.append(rho * np.exp(-1j * omega * step * dt))
    return frames


def test_chain_flow_matches_dense_rk4():
    spec = n1_spec()
    layout = lb.BasisLayout(3, 6)
    dset = lb.build_dissipator(spec, layout)
    gaussian = lb.centrifuge_state(layout, lb.gaussian_profile(layout, 4.5, 1.0))
    for rho0 in (gaussian, random_state(layout, seed=17)):
        chain = lb.propagate(rho0, dset, spec, 0.5, 0.001, record_every=50)
        rk4 = rk4_frames(rho0, dset, spec, 0.5, 0.001, record_every=50)
        assert len(chain) == len(rk4) == 11
        for k, (a, b) in enumerate(zip(chain, rk4)):
            assert a.time == pytest.approx(50 * k * 0.001)
            assert np.max(np.abs(a.matrix - b)) <= 1e-12


def unequal_weights_family(spec, layout):
    """The linearized family with unequal weights on its q = +1 and q = -1
    templates: every op stays on one band, but the chain generators are not
    symmetric."""
    base = lb.build_dissipator(spec, layout)
    weights = base.weights * np.array([1.0, 1.5, 0.5, 1.0, 1.0])
    return lb.DissipatorSet(
        layout, base.collision_weight, weights, base.offsets, base.diagonals, base.aniso_mean
    )


def band_beyond_chain_family():
    """One jump on band q = 3 of the j = 2 block: its chains of length 2
    (the Q = +-3 diagonals) have no partner q steps along."""
    diagonal = np.array([0.3, -0.2, 0.0, 0.0, 0.0])
    layout = lb.BasisLayout(2, 2)
    return lb.DissipatorSet(layout, 1.0, np.ones(1), np.array([3]), diagonal[None], np.zeros(5))


def test_non_hermitian_chain_generator_propagates_exactly():
    # the chain path diagonalizes the non-symmetric generators by eig and
    # still lands on the exact exponential
    spec = n1_spec()
    layout = lb.BasisLayout(2, 4)
    dset = unequal_weights_family(spec, layout)
    rho0 = lb.centrifuge_state(layout, {2: 0.6, 3: 0.5, 4: math.sqrt(1 - 0.61)})
    exact = evolve_exact(rho0, dset, spec, 0.2)
    chain = lb.propagate(rho0, dset, spec, 0.2, 0.002)[-1]
    assert np.max(np.abs(exact.matrix - chain.matrix)) <= 1e-10


def test_band_beyond_chain_length():
    # a chain with no partner q steps along must leave its generator alone
    # rather than wrap around
    spec = n1_spec()
    dset = band_beyond_chain_family()
    rho0 = random_state(dset.layout, seed=29)
    chain = lb.propagate(rho0, dset, spec, 2.0, 0.01)[-1]
    exact = evolve_exact(rho0, dset, spec, 2.0)
    assert np.max(np.abs(exact.matrix - chain.matrix)) <= 1e-10
    assert np.max(np.abs(chain.matrix - rho0.matrix)) > 1e-3


def test_ill_conditioned_chain_generator_raises_drift():
    # unit ops on bands +1 and -1 with weights 1 and delta, and no
    # anticommutator, make the main-diagonal chain of the j = 1 block
    # tridiag(delta, 0, 1): eigenvalues 0 and +-sqrt(2 delta), a Jordan block
    # at delta = 0.  Its eigenvectors cannot carry the flow
    spec = n1_spec()
    layout = lb.BasisLayout(1, 1)
    rho0 = lb.isotropic_state(layout, {1: 1.0})
    diagonals = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    for delta, message in ((0.0, "no eigenbasis"), (1e-20, "misses it")):
        weights = np.array([1.0, delta])
        dset = lb.DissipatorSet(layout, 1.0, weights, np.array([1, -1]), diagonals, np.zeros(3))
        dset.kmat = np.zeros(3)
        with pytest.raises(lb.NumericalDriftError, match=message):
            lb.propagate(rho0, dset, spec, 0.1, 0.01)


def test_min_eigenvalue_by_components():
    rng = np.random.default_rng(23)

    def hermitian(n):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return m + m.conj().T

    path = np.diag(rng.normal(size=6)) + np.diag(rng.normal(size=5), 1)
    blocks = scipy.linalg.block_diag(
        hermitian(1), hermitian(3), hermitian(3), path + path.T, hermitian(3), np.zeros((1, 1))
    )
    perm = rng.permutation(len(blocks))
    permuted = blocks[np.ix_(perm, perm)]
    dense = hermitian(12)
    zero_row = dense.copy()
    zero_row[4, :] = 0.0
    zero_row[:, 4] = 0.0
    psd_zero_row = random_state(lb.BasisLayout(1, 2), seed=3).matrix.copy()
    psd_zero_row[2, :] = 0.0
    psd_zero_row[:, 2] = 0.0
    # rows {0, 3} and {1, 2} are linked only by [3, 1] in the lower triangle,
    # the one eigvalsh reads
    one_sided = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    one_sided[[0, 3, 1, 2], [3, 0, 2, 1]] = 0.5
    one_sided[3, 1] = 2.0
    for mat in (dense, blocks, permuted, zero_row, psd_zero_row, one_sided, np.zeros((3, 3))):
        linked = mat != 0
        rows, cols = np.nonzero(linked | linked.T)
        pattern = lb._EntryPattern(len(mat), rows, cols)
        low = pattern.min_eigenvalues(mat[rows, cols][None])[0]
        assert abs(low - np.linalg.eigvalsh(mat)[0]) <= 1e-14


def assert_columns_match_frames(traj, signal_js):
    """Every Trajectory column equals the same value computed by plain numpy
    on the D x D frames."""
    frames = list(traj)
    layout = traj.layout
    assert len(frames) == len(traj) and [f.time for f in frames] == traj.times.tolist()
    mats = [f.matrix for f in frames]
    dense = [(np.trace(m).real, np.sum(np.abs(m) ** 2), np.linalg.eigvalsh(m)[0]) for m in mats]
    np.testing.assert_allclose(
        np.column_stack([traj.trace(), traj.purity(), traj.min_eigenvalues()]),
        dense, rtol=0, atol=1e-14,
    )
    pops = np.array([[np.trace(m[sl, sl]).real for _, sl in layout.blocks()] for m in mats])
    np.testing.assert_allclose(traj.block_populations(), pops, rtol=0, atol=1e-14)
    for j in signal_js:
        corner = [m[layout.index(j, j), layout.index(j - 2, j - 2)] for m in mats]
        np.testing.assert_allclose(traj.signal(j), np.abs(corner) ** 2, rtol=0, atol=1e-14)
        np.testing.assert_allclose(traj.corner_coherence(j, j - 2), corner, rtol=0, atol=1e-14)
    # frames outside the pattern are zero, so the entries hold every matrix
    for f, values in zip(frames, traj.values):
        assert np.count_nonzero(f.matrix) == np.count_nonzero(values)
        np.testing.assert_array_equal(f.matrix[traj.pattern.rows, traj.pattern.cols], values)
    assert [f.time for f in traj[-3:]] == traj.times[-3:].tolist()
    np.testing.assert_array_equal(traj[-1].matrix, frames[-1].matrix)


def test_trajectory_columns_match_dense_frames():
    spec = n1_spec()
    # the propagate-linearized input: a Gaussian wavepacket on j in [8, 15]
    layout = lb.BasisLayout(8, 15)
    dset = lb.build_dissipator(spec, layout)
    rho0 = lb.centrifuge_state(layout, lb.gaussian_profile(layout, 11.5, 2.0))
    traj = lb.propagate(rho0, dset, spec, 0.1, 0.001)
    assert len(traj) == 101
    assert_columns_match_frames(traj, range(10, 16))

    # a full spectral state: every chain occupied, one component
    sspec = spectral_spec()
    layout = lb.BasisLayout(2, 4)
    rho0 = random_state(layout, seed=31)
    traj = lb.propagate(rho0, lb.build_dissipator(sspec, layout, "spectral"), sspec, 4.0, 0.1)
    groups, empty = traj.pattern.components
    assert len(traj.pattern.rows) == layout.dim**2 and not empty
    assert [(n, s) for n, s, _, _ in groups] == [(1, layout.dim)]
    assert_columns_match_frames(traj, [4])

    # an isotropic state on blocks 3 and 5 only: the other blocks' rows
    # hold no entry and add the eigenvalue 0
    layout = lb.BasisLayout(2, 6)
    rho0 = lb.isotropic_state(layout, {3: 0.6, 5: 0.4})
    traj = lb.propagate(rho0, lb.build_dissipator(spec, layout), spec, 0.5, 0.01)
    assert traj.pattern.components[1]
    assert np.all(traj.min_eigenvalues() == 0.0)
    assert_columns_match_frames(traj, [4, 5, 6])


def test_entry_pattern_is_its_own_transpose():
    # rho0 may hold an entry whose transpose is exactly zero (hermitian to
    # HERM_TOL); both chains are kept so every entry has its partner
    spec = n1_spec()
    layout = lb.BasisLayout(1, 2)
    mat = np.diag(np.full(layout.dim, 1.0 / layout.dim)).astype(complex)
    mat[0, 2] = 0.5 * lb.HERM_TOL
    rho0 = lb.RotorState.from_matrix(layout, mat)
    traj = lb.propagate(rho0, lb.build_dissipator(spec, layout), spec, 0.5, 0.01)
    pattern = traj.pattern
    np.testing.assert_array_equal(pattern.rows[pattern.partner], pattern.cols)
    np.testing.assert_array_equal(pattern.cols[pattern.partner], pattern.rows)
    assert pattern.locate(2, 0) >= 0 and traj.values[0, pattern.locate(2, 0)] == 0
    assert traj.diagnostics["max_hermiticity_deviation"] <= lb.HERM_TOL


def test_propagate_memory_scales_with_chains():
    # 51 frames at D = 1281 were 51 dense D x D matrices (about 1.3 GB);
    # on the occupied chains propagate stays below four of them
    spec = n1_spec()
    layout = lb.BasisLayout(20, 40)
    dset = lb.build_dissipator(spec, layout)
    rho0 = lb.centrifuge_state(layout, lb.gaussian_profile(layout, 30.0, 5.0))
    tracemalloc.start()
    try:
        traj = lb.propagate(rho0, dset, spec, 0.01, 0.0002)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj) == 51
    assert peak < 4 * 16 * layout.dim**2


def test_initial_state_memory_scales_with_chains():
    # rho0 is built from its nonzero entries, on the chains they occupy: at
    # j in [20, 40] (D = 1281) building it stays below one dense complex
    # D x D matrix, 26 MB
    layout = lb.BasisLayout(20, 40)
    tracemalloc.start()
    try:
        rho0 = lb.centrifuge_state(layout, lb.gaussian_profile(layout, 30.0, 5.0))
        iso = lb.isotropic_state(layout, {j: 1.0 / 21 for j in layout.js})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * layout.dim**2
    assert len(rho0.values) < 0.05 * layout.dim**2
    assert len(iso.values) == layout.dim
    # the dense matrix, built on demand, is the outer product of the amplitudes
    amp = np.zeros(layout.dim, dtype=complex)
    for j, c in lb.gaussian_profile(layout, 30.0, 5.0).items():
        amp[layout.index(j, j)] = c
    np.testing.assert_array_equal(rho0.matrix, np.outer(amp, amp.conj()))
    with pytest.raises(ValueError):
        rho0.matrix[0, 0] = 1.0


def test_alignment_signal():
    layout = lb.BasisLayout(8, 12)
    two = lb.centrifuge_state(layout, {10: 2**-0.5, 12: 2**-0.5})
    assert lb.alignment_signal(two, 12) == pytest.approx(0.25, abs=1e-14)
    assert lb.alignment_signal(two, 10) == 0.0
    iso = lb.isotropic_state(layout, {10: 1.0})
    assert lb.alignment_signal(iso, 10) == 0.0
    with pytest.raises(ValueError):
        lb.alignment_signal(two, 9)  # j-2 = 7 outside layout
    with pytest.raises(ValueError):
        lb.alignment_signal(two, 1)


def test_extract_decay_rate():
    t = np.linspace(0.0, 2.0, 10)
    samples = list(zip(t, np.exp(-2.0 * t)))
    assert lb.extract_decay_rate(samples) == pytest.approx(2.0, abs=1e-10)
    flat = [(float(x), 0.7) for x in t]
    rate, resid = lb.extract_decay_rate(flat, with_residual=True)
    assert rate == 0.0 and resid == 0.0
    rng = np.random.default_rng(12)
    noisy = list(zip(t, np.exp(-0.3 * t) * (1 + 1e-3 * rng.normal(size=t.size))))
    assert lb.extract_decay_rate(noisy) == pytest.approx(0.3, rel=0.01)
    with pytest.raises(ValueError, match="5 samples"):
        lb.extract_decay_rate(samples[:4])
    with pytest.raises(ValueError, match="positive"):
        lb.extract_decay_rate([(0.0, 1.0), (1.0, -1.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0)])
    with pytest.raises(ValueError, match="span"):
        lb.extract_decay_rate([(0.0, 1.0)] * 5)


def test_trajectory_csv():
    spec = n1_spec()
    layout = lb.BasisLayout(2, 4)
    dset = lb.build_dissipator(spec, layout)
    rho0 = lb.centrifuge_state(layout, {2: 2**-0.5, 4: 2**-0.5})
    traj = lb.propagate(rho0, dset, spec, 0.05, 0.005, record_every=2)
    text = lb.trajectory_csv(traj, signal_js=[4])
    lines = text.splitlines()
    assert lines[0] == "t,trace,purity,min_eig,signal_j4"
    assert len(lines) == len(traj) + 1
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(1.0, abs=1e-10)
    assert first[4] == pytest.approx(0.25, abs=1e-12)
    assert text.endswith("\n")


def test_state_binary_round_trip(tmp_path):
    layout = lb.BasisLayout(3, 5)
    state = random_state(layout, seed=21)
    path = tmp_path / "state.bin"
    lb.write_state_binary(state, path)
    back = lb.read_state_binary(path)
    assert back.layout == layout
    assert back.time == state.time
    np.testing.assert_array_equal(back.matrix, state.matrix)
    expected = 24 + 8 + 16 * layout.dim**2
    assert path.stat().st_size == expected
    with open(path, "rb") as fh:
        header = np.frombuffer(fh.read(24), dtype="<i8")
    assert list(header) == [layout.dim, 3, 5]


def test_state_binary_failed_build_leaves_no_file(tmp_path, monkeypatch):
    # the dense payload is built before the temporary file is opened
    state = random_state(lb.BasisLayout(0, 1), seed=4)

    def fail(self):
        raise MemoryError("no room for the dense matrix")

    monkeypatch.setattr(lb.RotorState, "matrix", property(fail))
    with pytest.raises(MemoryError):
        lb.write_state_binary(state, tmp_path / "state.bin")
    assert list(tmp_path.iterdir()) == []


def test_state_binary_rejects_truncated_files(tmp_path):
    path = tmp_path / "state.bin"
    lb.write_state_binary(random_state(lb.BasisLayout(0, 1), seed=4), path)
    # written under a temporary name and renamed: nothing else is left behind
    assert [p.name for p in tmp_path.iterdir()] == ["state.bin"]
    raw = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for size in (0, 10, 24, 31):
        cut.write_bytes(raw[:size])
        with pytest.raises(ValueError, match="32-byte header"):
            lb.read_state_binary(cut)
    cut.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="payload"):
        lb.read_state_binary(cut)


def test_drift_monitor_shares_state_tolerances():
    layout = lb.BasisLayout(0, 1)
    good = np.diag([0.4, 0.2, 0.2, 0.2]).astype(complex)
    drifted = good * (1.0 + 5e-9)
    with pytest.raises(ValueError, match="trace"):
        lb.RotorState.from_matrix(layout, drifted)
    lb.RotorState.from_matrix(layout, good)
    skewed = good.copy()
    skewed[0, 1] = 2 * lb.HERM_TOL
    with pytest.raises(ValueError, match="hermitian"):
        lb.RotorState.from_matrix(layout, skewed)
    skewed[0, 1] = 0.5 * lb.HERM_TOL
    lb.RotorState.from_matrix(layout, skewed)

    # a trace leak of 5e-9 per unit time in the chain generator surfaces as
    # NumericalDriftError whether or not a frame is recorded before the
    # next monitor step, never as the RotorState constructor's ValueError
    spec = n1_spec()
    layout = lb.BasisLayout(2, 2)
    rho0 = lb.isotropic_state(layout, {2: 1.0})
    leaky = replace(lb.DissipatorSet.empty(layout), collision_weight=1.0)
    leaky.kmat = np.full(layout.dim, -5e-9)
    # the first checked frame past TRACE_TOL: every step, or the monitor
    # step at t = 0.5
    for record_every, t in ((1, "0.02"), (1000, "0.5")):
        with pytest.raises(lb.NumericalDriftError, match="trace drift .* at t=%s$" % t):
            lb.propagate(rho0, leaky, spec, 1.0, 0.01, record_every=record_every)


def test_non_finite_matrices_are_not_density_matrices(monkeypatch):
    layout = lb.BasisLayout(0, 1)
    good = np.diag([0.4, 0.2, 0.2, 0.2]).astype(complex)
    for bad in (np.full((4, 4), np.nan), np.full((4, 4), np.inf)):
        with pytest.raises(ValueError):
            lb.RotorState.from_matrix(layout, bad)
    off = good.copy()
    off[0, 1] = off[1, 0] = np.nan
    with pytest.raises(ValueError, match="hermitian"):
        lb.RotorState.from_matrix(layout, off)

    # a NaN frame between monitor steps is reported as drift, not recorded
    spec = n1_spec()
    rho0 = lb.RotorState.from_matrix(layout, good)
    np.testing.assert_array_equal(rho0.pattern.rows, np.arange(4))
    np.testing.assert_array_equal(rho0.pattern.cols, np.arange(4))
    monkeypatch.setattr(
        lb, "_chain_flow", lambda *args: lambda tau: np.full(4, np.nan, dtype=complex)
    )
    with pytest.raises(lb.NumericalDriftError, match="trace drift nan .* at t=0.01"):
        lb.propagate(rho0, None, spec, 1.0, 0.01, record_every=1)
