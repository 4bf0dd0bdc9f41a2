import itertools
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from amplitude_oracles import product_rule
from superrotor import lindblad as lb
from superrotor import scattering
from superrotor.cli import _atomic_write
from superrotor.mathkit import make_rule
from superrotor.params import HBAR, builtin_config, load_config
from superrotor.rates import (chain_row, collision_weight, energy_shift_matrix,
                             gamma_closed_form, gamma_numeric)


def n1_spec(**changes):
    doc = json.loads(builtin_config("n1"))
    for section, key, value in changes.get("set", []):
        doc[section][key] = value
    if "numerics" in changes:
        doc["numerics"] = changes["numerics"]
    return load_config(json.dumps(doc))


def si_spec():
    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    return load_config((root / "nitrogen_helium_si.json").read_text())


def spectral_spec(**changes):
    # small anisotropy keeps the fractional-power branch well inside its
    # domain; reduced sphere and circle orders keep the node stack cheap
    return n1_spec(
        set=[("molecule", "alpha_aniso", 0.06)] + list(changes.get("set", [])),
        numerics={"quad_order_sphere": 30, "quad_order_circle": 32},
    )


def backend_cases(**changes):
    return [("linearized", n1_spec(**changes)), ("spectral", spectral_spec(**changes))]


def jump_free(layout):
    # every jump comes from the anisotropy: at alpha_aniso = 0 each is zero
    return lb.build_dissipator(n1_spec(set=[("molecule", "alpha_aniso", 0.0)]), layout)


def random_state(layout, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(layout.dim, layout.dim)) + 1j * rng.normal(
        size=(layout.dim, layout.dim)
    )
    m = m @ m.conj().T
    return lb.RotorState.from_matrix(layout, m / np.trace(m).real)


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
    q_th = spec.thermal_momentum
    c_ref = scattering.forward_scalar(q_th, spec)
    radial = make_rule("half_line", spec.numerics.quad_order_q)
    if sphere is None:
        sphere = product_rule(spec.numerics.quad_order_sphere)
    pref = 2.0 * math.pi * spec.gas.density / spec.reduced_mass * q_th / math.pi**1.5
    for n, w_n in zip(*sphere):
        shape = scipy.linalg.block_diag(
            *[amplitude(j, q_th, n, spec) / c_ref for j in layout.js]
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


# unit trace and hermitian, with the eigenvalue -0.1 three times
NOT_POSITIVE = np.diag([1.3, -0.1, -0.1, -0.1]).astype(complex)


def test_rotor_state_must_be_positive():
    with pytest.raises(ValueError, match="negative eigenvalue -0.1$"):
        lb.RotorState.from_matrix(lb.BasisLayout(0, 1), NOT_POSITIVE)


def test_density_rule_reports_the_earliest_frame(monkeypatch):
    layout = lb.BasisLayout(0, 1)
    pattern = lb.RotorState.from_matrix(layout, np.diag([0.4, 0.2, 0.2, 0.2])).pattern
    good = np.array([0.4, 0.2, 0.2, 0.2], dtype=complex)
    negative = np.array([0.4, 0.2, 0.4 + 1e-6, -1e-6], dtype=complex)
    seen = []

    def eigvalsh(stack):
        seen.append(stack.copy())
        return np.linalg.eigh(stack)[0]

    monkeypatch.setattr(lb.np.linalg, "eigvalsh", eigvalsh)
    # a negative eigenvalue at frame 1 comes before the trace drift at 2
    frames = np.array([good, negative, 2 * good])
    with pytest.raises(ValueError, match="negative eigenvalue -1e-06$") as exc:
        lb._reduce(layout, pattern, frames)
    assert exc.value.frame == 1
    # a trace drift at frame 1 comes before the negative eigenvalue at 2,
    # and a NaN frame after it is never diagonalized
    seen.clear()
    frames = np.array([good, 2 * good, negative, np.full(4, np.nan)])
    with pytest.raises(ValueError, match="trace drift 1 exceeds") as exc:
        lb._reduce(layout, pattern, frames)
    assert exc.value.frame == 1
    assert sum(len(stack) for stack in seen) > 0
    assert all(np.all(np.isfinite(stack)) for stack in seen)
    seen.clear()
    with pytest.raises(ValueError, match="trace drift nan") as exc:
        lb._reduce(layout, pattern, np.array([good, np.full(4, np.nan)]))
    assert exc.value.frame == 1 and not any(np.isnan(stack).any() for stack in seen)
    # a batch that obeys the rule returns every frame's deviations
    columns = lb._reduce(layout, pattern, np.array([good, good]))
    np.testing.assert_array_equal(columns["min_eig"], [0.2, 0.2])
    np.testing.assert_array_equal(columns["trace_dev"], [0.0, 0.0])
    np.testing.assert_array_equal(columns["herm_dev"], [0.0, 0.0])


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
    # the constructor normalizes its coefficients
    half = lb.centrifuge_state(layout, {10: 0.5})
    assert half.matrix[layout.index(10, 10), layout.index(10, 10)] == 1.0
    with pytest.raises(ValueError, match="coefficients have total 0"):
        lb.centrifuge_state(layout, {10: 0.0})
    with pytest.raises(ValueError):
        lb.centrifuge_state(layout, {2: 1.0})


def test_centrifuge_state_normalizes_its_coefficients():
    layout = lb.BasisLayout(9, 13)
    raw = lb.centrifuge_state(layout, {10: 3, 12: 4j})
    unit = lb.centrifuge_state(layout, {10: 0.6, 12: 0.8j})
    np.testing.assert_allclose(raw.values, unit.values, rtol=0, atol=1e-16)


@pytest.mark.parametrize(
    "weights, total",
    [({10: math.nan}, "nan"), ({10: math.inf, 12: 1.0}, "inf"), ({10: 1e200}, "inf"),
     ({10: complex(1e308, 1e308)}, "inf"), ({10: 1e154, 12: 1e154}, "inf")],
    ids=["nan", "inf", "square-overflows", "abs-overflows", "sum-overflows"],
)
def test_centrifuge_state_rejects_totals_that_cannot_be_normalized(weights, total):
    # an overflowing |c|^2 (1e200 ** 2, abs(1e308 + 1e308j)) or sum is an
    # infinite total, and a NaN total fails the check too
    with pytest.raises(ValueError, match="coefficients have total %s" % total):
        lb.centrifuge_state(lb.BasisLayout(9, 13), weights)


@pytest.mark.parametrize(
    "weights, total",
    [({5: math.nan}, "nan"), ({5: math.inf}, "inf"), ({5: 1e308, 6: 1e308}, "inf"),
     ({5: 0.0, 6: 0.0}, "0")],
    ids=["nan", "inf", "sum-overflows", "zero"],
)
def test_isotropic_state_rejects_totals_that_cannot_be_normalized(weights, total):
    with pytest.raises(ValueError, match="populations have total %s" % total):
        lb.isotropic_state(lb.BasisLayout(5, 6), weights)


def test_isotropic_state_examples():
    layout = lb.BasisLayout(5, 5)
    iso = lb.isotropic_state(layout, {5: 1.0})
    np.testing.assert_allclose(np.diag(iso.matrix).real, np.full(11, 1.0 / 11.0))
    assert np.trace(iso.matrix).real == 1.0

    pair = lb.isotropic_state(lb.BasisLayout(0, 1), {0: 0.5, 1: 0.5})
    np.testing.assert_allclose(np.diag(pair.matrix).real, [0.5, 1 / 6, 1 / 6, 1 / 6])
    with pytest.raises(ValueError, match="nonnegative"):
        lb.isotropic_state(layout, {5: -1.0})
    # the constructor normalizes its populations
    np.testing.assert_array_equal(lb.isotropic_state(layout, {5: 0.7}).values, iso.values)
    scaled = lb.isotropic_state(lb.BasisLayout(0, 1), {0: 3.0, 1: 3.0})
    np.testing.assert_array_equal(scaled.values, pair.values)


def test_gaussian_profile():
    layout = lb.BasisLayout(4, 12)
    prof = lb.gaussian_profile(layout, 8.0, 1.5)
    # the unnormalized shape, 1 at the centre: centrifuge_state normalizes it
    assert prof[8] == 1.0 and max(prof, key=lambda j: abs(prof[j])) == 8
    for j, c in prof.items():
        assert c == pytest.approx(math.exp(-((j - 8.0) ** 2) / 9.0), rel=1e-15)
    total = math.fsum(abs(c) ** 2 for c in prof.values())
    populations = lb.centrifuge_state(layout, prof).block_populations()
    assert populations[8] == pytest.approx(1.0 / total, rel=1e-14)
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
        lb.build_dissipator(n1_spec(numerics={"quad_order_sphere": 8}), layout,
                            backend="spectral")
    with pytest.raises(ValueError, match="backend"):
        lb.build_dissipator(spec, layout, backend="exactish")
    dset = lb.build_dissipator(spec, layout)
    assert dset.converged
    n_literal = sum(1 for _ in literal_jumps(spec, layout, "linearized"))
    assert n_literal == spec.numerics.quad_order_q * dset.metadata["sphere_nodes"]
    # the node count is read off the ring rule; the sphere rule stays the oracle
    for order in (26, 30, 302, 500):
        count = lb.build_dissipator(n1_spec(numerics={"quad_order_sphere": order}), layout)
        assert count.metadata["sphere_nodes"] == len(product_rule(order)[1])


def test_linearized_dissipator_ignores_the_sphere_order():
    # the linearized sphere moments are exact, so a sphere rule below the
    # spectral minimum (order 8: two rings, 8 nodes) builds the same family
    layout = lb.BasisLayout(8, 15)
    low, default = (lb.build_dissipator(n1_spec(numerics={"quad_order_sphere": order}), layout)
                    for order in (8, 302))
    assert low.metadata["sphere_nodes"] == 8 and low.converged
    for name in ("kmat", "diagonals", "aniso_mean"):
        np.testing.assert_array_equal(getattr(low, name), getattr(default, name))
    assert low.metadata["order_doubling_drift"] == default.metadata["order_doubling_drift"]


@pytest.mark.parametrize("kappa", ["exact", "half"])
def test_linearized_dissipator_drift_is_the_radial_one(kappa):
    # each order is doubled on its own; the linearized family ignores the
    # sphere order, so its drift is that of the collision weight, whose
    # ratio r at 2 n_q and n_q scales the generator: one float on every
    # window, |r - 1| / max(1, r) to 2 eps
    spec = n1_spec()
    n_q = spec.numerics.quad_order_q
    r = collision_weight(spec, 2 * n_q) / collision_weight(spec, n_q)
    expected = abs(r - 1.0) / max(1.0, r)
    drifts = set()
    for lo, hi in ((0, 2), (8, 15), (20, 40), (996, 1000)):
        dset = lb.build_dissipator(spec, lb.BasisLayout(lo, hi), kappa_mode=kappa)
        drifts.add(dset.metadata["order_doubling_drift"])
        assert dset.converged
    assert len(drifts) == 1
    assert abs(drifts.pop() - expected) <= 2 * np.finfo(float).eps
    # a positive density whose collision weight underflows to 0 builds no
    # generator, and nothing drifts
    tiny = n1_spec(set=[("gas", "density", 5e-324)])
    dset = lb.build_dissipator(tiny, lb.BasisLayout(0, 2), kappa_mode=kappa)
    assert dset.collision_weight == 0.0 and dset.metadata["order_doubling_drift"] == 0.0


def test_spectral_dissipator_drift_stays_unconverged():
    # on the benchmark's spectral config at j in [6, 10] doubling the ring
    # order moves the action by 1.5e-3: a check that let a radial drift
    # cancel a ring drift, or probed fewer chains, could pass it
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = load_config((root / "perfbench" / "spectral_chain.json").read_text())
    dset = lb.build_dissipator(spec, lb.BasisLayout(6, 10), backend="spectral")
    assert dset.metadata["order_doubling_drift"] >= 1e-3
    assert not dset.converged


def test_only_the_spectral_dissipator_builds_a_probe(monkeypatch):
    # the spectral family alone reads quad_order_sphere, so it alone is
    # rebuilt at twice that order and acts on a probe; every drift rule
    # takes the action, its radial scaling and its ring doubling
    calls = []

    def spy(name):
        original = getattr(lb, name)

        def wrapped(*args):
            calls.append((name, len(args)))
            return original(*args)

        monkeypatch.setattr(lb, name, wrapped)

    for name in ("_chain_action", "_jump_family", "order_doubling_drift"):
        spy(name)
    lb.build_dissipator(n1_spec(), lb.BasisLayout(996, 1000))
    assert sorted(calls) == [("_jump_family", 4), ("order_doubling_drift", 3)]
    calls.clear()
    lb.build_dissipator(spectral_spec(), lb.BasisLayout(2, 4), backend="spectral")
    assert sorted(calls) == (
        [("_chain_action", 3)] * 2 + [("_jump_family", 4)] * 2 + [("order_doubling_drift", 3)])


def test_large_j_linearized_dissipator_stays_small():
    # no dense chain stack is built: a probe of the n1 family on j in
    # [996, 1000] would multiply dense generators of chains of about 2000
    # entries (an 826 MiB peak)
    spec = n1_spec()
    lb.build_dissipator(spec, lb.BasisLayout(2, 3))  # builds the shared rules
    dset, _, peak = built_and_retained(
        lambda: lb.build_dissipator(spec, lb.BasisLayout(996, 1000)))
    assert peak < 20 * 2**20
    assert dset.converged


def test_apply_matches_literal_jump_sum_linearized():
    spec = n1_spec()
    layout = lb.BasisLayout(0, 3)
    dset = lb.build_dissipator(spec, layout)
    # each template is one op on its own band; band q >= 0 is stored at
    # index q, and the bands -1 and -2 are the transposes of 1 and 2
    assert dset.diagonals.shape == (3, 1, layout.dim)
    assert dset.diagonals.dtype == dset.aniso_mean.dtype == np.float64
    state = random_state(layout, seed=7)
    fast = dset.apply(state.matrix)
    lit = literal_dissipator_action(spec, layout, "linearized", state.matrix)
    assert np.max(np.abs(fast - lit)) <= 1e-12 * np.max(np.abs(fast))


def test_apply_matches_literal_jump_sum_spectral():
    spec = spectral_spec()
    layout = lb.BasisLayout(1, 3)
    dset = lb.build_dissipator(spec, layout, backend="spectral")
    # one op per ring in each band q in [0, 2 j_max], at index q; band -q
    # is the transpose
    n_rings = len(make_rule("ring", spec.numerics.quad_order_sphere))
    assert dset.diagonals.shape == (7, n_rings, layout.dim)
    # the ring-node shapes are real, and so is the family
    assert dset.diagonals.dtype == dset.aniso_mean.dtype == np.float64
    state = random_state(layout, seed=11)
    fast = dset.apply(state.matrix)
    # the literal family's shapes carry azimuthal charges up to 4 j_max, so
    # the oracle needs 4 j_max + 1 azimuths on the same polar nodes to
    # average them exactly.  The literal route carries the uncancelled
    # identity part of every jump, so its roundoff floor sits well above
    # the reduced path's
    sphere = product_rule(spec.numerics.quad_order_sphere, 4 * layout.j_max + 1)
    lit = literal_dissipator_action(spec, layout, "spectral", state.matrix, sphere)
    assert np.max(np.abs(fast - lit)) <= 1e-8 * np.max(np.abs(fast))


@pytest.mark.parametrize("circle", [31, 32])
def test_ring_node_shapes_are_real(circle):
    # the circle rule pairs every impact angle with a complex-conjugate
    # partner at the ring nodes (phi = 0), so their shapes are real; off
    # the ring plane they are not
    spec = n1_spec(set=[("molecule", "alpha_aniso", 0.06)],
                   numerics={"quad_order_sphere": 30, "quad_order_circle": circle})
    ring = make_rule("ring", spec.numerics.quad_order_sphere)
    for kappa in ("exact", "half"):
        for j in (2, 4):
            shapes = scattering.spectral_shapes(j, ring.nodes, spec, kappa)
            assert np.max(np.abs(shapes.imag)) <= 1e-15 * np.max(np.abs(shapes)), (kappa, j)
        off = scattering.spectral_shapes(4, np.array([[0.48, 0.6, 0.64]]), spec, kappa)
        assert np.max(np.abs(off.imag)) > 1e-6 * np.max(np.abs(off)), kappa


def test_complex_ring_shapes_raise_drift(monkeypatch):
    spec = spectral_spec()
    shapes = scattering.spectral_shapes
    monkeypatch.setattr(scattering, "spectral_shapes", lambda *a: shapes(*a) * np.exp(1e-9j))
    with pytest.raises(lb.NumericalDriftError, match="j=2 are complex"):
        lb.build_dissipator(spec, lb.BasisLayout(2, 4), backend="spectral")


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
    cases = [
        (lb.build_dissipator(spec, full), random_state(full, seed=41).matrix),
        (spectral, random_state(spectral.layout, seed=43).matrix),
        (lb.build_dissipator(spec, probe_layout), probe.matrix),
        (spectral, sector),
        (band3, random_state(band3.layout, seed=29).matrix),
    ]
    for k, (dset, rho) in enumerate(cases):
        oracle = dense_action(dset, rho)
        assert np.max(np.abs(dset.apply(rho) - oracle)) <= 1e-14 * np.max(np.abs(oracle)), k


def built_and_retained(build):
    """build()'s result, the bytes it leaves allocated and its peak
    (tracemalloc)."""
    tracemalloc.start()
    try:
        return (build(),) + tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_dissipator_keeps_only_its_diagonals():
    # no gain matrix is stored: a linearized family on j in [20, 40]
    # (D = 1281) keeps its five diagonals (51 kB), not a D^2 gain per offset;
    # a linearized build takes no probe, so building the family stays below
    # one dense complex D x D matrix (a dense probe peaked at 120 MB)
    spec = n1_spec()
    lb.build_dissipator(spec, lb.BasisLayout(2, 3))  # builds the shared rules
    layout = lb.BasisLayout(20, 40)
    dset, kept, peak = built_and_retained(lambda: lb.build_dissipator(spec, layout))
    assert kept < 2 * 2**20
    assert peak < 16 * layout.dim**2
    assert not hasattr(dset, "bands")
    spec = spectral_spec()
    lb.build_dissipator(spec, lb.BasisLayout(1, 2), backend="spectral")
    dset, kept, _ = built_and_retained(
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
    # rate module, from small j up to superrotor j: both read band 0 as one
    # square, so they agree to rounding
    spec = n1_spec()
    for j in (4, 10, 40, 100, 400, 1000):
        layout = lb.BasisLayout(j - 2, j)
        rho = lb.centrifuge_state(layout, {j - 2: 2**-0.5, j: 2**-0.5})
        corner = rho.pattern.corners[2, 0]
        for mode in ("half", "exact"):
            dset = lb.build_dissipator(spec, layout, kappa_mode=mode)
            action = lb._chain_action(dset, rho.pattern, rho.values)
            rate = -(action[corner] / rho.values[corner]).real
            oracle = gamma_numeric(j, j - 2, spec, kappa_mode=mode).gamma
            assert rate == pytest.approx(oracle, rel=1e-15, abs=0.0), (j, mode)


def chain_against_rows(j, j_prime, shift, kappa_mode):
    """The linearized generator of chain (j, j', shift) over its collision
    weight, the same matrix from rates.chain_row's rows, and the rows'
    bands past the chain's end."""
    spec = n1_spec()
    layout = lb.BasisLayout(min(j, j_prime), max(j, j_prime))
    dset = lb.build_dissipator(spec, layout, kappa_mode=kappa_mode)
    ms = range(max(-j, shift - j_prime), min(j, j_prime + shift) + 1)
    rows = np.array([[layout.index(j, m) for m in ms]])
    cols = np.array([[layout.index(j_prime, m - shift) for m in ms]])
    gen = lb._chain_generators(dset, rows, cols)[0] / dset.collision_weight
    n = len(ms)
    row = np.zeros((n, n + 2))
    for i, m in enumerate(ms):
        row[i, i : i + 3] = chain_row(j, j_prime, shift, m, spec.molecule, kappa_mode)
    return gen, np.triu(row[:, :n]) + np.triu(row[:, :n], 1).T, row[:, n:]


@pytest.mark.parametrize("kappa_mode", ["exact", "half"])
def test_chain_generators_match_chain_row_at_superrotor_j(kappa_mode):
    # chain_row is the generator's stdlib oracle at large j too: band 0's
    # loss and gain, summed apart, would cancel and miss it by up to 4e-14.
    # Every nonzero entry within 2e-15 of chain_row's, every other one 0
    for chain in ((400, 398, 2), (1000, 998, 2), (1000, 1000, 0)):
        gen, expected, _ = chain_against_rows(*chain, kappa_mode)
        assert np.all(np.abs(gen - expected) <= 2e-15 * np.abs(expected)), chain


@pytest.mark.parametrize("kappa_mode", ["exact", "half"])
def test_spectral_corner_decay_matches_rate_module(kappa_mode):
    # the spectral rate and the spectral generator's stretched corner are
    # two readings of one bracket, the rate's on the column of the ring
    # shapes S = I + A and the generator's on their symmetrized bands.  S
    # rounds to its identity's eps, so the pair differs by that eps over
    # the size of A: under 2e-15 at the SI anisotropy (alpha_aniso /
    # alpha_mean = 0.4) or at 1.0, up to 1.6e-14 at 0.06
    cases = [(si_spec(), 1e-14), (spectral_spec(set=[("molecule", "alpha_aniso", 1.0)]), 1e-14),
             (spectral_spec(), 4e-14)]
    for spec, rel in cases:
        for j in (2, 4, 10):
            layout = lb.BasisLayout(j - 2, j)
            dset = lb.build_dissipator(spec, layout, backend="spectral", kappa_mode=kappa_mode)
            corner = np.array([[layout.index(j, j)]]), np.array([[layout.index(j - 2, j - 2)]])
            rate = -lb._chain_generators(dset, *corner)[0, 0, 0]
            oracle = gamma_numeric(j, j - 2, spec, amplitude_backend="spectral",
                                   kappa_mode=kappa_mode).gamma
            assert rate == pytest.approx(oracle, rel=rel, abs=0.0), j


@settings(max_examples=150, deadline=None)
@given(
    j=st.integers(0, 24),
    j_prime=st.integers(0, 24),
    kappa_mode=st.sampled_from(["exact", "half"]),
    data=st.data(),
)
def test_chain_row_matches_chain_generators(j, j_prime, kappa_mode, data):
    # rates.chain_row, row by row, is the linearized generator of chain
    # (j, j', Q) over its collision weight, zero past the chain's end
    reach = min(min(j, j_prime) + 2, j + j_prime)
    shift = data.draw(st.integers(-reach, reach))
    gen, expected, past_end = chain_against_rows(j, j_prime, shift, kappa_mode)
    assert np.max(np.abs(gen - expected)) <= 1e-15 * np.max(np.abs(gen))
    assert not np.any(past_end)


def test_propagate_unitary_limit():
    spec = n1_spec()
    layout = lb.BasisLayout(2, 4)
    state = random_state(layout, seed=9)
    final = lb.propagate(state, jump_free(layout), spec, 0.5, 0.005).final
    assert final.purity() == pytest.approx(state.purity(), abs=1e-8)
    np.testing.assert_allclose(
        np.diag(final.matrix).real, np.diag(state.matrix).real, atol=1e-10
    )


def test_propagate_coherence_rotates_at_delta():
    spec = n1_spec()
    layout = lb.BasisLayout(2, 4)
    rho0 = lb.centrifuge_state(layout, {2: 2**-0.5, 4: 2**-0.5})
    traj = lb.propagate(rho0, jump_free(layout), spec, 0.02, 0.001, record_every=1)
    phases = np.unwrap(np.angle(traj.corner_coherence(4, 2)))
    slope = np.polyfit(traj.times, phases, 1)[0]
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
    fit = lb.extract_decay_rate(list(zip(traj.times, np.abs(traj.corner_coherence(10, 8)))))
    assert fit == pytest.approx(gamma, rel=0.02)
    fit_sig = lb.extract_decay_rate(list(zip(traj.times, traj.signal(10))))
    assert fit_sig == pytest.approx(2 * gamma, rel=0.02)


def test_propagate_short_time_law():
    spec = n1_spec()
    layout = lb.BasisLayout(4, 6)
    dset = lb.build_dissipator(spec, layout, kappa_mode="half")
    rho0 = lb.centrifuge_state(layout, {4: 2**-0.5, 6: 2**-0.5})
    gamma = gamma_closed_form(6, 4, spec).gamma
    t_end = 0.05 / gamma
    traj = lb.propagate(rho0, dset, spec, t_end, t_end / 50, record_every=1)
    for t, corner in zip(traj.times[1:], traj.corner_coherence(6, 4)[1:]):
        expected = 0.5 * (1.0 - gamma * t)
        assert abs(corner) == pytest.approx(expected, rel=5e-3)


def test_propagate_conservation_and_positivity():
    spec = n1_spec()
    layout = lb.BasisLayout(4, 8)
    dset = lb.build_dissipator(spec, layout)
    rho0 = lb.centrifuge_state(layout, lb.gaussian_profile(layout, 6.0, 1.2))
    traj = lb.propagate(rho0, dset, spec, 2.0, 0.01)
    pops0 = list(rho0.block_populations().values())
    assert np.max(np.abs(traj.block_populations() - pops0)) <= 1e-8
    assert np.all(traj.min_eigenvalues() >= -1e-9)
    purities = traj.purity()
    assert np.all(purities[1:] <= purities[:-1] + 1e-8)


def test_propagate_isotropic_fixed_point():
    spec = n1_spec()
    layout = lb.BasisLayout(3, 5)
    dset = lb.build_dissipator(spec, layout)
    iso = lb.isotropic_state(layout, {3: 0.5, 4: 0.3, 5: 0.2})
    last = lb.propagate(iso, dset, spec, 1.0, 0.01).final
    assert np.max(np.abs(last.matrix - iso.matrix)) <= 1e-8
    # the chain-entry deviation the CLI prints is the dense one
    assert last.max_deviation(iso) == np.max(np.abs(last.matrix - iso.matrix))
    with pytest.raises(ValueError):
        last.max_deviation(lb.centrifuge_state(layout, {3: 0.6, 5: 0.8}))


def test_propagate_guards():
    spec = n1_spec()
    layout = lb.BasisLayout(2, 6)
    state = random_state(layout, seed=1)
    free = jump_free(layout)
    spread = lb.coherent_frequency_spread(spec, free)
    with pytest.raises(lb.StepSizeViolation, match="step-size violation"):
        lb.propagate(state, free, spec, 1.0, 0.5 / spread)
    with pytest.raises(ValueError, match="positive"):
        lb.propagate(state, free, spec, -1.0, 0.01)
    for t_final, dt in (
        (math.inf, 0.01), (math.nan, 0.01), (1.0, math.nan), (1.0, math.inf), (1e300, 1e-300)
    ):
        with pytest.raises(ValueError, match="finite"):
            lb.propagate(state, free, spec, t_final, dt)
    other = lb.build_dissipator(spec, lb.BasisLayout(0, 1))
    with pytest.raises(ValueError, match="layout"):
        lb.propagate(state, other, spec, 0.1, 0.001)
    for record_every in (0, -3):
        with pytest.raises(ValueError, match="record_every"):
            lb.propagate(state, free, spec, 0.1, 0.001, record_every=record_every)


def test_spectral_gas_shift_follows_kappa():
    # oracle: H_g(j) = -2 pi hbar^2 (n_g/mu) Int dq q^2 nu_th Re c(q) times
    # the sphere sum of the public spectral shape F(q_th n)/c(q_th) at the
    # dissipator's kappa; the isotropic factor is energy_shift_matrix / 4 pi
    spec = spectral_spec()
    layout = lb.BasisLayout(1, 3)
    dset = lb.build_dissipator(spec, layout, backend="spectral", kappa_mode="half")
    q_th = spec.thermal_momentum
    c_th = scattering.forward_scalar(q_th, spec)
    sphere = product_rule(spec.numerics.quad_order_sphere)
    levels, residual = lb._hamiltonian(spec, dset)
    for level, (j, sl) in zip(levels, layout.blocks()):
        h = level * np.eye(2 * j + 1) + np.diag(residual[sl])
        geom = sum(
            w * scattering.forward_amplitude_spectral(j, q_th, n, spec, "half") / c_th
            for n, w in zip(*sphere)
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
    chain = lb.propagate(rho0, dset, spec, 0.2, 0.002).final
    assert np.max(np.abs(exact.matrix - chain.matrix)) <= 1e-10


def test_evolve_exact_spectral_backend():
    spec = spectral_spec()
    layout = lb.BasisLayout(1, 3)
    dset = lb.build_dissipator(spec, layout, backend="spectral")
    rho0 = lb.centrifuge_state(layout, {1: 2**-0.5, 3: 2**-0.5})
    exact = evolve_exact(rho0, dset, spec, 0.5)
    chain = lb.propagate(rho0, dset, spec, 0.5, 0.005).final
    assert np.max(np.abs(exact.matrix - chain.matrix)) <= 1e-10


def test_spectral_propagate_at_step_bound_matches_exact():
    # the block scalars E_j + s_iso rotate at the full coherent spread and
    # enter each chain's eigenvalues in closed form; the chain generators
    # carry the dissipator and the residual shift, so a mixed state sampled
    # near the dt * max|Delta| = STEP_GUARD bound still lands on the
    # Liouvillian exponential
    spec = spectral_spec()
    layout = lb.BasisLayout(2, 4)
    dset = lb.build_dissipator(spec, layout, backend="spectral")
    coherent = lb.centrifuge_state(layout, lb.gaussian_profile(layout, 3.0, 1.0))
    iso = lb.isotropic_state(layout, {j: 1.0 / 3.0 for j in layout.js})
    rho0 = lb.RotorState.from_matrix(layout, 0.5 * (coherent.matrix + iso.matrix))
    dt = 0.99 * lb.STEP_GUARD / lb.coherent_frequency_spread(spec, dset)
    t_final = 200 * dt
    chain = lb.propagate(rho0, dset, spec, t_final, dt).final
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
    flow, _ = lb._chain_flow(rho0, dset, np.zeros(n_blocks), np.zeros(layout.dim))
    out = np.zeros((layout.dim, layout.dim), dtype=complex)
    out[rho0.pattern.rows, rho0.pattern.cols] = flow(np.array([t]))[0]
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
    """(collision_weight, B) for every dense D x D jump B of dset: each
    stored op of band q, and its transpose on band -q where q > 0."""
    d = dset.layout.dim
    rows = np.arange(d)
    for q, band in enumerate(dset.diagonals):
        for b in band:
            op = np.zeros((d, d), dtype=complex)
            op[rows[: d - q], rows[q:]] = b[: d - q]
            yield dset.collision_weight, op
            if q:
                yield dset.collision_weight, op.T


def dense_action(dset, rho):
    """Oracle of DissipatorSet.apply:
    sum_k cw (B_k rho B_k^+ - {B_k^+ B_k, rho}/2) on the dense jumps."""
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


def frames_again(rho0, dset, spec, times):
    """The frames of a propagate run from rho0 under dset at times, as
    RotorStates: the run's chain flow evaluated again at times - rho0.time,
    in one batched call."""
    flow = lb._chain_flow(rho0, dset, *lb._hamiltonian(spec, dset))[0]
    values = flow(np.asarray(times) - rho0.time)
    return [lb.RotorState(rho0.layout, rho0.pattern, v, float(t)) for v, t in zip(values, times)]


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
        traj = lb.propagate(rho0, dset, spec, 0.5, 0.001, record_every=50)
        rk4 = rk4_frames(rho0, dset, spec, 0.5, 0.001, record_every=50)
        assert len(traj) == len(rk4) == 11
        chain = frames_again(rho0, dset, spec, traj.times)
        for k, (a, b) in enumerate(zip(chain, rk4)):
            assert a.time == pytest.approx(50 * k * 0.001)
            assert np.max(np.abs(a.matrix - b)) <= 1e-12


def band_beyond_chain_family():
    """One jump on the band q = 3 of the j = 2 block (zero bands 0 to 2),
    and its transpose on q = -3: its chains of length 2 (the Q = +-3
    diagonals) have no partner q steps along."""
    layout = lb.BasisLayout(2, 2)
    bands = np.zeros((4, 1, 5))
    bands[3, 0, :2] = [0.3, -0.2]
    return lb.DissipatorSet(layout, 1.0, bands, np.zeros(5))


def test_band_beyond_chain_length():
    # a chain with no partner q steps along must leave its generator alone
    # rather than wrap around
    spec = n1_spec()
    dset = band_beyond_chain_family()
    rho0 = random_state(dset.layout, seed=29)
    chain = lb.propagate(rho0, dset, spec, 2.0, 0.01).final
    exact = evolve_exact(rho0, dset, spec, 2.0)
    assert np.max(np.abs(exact.matrix - chain.matrix)) <= 1e-10
    assert np.max(np.abs(chain.matrix - rho0.matrix)) > 1e-3


@pytest.mark.parametrize(
    "backend,window,aniso",
    [("linearized", (2, 8), None), ("linearized", (20, 30), None), ("spectral", (2, 4), 1.0)],
)
def test_transposed_chain_generator_is_conjugate(backend, window, aniso):
    # the dissipator maps rho^+ to D(rho)^+, so the generator of the chain
    # holding the transposed entries is the conjugate of the chain's own;
    # both families are real, so it is the same real matrix.  Each band's
    # gain is one product written on both sides of the diagonal, so the
    # generators are symmetric and equal for a chain and its transpose, bit
    # for bit
    spec = n1_spec() if aniso is None else spectral_spec(set=[("molecule", "alpha_aniso", aniso)])
    layout = lb.BasisLayout(*window)
    dset = lb.build_dissipator(spec, layout, backend=backend)
    rows, cols = np.indices((layout.dim, layout.dim)).reshape(2, -1)
    for chain_rows, chain_cols in lb._occupied_chains(layout, rows, cols):
        gen = lb._chain_generators(dset, chain_rows, chain_cols)
        assert gen.dtype == np.float64
        np.testing.assert_array_equal(gen, gen.transpose(0, 2, 1))
        np.testing.assert_array_equal(lb._chain_generators(dset, chain_cols, chain_rows), gen)


def test_ill_conditioned_chain_generator_raises_drift():
    # a zero band 0, and a unit op on band 1 and its transpose, make the
    # Q = +-1 chains of the j = 1 block the real [[a, b], [b, a]] with
    # a = -3/2, b = 1.  A residual whose difference along the chain is 2 b
    # (in units of hbar) adds -2 i b to one diagonal entry: the complex symmetric (a - i b) I + b [[-i, 1],
    # [1, i]] has a nilpotent part, one eigenvector with x^T x = 0 and no
    # eigenbasis V with V^-1 = V^T.  Half that residual leaves two distinct
    # eigenvalues, and the flow
    layout = lb.BasisLayout(1, 1)
    dset = lb.DissipatorSet(layout, 1.0, np.array([[[0.0, 0.0, 0.0]], [[1.0, 1.0, 0.0]]]),
                            np.zeros(3))
    rho0 = random_state(layout, seed=53)
    rows, cols = lb._occupied_chains(layout, [0, 1], [1, 2])[0]
    np.testing.assert_array_equal(lb._chain_generators(dset, rows, cols),
                                  [[[-1.5, 1.0], [1.0, -1.5]]] * 2)
    with pytest.raises(lb.NumericalDriftError, match="misses it"):
        lb._chain_flow(rho0, dset, np.zeros(1), np.array([2.0 * HBAR, 0.0, 0.0]))
    _, diag = lb._chain_flow(rho0, dset, np.zeros(1), np.array([HBAR, 0.0, 0.0]))
    assert diag["chains_eig"] > 0 and diag["reconstruction_miss"] <= lb.EIG_RECON_TOL


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


def assert_columns_match_frames(traj, rho0, dset, spec, signal_js):
    """Every Trajectory column equals the same value computed by plain numpy
    on the D x D frames, evaluated again by the run's chain flow."""
    frames = frames_again(rho0, dset, spec, traj.times)
    layout = traj.layout
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
    # the batched product may round differently for another set of frames
    assert traj.final.time == frames[-1].time
    np.testing.assert_allclose(traj.final.values, frames[-1].values, rtol=0, atol=1e-14)


def test_trajectory_columns_match_dense_frames():
    spec = n1_spec()
    # the propagate-linearized input: a Gaussian wavepacket on j in [8, 15]
    layout = lb.BasisLayout(8, 15)
    dset = lb.build_dissipator(spec, layout)
    rho0 = lb.centrifuge_state(layout, lb.gaussian_profile(layout, 11.5, 2.0))
    traj = lb.propagate(rho0, dset, spec, 0.1, 0.001)
    assert len(traj) == 101
    assert_columns_match_frames(traj, rho0, dset, spec, range(10, 16))

    # a full spectral state: every chain occupied, one component
    sspec = spectral_spec()
    layout = lb.BasisLayout(2, 4)
    rho0 = random_state(layout, seed=31)
    dset = lb.build_dissipator(sspec, layout, "spectral")
    traj = lb.propagate(rho0, dset, sspec, 4.0, 0.1)
    groups, empty = traj.final.pattern.components
    assert len(traj.final.pattern.rows) == layout.dim**2 and not empty
    assert [(n, s) for n, s, _, _ in groups] == [(1, layout.dim)]
    assert_columns_match_frames(traj, rho0, dset, sspec, [4])

    # an isotropic state on blocks 3 and 5 only: the other blocks' rows
    # hold no entry and add the eigenvalue 0
    layout = lb.BasisLayout(2, 6)
    rho0 = lb.isotropic_state(layout, {3: 0.6, 5: 0.4})
    dset = lb.build_dissipator(spec, layout)
    traj = lb.propagate(rho0, dset, spec, 0.5, 0.01)
    assert traj.final.pattern.components[1]
    assert np.all(traj.min_eigenvalues() == 0.0)
    assert_columns_match_frames(traj, rho0, dset, spec, [4, 5, 6])


def test_entry_pattern_is_its_own_transpose():
    # rho0 may hold an entry whose transpose is exactly zero (hermitian to
    # HERM_TOL); both chains are kept so every entry has its partner
    spec = n1_spec()
    layout = lb.BasisLayout(1, 2)
    mat = np.diag(np.full(layout.dim, 1.0 / layout.dim)).astype(complex)
    mat[0, 2] = 0.5 * lb.HERM_TOL
    rho0 = lb.RotorState.from_matrix(layout, mat)
    traj = lb.propagate(rho0, lb.build_dissipator(spec, layout), spec, 0.5, 0.01)
    pattern = traj.final.pattern
    np.testing.assert_array_equal(pattern.rows[pattern.partner], pattern.cols)
    np.testing.assert_array_equal(pattern.cols[pattern.partner], pattern.rows)
    assert pattern.locate(2, 0) >= 0 and rho0.values[pattern.locate(2, 0)] == 0
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


def test_propagate_and_csv_hold_no_frames():
    # propagate reduces each chunk of frames to its columns as it checks
    # them, and the CSV reads those columns: at j in [20, 40] the 251 frames
    # would take 95.7 MB, and keeping them peaked at 138 MB.  The returned
    # Trajectory keeps the columns and the final frame, not the flow and its
    # chain eigenvectors (23 MB)
    spec = n1_spec()
    layout = lb.BasisLayout(20, 40)
    dset = lb.build_dissipator(spec, layout)
    rho0 = lb.centrifuge_state(layout, lb.gaussian_profile(layout, 30.0, 5.0))
    tracemalloc.start()
    try:
        traj = lb.propagate(rho0, dset, spec, 0.05, 0.0002)
        held, _ = tracemalloc.get_traced_memory()
        text = lb.trajectory_csv(traj, signal_js=range(22, 41))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj) == 251 and len(text.splitlines()) == 252
    assert peak < len(traj) * len(rho0.values) * 16
    assert held < 4e6


def test_final_state_is_the_last_row():
    # the final state is the last evaluated frame itself, not a new
    # evaluation, so its reduction is the last row of the columns bit for bit
    layout = lb.BasisLayout(8, 15)
    gaussian = lb.centrifuge_state(layout, lb.gaussian_profile(layout, 11.5, 2.0))
    full = random_state(lb.BasisLayout(2, 4), seed=31)
    for rho0, spec, backend, t_final, record_every in (
        (gaussian, n1_spec(), "linearized", 0.04, 7),
        (full, spectral_spec(), "spectral", 4.0, None),
    ):
        dset = lb.build_dissipator(spec, rho0.layout, backend)
        traj = lb.propagate(rho0, dset, spec, t_final, t_final / 200, record_every=record_every)
        final = traj.final
        assert isinstance(final, lb.RotorState) and final.pattern is rho0.pattern
        assert final.time == traj.times[-1]
        for name, col in final._columns.items():
            np.testing.assert_array_equal(col[0], traj.columns[name][-1])
        assert final.min_eigenvalue() == traj.min_eigenvalues()[-1]


def test_chunked_frames_match_every_step_run():
    # record_every=7 over 200 steps: the last step falls off the record grid
    # and is evaluated as well, in the second chunk
    spec = n1_spec()
    layout = lb.BasisLayout(8, 15)
    dset = lb.build_dissipator(spec, layout)
    rho0 = lb.centrifuge_state(layout, lb.gaussian_profile(layout, 11.5, 2.0))
    every = lb.propagate(rho0, dset, spec, 0.04, 0.0002, record_every=1)
    sparse = lb.propagate(rho0, dset, spec, 0.04, 0.0002, record_every=7)
    steps = np.r_[0:201:7, 200]
    np.testing.assert_array_equal(sparse.times, every.times[steps])
    # the diagonal lies on (j, j) chains, which are real and take no phase
    assert not np.any(every.columns["trace"].imag)
    for name, col in sparse.columns.items():
        np.testing.assert_allclose(col, every.columns[name][steps], rtol=0, atol=1e-14)
    np.testing.assert_allclose(sparse.final.values, every.final.values, rtol=0, atol=1e-14)
    # the sparse run checks exactly the steps it records, in chunks of
    # _frames_per_chunk frames, by the batch density-matrix rule
    evaluated = sorted(set(range(7, 201, 7)) | {200})
    pattern = rho0.pattern
    chunk = lb._frames_per_chunk(len(pattern.rows))
    assert len(evaluated) == len(sparse) - 1 > chunk
    checks = []
    for taus in np.split(every.times[evaluated], [chunk]):
        frames = np.array([f.values for f in frames_again(rho0, dset, spec, taus)])
        checks.append(lb._reduce(layout, pattern, frames))
    assert sparse.diagnostics == dict(
        every.diagnostics,
        recorded_spacing_max_delta=7 * every.diagnostics["dt_max_delta"],
        max_trace_deviation=max(np.concatenate([c["trace_dev"] for c in checks])),
        max_hermiticity_deviation=max(np.concatenate([c["herm_dev"] for c in checks])),
        min_eigenvalue=min(np.concatenate([c["min_eig"] for c in checks])),
    )
    # a start at t0 != 0 evaluates each frame at the same elapsed time
    late_rho0 = lb.RotorState(rho0.layout, rho0.pattern, rho0.values, time=0.3)
    late = lb.propagate(late_rho0, dset, spec, 0.04, 0.0002, record_every=7)
    np.testing.assert_array_equal(late.times, 0.3 + sparse.times)
    assert late.final.time == late.times[-1]
    for name, col in late.columns.items():
        np.testing.assert_allclose(col, sparse.columns[name], rtol=0, atol=1e-14)
    np.testing.assert_allclose(late.final.values, sparse.final.values, rtol=0, atol=1e-14)


def test_frames_per_chunk_bounds_the_chunk_bytes():
    # 16 frames while 16 of them fit CHUNK_BYTES as complex values, 4 on the
    # j in [60, 100] window of gaussian:80,8 (247 681 entries), never below 1
    assert lb.CHUNK_BYTES == 16 * 2**20
    assert [lb._frames_per_chunk(n) for n in (1, 1368, 22_000, 65_536)] == [16] * 4
    assert lb._frames_per_chunk(247_681) == 4
    assert lb._frames_per_chunk(524_288) == 2
    assert [lb._frames_per_chunk(n) for n in (524_289, 10**7, 10**12)] == [1] * 3


def test_byte_bounded_chunks_match_full_chunks(monkeypatch):
    # 29 evaluated frames in chunks of 3 reuse one (3, N) array, the last
    # chunk its first 2 rows; the columns and the final state are those of
    # 16-frame chunks
    spec = n1_spec()
    layout = lb.BasisLayout(8, 15)
    dset = lb.build_dissipator(spec, layout)
    rho0 = lb.centrifuge_state(layout, lb.gaussian_profile(layout, 11.5, 2.0))
    full = lb.propagate(rho0, dset, spec, 0.04, 0.0002, record_every=7)
    n = len(rho0.pattern.rows)
    monkeypatch.setattr(lb, "CHUNK_BYTES", 3 * 16 * n)
    assert lb._frames_per_chunk(n) == 3
    small = lb.propagate(rho0, dset, spec, 0.04, 0.0002, record_every=7)
    assert len(small) == len(full) == 30
    for name, col in small.columns.items():
        np.testing.assert_allclose(col, full.columns[name], rtol=0, atol=1e-14)
    np.testing.assert_allclose(small.final.values, full.final.values, rtol=0, atol=1e-14)
    assert small.final.time == full.final.time


@pytest.mark.parametrize("window", [(3, 6), (0, 0)])
def test_isotropic_state_without_jumps_is_kept_bitwise(window):
    # a (j, j) chain takes no block phase: p_j conj(p_j) is 1 only to
    # rounding, and multiplying by it would move the state's bits
    spec = n1_spec()
    layout = lb.BasisLayout(*window)
    dset = jump_free(layout)
    rho0 = lb.isotropic_state(layout, {j: j + 1.0 for j in layout.js})
    taus = 0.05 * np.arange(101)
    flow = lb._chain_flow(rho0, dset, *lb._hamiltonian(spec, dset))[0]
    np.testing.assert_array_equal(flow(taus), np.tile(rho0.values, (101, 1)))
    traj = lb.propagate(rho0, dset, spec, 5.0, 0.05, record_every=1)
    assert len(traj) == 101
    assert not np.any(traj.columns["trace"].imag)
    for name in ("trace", "populations"):
        col = traj.columns[name]
        np.testing.assert_array_equal(col, np.broadcast_to(col[0], col.shape))
    np.testing.assert_array_equal(traj.final.values, rho0.values)


def test_block_phases_keep_the_spectrum_at_large_phase():
    # at the SI conditions E_j tau / hbar reaches 1e9 rad long before
    # gamma t = 3.  Folded into the chain eigenvalues, such phases moved the
    # smallest eigenvalue to -2.5e-9 at j in [20, 24]; applied as one phase
    # of modulus one per block they leave every |entry| and the spectrum
    # as without the levels
    spec = si_spec()
    layout = lb.BasisLayout(20, 24)
    rho0 = lb.centrifuge_state(layout, lb.gaussian_profile(layout, 22.0, 1.0))
    dset = lb.build_dissipator(spec, layout)
    levels, residual = lb._hamiltonian(spec, dset)
    taus = np.array([1e9, 2e9]) * HBAR / levels[-1]
    frames = lb._chain_flow(rho0, dset, levels, residual)[0](taus)
    still = lb._chain_flow(rho0, dset, 0.0 * levels, residual)[0](taus)
    assert np.all(rho0.pattern.min_eigenvalues(frames) >= lb.EIG_FLOOR)
    np.testing.assert_allclose(np.abs(frames), np.abs(still), rtol=0, atol=1e-15)


def test_propagate_reaches_gamma_t_3_at_si_conditions():
    # gaussian:30,5 on j in [20, 40], with dt at the step-size guard: 2.5e12
    # steps, of which the default grid records every (n_steps // 200)-th
    spec = si_spec()
    t_final, dt = 4.23e10, 0.0166
    assert gamma_closed_form(30, 28, spec).gamma * t_final == pytest.approx(3.0, rel=0.01)
    layout = lb.BasisLayout(20, 40)
    rho0 = lb.centrifuge_state(layout, lb.gaussian_profile(layout, 30.0, 5.0))
    traj = lb.propagate(rho0, lb.build_dissipator(spec, layout), spec, t_final, dt)
    diag = traj.diagnostics
    assert len(traj) <= 1000
    assert diag["max_trace_deviation"] <= 1e-14
    assert diag["max_hermiticity_deviation"] <= 1e-14
    assert -diag["min_eigenvalue"] <= 1e-14
    # the recorded frames sit 1e9 rad of the fastest coherence apart
    record_every = diag["steps"] // 200
    assert diag["recorded_spacing_max_delta"] == record_every * diag["dt_max_delta"]
    assert diag["recorded_spacing_max_delta"] > 1e9


def test_propagate_reports_chain_shape():
    # the propagate-linearized input: every ordered block pair (j, j') holds
    # one stretched corner, on the chain Q = j - j' of 2 min(j, j') + 1 entries
    spec = n1_spec()
    layout = lb.BasisLayout(8, 15)
    rho0 = lb.centrifuge_state(layout, lb.gaussian_profile(layout, 11.5, 2.0))
    traj = lb.propagate(rho0, lb.build_dissipator(spec, layout), spec, 0.01, 0.001)
    diag = traj.diagnostics
    assert diag["chains"] == 64
    assert diag["largest_chain"] == 31
    assert diag["entries"] == len(traj.final.pattern.rows)
    assert diag["entries"] == sum(2 * min(j, k) + 1 for j in layout.js for k in layout.js)
    assert 0.0 <= diag["reconstruction_miss"] <= lb.EIG_RECON_TOL
    # the linearized chain generators are real and symmetric: all take eigh
    assert (diag["chains_eigh"], diag["chains_eig"]) == (64, 0)


@pytest.mark.parametrize("backend", ["linearized", "spectral"])
def test_chain_flow_matches_expm_oracle(backend):
    # every chain against scipy's expm of its generator, residual included,
    # times the block phases p_j conj(p_j') that flow applies, at a few
    # times: the linearized chains take eigh, the spectral ones with a
    # residual eig with V^T V = I
    if backend == "linearized":
        spec, layout, taus = n1_spec(), lb.BasisLayout(20, 30), np.array([0.0, 0.005, 0.05, 0.5])
        rho0 = lb.centrifuge_state(layout, lb.gaussian_profile(layout, 25.0, 3.0))
    else:
        spec, layout, taus = spectral_spec(), lb.BasisLayout(2, 4), np.array([0.0, 0.5, 5.0, 50.0])
        rho0 = random_state(layout, seed=59)
    dset = lb.build_dissipator(spec, layout, backend=backend)
    levels, residual = lb._hamiltonian(spec, dset)
    flow, diag = lb._chain_flow(rho0, dset, levels, residual)
    assert diag["reconstruction_miss"] <= lb.EIG_RECON_TOL
    if backend == "linearized":
        assert not np.any(residual) and (diag["chains_eigh"], diag["chains_eig"]) == (121, 0)
    else:
        assert np.any(residual) and diag["chains_eig"] > 0
    frames = flow(taus)
    p = np.exp((-1j / HBAR) * np.multiply.outer(taus, levels))
    block = np.repeat(np.arange(len(levels)), layout.block_sizes)
    for rows, cols, span in rho0.pattern.groups:
        start = rho0.values[span].reshape(rows.shape)
        got = frames[:, span].reshape((len(taus),) + rows.shape)
        gens = lb._chain_generators(dset, rows, cols).astype(complex)
        steps = np.arange(rows.shape[1])
        gens[:, steps, steps] += (-1j / HBAR) * (residual[rows] - residual[cols])
        for k, gen in enumerate(gens):
            phase = p[:, block[rows[k, 0]]] * p[:, block[cols[k, 0]]].conj()
            for f, tau in enumerate(taus):
                want = phase[f] * (scipy.linalg.expm(gen * tau) @ start[k])
                assert np.max(np.abs(got[f, k] - want)) <= 1e-12 * np.max(np.abs(want))


def test_complex_chains_take_eig():
    # a chain takes eigh while it is real and eig once a residual gas shift
    # makes it complex symmetric.  The
    # centrifuge chains have lengths 5 (five chains), 7 (three) and 9 (the
    # Q = 0 chain of block (4, 4)); a residual cancels on the Q = 0 chains
    # of blocks (2, 2), (3, 3) and (4, 4), which keep eigh beside the
    # shifted chains of their length
    layout = lb.BasisLayout(2, 4)
    rho0 = lb.centrifuge_state(layout, {2: 0.6, 3: 0.5, 4: math.sqrt(1 - 0.61)})
    spec, spectral = n1_spec(), spectral_spec()
    linearized = lb.build_dissipator(spec, layout)
    levels = lb._hamiltonian(spec, linearized)[0]
    cases = [
        (linearized, np.zeros(layout.dim), (9, 0)),
        (linearized, 1e-3 * np.arange(layout.dim), (3, 6)),
        (lb.build_dissipator(spectral, layout, backend="spectral"), None, (3, 6)),
    ]
    for dset, residual, counts in cases:
        if residual is None:
            residual = lb._hamiltonian(spectral, dset)[1]
        _, diag = lb._chain_flow(rho0, dset, levels, residual)
        assert diag["reconstruction_miss"] <= lb.EIG_RECON_TOL
        assert (diag["chains_eigh"], diag["chains_eig"]) == counts


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
    prof = lb.gaussian_profile(layout, 30.0, 5.0)
    norm = math.sqrt(math.fsum(abs(c) ** 2 for c in prof.values()))
    for j, c in prof.items():
        amp[layout.index(j, j)] = c / norm
    np.testing.assert_array_equal(rho0.matrix, np.outer(amp, amp.conj()))
    with pytest.raises(ValueError):
        rho0.matrix[0, 0] = 1.0


def test_alignment_signal():
    # the signal of level j is the squared stretched corner of block (j, j - 2)
    layout = lb.BasisLayout(8, 12)
    two = lb.centrifuge_state(layout, {10: 2**-0.5, 12: 2**-0.5})
    assert abs(two.corner_coherence(12, 10)) ** 2 == pytest.approx(0.25, abs=1e-14)
    assert two.corner_coherence(10, 8) == 0.0
    iso = lb.isotropic_state(layout, {10: 1.0})
    assert iso.corner_coherence(10, 8) == 0.0
    with pytest.raises(ValueError):
        two.corner_coherence(9, 7)  # j-2 = 7 outside layout
    with pytest.raises(ValueError):
        two.corner_coherence(1, -1)


def test_extract_decay_rate():
    t = np.linspace(0.0, 2.0, 10)
    samples = list(zip(t, np.exp(-2.0 * t)))
    assert lb.extract_decay_rate(samples) == pytest.approx(2.0, abs=1e-10)
    flat = [(float(x), 0.7) for x in t]
    assert lb.extract_decay_rate(flat) == 0.0
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
    _atomic_write(str(path), lb.state_dump(state))
    # the dump is scattered from the state's entries, not from its matrix
    assert "matrix" not in vars(state)
    back = lb.read_state_binary(path)
    assert back.layout == layout
    assert back.time == state.time
    np.testing.assert_array_equal(back.matrix, state.matrix)
    expected = 24 + 8 + 16 * layout.dim**2
    assert path.stat().st_size == expected
    with open(path, "rb") as fh:
        header = np.frombuffer(fh.read(24), dtype="<i8")
    assert list(header) == [layout.dim, 3, 5]


def test_state_dump_streams_blocks_of_rows(monkeypatch):
    # blocks of 5 rows of the D = 57 matrix: the header and 12 blocks, the
    # last of 2 rows, whose bytes are those of the dense matrix built after
    spec = n1_spec()
    layout = lb.BasisLayout(8, 10)
    dset = lb.build_dissipator(spec, layout)
    rho0 = lb.centrifuge_state(layout, {8: 0.6, 10: 0.8j})
    state = lb.propagate(rho0, dset, spec, 0.02, 0.001, record_every=20).final
    monkeypatch.setattr(lb, "CHUNK_BYTES", 5 * 16 * layout.dim + 15)
    header, *blocks = lb.state_dump(state)
    assert "matrix" not in vars(state)
    assert header == lb.STATE_HEADER.pack(57, 8, 10, state.time)
    assert [len(b) for b in blocks] == [5 * 57] * 11 + [2 * 57]
    assert b"".join(b.tobytes() for b in blocks) == state.matrix.tobytes()


def test_state_binary_failed_build_leaves_no_file(tmp_path, monkeypatch):
    # a dump that fails after its first blocks are written leaves neither
    # the file nor its temporary
    state = random_state(lb.BasisLayout(0, 1), seed=4)
    monkeypatch.setattr(lb, "CHUNK_BYTES", 16 * 4)

    def failing():
        yield from itertools.islice(lb.state_dump(state), 3)
        raise MemoryError("no room for the next block")

    with pytest.raises(MemoryError):
        _atomic_write(str(tmp_path / "state.bin"), failing())
    assert list(tmp_path.iterdir()) == []


def test_state_binary_rejects_a_state_that_is_not_positive(tmp_path):
    path = tmp_path / "state.bin"
    path.write_bytes(lb.STATE_HEADER.pack(4, 0, 1, 0.0) + NOT_POSITIVE.astype("<c16").tobytes())
    with pytest.raises(ValueError, match="negative eigenvalue -0.1$"):
        lb.read_state_binary(path)


@pytest.mark.parametrize("build", ["from_matrix", "from_entries", "read_state_binary"])
def test_a_state_without_entries_fails_the_rule(tmp_path, build):
    # an empty entry set reaches the rule, not an IndexError in
    # _occupied_chains or _EntryPattern.locate
    layout = lb.BasisLayout(0, 1)
    path = tmp_path / "state.bin"
    path.write_bytes(lb.STATE_HEADER.pack(4, 0, 1, 0.0) + bytes(16 * 16))
    make = {
        "from_matrix": lambda: lb.RotorState.from_matrix(layout, np.zeros((4, 4))),
        "from_entries": lambda: lb.RotorState.from_entries(layout, [], [], []),
        "read_state_binary": lambda: lb.read_state_binary(path),
    }[build]
    with pytest.raises(ValueError, match=r"^trace drift 1 exceeds 1e-10$"):
        make()


def test_apply_to_a_zero_matrix_is_zero():
    dset = lb.build_dissipator(n1_spec(), lb.BasisLayout(0, 1))
    out = dset.apply(np.zeros((4, 4)))
    np.testing.assert_array_equal(out, np.zeros((4, 4)))
    empty = lb._EntryPattern.of_chains(lb.BasisLayout(0, 1), np.zeros(0, int), np.zeros(0, int))
    assert empty.groups == [] and empty.locate([0, 1], [0, 2]).tolist() == [-1, -1]


def test_state_binary_rejects_truncated_files(tmp_path):
    path = tmp_path / "state.bin"
    _atomic_write(str(path), lb.state_dump(random_state(lb.BasisLayout(0, 1), seed=4)))
    # written under a temporary name and renamed: nothing else is left behind
    assert [p.name for p in tmp_path.iterdir()] == ["state.bin"]
    raw = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for size in (0, 10, 24, 31):
        cut.write_bytes(raw[:size])
        with pytest.raises(ValueError, match="32-byte header"):
            lb.read_state_binary(cut)
    # a payload cut inside an entry used to leak numpy's buffer message
    for size in (len(raw) - 16, len(raw) - 3, len(raw) + 1):
        cut.write_bytes((raw + b"\0")[:size])
        with pytest.raises(ValueError, match="payload size does not match"):
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
    # NumericalDriftError at the first recorded frame past the tolerance,
    # never as the RotorState constructor's ValueError
    spec = n1_spec()
    layout = lb.BasisLayout(2, 2)
    rho0 = lb.isotropic_state(layout, {2: 1.0})
    d = layout.dim
    leaky = lb.DissipatorSet(layout, 1.0, np.zeros((0, 0, d)), np.zeros(d))
    leaky.kmat = np.full(layout.dim, -5e-9)
    # the first checked frame past TRACE_TOL: every step, or the only
    # recorded step, the last one at t = 1
    for record_every, t in ((1, "0.02"), (1000, "1")):
        with pytest.raises(lb.NumericalDriftError, match="trace drift .* at t=%s$" % t):
            lb.propagate(rho0, leaky, spec, 1.0, 0.01, record_every=record_every)


def test_min_eigenvalue_diagnostic_covers_every_frame():
    # every evaluated frame is a row of the columns, and the lowest of them
    # is the diagnostic
    spec = n1_spec()
    layout = lb.BasisLayout(2, 6)
    rho0 = lb.centrifuge_state(layout, lb.gaussian_profile(layout, 4.0, 1.0))
    traj = lb.propagate(rho0, lb.build_dissipator(spec, layout), spec, 0.2, 0.002,
                        record_every=1)
    assert traj.diagnostics["min_eigenvalue"] == np.min(traj.min_eigenvalues()[1:])


def test_negative_eigenvalue_on_a_recorded_step_raises(monkeypatch):
    # a recorded frame whose smallest eigenvalue is below EIG_FLOOR (trace
    # 1, hermitian) is drift, not a row of the trajectory
    spec = n1_spec()
    layout = lb.BasisLayout(0, 1)
    rho0 = lb.RotorState.from_matrix(layout, np.diag([0.4, 0.2, 0.2, 0.2]).astype(complex))
    bad = np.array([0.4, 0.2, 0.4 + 1e-6, -1e-6], dtype=complex)

    def flow(taus, out):
        out[:] = rho0.values
        out[np.isclose(taus, 0.03)] = bad
        return out

    monkeypatch.setattr(lb, "_chain_flow", lambda *args: (flow, {}))
    with pytest.raises(lb.NumericalDriftError, match="negative eigenvalue -1e-06 at t=0.03$"):
        lb.propagate(rho0, jump_free(layout), spec, 1.0, 0.01, record_every=1)


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

    # a NaN frame is reported as drift, not recorded
    spec = n1_spec()
    rho0 = lb.RotorState.from_matrix(layout, good)
    np.testing.assert_array_equal(rho0.pattern.rows, np.arange(4))
    np.testing.assert_array_equal(rho0.pattern.cols, np.arange(4))
    monkeypatch.setattr(
        lb, "_chain_flow",
        lambda *args: (lambda taus, out: np.full((len(taus), 4), np.nan, dtype=complex), {}),
    )
    with pytest.raises(lb.NumericalDriftError, match="trace drift nan .* at t=0.01"):
        lb.propagate(rho0, jump_free(layout), spec, 1.0, 0.01, record_every=1)
