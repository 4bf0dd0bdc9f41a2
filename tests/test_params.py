import json
import math

import numpy as np
import pytest

from superrotor.mathkit import make_rule
from superrotor.params import (
    GasSpec,
    MoleculeSpec,
    NumericsSpec,
    builtin_config,
    derive_thermal,
    load_config,
    normalized_document,
    nu_th,
)


def doc(**sections):
    base = {
        "units": {"system": "normalized"},
        "molecule": {"mass": 2.0, "moment_of_inertia": 10.0, "alpha_mean": 1.0, "alpha_aniso": 30.0},
        "gas": {"mass": 2.0, "temperature": 0.5, "density": 1.0, "c6": 1.0},
    }
    base.update(sections)
    return json.dumps(base)


def si_doc(**gas_overrides):
    gas = {"mass": 6.65e-27, "temperature": 295.0, "pressure": 10.0, "c6": 9.6e-79}
    gas.update(gas_overrides)
    return json.dumps(
        {
            "units": {"system": "SI"},
            "molecule": {
                "mass": 4.65e-26,
                "rotational_constant": 3.97e-23,
                "alpha_mean": 1.74e-30,
                "alpha_aniso": 6.9e-31,
            },
            "gas": gas,
        }
    )


def test_builtin_n1_resolves():
    spec = load_config(builtin_config("n1"))
    assert spec.thermal.reduced_mass == pytest.approx(1.0, rel=1e-15)
    assert spec.thermal.thermal_momentum == pytest.approx(1.0, rel=1e-15)
    assert spec.thermal.density == 1.0
    assert spec.molecule.epsilon == pytest.approx(20.0, rel=1e-15)
    assert spec.gas.pressure == pytest.approx(0.5, rel=1e-15)
    # c6 chosen so the eikonal strength 3 pi mu c6 / (8 hbar q_th) is 1
    assert 3 * math.pi * spec.gas.c6 / 8 == pytest.approx(1.0, rel=1e-15)


def test_builtin_unknown_name():
    with pytest.raises(ValueError):
        builtin_config("n2")


def test_equal_masses_halve_reduced_mass():
    mol = MoleculeSpec(mass=1.0, moment_of_inertia=1.0, alpha_mean=1.0, alpha_aniso=0.1)
    gas = GasSpec(mass=1.0, thermal_energy=1.0, density=1.0, c6=1.0)
    ctx = derive_thermal(mol, gas)
    assert ctx.reduced_mass == pytest.approx(0.5, rel=1e-15)
    assert ctx.thermal_momentum == pytest.approx(1.0, rel=1e-15)


def test_heavy_rotor_limit():
    mol = MoleculeSpec(mass=1e12, moment_of_inertia=1.0, alpha_mean=1.0, alpha_aniso=0.1)
    gas = GasSpec(mass=1.0, thermal_energy=0.5, density=1.0, c6=1.0)
    ctx = derive_thermal(mol, gas)
    assert ctx.reduced_mass == pytest.approx(1.0, rel=1e-11)


def test_qth_definition():
    mol = MoleculeSpec(mass=2.0, moment_of_inertia=1.0, alpha_mean=1.0, alpha_aniso=0.1)
    gas = GasSpec(mass=2.0, thermal_energy=0.5, density=1.0, c6=1.0)
    ctx = derive_thermal(mol, gas)
    assert ctx.thermal_momentum == pytest.approx(1.0, rel=1e-15)


def test_squared_polarizability_ratio_must_be_finite():
    # the rates square alpha_aniso / alpha_mean; a ratio whose square
    # overflows is rejected when the molecule is built
    for aniso in (1e300, -1e300, 1e155):
        with pytest.raises(ValueError, match="alpha_aniso"):
            MoleculeSpec(mass=2.0, moment_of_inertia=1.0, alpha_mean=1.0, alpha_aniso=aniso)
    mol = MoleculeSpec(mass=2.0, moment_of_inertia=1.0, alpha_mean=1.0, alpha_aniso=1e150)
    assert math.isfinite((mol.alpha_aniso / mol.alpha_mean) ** 2)
    with pytest.raises(ValueError, match="alpha_aniso"):
        load_config(doc(molecule={"mass": 2.0, "moment_of_inertia": 10.0, "alpha_mean": 1.0,
                                  "alpha_aniso": 1e300}))


def test_rotational_energy():
    mol = MoleculeSpec(mass=2.0, moment_of_inertia=10.0, alpha_mean=1.0, alpha_aniso=0.1)
    assert mol.rotational_energy(0) == 0.0
    assert mol.rotational_energy(10) == pytest.approx(110.0 / 20.0, rel=1e-15)


def test_nu_th_at_origin():
    spec = load_config(builtin_config("n1"))
    assert nu_th(0.0, spec.thermal) == pytest.approx(math.pi ** (-1.5), rel=1e-7)


def test_nu_th_rejects_negative_momentum():
    spec = load_config(builtin_config("n1"))
    with pytest.raises(ValueError):
        nu_th(-0.1, spec.thermal)
    with pytest.raises(ValueError):
        nu_th(np.array([0.5, -2.0]), spec.thermal)


@pytest.mark.parametrize("order", [32, 48, 64])
def test_nu_th_normalization(order):
    spec = load_config(builtin_config("n1"))
    rule = make_rule("half_line", order)
    q, w = rule.nodes, rule.weights
    # exp(-q^2) already lives in the weights; divide it back out of nu_th
    density = nu_th(q, spec.thermal) * np.exp(q * q)
    total = np.sum(w * 4.0 * math.pi * q**2 * density)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_nu_th_second_moment():
    spec = load_config(builtin_config("n1"))
    rule = make_rule("half_line", 48)
    q, w = rule.nodes, rule.weights
    density = nu_th(q, spec.thermal) * np.exp(q * q)
    mean_q2 = np.sum(w * 4.0 * math.pi * q**4 * density)
    assert mean_q2 == pytest.approx(1.5 * spec.thermal.thermal_momentum**2, rel=1e-8)


def test_gas_state_consistent_pair_accepted():
    text = doc(gas={"mass": 2.0, "temperature": 0.5, "density": 1.0, "pressure": 0.5, "c6": 1.0})
    spec = load_config(text)
    assert spec.gas.density == pytest.approx(1.0)


def test_gas_state_inconsistent_pair_rejected():
    text = doc(gas={"mass": 2.0, "temperature": 0.5, "density": 1.0, "pressure": 0.55, "c6": 1.0})
    with pytest.raises(ValueError, match="inconsistent gas state"):
        load_config(text)


def test_pressure_only_derives_density():
    text = doc(gas={"mass": 2.0, "temperature": 0.5, "pressure": 0.5, "c6": 1.0})
    assert load_config(text).gas.density == pytest.approx(1.0, rel=1e-15)


def test_missing_mandatory_field():
    with pytest.raises(ValueError, match="molecule.mass"):
        load_config(doc(molecule={"moment_of_inertia": 1.0, "alpha_mean": 1.0, "alpha_aniso": 0.1}))
    with pytest.raises(ValueError, match="gas.density"):
        load_config(doc(gas={"mass": 2.0, "temperature": 0.5, "c6": 1.0}))
    with pytest.raises(ValueError, match="mandatory section"):
        load_config(json.dumps({"molecule": {"mass": 1.0}}))


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown key"):
        load_config(doc(numerics={"quad_order": 48}))
    bad = json.loads(doc())
    bad["plotting"] = {}
    with pytest.raises(ValueError, match="unknown key"):
        load_config(json.dumps(bad))


def test_nonpositive_quantities_rejected():
    with pytest.raises(ValueError):
        load_config(doc(molecule={"mass": -2.0, "moment_of_inertia": 1.0, "alpha_mean": 1.0, "alpha_aniso": 0.1}))
    with pytest.raises(ValueError):
        load_config(doc(gas={"mass": 2.0, "temperature": -0.5, "density": 1.0, "c6": 1.0}))
    with pytest.raises(ValueError):
        load_config(doc(gas={"mass": 2.0, "temperature": 0.5, "density": 1.0, "c6": 0.0}))


def test_inertia_and_rotational_constant_exclusive():
    mol = {"mass": 2.0, "moment_of_inertia": 10.0, "rotational_constant": 0.05,
           "alpha_mean": 1.0, "alpha_aniso": 0.1}
    with pytest.raises(ValueError, match="exactly one"):
        load_config(doc(molecule=mol))
    del mol["moment_of_inertia"]
    spec = load_config(doc(molecule=mol))
    assert spec.molecule.moment_of_inertia == pytest.approx(10.0, rel=1e-15)


def test_numerics_defaults():
    spec = load_config(doc())
    assert spec.numerics.quad_order_q == 48
    assert spec.numerics == NumericsSpec()
    spec = load_config(doc(numerics={"j_max": 30}))
    assert spec.numerics.j_max == 30
    assert spec.numerics.quad_order_q == 48


def test_numerics_validation():
    with pytest.raises(ValueError, match="quad_order_q"):
        NumericsSpec(quad_order_q=2)
    # the tolerances live with the code that applies them, not in the config,
    # and layouts take their j range from the state, not from numerics
    for key, value in (("tol_trace", 1e-8), ("tol_fit", 1e-8), ("j_min", 5)):
        with pytest.raises(ValueError, match="unknown key"):
            load_config(doc(numerics={key: value}))


def test_si_input_lands_on_internal_scales():
    spec = load_config(si_doc())
    assert spec.thermal.reduced_mass == pytest.approx(1.0, rel=1e-14)
    assert spec.thermal.thermal_momentum == pytest.approx(1.0, rel=1e-14)
    assert spec.gas.thermal_energy == pytest.approx(0.5, rel=1e-14)
    # the unit map must invert back to the SI inputs
    assert spec.gas.mass * spec.scales.mass == pytest.approx(6.65e-27, rel=1e-14)
    kb_t = 1.380649e-23 * 295.0
    assert spec.gas.thermal_energy * spec.scales.energy == pytest.approx(kb_t, rel=1e-14)
    n_si = 10.0 / kb_t
    assert spec.thermal.density / spec.scales.length**3 == pytest.approx(n_si, rel=1e-10)


def test_si_normalized_round_trip_dimensionless_groups():
    spec_si = load_config(si_doc())
    spec_rt = load_config(normalized_document(spec_si))
    for spec in (spec_si, spec_rt):
        assert spec.thermal.thermal_momentum == pytest.approx(
            spec_si.thermal.thermal_momentum, rel=1e-12
        )
    group_a = [
        3 * math.pi * s.thermal.reduced_mass * s.gas.c6 / (8 * s.thermal.thermal_momentum)
        for s in (spec_si, spec_rt)
    ]
    assert group_a[0] == pytest.approx(group_a[1], rel=1e-12)
    group_b = [s.thermal.density * s.thermal.thermal_momentum**3 / s.thermal.reduced_mass
               for s in (spec_si, spec_rt)]
    assert group_b[0] == pytest.approx(group_b[1], rel=1e-12)
