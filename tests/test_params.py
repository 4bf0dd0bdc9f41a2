import json
import math
import re

import numpy as np
import pytest

from superrotor import lindblad
from superrotor.mathkit import make_rule
from superrotor.params import (
    GasSpec,
    MoleculeSpec,
    NumericsSpec,
    builtin_config,
    load_config,
    normalized_document,
)
from superrotor.rates import RateResult


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
    assert spec.reduced_mass == pytest.approx(1.0, rel=1e-15)
    assert spec.thermal_momentum == pytest.approx(1.0, rel=1e-15)
    assert spec.gas.density == 1.0
    assert spec.molecule.epsilon == pytest.approx(20.0, rel=1e-15)
    assert spec.gas.pressure == pytest.approx(0.5, rel=1e-15)
    # c6 chosen so the eikonal strength 3 pi mu c6 / (8 hbar q_th) is 1
    assert 3 * math.pi * spec.gas.c6 / 8 == pytest.approx(1.0, rel=1e-15)


def test_builtin_unknown_name():
    with pytest.raises(ValueError):
        builtin_config("n2")


def system(mol, gas):
    """The n1 spec with the given molecule and gas."""
    return load_config(builtin_config("n1"))._replace(molecule=mol, gas=gas)


def test_equal_masses_halve_reduced_mass():
    mol = MoleculeSpec(mass=1.0, moment_of_inertia=1.0, alpha_mean=1.0, alpha_aniso=0.1)
    gas = GasSpec(mass=1.0, thermal_energy=1.0, density=1.0, c6=1.0)
    spec = system(mol, gas)
    assert spec.reduced_mass == pytest.approx(0.5, rel=1e-15)
    assert spec.thermal_momentum == pytest.approx(1.0, rel=1e-15)


def test_heavy_rotor_limit():
    mol = MoleculeSpec(mass=1e12, moment_of_inertia=1.0, alpha_mean=1.0, alpha_aniso=0.1)
    gas = GasSpec(mass=1.0, thermal_energy=0.5, density=1.0, c6=1.0)
    assert system(mol, gas).reduced_mass == pytest.approx(1.0, rel=1e-11)


def test_qth_definition():
    mol = MoleculeSpec(mass=2.0, moment_of_inertia=1.0, alpha_mean=1.0, alpha_aniso=0.1)
    gas = GasSpec(mass=2.0, thermal_energy=0.5, density=1.0, c6=1.0)
    assert system(mol, gas).thermal_momentum == pytest.approx(1.0, rel=1e-15)


def test_changed_copy_derives_its_collision_quantities():
    # mu and q_th are read from the copy's own molecule and gas; a stored
    # copy of them kept mu = 1 after the molecule's mass changed
    spec = load_config(builtin_config("n1"))
    heavy = spec._replace(molecule=spec.molecule._replace(mass=50.0))
    assert heavy.reduced_mass == 100 / 52
    assert heavy.thermal_momentum == math.sqrt(100 / 52)
    hot = spec._replace(gas=spec.gas._replace(thermal_energy=2.0))
    assert (hot.reduced_mass, hot.thermal_momentum) == (1.0, 2.0)


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


def nu_th(q, spec):
    """Thermal density of relative momenta, exp(-q^2/q_th^2)/(sqrt(pi) q_th)^3.

    Normalized with respect to d^3q; accepts scalars or arrays, q >= 0. The
    rate modules fold exp(-q^2) into the half-line rule instead; this is the
    oracle for that normalization.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q < 0.0):
        raise ValueError("nu_th: momentum magnitude must be >= 0")
    qth = spec.thermal_momentum
    out = np.exp(-((q / qth) ** 2)) / (math.sqrt(math.pi) * qth) ** 3
    return out if out.ndim else float(out)


def test_nu_th_at_origin():
    spec = load_config(builtin_config("n1"))
    assert nu_th(0.0, spec) == pytest.approx(math.pi ** (-1.5), rel=1e-7)


def test_nu_th_rejects_negative_momentum():
    spec = load_config(builtin_config("n1"))
    with pytest.raises(ValueError):
        nu_th(-0.1, spec)
    with pytest.raises(ValueError):
        nu_th(np.array([0.5, -2.0]), spec)


@pytest.mark.parametrize("order", [32, 48, 64])
def test_nu_th_normalization(order):
    spec = load_config(builtin_config("n1"))
    rule = make_rule("half_line", order)
    q, w = rule.nodes, rule.weights
    # exp(-q^2) already lives in the weights; divide it back out of nu_th
    density = nu_th(q, spec) * np.exp(q * q)
    total = np.sum(w * 4.0 * math.pi * q**2 * density)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_nu_th_second_moment():
    spec = load_config(builtin_config("n1"))
    rule = make_rule("half_line", 48)
    q, w = rule.nodes, rule.weights
    density = nu_th(q, spec) * np.exp(q * q)
    mean_q2 = np.sum(w * 4.0 * math.pi * q**4 * density)
    assert mean_q2 == pytest.approx(1.5 * spec.thermal_momentum**2, rel=1e-8)


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


_SWAPS = {"moment_of_inertia": "rotational_constant", "rotational_constant": "moment_of_inertia",
          "density": "pressure", "pressure": "density"}


@pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("system", ["normalized", "SI"])
@pytest.mark.parametrize(
    "section, key",
    [("molecule", key) for key in ("mass", "moment_of_inertia", "rotational_constant",
                                   "alpha_mean", "alpha_aniso")]
    + [("gas", key) for key in ("mass", "temperature", "density", "pressure", "c6")]
    + [("numerics", key) for key in sorted(NumericsSpec._fields)],
)
def test_non_finite_config_numbers_are_rejected(section, key, system, raw):
    # json reads NaN, Infinity and 1e999 (inf); a NaN passes a range check
    # written x <= 0, so each must be refused by name
    base = json.loads(si_doc() if system == "SI" else doc())
    fields = base.setdefault(section, {})
    fields.pop(_SWAPS.get(key), None)
    fields[key] = "@"
    with pytest.raises(ValueError, match=re.escape(f"{section}.{key} ")):
        load_config(json.dumps(base).replace('"@"', raw))


@pytest.mark.parametrize(
    "section, key, raw",
    [
        ("numerics", "quad_order_q", "47.9"),
        ("numerics", "b_nodes", "8.5"),
        ("numerics", "j_max", "true"),
        ("numerics", "quad_order_q", '"48"'),
        ("numerics", "b_max", '"12"'),
        ("molecule", "alpha_aniso", '"30"'),
        ("molecule", "mass", "true"),
        pytest.param("gas", "density", "1" + "0" * 400, id="gas-density-1e400-integer"),
    ],
)
def test_config_numbers_are_json_numbers(section, key, raw):
    # a string or a boolean used to load as its float or int, an integer
    # numeric with a fraction was truncated (47.9 ran at order 47), and an
    # integer past the float range raised OverflowError
    base = json.loads(doc())
    base.setdefault(section, {})[key] = "@"
    with pytest.raises(ValueError, match=re.escape(f"{section}.{key} ")):
        load_config(json.dumps(base).replace('"@"', raw))


def test_integral_floats_load_as_integer_numerics():
    spec = load_config(doc(numerics={"quad_order_q": 48.0, "j_max": 30.0, "b_max": 12}))
    assert spec.numerics == NumericsSpec(j_max=30, quad_order_q=48, b_max=12.0)
    assert type(spec.numerics.quad_order_q) is int and type(spec.numerics.b_max) is float


def test_si_temperature_whose_thermal_energy_underflows_is_rejected():
    # k_B T of 1e-302 K rounds to 0.0: the pressure route used to divide by
    # it (ZeroDivisionError), the density route refused it by another name
    for state in ({"pressure": 10.0}, {"density": 1e20}):
        gas = {"mass": 6.65e-27, "temperature": 1e-302, "c6": 9.6e-79, **state}
        with pytest.raises(ValueError, match="^gas.temperature must be positive$"):
            load_config(json.dumps(dict(json.loads(si_doc()), gas=gas)))


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
    assert spec.reduced_mass == pytest.approx(1.0, rel=1e-14)
    assert spec.thermal_momentum == pytest.approx(1.0, rel=1e-14)
    assert spec.gas.thermal_energy == pytest.approx(0.5, rel=1e-14)
    # the unit map must invert back to the SI inputs
    assert spec.gas.mass * spec.scales.mass == pytest.approx(6.65e-27, rel=1e-14)
    kb_t = 1.380649e-23 * 295.0
    assert spec.gas.thermal_energy * spec.scales.energy == pytest.approx(kb_t, rel=1e-14)
    n_si = 10.0 / kb_t
    assert spec.gas.density / spec.scales.length**3 == pytest.approx(n_si, rel=1e-10)


def test_si_normalized_round_trip_dimensionless_groups():
    spec_si = load_config(si_doc())
    spec_rt = load_config(normalized_document(spec_si))
    for spec in (spec_si, spec_rt):
        assert spec.thermal_momentum == pytest.approx(spec_si.thermal_momentum, rel=1e-12)
    group_a = [
        3 * math.pi * s.reduced_mass * s.gas.c6 / (8 * s.thermal_momentum)
        for s in (spec_si, spec_rt)
    ]
    assert group_a[0] == pytest.approx(group_a[1], rel=1e-12)
    group_b = [s.gas.density * s.thermal_momentum**3 / s.reduced_mass
               for s in (spec_si, spec_rt)]
    assert group_b[0] == pytest.approx(group_b[1], rel=1e-12)


def n1_records():
    spec = load_config(builtin_config("n1"))
    return {
        "molecule": spec.molecule,
        "gas": spec.gas,
        "numerics": spec.numerics,
        "rate": RateResult(4, 2, 0.25, "closed_form", 0.5),
        "layout": lindblad.BasisLayout(2, 4),
    }


@pytest.mark.parametrize(
    "name, fields, message",
    [
        ("molecule", {"mass": 0.0}, "molecule.mass must be positive"),
        ("molecule", {"moment_of_inertia": -1.0}, "molecule.moment_of_inertia must be positive"),
        ("molecule", {"alpha_mean": 0.0}, "molecule.alpha_mean must be positive"),
        ("molecule", {"alpha_aniso": math.inf}, "molecule polarizability ratio must be finite"),
        (
            "molecule",
            {"alpha_aniso": 1e200},
            "molecule.alpha_aniso 1e+200 is too large: its squared ratio to alpha_mean overflows",
        ),
        ("gas", {"mass": 0.0}, "gas.mass must be positive"),
        ("gas", {"thermal_energy": -1.0}, "gas.thermal_energy must be positive"),
        ("gas", {"density": 0.0}, "gas.density must be positive"),
        ("gas", {"c6": 0.0}, "gas.c6 must be positive"),
        ("numerics", {"quad_order_q": 3}, "numerics.quad_order_q must be >= 4"),
        ("numerics", {"quad_order_circle": 2}, "numerics.quad_order_circle must be >= 4"),
        ("numerics", {"j_max": -1}, "numerics.j_max must be >= 0"),
        ("numerics", {"quad_order_sphere": 3}, "numerics.quad_order_sphere must be >= 4"),
        ("numerics", {"b_nodes": 2}, "numerics.b_nodes must be >= 4"),
        ("numerics", {"b_max": 0.0}, "numerics.b_max must be positive"),
        ("rate", {"gamma": -1.0}, "rates are non-negative by construction"),
        ("rate", {"a_coefficient": -0.5}, "rates are non-negative by construction"),
        ("layout", {"j_min": -1}, "need 0 <= j_min <= j_max"),
        ("layout", {"j_max": 1}, "need 0 <= j_min <= j_max"),
    ],
)
def test_records_validate_construction_and_changed_copies(name, fields, message):
    record = n1_records()[name]
    exact = "^%s$" % re.escape(message)
    with pytest.raises(ValueError, match=exact):
        type(record)(**dict(record._asdict(), **fields))
    with pytest.raises(ValueError, match=exact):
        record._replace(**fields)


def test_valid_changed_copy_keeps_the_other_fields():
    spec = load_config(builtin_config("n1"))
    coarse = spec._replace(numerics=spec.numerics._replace(quad_order_q=24))
    assert type(coarse.numerics) is NumericsSpec
    assert coarse.numerics == NumericsSpec(quad_order_q=24)
    assert coarse.molecule is spec.molecule and coarse.gas is spec.gas


def test_config_loaded_twice_gives_equal_specs():
    for text in (builtin_config("n1"), si_doc()):
        first, second = load_config(text), load_config(text)
        assert first is not second
        assert first == second and hash(first) == hash(second)
    assert load_config(builtin_config("n1")) != load_config(si_doc())


def test_record_fields_are_read_only():
    spec = load_config(builtin_config("n1"))
    for record in (spec, spec.molecule, spec.gas, spec.numerics, spec.scales):
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1.0
    layout = lindblad.BasisLayout(2, 4)
    state = lindblad.isotropic_state(layout, {2: 0.5, 4: 0.5})
    dset = lindblad.build_dissipator(spec, layout)
    trajectory = lindblad.propagate(state, dset, spec, 0.01, 0.001)
    frozen = [
        (spec, "reduced_mass"),
        (state, "time"),
        (trajectory, "final"),
        (make_rule("interval", 8), "weight_floats"),
    ]
    for obj, name in frozen:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
