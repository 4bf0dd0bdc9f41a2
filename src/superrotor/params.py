"""Physical system definition and unit handling.

All computation elsewhere in the package happens in an internal unit system
with hbar = 1. SI input is additionally rescaled so that the collision
reduced mass and the thermal momentum are 1, which keeps every intermediate
quantity within a few orders of magnitude of unity. Normalized input
(hbar = k_B = 1) is taken at face value.
"""

import json
import math
from collections import namedtuple

# internal unit system pins hbar = 1
HBAR = 1.0

HBAR_SI = 1.054571817e-34  # J s (2019 SI exact)
KB_SI = 1.380649e-23  # J / K (2019 SI exact)


def record(typename, field_names):
    """namedtuple base of a value record whose subclass validates in __new__.

    Its _make builds through the class, so _replace validates the copy as
    the constructor does.
    """
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class Frozen:
    """Base of the immutable plain classes: __init__ sets the fields through
    vars(self), and assigning or deleting an attribute afterwards raises
    AttributeError.  functools.cached_property still fills vars(self)."""

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of %s" % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of %s" % (name, type(self).__name__))


# Errors of a run that the CLI maps to exit codes (cli.main); lindblad
# raises them, and they live here so that the CLI can name them without
# loading numpy.
class StepSizeViolation(ValueError):
    """dt does not resolve the fastest coherent frequency."""


class NumericalDriftError(RuntimeError):
    """Trace, hermiticity, or positivity drifted past tolerance mid-run."""


class MoleculeSpec(record("MoleculeSpec", "mass moment_of_inertia alpha_mean alpha_aniso")):
    """Linear-rotor molecule, stored in internal units.

    Polarizabilities enter every observable only through the ratio
    alpha_aniso / alpha_mean, so they are kept in whatever volume unit the
    config supplied.
    """

    __slots__ = ()

    def __new__(cls, mass, moment_of_inertia, alpha_mean, alpha_aniso):
        self = super().__new__(cls, mass, moment_of_inertia, alpha_mean, alpha_aniso)
        # a NaN fails every comparison, so each range is written as it must hold
        for name, value in zip(self._fields[:3], self):
            if not 0.0 < value < math.inf:
                raise ValueError(f"molecule.{name} must be positive")
        ratio = alpha_aniso / alpha_mean
        if not math.isfinite(ratio):
            raise ValueError("molecule polarizability ratio must be finite")
        # the rates take the square of the ratio; a float multiply overflows
        # to inf where ** would raise OverflowError
        if not math.isfinite(ratio * ratio):
            raise ValueError(
                "molecule.alpha_aniso %g is too large: its squared ratio to "
                "alpha_mean overflows" % alpha_aniso
            )
        return self

    @property
    def epsilon(self):
        """Dimensionless anisotropy 2*alpha_aniso/(3*alpha_mean), signed."""
        return 2.0 * self.alpha_aniso / (3.0 * self.alpha_mean)

    def rotational_energy(self, j):
        """Free-rotor level j(j+1) hbar^2 / (2 I) of one j, in internal
        energy units."""
        return HBAR**2 * j * (j + 1.0) / (2.0 * self.moment_of_inertia)


class GasSpec(record("GasSpec", "mass thermal_energy density c6")):
    """Thermal buffer gas in internal units; thermal_energy is k_B T."""

    __slots__ = ()

    def __new__(cls, mass, thermal_energy, density, c6):
        self = super().__new__(cls, mass, thermal_energy, density, c6)
        for name, value in zip(self._fields, self):
            if not 0.0 < value < math.inf:
                raise ValueError(f"gas.{name} must be positive")
        return self

    @property
    def pressure(self):
        return self.density * self.thermal_energy


class NumericsSpec(
    record(
        "NumericsSpec",
        "j_max quad_order_q quad_order_sphere quad_order_circle b_max b_nodes",
    )
):
    """Discretization knobs with documented defaults.

    j_max bounds the j range of sweeps and of propagate layouts. b_max is
    the outer cutoff of impact-parameter integrals in units of the eikonal
    phase length a(q)^(1/5), 48 by default: the radial panels keep the far
    tail resolved out to it, and at a = 1 the forward radial integral meets
    its closed form to 1e-14; b_nodes is the Gauss node count per adaptive
    radial panel.  schiff_amplitude_full doubles both.
    """

    __slots__ = ()

    def __new__(cls, j_max=1000, quad_order_q=48, quad_order_sphere=302,
                quad_order_circle=64, b_max=48.0, b_nodes=8):
        self = super().__new__(
            cls, j_max, quad_order_q, quad_order_sphere, quad_order_circle, b_max, b_nodes
        )
        if self.j_max < 0:
            raise ValueError("numerics.j_max must be >= 0")
        for name in ("quad_order_q", "quad_order_sphere", "quad_order_circle", "b_nodes"):
            if getattr(self, name) < 4:
                raise ValueError(f"numerics.{name} must be >= 4")
        if not 0.0 < self.b_max < math.inf:
            raise ValueError("numerics.b_max must be positive")
        return self


class UnitScales(namedtuple("UnitScales", "mass momentum action", defaults=(1.0, 1.0, 1.0))):
    """Multiply an internal value by the matching attribute to recover input units."""

    __slots__ = ()

    @property
    def length(self):
        return self.action / self.momentum

    @property
    def energy(self):
        return self.momentum**2 / self.mass

    @property
    def time(self):
        return self.action / self.energy

    @property
    def rate(self):
        return 1.0 / self.time


class SystemSpec(namedtuple("SystemSpec", "molecule gas numerics scales unit_system")):
    """Fully resolved system: physics in internal units plus the unit map.

    The collision quantities are read from the molecule and the gas it
    holds, so a copy made with _replace derives them from its own fields.
    """

    __slots__ = ()

    @property
    def reduced_mass(self):
        """Collision reduced mass mu = m_g M / (m_g + M)."""
        return self.gas.mass * self.molecule.mass / (self.gas.mass + self.molecule.mass)

    @property
    def thermal_momentum(self):
        """Thermal momentum q_th = sqrt(2 mu k_B T)."""
        return math.sqrt(2.0 * self.reduced_mass * self.gas.thermal_energy)


_TOP_KEYS = {"molecule", "gas", "numerics", "units", "comment"}
_MOLECULE_KEYS = {"mass", "moment_of_inertia", "rotational_constant", "alpha_mean", "alpha_aniso"}
_GAS_KEYS = {"mass", "temperature", "density", "pressure", "c6"}
_NUMERICS_KEYS = set(NumericsSpec._fields)
_UNITS_KEYS = {"system"}
_NUMERICS_INT = {"j_max", "quad_order_q", "quad_order_sphere", "quad_order_circle", "b_nodes"}


def _check_section(label, section, allowed):
    if not isinstance(section, dict):
        raise ValueError(f"config section '{label}' must be a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ValueError(f"unknown key(s) in '{label}': {sorted(unknown)}")


def _number(section, label, key, positive=False):
    """section[key] as a float; ValueError naming label.key unless it is
    there and a JSON number (a boolean is not one), and, when positive, a
    finite number above 0.  An integer past the float range reads as inf."""
    if key not in section:
        raise ValueError(f"missing mandatory field '{label}.{key}'")
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{label}.{key} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    # a NaN fails the comparison
    if positive and not 0.0 < value < math.inf:
        raise ValueError(f"{label}.{key} must be positive")
    return value


def load_config(text):
    """Parse a JSON config document into a fully resolved SystemSpec.

    Top-level sections: molecule, gas (mandatory), numerics, units
    (optional), comment (free text, ignored). Unknown keys anywhere are an
    error. units.system is "SI" or "normalized" (default). See the README
    for the full schema and the unit conventions of every key.
    """
    doc = json.loads(text)
    _check_section("top level", doc, _TOP_KEYS)
    for name in ("molecule", "gas"):
        if name not in doc:
            raise ValueError(f"missing mandatory section '{name}'")
    mol_doc = doc["molecule"]
    gas_doc = doc["gas"]
    num_doc = doc.get("numerics", {})
    units_doc = doc.get("units", {})
    _check_section("molecule", mol_doc, _MOLECULE_KEYS)
    _check_section("gas", gas_doc, _GAS_KEYS)
    _check_section("numerics", num_doc, _NUMERICS_KEYS)
    _check_section("units", units_doc, _UNITS_KEYS)

    system = units_doc.get("system", "normalized")
    if system not in ("SI", "normalized"):
        raise ValueError(f"units.system must be 'SI' or 'normalized', got {system!r}")
    hbar = HBAR_SI if system == "SI" else 1.0
    kb = KB_SI if system == "SI" else 1.0

    # molecule, still in input units; json reads NaN, Infinity and 1e999
    # (inf), which every range check below rejects
    mol_mass = _number(mol_doc, "molecule", "mass", positive=True)
    alpha_mean = _number(mol_doc, "molecule", "alpha_mean")
    alpha_aniso = _number(mol_doc, "molecule", "alpha_aniso")
    if not math.isfinite(alpha_aniso):
        raise ValueError("molecule.alpha_aniso must be finite")
    has_inertia = "moment_of_inertia" in mol_doc
    has_rot = "rotational_constant" in mol_doc
    if has_inertia == has_rot:
        raise ValueError(
            "molecule: give exactly one of moment_of_inertia or rotational_constant"
        )
    if has_inertia:
        inertia = _number(mol_doc, "molecule", "moment_of_inertia")
    else:
        b_rot = _number(mol_doc, "molecule", "rotational_constant", positive=True)
        inertia = hbar**2 / (2.0 * b_rot)

    # gas, still in input units
    gas_mass = _number(gas_doc, "gas", "mass", positive=True)
    temperature = _number(gas_doc, "gas", "temperature")
    c6 = _number(gas_doc, "gas", "c6")
    kbt = kb * temperature
    # k_B T has the sign and finiteness of the temperature, but an SI
    # temperature below about 1.8e-301 K underflows it to 0
    if not 0.0 < kbt < math.inf:
        raise ValueError("gas.temperature must be positive")
    has_n = "density" in gas_doc
    has_p = "pressure" in gas_doc
    if not has_n and not has_p:
        raise ValueError("missing mandatory field 'gas.density' or 'gas.pressure'")
    if has_p:
        pressure = _number(gas_doc, "gas", "pressure", positive=True)
    density = _number(gas_doc, "gas", "density") if has_n else pressure / kbt
    if has_n and has_p and abs(pressure - density * kbt) > 1e-6 * pressure:
        raise ValueError("inconsistent gas state: pressure != density * k_B * T")

    mu_raw = gas_mass * mol_mass / (gas_mass + mol_mass)
    qth_raw = math.sqrt(2.0 * mu_raw * kbt)

    if system == "SI":
        scales = UnitScales(mass=mu_raw, momentum=qth_raw, action=hbar)
    else:
        scales = UnitScales()
    length0 = scales.length
    energy0 = scales.energy

    molecule = MoleculeSpec(
        mass=mol_mass / scales.mass,
        moment_of_inertia=inertia / (scales.mass * length0**2),
        alpha_mean=alpha_mean,
        alpha_aniso=alpha_aniso,
    )
    gas = GasSpec(
        mass=gas_mass / scales.mass,
        thermal_energy=kbt / energy0,
        density=density * length0**3,
        c6=c6 / (energy0 * length0**6),
    )
    kwargs = {}
    for key in num_doc:
        value = _number(num_doc, "numerics", key)
        # is_integer is False for NaN and inf; NumericsSpec refuses a
        # non-finite b_max
        if key in _NUMERICS_INT and not value.is_integer():
            raise ValueError(f"numerics.{key} must be an integer, got {value!r}")
        kwargs[key] = int(value) if key in _NUMERICS_INT else value
    numerics = NumericsSpec(**kwargs)
    return SystemSpec(molecule, gas, numerics, scales, system)


def normalized_document(spec):
    """Render the internal state of a SystemSpec as a normalized-units config.

    Feeding the result back through load_config reproduces every derived
    quantity, which is how the SI round trip is verified.
    """
    doc = {
        "units": {"system": "normalized"},
        "molecule": {
            "mass": spec.molecule.mass,
            "moment_of_inertia": spec.molecule.moment_of_inertia,
            "alpha_mean": spec.molecule.alpha_mean,
            "alpha_aniso": spec.molecule.alpha_aniso,
        },
        "gas": {
            "mass": spec.gas.mass,
            "temperature": spec.gas.thermal_energy,
            "density": spec.gas.density,
            "c6": spec.gas.c6,
        },
        "numerics": spec.numerics._asdict(),
    }
    return json.dumps(doc, indent=2)


def builtin_config(name):
    """Return the JSON text of a named reference configuration.

    "n1" is the normalized benchmark system: equal masses 2 (so mu = 1),
    k_B T = 1/2 (so q_th = 1), unit density, c6 = 8/(3 pi) and
    alpha_aniso/alpha_mean = 30, which makes both dimensionless groups of
    the closed-form rate equal to one. The moment of inertia is a round
    value that only sets free evolution phases.
    """
    if name != "n1":
        raise ValueError(f"unknown builtin config {name!r}")
    doc = {
        "comment": "normalized benchmark: mu = q_th = n_g = 1, rate prefactor groups = 1",
        "units": {"system": "normalized"},
        "molecule": {
            "mass": 2.0,
            "moment_of_inertia": 10.0,
            "alpha_mean": 1.0,
            "alpha_aniso": 30.0,
        },
        "gas": {
            "mass": 2.0,
            "temperature": 0.5,
            "density": 1.0,
            "c6": 8.0 / (3.0 * math.pi),
        },
    }
    return json.dumps(doc, indent=2)
