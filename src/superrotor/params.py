"""Physical system definition, unit handling and the thermal momentum density.

All computation elsewhere in the package happens in an internal unit system
with hbar = 1. SI input is additionally rescaled so that the collision
reduced mass and the thermal momentum are 1, which keeps every intermediate
quantity within a few orders of magnitude of unity. Normalized input
(hbar = k_B = 1) is taken at face value.
"""

import json
import math
from dataclasses import dataclass, fields

import numpy as np

# internal unit system pins hbar = 1
HBAR = 1.0

HBAR_SI = 1.054571817e-34  # J s (2019 SI exact)
KB_SI = 1.380649e-23  # J / K (2019 SI exact)


@dataclass(frozen=True)
class MoleculeSpec:
    """Linear-rotor molecule, stored in internal units.

    Polarizabilities enter every observable only through the ratio
    alpha_aniso / alpha_mean, so they are kept in whatever volume unit the
    config supplied.
    """

    mass: float
    moment_of_inertia: float
    alpha_mean: float
    alpha_aniso: float

    def __post_init__(self):
        if self.mass <= 0.0:
            raise ValueError("molecule.mass must be positive")
        if self.moment_of_inertia <= 0.0:
            raise ValueError("molecule.moment_of_inertia must be positive")
        if self.alpha_mean <= 0.0:
            raise ValueError("molecule.alpha_mean must be positive")
        ratio = self.alpha_aniso / self.alpha_mean
        if not math.isfinite(ratio):
            raise ValueError("molecule polarizability ratio must be finite")
        # the rates take the square of the ratio; a float multiply overflows
        # to inf where ** would raise OverflowError
        if not math.isfinite(ratio * ratio):
            raise ValueError(
                "molecule.alpha_aniso %g is too large: its squared ratio to "
                "alpha_mean overflows" % self.alpha_aniso
            )

    @property
    def epsilon(self):
        """Dimensionless anisotropy 2*alpha_aniso/(3*alpha_mean), signed."""
        return 2.0 * self.alpha_aniso / (3.0 * self.alpha_mean)

    def rotational_energy(self, j):
        """Free-rotor level j(j+1) hbar^2 / (2 I) in internal energy units."""
        j = np.asarray(j, dtype=float)
        out = HBAR**2 * j * (j + 1.0) / (2.0 * self.moment_of_inertia)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class GasSpec:
    """Thermal buffer gas in internal units; thermal_energy is k_B T."""

    mass: float
    thermal_energy: float
    density: float
    c6: float

    def __post_init__(self):
        for name in ("mass", "thermal_energy", "density", "c6"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"gas.{name} must be positive")

    @property
    def pressure(self):
        return self.density * self.thermal_energy


@dataclass(frozen=True)
class ThermalContext:
    """Reduced collision system derived from a molecule and a gas."""

    reduced_mass: float
    thermal_momentum: float
    density: float
    molecule: MoleculeSpec
    gas: GasSpec

    def __post_init__(self):
        if self.reduced_mass <= 0.0 or self.thermal_momentum <= 0.0:
            raise ValueError("thermal context requires positive mu and q_th")


@dataclass(frozen=True)
class NumericsSpec:
    """Discretization knobs with documented defaults.

    j_max bounds the j range of sweeps and of propagate layouts. b_max is
    the outer cutoff of impact-parameter integrals in units of the eikonal
    phase length a(q)^(1/5); b_nodes is the Gauss node count per adaptive
    radial panel.
    """

    j_max: int = 1000
    quad_order_q: int = 48
    quad_order_sphere: int = 302
    quad_order_circle: int = 64
    b_max: float = 12.0
    b_nodes: int = 8

    def __post_init__(self):
        if self.j_max < 0:
            raise ValueError("numerics.j_max must be >= 0")
        for name in ("quad_order_q", "quad_order_sphere", "quad_order_circle", "b_nodes"):
            if getattr(self, name) < 4:
                raise ValueError(f"numerics.{name} must be >= 4")
        if self.b_max <= 0.0:
            raise ValueError("numerics.b_max must be positive")


@dataclass(frozen=True)
class UnitScales:
    """Multiply an internal value by the matching attribute to recover input units."""

    mass: float = 1.0
    momentum: float = 1.0
    action: float = 1.0

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


@dataclass(frozen=True)
class SystemSpec:
    """Fully resolved system: physics in internal units plus the unit map."""

    molecule: MoleculeSpec
    gas: GasSpec
    numerics: NumericsSpec
    thermal: ThermalContext
    scales: UnitScales
    unit_system: str


def derive_thermal(mol, gas):
    """Reduced mass mu = m_g M / (m_g + M) and q_th = sqrt(2 mu k_B T)."""
    mu = gas.mass * mol.mass / (gas.mass + mol.mass)
    q_th = math.sqrt(2.0 * mu * gas.thermal_energy)
    return ThermalContext(mu, q_th, gas.density, mol, gas)


def nu_th(q, ctx):
    """Thermal density of relative momenta, exp(-q^2/q_th^2)/(sqrt(pi) q_th)^3.

    Normalized with respect to d^3q; accepts scalars or arrays, q >= 0.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q < 0.0):
        raise ValueError("nu_th: momentum magnitude must be >= 0")
    qth = ctx.thermal_momentum
    out = np.exp(-((q / qth) ** 2)) / (math.sqrt(math.pi) * qth) ** 3
    return out if out.ndim else float(out)


_TOP_KEYS = {"molecule", "gas", "numerics", "units", "comment"}
_MOLECULE_KEYS = {"mass", "moment_of_inertia", "rotational_constant", "alpha_mean", "alpha_aniso"}
_GAS_KEYS = {"mass", "temperature", "density", "pressure", "c6"}
_NUMERICS_KEYS = {f.name for f in fields(NumericsSpec)}
_UNITS_KEYS = {"system"}
_NUMERICS_INT = {"j_max", "quad_order_q", "quad_order_sphere", "quad_order_circle", "b_nodes"}


def _check_section(label, section, allowed):
    if not isinstance(section, dict):
        raise ValueError(f"config section '{label}' must be a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ValueError(f"unknown key(s) in '{label}': {sorted(unknown)}")


def _need(section, label, key):
    if key not in section:
        raise ValueError(f"missing mandatory field '{label}.{key}'")
    return section[key]


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

    # molecule, still in input units
    mol_mass = float(_need(mol_doc, "molecule", "mass"))
    alpha_mean = float(_need(mol_doc, "molecule", "alpha_mean"))
    alpha_aniso = float(_need(mol_doc, "molecule", "alpha_aniso"))
    has_inertia = "moment_of_inertia" in mol_doc
    has_rot = "rotational_constant" in mol_doc
    if has_inertia == has_rot:
        raise ValueError(
            "molecule: give exactly one of moment_of_inertia or rotational_constant"
        )
    if has_inertia:
        inertia = float(mol_doc["moment_of_inertia"])
    else:
        b_rot = float(mol_doc["rotational_constant"])
        if b_rot <= 0.0:
            raise ValueError("molecule.rotational_constant must be positive")
        inertia = hbar**2 / (2.0 * b_rot)

    # gas, still in input units
    gas_mass = float(_need(gas_doc, "gas", "mass"))
    temperature = float(_need(gas_doc, "gas", "temperature"))
    c6 = float(_need(gas_doc, "gas", "c6"))
    if temperature <= 0.0:
        raise ValueError("gas.temperature must be positive")
    kbt = kb * temperature
    has_n = "density" in gas_doc
    has_p = "pressure" in gas_doc
    if not has_n and not has_p:
        raise ValueError("missing mandatory field 'gas.density' or 'gas.pressure'")
    if has_n:
        density = float(gas_doc["density"])
    else:
        density = float(gas_doc["pressure"]) / kbt
    if has_n and has_p:
        pressure = float(gas_doc["pressure"])
        if pressure <= 0.0 or abs(pressure - density * kbt) > 1e-6 * abs(pressure):
            raise ValueError("inconsistent gas state: pressure != density * k_B * T")

    if gas_mass <= 0.0 or mol_mass <= 0.0:
        raise ValueError("masses must be positive")
    mu_raw = gas_mass * mol_mass / (gas_mass + mol_mass)
    if kbt <= 0.0:
        raise ValueError("thermal energy must be positive")
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
    for key, value in num_doc.items():
        kwargs[key] = int(value) if key in _NUMERICS_INT else float(value)
    numerics = NumericsSpec(**kwargs)
    thermal = derive_thermal(molecule, gas)
    return SystemSpec(molecule, gas, numerics, thermal, scales, system)


def normalized_document(spec, numerics=True):
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
    }
    if numerics:
        doc["numerics"] = {f.name: getattr(spec.numerics, f.name) for f in fields(NumericsSpec)}
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
