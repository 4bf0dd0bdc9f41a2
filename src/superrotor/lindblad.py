"""Rotor density matrices and their dissipative propagation.

The master equation is d rho/dt = -i[H + H_g, rho]/hbar + D rho, where H is the
rigid-rotor Hamiltonian, H_g the gas-induced energy shift, and D a Lindblad
dissipator built from forward scattering amplitudes.  Every jump operator is
block diagonal over j, so block populations are conserved exactly and the
dynamics factorizes into (j, j') sectors.

Every jump operator lies on one diagonal m' - m = q and is stored only as
that offset and its diagonal (DissipatorSet): the linearized templates each
occupy one band, and the spectral family is split into the bands of its
azimuthal rings, which an exact azimuth average leaves uncoupled.  The
generator then keeps Q = m - m' inside each block as well: every diagonal of
a block rho_{jj'} is a chain that evolves on its own.

A density matrix on a BasisLayout (D = layout.dim) is kept as its values on
the chains it occupies, with their entry pattern (_EntryPattern): a
RotorState is one such vector, and a Trajectory one per frame on the pattern
of its initial state, since unoccupied chains stay exactly zero.  propagate
exponentiates the occupied chains exactly, block scalars included.  The
density-matrix check and every column (trace, purity, smallest eigenvalue,
signals, block populations) are computed from the entries, for a state and
a trajectory alike.  Only RotorState.matrix (as for the --dump of the CLI),
DissipatorSet.apply and write_state_binary build a D x D matrix.

The dissipator's action is defined once, as the generators of its chains
(_chain_generators): propagate exponentiates them, and DissipatorSet.apply
multiplies them into the chains of a dense matrix.
"""

import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import scattering
from .mathkit import make_rule, order_doubling_drift
from .params import HBAR
from .rates import energy_shift_matrix, thermal_q_integral

# angular second moments of the five coupling geometry factors:
# P2(n_z), n_z n_+, n_z n_-, n_+^2, n_-^2 paired with their conjugates.
# Cross moments vanish by azimuthal charge, so the circle-averaged coupling
# contributes one Lindblad channel per template.
TEMPLATE_MOMENTS = (
    4.0 * math.pi / 5.0,
    8.0 * math.pi / 15.0,
    8.0 * math.pi / 15.0,
    32.0 * math.pi / 15.0,
    32.0 * math.pi / 15.0,
)
# the diagonal m' - m each template of scattering.coupling_templates lies on
TEMPLATE_OFFSETS = (0, 1, -1, 2, -2)

DIAG_INTERVAL = 50
# tolerances of the density-matrix rule (_check_density)
TRACE_TOL = 1e-10
HERM_TOL = 1e-12
EIG_FLOOR = -1e-9
# a chain generator is propagated through V diag(lam) V^-1 only while that
# product reproduces it to this fraction of its largest entry
EIG_RECON_TOL = 1e-10
STATE_HEADER_BYTES = 32


class StepSizeViolation(ValueError):
    """dt does not resolve the fastest coherent frequency."""


class NumericalDriftError(RuntimeError):
    """Trace, hermiticity, or positivity drifted past tolerance mid-run."""


@dataclass(frozen=True)
class BasisLayout:
    """Contiguous block basis |jm>, j in [j_min, j_max], m in [-j, j]."""

    j_min: int
    j_max: int

    def __post_init__(self):
        if self.j_min < 0 or self.j_max < self.j_min:
            raise ValueError("need 0 <= j_min <= j_max")

    @property
    def js(self):
        return range(self.j_min, self.j_max + 1)

    @property
    def dim(self):
        return (self.j_max + 1) ** 2 - self.j_min**2

    def offset(self, j):
        self._check(j)
        return j**2 - self.j_min**2

    @property
    def block_sizes(self):
        return [2 * j + 1 for j in self.js]

    def block_slice(self, j):
        off = self.offset(j)
        return slice(off, off + 2 * j + 1)

    def index(self, j, m):
        if abs(m) > j:
            raise ValueError("|m| > j")
        return self.offset(j) + m + j

    def blocks(self):
        for j in self.js:
            yield j, self.block_slice(j)

    def _check(self, j):
        if not self.j_min <= j <= self.j_max:
            raise ValueError("j=%d outside layout [%d, %d]" % (j, self.j_min, self.j_max))


@dataclass(frozen=True, eq=False)
class RotorState:
    """Immutable density matrix on a BasisLayout: values (N,) at the entries
    of pattern, the chains it occupies, and zero elsewhere, checked by the
    density-matrix rule (_EntryPattern.check).  Each column is the one-frame
    case of the Trajectory column; matrix, the read-only D x D array, is
    built on first use.
    """

    layout: BasisLayout
    pattern: "_EntryPattern"
    values: np.ndarray  # (N,)
    time: float = 0.0

    def __post_init__(self):
        values = np.array(self.values, dtype=complex)
        if values.shape != self.pattern.rows.shape:
            raise ValueError("values shape %s does not match the pattern" % (values.shape,))
        self.pattern.check(values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_entries(cls, layout, rows, cols, values, time=0.0):
        """State with values at the entries (rows, cols), zero elsewhere."""
        values = np.asarray(values, dtype=complex)
        held = values != 0
        rows, cols = np.asarray(rows)[held], np.asarray(cols)[held]
        chains = _occupied_chains(layout, rows, cols)
        flat = [np.concatenate([c[k].ravel() for c in chains] or [np.zeros(0, int)])
                for k in (0, 1)]
        pattern = _EntryPattern(layout.dim, *flat, chains)
        out = np.zeros(len(pattern.rows), dtype=complex)
        out[pattern.locate(rows, cols)] = values[held]
        return cls(layout, pattern, out, time)

    @classmethod
    def from_matrix(cls, layout, matrix, time=0.0):
        """State of the dense D x D matrix (from_entries of its nonzeros)."""
        mat = np.asarray(matrix, dtype=complex)
        d = layout.dim
        if mat.shape != (d, d):
            raise ValueError("matrix shape %s does not match dimension %d" % (mat.shape, d))
        rows, cols = np.nonzero(mat)
        return cls.from_entries(layout, rows, cols, mat[rows, cols], time)

    @cached_property
    def matrix(self):
        mat = np.zeros((self.layout.dim,) * 2, dtype=complex)
        mat[self.pattern.rows, self.pattern.cols] = self.values
        mat.setflags(write=False)
        return mat

    @cached_property
    def _frame(self):
        """The one-frame Trajectory of this state."""
        return Trajectory(self.layout, self.pattern, np.array([self.time]), self.values[None])

    def purity(self):
        return float(self._frame.purity()[0])

    def min_eigenvalue(self):
        return float(self._frame.min_eigenvalues()[0])

    def block_populations(self):
        return dict(zip(self.layout.js, self._frame.block_populations()[0].tolist()))

    def corner_coherence(self, j, j_prime):
        """Matrix element <jj| rho |j'j'> between stretched states."""
        return complex(self._frame.corner_coherence(j, j_prime)[0])


def _check_density(trace, herm, largest):
    """The density-matrix rule: raise ValueError unless |trace - 1| <=
    TRACE_TOL and the hermiticity deviation herm = max|rho - rho^+| <=
    HERM_TOL * max(1, largest), largest = max|rho|.

    Each comparison is written as `not x <= tol`, so a NaN or inf entry
    fails.  Returns (|trace - 1|, herm).
    """
    trace_dev = float(abs(trace - 1.0))
    if not trace_dev <= TRACE_TOL:
        raise ValueError("trace drift %.3g exceeds %g" % (trace_dev, TRACE_TOL))
    herm = float(herm)
    if not herm <= HERM_TOL * max(1.0, float(largest)):
        raise ValueError("matrix is not hermitian: drift %.3g" % herm)
    return trace_dev, herm


def isotropic_state(layout, populations, time=0.0):
    """Diagonal state with population p_j spread evenly over each block."""
    total = math.fsum(float(p) for p in populations.values())
    if any(float(p) < 0 for p in populations.values()):
        raise ValueError("populations must be nonnegative")
    if abs(total - 1.0) > TRACE_TOL:
        raise ValueError("populations must sum to 1 within %g" % TRACE_TOL)
    diag = np.concatenate([np.r_[layout.block_slice(j)] for j in populations])
    values = np.repeat([float(p) / (2 * j + 1) for j, p in populations.items()],
                       [2 * j + 1 for j in populations])
    return RotorState.from_entries(layout, diag, diag, values, time)


def centrifuge_state(layout, coefficients, time=0.0):
    """Pure superposition of stretched states |jj> with amplitudes c_j."""
    norm = math.fsum(abs(complex(c)) ** 2 for c in coefficients.values())
    if abs(norm - 1.0) > TRACE_TOL:
        raise ValueError("coefficient norm deviates from 1 beyond %g" % TRACE_TOL)
    idx = np.array([layout.index(j, j) for j in coefficients])
    amp = np.array([complex(c) for c in coefficients.values()])
    rows, cols = np.meshgrid(idx, idx, indexing="ij")
    return RotorState.from_entries(
        layout, rows.ravel(), cols.ravel(), np.outer(amp, amp.conj()).ravel(), time
    )


def gaussian_profile(layout, center, width):
    """Illustrative Gaussian-over-j amplitude profile for centrifuge_state.

    Not derived from any collision model; it just provides a smooth default
    population of stretched-state coherences across the layout.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    js = np.array(list(layout.js), dtype=float)
    amp = np.exp(-((js - center) ** 2) / (4.0 * width**2))
    norm = math.sqrt(float(np.sum(amp**2)))
    if not norm > 0.0:
        raise ValueError(
            "gaussian profile at center %g has no weight on j window [%d, %d]"
            % (center, layout.j_min, layout.j_max)
        )
    amp /= norm
    return {j: complex(a) for j, a in zip(layout.js, amp)}


@dataclass
class DissipatorSet:
    """Weighted family of single-band, block-diagonal Lindblad operators.

    The generator is

        D rho = collision_weight * sum_k w_k (A_k rho A_k^+ - {A_k^+ A_k, rho}/2).

    Each jump of the quadrature-discretized (q, n') family is c(q) (I + A),
    with A hermitian and q-independent, so its identity part cancels from the
    generator exactly and the radial average collapses into
    collision_weight; the A_k and w_k carry the direction average.  Every
    A_k lies on one diagonal m' - m = offsets[k] and is stored as that
    diagonal, diagonals[k, r] = A_k[r, r + offsets[k]], zero where
    r + offsets[k] leaves the j block of row r.  kmat is the diagonal of the
    anticommutator kernel sum_k w_k A_k^+ A_k.

    aniso_mean is the diagonal of the sphere mean (1/4 pi) Int d^2n' A(n')
    of the anisotropy the family discretizes, which the azimuth average
    makes diagonal in m.  The gas shift is the isotropic shift times
    I + aniso_mean, so it shares the family's amplitude model and kappa.

    (A rho A^+)[r, c] = a[r] rho[r + q, c + q] a[c]^*, so the ops of one
    offset q carry rho[r + q, c + q] into [r, c] with the gain G_q[r, c] =
    collision_weight * sum_{k: q_k = q} w_k a_k[r] a_k[c]^*.  No gain is
    stored or formed densely: _chain_generators evaluates kmat and the G_q
    at the entries of the chains asked for, and both apply and _chain_flow
    act through it.
    """

    layout: BasisLayout
    collision_weight: float
    weights: np.ndarray  # (n_ops,)
    offsets: np.ndarray  # (n_ops,) int
    diagonals: np.ndarray  # (n_ops, D)
    aniso_mean: np.ndarray  # (D,) real
    metadata: dict = field(default_factory=dict)
    kmat: np.ndarray = field(init=False)  # (D,) real

    def __post_init__(self):
        d = self.layout.dim
        self.kmat = np.zeros(d)
        for q, w, a in self._offset_groups():
            # row r of an op on offset q holds its entry in column r + q
            lo, hi = max(0, -q), d - max(0, q)
            self.kmat[lo + q : hi + q] += w @ np.abs(a[:, lo:hi]) ** 2

    def _offset_groups(self):
        """(q, w, a) per distinct offset q: the weights and (n_q, D)
        diagonals of its ops."""
        for q in np.unique(self.offsets).tolist():
            sel = self.offsets == q
            yield q, self.weights[sel], self.diagonals[sel]

    @property
    def converged(self):
        return bool(self.metadata.get("converged", True))

    @property
    def jump_scale(self):
        """Total collision weight; normalizes stationarity and null checks."""
        return max(self.collision_weight, 1e-300)

    @classmethod
    def empty(cls, layout):
        """No jumps; the gas energy shift is the isotropic one."""
        d = layout.dim
        return cls(
            layout=layout,
            collision_weight=0.0,
            weights=np.zeros(0),
            offsets=np.zeros(0, dtype=int),
            diagonals=np.zeros((0, d)),
            aniso_mean=np.zeros(d),
            metadata={"converged": True},
        )

    def apply(self, rho):
        """Dissipator action on a dense D x D matrix, chain by chain.

        Each chain rho occupies (_occupied_chains) is multiplied by its
        generator (_chain_generators); the generator keeps every chain, so
        the chains rho leaves empty give exactly zero and the result is
        exact for any matrix, hermitian or not.
        """
        out = np.zeros(rho.shape, dtype=np.result_type(rho, self.diagonals, 1j))
        for rows, cols in _occupied_chains(self.layout, *np.nonzero(rho)):
            gen = _chain_generators(self, rows, cols)
            out[rows, cols] = (gen @ rho[rows, cols][..., None])[..., 0]
        return out


def _collision_weight(spec):
    """2 pi (n_g/mu) Int dq q^3 nu_th(q) |c(q)|^2 on the radial rule."""
    radial = thermal_q_integral(spec, spec.numerics.quad_order_q, 3, lambda c: np.abs(c) ** 2)
    return 2.0 * math.pi * spec.gas.density / spec.thermal.reduced_mass * radial


def _jump_family(spec, layout, backend, kappa_mode):
    """(weights, offsets, diagonals, aniso_mean) of the direction-averaged
    jump family.

    Linearized: A(n') = (2/5) sum_a g_a(n') T_a.  The sphere moments of
    g_a g_b^* vanish for a != b and equal TEMPLATE_MOMENTS[a] for a = b, so
    the five templates with weights (2/5)^2 * moment reproduce the node sum
    exactly; every g_a has zero sphere mean, so aniso_mean is zero.
    Spectral: the hermitized anisotropy S(n') - I of the fractional-power
    shape.  A rotation about z conjugates it, A(R_z(phi) n') =
    U_z(phi) A(n') U_z(phi)^+, so band q of A picks up exp(i q phi), and the
    exact azimuth average of A rho A^+ keeps sum_q A^(q) rho A^(q)^+ with
    A^(q) band q of A at phi = 0.  The jumps are those bands on the rings
    of the sphere rule, each weighted by its ring's 2 pi w_theta, and
    aniso_mean is the band-0 (diagonal) mean.
    """
    if backend == "linearized":
        # T_3 and T_5 are the transposes of T_2 and T_4, so bands -1 and -2
        # read the same vectors as bands +1 and +2
        def bands(j):
            diag, band1, band2 = scattering.template_bands(j, spec.molecule, kappa_mode)
            return [v[None] for v in (diag, band1, band1, band2, band2)]

        ops = _band_diagonals(layout, TEMPLATE_OFFSETS, bands)
        weights = 0.16 * np.array(TEMPLATE_MOMENTS)
        return weights, np.array(TEMPLATE_OFFSETS), ops, np.zeros(layout.dim)
    if backend != "spectral":
        raise ValueError("unknown backend %r" % backend)
    ring = make_rule("ring", spec.numerics.quad_order_sphere)

    offsets = np.arange(-2 * layout.j_max, 2 * layout.j_max + 1)

    def bands(j):
        aniso = scattering.spectral_shapes(j, ring.nodes, spec, kappa_mode) - np.eye(2 * j + 1)
        aniso = 0.5 * (aniso + aniso.conj().transpose(0, 2, 1))
        return [np.diagonal(aniso, q, axis1=1, axis2=2) for q in offsets]

    ops = _band_diagonals(layout, offsets, bands)
    weights = np.repeat(ring.weights, len(offsets))
    offsets = np.tile(offsets, len(ring.weights))
    aniso_mean = (weights[offsets == 0] @ ops[offsets == 0]).real / (4.0 * math.pi)
    return weights, offsets, ops, aniso_mean


def _band_diagonals(layout, offsets, bands):
    """(n * len(offsets), D) diagonals of the bands of n block matrices.

    bands(j) lists, for each q in offsets, the (n, 2j + 1 - |q|) band q of
    the n matrices of block j (empty where |q| > 2j).  Row k * len(offsets)
    + i holds band offsets[i] of matrix k, entry r being M_k[r, r + q] of the
    block holding row r, and zero where the band leaves that block.
    """
    out = None
    for j, sl in layout.blocks():
        for i, (q, band) in enumerate(zip(offsets, bands(j))):
            if out is None:
                out = np.zeros((len(band), len(offsets), layout.dim), dtype=band.dtype)
            start = sl.start + max(0, -q)
            out[:, i, start : start + band.shape[1]] = band
    return out.reshape(-1, layout.dim)


def build_dissipator(spec, layout, backend="linearized", kappa_mode="exact"):
    """Assemble the jump family from forward amplitudes on quadrature grids.

    backend "linearized" reduces the sphere average to five real coupling
    templates (angular moments exact); "spectral" keeps the fractional-power
    amplitude on every ring (polar node) of the sphere rule and averages the
    azimuth exactly.  The convergence flag compares the induced map against
    the family rebuilt at doubled radial and sphere orders on a dense probe
    state.
    """
    num = spec.numerics
    if num.quad_order_q < 24:
        raise ValueError("radial quadrature order below documented minimum 24")
    n_sphere = len(make_rule("sphere", num.quad_order_sphere).weights)
    if n_sphere < 26:
        raise ValueError("sphere quadrature below documented minimum of 26 nodes")

    fine_num = replace(
        num, quad_order_q=2 * num.quad_order_q, quad_order_sphere=2 * num.quad_order_sphere
    )
    dset, fine = (
        DissipatorSet(layout, _collision_weight(s), *_jump_family(s, layout, backend, kappa_mode))
        for s in (spec, replace(spec, numerics=fine_num))
    )
    probe = centrifuge_state(
        layout, gaussian_profile(layout, 0.5 * (layout.j_min + layout.j_max), 2.0)
    )
    drift, converged = order_doubling_drift(dset.apply(probe.matrix), fine.apply(probe.matrix))
    dset.metadata = {
        "backend": backend,
        "kappa_mode": kappa_mode,
        "quad_order_q": num.quad_order_q,
        "sphere_nodes": n_sphere,
        "order_doubling_drift": drift,
        "converged": converged,
    }
    return dset


def _hamiltonian(spec, dset):
    """H + H_g split into block scalars and a block-diagonal residual.

    The gas shift H_g(j) = s_iso (I + aniso_mean_j) comes from the
    dissipator's own jump family.  On block j, H + H_g is the scalar
    levels[j] = E_j + s_iso plus the residual s_iso aniso_mean, returned as
    the (D,) diagonal it is; it is zero for the linearized family.
    """
    layout = dset.layout
    # s_iso is the same in every block
    s_iso = energy_shift_matrix(layout.j_min, spec)[0, 0]
    levels = s_iso + np.array([spec.molecule.rotational_energy(j) for j in layout.js])
    return levels, s_iso * dset.aniso_mean


def _frequency_spread(layout, levels, residual):
    eigs = np.repeat(levels, layout.block_sizes) + residual
    return float((eigs.max() - eigs.min()) / HBAR)


def coherent_frequency_spread(spec, dset):
    """Width of the spectrum of (H + H_g)/hbar across dset's layout, with the
    gas shift of dset's jump family."""
    return _frequency_spread(dset.layout, *_hamiltonian(spec, dset))


def propagate(rho0, dset, spec, t_final, dt, record_every=None):
    """Evolve rho0 exactly and sample it on a fixed time grid.

    Returns the Trajectory of frames every record_every steps of dt (initial
    and final state always included), each evaluated in closed form on the
    entries of the chains rho0 occupies (rho0.pattern, _chain_flow).  dt
    sets only the output grid and the monitor cadence, but it must still
    resolve the fastest coherent frequency: a coarser grid would alias the
    coherences it samples, so StepSizeViolation is raised when
    dt * max|Delta| > 0.1.
    Every evaluated frame is checked on its entries by the density-matrix
    rule (_check_density), and one that fails raises NumericalDriftError;
    so does one whose smallest eigenvalue falls below EIG_FLOOR on a monitor
    step (every DIAG_INTERVAL steps and the last).
    """
    layout = rho0.layout
    if dset is None:
        dset = DissipatorSet.empty(layout)
    if dset.layout != layout:
        raise ValueError("state layout does not match dissipator layout")
    if not (math.isfinite(t_final) and math.isfinite(dt)):
        raise ValueError("t_final and dt must be finite (got %g, %g)" % (t_final, dt))
    if t_final <= 0 or dt <= 0:
        raise ValueError("t_final and dt must be positive")
    if not math.isfinite(t_final / dt):
        raise ValueError("t_final / dt is not finite (got %g / %g)" % (t_final, dt))
    if record_every is not None and record_every < 1:
        raise ValueError("record_every must be at least 1")

    levels, residual = _hamiltonian(spec, dset)
    spread = _frequency_spread(layout, levels, residual)
    n_steps = max(1, int(round(t_final / dt)))
    dt = t_final / n_steps
    if dt * spread > 0.1 + 1e-12:
        raise StepSizeViolation(
            "step-size violation: dt*max|Delta| = %.3g exceeds 0.1" % (dt * spread)
        )
    if record_every is None:
        record_every = max(1, n_steps // 200)

    flow = _chain_flow(rho0, dset, levels, residual)
    pattern = rho0.pattern
    n_frames = 1 + n_steps // record_every + (n_steps % record_every > 0)
    times = np.empty(n_frames)
    values = np.empty((n_frames, len(pattern.rows)), dtype=complex)
    times[0], values[0] = rho0.time, rho0.values
    recorded = 1
    worst_trace = worst_herm = 0.0
    lowest = math.inf
    for step in range(1, n_steps + 1):
        monitor = step % DIAG_INTERVAL == 0 or step == n_steps
        record = step % record_every == 0 or step == n_steps
        if monitor or record:
            t = rho0.time + step * dt
            frame = flow(step * dt)
            try:
                trace_dev, herm = pattern.check(frame)
            except ValueError as exc:
                raise NumericalDriftError("%s at t=%.6g" % (exc, t)) from None
            worst_trace, worst_herm = max(worst_trace, trace_dev), max(worst_herm, herm)
            if monitor:
                low = float(pattern.min_eigenvalues(frame[None])[0])
                if not low >= EIG_FLOOR:
                    raise NumericalDriftError("negative eigenvalue %.3g at t=%.6g" % (low, t))
                lowest = min(lowest, low)
            if record:
                times[recorded], values[recorded] = t, frame
                recorded += 1
    diagnostics = {
        "steps": n_steps,
        "dt_max_delta": dt * spread,
        "max_trace_deviation": worst_trace,
        "max_hermiticity_deviation": worst_herm,
        "min_eigenvalue": lowest,
    }
    return Trajectory(layout, pattern, times, values, diagnostics)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The frames of one propagate run, each kept as its entry values.

    Frame k is the density matrix at times[k] that holds values[k] at the
    entries (pattern.rows, pattern.cols) and zero elsewhere: the occupied
    chains, which hold every entry the flow can reach.  The columns below
    are computed from the entries for every frame at once.  len, indexing,
    slicing and iteration give the frames as RotorStates on the same
    pattern, with no D x D matrix built.  diagnostics holds the step count,
    dt * max|Delta|, and the worst |tr - 1|, hermiticity deviation and
    smallest eigenvalue over the frames propagate checked.
    """

    layout: BasisLayout
    pattern: "_EntryPattern"
    times: np.ndarray  # (n,)
    values: np.ndarray  # (n, N)
    diagnostics: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.times)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        return RotorState(self.layout, self.pattern, self.values[k], float(self.times[k]))

    def trace(self):
        return self.pattern.diagonal(self.values).sum(axis=-1).real

    def purity(self):
        return np.sum(np.abs(self.values) ** 2, axis=-1)

    def min_eigenvalues(self):
        return self.pattern.min_eigenvalues(self.values)

    def block_populations(self):
        """(n, number of blocks) populations, blocks in layout.js order."""
        diag = self.pattern.diagonal(self.values)
        return np.stack([diag[:, sl].sum(axis=-1).real for _, sl in self.layout.blocks()], -1)

    def corner_coherence(self, j, j_prime):
        """(n,) matrix elements <jj| rho |j'j'> between stretched states."""
        k = self.pattern.locate(self.layout.index(j, j), self.layout.index(j_prime, j_prime))
        return np.zeros(len(self), dtype=complex) if k < 0 else self.values[:, k]

    def signal(self, j):
        """(n,) alignment signals |<jj| rho |j-2,j-2>|^2 (alignment_signal)."""
        return np.abs(self.corner_coherence(j, j - 2)) ** 2


def _chain_flow(rho0, dset, levels, residual):
    """Exact flow of the RotorState rho0 under H + H_g and dset, on the
    entries of the chains rho0 occupies (rho0.pattern).

    Every jump lies on one diagonal q and the residual gas shift is
    diagonal, so the generator moves rho[r, c] only to rho[r + q, c + q]
    inside the same block rho_{jj'}: it keeps j, j' and Q = m - m', and each
    diagonal of each block is a chain of length <= 2 min(j, j') + 1 that
    evolves on its own.  Its generator is the dissipator's
    (_chain_generators) plus the residual, which adds -i (R_r - R_c) / hbar
    to its diagonal, so it is not hermitian in general.  Chains that rho0
    leaves empty stay exactly zero and are not in its pattern; the occupied
    ones are diagonalized by one stacked eig per chain length.  The block
    scalars E_j + s_iso (levels) are constant along a chain and commute with
    its generator: -i (levels[j] - levels[j']) / hbar joins its eigenvalues.

    Returns flow(tau), the (N,) values at rho0's pattern entries at elapsed
    time tau.

    Raises NumericalDriftError when a chain generator is not finite, or when
    V diag(lam) V^-1 misses it by more than EIG_RECON_TOL of its largest
    entry: the eigenvectors are then too ill-conditioned to propagate with.
    """
    coherent = bool(np.any(residual))
    scalars = np.repeat(levels, dset.layout.block_sizes)
    parts = []
    for rows, cols in rho0.pattern.chains:
        gen = _chain_generators(dset, rows, cols)
        if coherent:
            steps = np.arange(rows.shape[1])
            gen = gen.astype(complex)
            gen[:, steps, steps] += (-1j / HBAR) * (residual[rows] - residual[cols])
        if not np.all(np.isfinite(gen)):
            raise NumericalDriftError("chain generator is not finite")
        lam, vec = np.linalg.eig(gen)
        try:
            inv = np.linalg.inv(vec)
        except np.linalg.LinAlgError:
            raise NumericalDriftError("chain generator has no eigenbasis") from None
        scale = max(float(np.max(np.abs(gen))), 1e-300)
        miss = float(np.max(np.abs((vec * lam[:, None, :]) @ inv - gen))) / scale
        # written so that a NaN from an overflowing inverse counts as a miss
        if not miss <= EIG_RECON_TOL:
            raise NumericalDriftError(
                "chain generator eigendecomposition misses it by %.3g of its scale" % miss
            )
        lam = lam - (1j / HBAR) * (scalars[rows[:, :1]] - scalars[cols[:, :1]])
        chain0 = rho0.values[rho0.pattern.locate(rows, cols)]
        parts.append((lam, vec, np.einsum("cij,cj->ci", inv, chain0)))

    def flow(tau):
        return np.concatenate(
            [
                np.einsum("cij,cj->ci", vec, np.exp(lam * tau) * coef).ravel()
                for lam, vec, coef in parts
            ]
        )

    return flow


def _chain_generators(dset, rows, cols):
    """(n_chains, n, n) generators of the dissipator dset on the chains of
    length n whose entries are (rows, cols) (_occupied_chains): the only
    definition of the dissipator's action in the package.

    Entry [i, i] is -collision_weight (kmat[r] + kmat[c]) / 2 at the chain's
    i-th entry (r, c), and entry [i, i + q] the gain G_q[r, c]
    (DissipatorSet), which feeds rho[r + q, c + q] into [r, c].  Real for a
    real family.
    """
    cw = dset.collision_weight
    n = rows.shape[1]
    steps = np.arange(n)
    gen = np.zeros(rows.shape + (n,), dtype=np.result_type(dset.diagonals, 0.0))
    gen[:, steps, steps] = (-0.5 * cw) * (dset.kmat[rows] + dset.kmat[cols])
    for q, w, a in dset._offset_groups():
        # a partner beyond the chain's end crosses a block edge, where a is 0
        s = steps[max(0, -q) : max(0, n - max(0, q))]
        r, c = rows[:, s], cols[:, s]
        gen[:, s, s + q] += cw * (a[:, r] * w[:, None, None] * a[:, c].conj()).sum(axis=0)
    return gen


def _occupied_chains(layout, rows, cols):
    """(rows, cols) index arrays of the chains that hold the entries (rows,
    cols), one pair per chain length, each of shape (n_chains, length).

    A chain is one diagonal of a block rho_{jj'}: the entries (a + s, b + s)
    of the block, s = 0 .. length - 1, starting on its first row or column.
    A chain counts as occupied when it or its transpose holds one of the
    entries, so the chains' entries form a pattern equal to its transpose.
    """
    sizes = np.array(layout.block_sizes)
    offsets = np.cumsum(sizes) - sizes
    block = np.repeat(np.arange(len(sizes)), sizes)
    r, c = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    bj, bk = block[r], block[c]
    diag = (c - offsets[bk]) - (r - offsets[bj])
    bj, bk, diag = np.unique(np.stack([bj, bk, diag]), axis=1)
    a = np.maximum(0, -diag)
    b = a + diag
    lengths = np.minimum(sizes[bj] - a, sizes[bk] - b)
    chains = []
    for n in np.unique(lengths):
        sel = lengths == n
        steps = np.arange(n)
        chain_rows = (offsets[bj[sel]] + a[sel])[:, None] + steps
        chain_cols = (offsets[bk[sel]] + b[sel])[:, None] + steps
        chains.append((chain_rows, chain_cols))
    return chains


class _EntryPattern:
    """Entries (rows, cols) of D x D matrices, a pattern equal to its
    transpose; a matrix on it is the (N,) vector of its values there.

    Each reduction the frames need is taken on that vector: the main
    diagonal (diag), the transposed partner of every entry (partner) for
    hermiticity, and the connected components of the rows (components) for
    the smallest eigenvalue.  Each is found once per pattern.  chains lists
    the (rows, cols) groups of _occupied_chains when the pattern holds their
    entries, chain after chain (RotorState.from_entries).
    """

    def __init__(self, dim, rows, cols, chains=()):
        self.dim, self.rows, self.cols, self.chains = dim, rows, cols, chains
        self.diag = np.flatnonzero(rows == cols)
        keys = rows * dim + cols
        self._order = np.argsort(keys)
        self._keys = keys[self._order]
        self.partner = self.locate(cols, rows)

    def locate(self, rows, cols):
        """Indices of the entries (rows, cols); -1 where the pattern lacks one."""
        want = np.asarray(rows) * self.dim + np.asarray(cols)
        at = np.minimum(np.searchsorted(self._keys, want), len(self._keys) - 1)
        return np.where(self._keys[at] == want, self._order[at], -1)

    def diagonal(self, values):
        """(..., D) main diagonals of values (..., N)."""
        out = np.zeros(values.shape[:-1] + (self.dim,), dtype=values.dtype)
        out[..., self.rows[self.diag]] = values[..., self.diag]
        return out

    def check(self, values):
        """_check_density of the matrix with entry values (N,)."""
        herm = np.max(np.abs(values - values[self.partner].conj()), initial=0.0)
        return _check_density(
            self.diagonal(values).sum(), herm, np.max(np.abs(values), initial=0.0)
        )

    @cached_property
    def components(self):
        """(groups, empty): groups lists (n, size, entries, flat) per
        component size, the pattern's n components of that many rows and
        where each of their entries goes in the (n, size, size) stack of
        their submatrices, flattened; empty tells whether some row holds no
        entry.

        Components are ordered by their smallest row, and rows ascend
        inside each; rows that hold no entry are left out.
        """
        rows, cols = self.rows, self.cols
        # each row takes the smallest label among itself and its neighbours,
        # then follows its label's label; the fixed point labels every
        # component by its smallest row
        labels = np.arange(self.dim)
        while True:
            new = labels.copy()
            np.minimum.at(new, rows, labels[cols])
            new = new[new]
            if np.array_equal(new, labels):
                break
            labels = new
        held = np.bincount(rows, minlength=self.dim) > 0
        order = np.argsort(labels, kind="stable")
        order = order[held[order]]
        counts = np.bincount(labels[order])
        counts = counts[counts > 0]
        starts = np.cumsum(counts) - counts
        # size[r]: rows in r's component; slot[r] = k * size + i for the
        # i-th row of the k-th component of that size
        size, slot = np.zeros(self.dim, dtype=int), np.zeros(self.dim, dtype=int)
        sizes = np.unique(counts).tolist()
        for s in sizes:
            idx = order[starts[counts == s][:, None] + np.arange(s)]
            size[idx] = s
            slot[idx] = np.arange(idx.size).reshape(idx.shape)
        groups = []
        for s in sizes:
            ent = np.flatnonzero(size[rows] == s)
            flat = slot[rows[ent]] * s + slot[cols[ent]] % s
            groups.append((np.count_nonzero(counts == s), s, ent, flat))
        return groups, not held.all()

    def min_eigenvalues(self, values):
        """(F,) smallest eigenvalue of each of the F hermitian matrices
        values (F, N), component by component.

        Permuted to the components, each matrix is block diagonal, so its
        spectrum is the union of the blocks' spectra, and a row that holds
        no entry adds the eigenvalue 0.  One stacked eigvalsh runs per
        component size, over all F matrices at once.
        """
        groups, empty = self.components
        low = np.full(len(values), 0.0 if empty else np.inf)
        for n, s, ent, flat in groups:
            stack = np.zeros((len(values), n * s * s), dtype=values.dtype)
            stack[:, flat] = values[:, ent]
            eig = np.linalg.eigvalsh(stack.reshape(-1, s, s))[:, 0]
            low = np.minimum(low, eig.reshape(len(values), n).min(axis=1))
        return low


def alignment_signal(rho, j):
    """Squared coherence |<jj| rho |j-2,j-2>|^2 probed by Raman scattering."""
    return float(rho._frame.signal(j)[0])


def extract_decay_rate(samples, with_residual=False):
    """Log-linear least-squares decay rate of positive samples.

    Meaningful fits need the samples to span about an e-folding; only the
    degenerate preconditions (count, positivity, nonzero time span) are
    enforced so that flat series cleanly report rate 0.
    """
    if len(samples) < 5:
        raise ValueError("need at least 5 samples")
    t = np.array([s[0] for s in samples], dtype=float)
    v = np.array([s[1] for s in samples], dtype=float)
    if np.any(v <= 0):
        raise ValueError("samples must be positive")
    if t.max() - t.min() <= 0:
        raise ValueError("samples must span a nonzero time interval")
    logs = np.log(v)
    if np.max(logs) - np.min(logs) == 0.0:
        return (0.0, 0.0) if with_residual else 0.0
    slope, intercept = np.polyfit(t, logs, 1)
    resid = float(np.sqrt(np.mean((logs - (slope * t + intercept)) ** 2)))
    rate = float(-slope)
    return (rate, resid) if with_residual else rate


def trajectory_csv(trajectory, signal_js=()):
    """CSV rendering of a Trajectory with columns
    t,trace,purity,min_eig,signal_j<j>..."""
    cols = ["t", "trace", "purity", "min_eig"] + ["signal_j%d" % j for j in signal_js]
    table = np.column_stack(
        [
            trajectory.times,
            trajectory.trace(),
            trajectory.purity(),
            trajectory.min_eigenvalues(),
        ]
        + [trajectory.signal(j) for j in signal_js]
    )
    lines = [",".join(cols)]
    lines.extend(",".join("%.11e" % x for x in row) for row in table.tolist())
    return "\n".join(lines) + "\n"


def write_state_binary(state, path):
    """Dump a state as little-endian binary.

    Layout: int64 D, int64 j_min, int64 j_max, float64 time, then D*D
    complex128 entries row-major.  The file is written under a temporary
    name and renamed into place, so readers never see a partial dump.
    """
    path = os.fspath(path)
    tmp = "%s.tmp-%d" % (path, os.getpid())
    header = np.array(
        [state.layout.dim, state.layout.j_min, state.layout.j_max], dtype="<i8"
    )
    # built before the temporary file exists, so a failure leaves no file
    payload = np.ascontiguousarray(state.matrix, dtype="<c16")
    with open(tmp, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(np.array([state.time], dtype="<f8").tobytes())
        fh.write(payload)
    os.replace(tmp, path)


def read_state_binary(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < STATE_HEADER_BYTES:
        raise ValueError(
            "state file is %d bytes, shorter than its %d-byte header"
            % (len(raw), STATE_HEADER_BYTES)
        )
    dim, j_min, j_max = (int(x) for x in np.frombuffer(raw[:24], dtype="<i8"))
    time = float(np.frombuffer(raw[24:32], dtype="<f8")[0])
    layout = BasisLayout(int(j_min), int(j_max))
    if layout.dim != dim:
        raise ValueError("header dimension %d inconsistent with j range" % dim)
    mat = np.frombuffer(raw[32:], dtype="<c16")
    if mat.size != dim * dim:
        raise ValueError("payload size does not match header dimension")
    return RotorState.from_matrix(layout, mat.reshape(dim, dim), time)