"""Rotor density matrices and their dissipative propagation.

The master equation is d rho/dt = -i[H + H_g, rho]/hbar + D rho, where H is the
rigid-rotor Hamiltonian, H_g the gas-induced energy shift, and D a Lindblad
dissipator built from forward scattering amplitudes.  Every jump operator is
block diagonal over j, so block populations are conserved exactly and the
dynamics factorizes into (j, j') sectors.

Density matrices and jump operators (DissipatorSet.ops, shape (n_ops, D, D))
are dense D x D matrices on one BasisLayout, with D = layout.dim.

When every jump lies on one diagonal q (the linearized templates) the
generator also keeps Q = m - m' inside each block: every diagonal of a block
rho_{jj'} is a chain that evolves on its own, and propagate exponentiates the
chains rho0 occupies exactly.  Dense families (spectral) run RK4.  Unoccupied
chains stay exactly zero, so frame eigenvalues are taken component by
component of the nonzero pattern (_min_eigenvalue).
"""

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import scattering
from .mathkit import make_rule
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

DIAG_INTERVAL = 50
# a density matrix is accepted while |tr rho - 1| <= TRACE_TOL and
# max|rho - rho^+| <= HERM_TOL; RotorState and the propagation monitor share
# these, so drift is reported as NumericalDriftError before a state is built
TRACE_TOL = 1e-10
HERM_TOL = 1e-12
EIG_FLOOR = -1e-9
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

    def block_dim(self, j):
        self._check(j)
        return 2 * j + 1

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
    """Immutable density-matrix snapshot on a BasisLayout."""

    layout: BasisLayout
    matrix: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex, order="C")
        d = self.layout.dim
        if mat.shape != (d, d):
            raise ValueError("matrix shape %s does not match dimension %d" % (mat.shape, d))
        scale = max(1.0, float(np.max(np.abs(mat))))
        if np.max(np.abs(mat - mat.conj().T)) > HERM_TOL * scale:
            raise ValueError("matrix is not hermitian")
        tr = np.trace(mat)
        if abs(tr.real - 1.0) > TRACE_TOL or abs(tr.imag) > TRACE_TOL:
            raise ValueError("trace deviates from 1 beyond %g" % TRACE_TOL)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def purity(self):
        return float(np.sum(np.abs(self.matrix) ** 2))

    def min_eigenvalue(self):
        return _min_eigenvalue(self.matrix)

    def block_populations(self):
        return {j: float(np.trace(self.matrix[sl, sl]).real) for j, sl in self.layout.blocks()}

    def corner_coherence(self, j, j_prime):
        """Matrix element <jj| rho |j'j'> between stretched states."""
        return complex(self.matrix[self.layout.index(j, j), self.layout.index(j_prime, j_prime)])


def isotropic_state(layout, populations, time=0.0):
    """Diagonal state with population p_j spread evenly over each block."""
    for j in populations:
        layout._check(j)
    total = math.fsum(float(p) for p in populations.values())
    if any(float(p) < 0 for p in populations.values()):
        raise ValueError("populations must be nonnegative")
    if abs(total - 1.0) > TRACE_TOL:
        raise ValueError("populations must sum to 1 within %g" % TRACE_TOL)
    mat = np.zeros((layout.dim, layout.dim), dtype=complex)
    for j, p in populations.items():
        sl = layout.block_slice(j)
        mat[sl, sl] = np.eye(2 * j + 1) * (float(p) / (2 * j + 1))
    return RotorState(layout, mat, time)


def centrifuge_state(layout, coefficients, time=0.0):
    """Pure superposition of stretched states |jj> with amplitudes c_j."""
    norm = math.fsum(abs(complex(c)) ** 2 for c in coefficients.values())
    if abs(norm - 1.0) > TRACE_TOL:
        raise ValueError("coefficient norm deviates from 1 beyond %g" % TRACE_TOL)
    vec = np.zeros(layout.dim, dtype=complex)
    for j, c in coefficients.items():
        vec[layout.index(j, j)] = complex(c)
    return RotorState(layout, np.outer(vec, vec.conj()), time)


def gaussian_profile(layout, center, width):
    """Illustrative Gaussian-over-j amplitude profile for centrifuge_state.

    Not derived from any collision model; it just provides a smooth default
    population of stretched-state coherences across the layout.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    js = np.array(list(layout.js), dtype=float)
    amp = np.exp(-((js - center) ** 2) / (4.0 * width**2))
    amp /= math.sqrt(float(np.sum(amp**2)))
    return {j: complex(a) for j, a in zip(layout.js, amp)}


@dataclass
class DissipatorSet:
    """Weighted family of block-diagonal Lindblad operators.

    The generator is

        D rho = collision_weight * sum_k w_k (A_k rho A_k^+ - {A_k^+ A_k, rho}/2).

    Each jump of the quadrature-discretized (q, n') family is c(q) (I + A),
    with A hermitian and q-independent, so its identity part cancels from the
    generator exactly and the radial average collapses into
    collision_weight; the A_k and w_k carry the direction average.  The A_k
    are dense D x D matrices on the layout, zero outside the diagonal j
    blocks.  kmat is the anticommutator kernel sum_k w_k A_k^+ A_k.

    aniso_mean is the sphere mean (1/4 pi) Int d^2n' A(n') of the anisotropy
    the family discretizes.  The gas shift is the isotropic shift times
    I + aniso_mean, so it shares the family's amplitude model and kappa.

    When every A_k lies on one diagonal m' - m = q_k (the linearized
    templates), A rho A^+ is an elementwise product of shifted matrices and
    kmat is diagonal, so apply skips the matrix products.
    """

    layout: BasisLayout
    collision_weight: float
    weights: np.ndarray  # (n_ops,)
    ops: np.ndarray  # (n_ops, D, D), block diagonal
    aniso_mean: np.ndarray  # (D, D), block diagonal
    metadata: dict = field(default_factory=dict)
    kmat: np.ndarray = field(init=False)  # (D, D), block diagonal
    bands: tuple = field(init=False, repr=False)  # or None; see _single_bands

    def __post_init__(self):
        # block by block: a dense product would cost D^3 per op
        self.kmat = np.zeros_like(self.aniso_mean)
        for _, sl in self.layout.blocks():
            blk = self.ops[:, sl, sl]
            self.kmat[sl, sl] = np.einsum(
                "k,kba,kbc->ac", self.weights, blk.conj(), blk, optimize=True
            )
        self.bands = _single_bands(self.collision_weight, self.weights, self.ops, self.kmat)

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
            ops=np.zeros((0, d, d), dtype=complex),
            aniso_mean=np.zeros((d, d), dtype=complex),
            metadata={"converged": True},
        )

    def apply(self, rho):
        """Dissipator action on a dense D x D density matrix."""
        if self.bands is None:
            acc = -0.5 * (self.kmat @ rho + rho @ self.kmat)
            for w, op in zip(self.weights, self.ops):
                acc += w * (op @ rho @ op.conj().T)
            return self.collision_weight * acc
        anti, shifts = self.bands
        acc = anti * rho
        for dst, src, gain in shifts:
            acc[dst, dst] += gain * rho[src, src]
        return acc


def _single_bands(collision_weight, weights, ops, kmat):
    """Elementwise form of the generator when every op's entries lie on one
    diagonal q, else None.

    Then (A rho A^+)[r, c] = a[r] rho[r + q, c + q] a[c]^* with
    a[r] = A[r, r + q], and kmat is diagonal.  A block-diagonal op keeps the
    diagonal q of each block on the diagonal q of the whole matrix, with
    zeros where it would cross a block edge.  Returns (anti, shifts): anti
    multiplies rho for the anticommutator, and each (dst, src, gain) adds
    gain * rho[src, src] to rho's [dst, dst] corner.
    """
    d = ops.shape[-1]
    shifts = []
    for w, op in zip(weights, ops):
        rows, cols = np.nonzero(op)
        offsets = set((cols - rows).tolist())
        if len(offsets) > 1:
            return None
        q = offsets.pop() if offsets else 0
        if q >= 0:
            dst, src = slice(0, d - q), slice(q, d)
        else:
            dst, src = slice(-q, d), slice(0, d + q)
        a = np.diagonal(op, offset=q)
        if not np.any(a.imag):
            a = a.real
        gain = (collision_weight * w) * np.outer(a, a.conj())
        shifts.append((dst, src, gain))
    kdiag = np.diagonal(kmat).real
    anti = (-0.5 * collision_weight) * (kdiag[:, None] + kdiag[None, :])
    return anti, shifts


def _collision_weight(spec):
    """2 pi (n_g/mu) Int dq q^3 nu_th(q) |c(q)|^2 on the radial rule."""
    radial = thermal_q_integral(spec, spec.numerics.quad_order_q, 3, lambda c: np.abs(c) ** 2)
    return 2.0 * math.pi * spec.gas.density / spec.thermal.reduced_mass * radial


def _jump_family(spec, layout, backend, kappa_mode):
    """(weights, ops, aniso_mean) of the direction-averaged jump family.

    Linearized: A(n') = (2/5) sum_a g_a(n') T_a.  The sphere moments of
    g_a g_b^* vanish for a != b and equal TEMPLATE_MOMENTS[a] for a = b, so
    the five templates with weights (2/5)^2 * moment reproduce the node sum
    exactly; every g_a has zero sphere mean, so aniso_mean is zero.
    Spectral: the hermitized anisotropy S(n') - I of the fractional-power
    shape at every sphere node, weighted by the sphere rule.
    """
    d = layout.dim
    if backend == "linearized":
        ops = np.zeros((5, d, d), dtype=complex)
        for j, sl in layout.blocks():
            ops[:, sl, sl] = scattering.coupling_templates(j, spec.molecule, kappa_mode)
        return 0.16 * np.array(TEMPLATE_MOMENTS), ops, np.zeros((d, d), dtype=complex)
    if backend != "spectral":
        raise ValueError("unknown backend %r" % backend)
    sphere = make_rule("sphere", spec.numerics.quad_order_sphere)
    ops = np.zeros((len(sphere.weights), d, d), dtype=complex)
    for j, sl in layout.blocks():
        aniso = scattering.spectral_shapes(j, sphere.nodes, spec, kappa_mode) - np.eye(2 * j + 1)
        ops[:, sl, sl] = 0.5 * (aniso + aniso.conj().transpose(0, 2, 1))
    return sphere.weights, ops, np.tensordot(sphere.weights, ops, axes=1) / (4.0 * math.pi)


def _assemble(spec, layout, backend, kappa_mode):
    family = _jump_family(spec, layout, backend, kappa_mode)
    return DissipatorSet(layout, _collision_weight(spec), *family)


def build_dissipator(spec, layout, backend="linearized", kappa_mode="exact"):
    """Assemble the jump family from forward amplitudes on quadrature grids.

    backend "linearized" reduces the sphere average to five real coupling
    templates (angular moments exact); "spectral" keeps the fractional-power
    amplitude at every sphere node.  The convergence flag compares the induced
    map against the family rebuilt at doubled radial and sphere orders on a
    dense probe state.
    """
    num = spec.numerics
    if num.quad_order_q < 24:
        raise ValueError("radial quadrature order below documented minimum 24")
    n_sphere = len(make_rule("sphere", num.quad_order_sphere).weights)
    if n_sphere < 26:
        raise ValueError("sphere quadrature below documented minimum of 26 nodes")

    dset = _assemble(spec, layout, backend, kappa_mode)
    fine_num = replace(
        num, quad_order_q=2 * num.quad_order_q, quad_order_sphere=2 * num.quad_order_sphere
    )
    fine = _assemble(replace(spec, numerics=fine_num), layout, backend, kappa_mode)
    probe = centrifuge_state(
        layout, gaussian_profile(layout, 0.5 * (layout.j_min + layout.j_max), 2.0)
    )
    ref = fine.apply(probe.matrix)
    scale = float(np.max(np.abs(ref)))
    drift = float(np.max(np.abs(ref - dset.apply(probe.matrix)))) / scale if scale > 0.0 else 0.0
    dset.metadata = {
        "backend": backend,
        "kappa_mode": kappa_mode,
        "quad_order_q": num.quad_order_q,
        "sphere_nodes": n_sphere,
        "order_doubling_drift": drift,
        "converged": drift < 1e-3,
    }
    return dset


def apply_dissipator(dset, state):
    """Time-derivative contribution D rho as a dense matrix."""
    if state.layout != dset.layout:
        raise ValueError("state layout does not match dissipator layout")
    return dset.apply(state.matrix)


def _hamiltonian(spec, dset):
    """H + H_g split into block scalars and a block-diagonal residual.

    The gas shift H_g(j) = s_iso (I + aniso_mean_j) comes from the
    dissipator's own jump family.  On block j, H + H_g is the scalar
    levels[j] = E_j + s_iso plus the D x D residual s_iso aniso_mean, which
    is zero for the linearized family.
    """
    layout = dset.layout
    # s_iso is the same in every block
    s_iso = energy_shift_matrix(layout.j_min, spec)[0, 0]
    levels = s_iso + np.array([spec.molecule.rotational_energy(j) for j in layout.js])
    return levels, s_iso * dset.aniso_mean


def _frequency_spread(layout, levels, residual):
    blocks = zip(levels, layout.blocks())
    eigs = np.concatenate([lev + np.linalg.eigvalsh(residual[sl, sl]) for lev, (_, sl) in blocks])
    return float((eigs.max() - eigs.min()) / HBAR)


def coherent_frequency_spread(spec, layout, backend="linearized"):
    """Width of the spectrum of (H + H_g)/hbar across the layout, with the
    gas shift of the backend's jump family at exact kappa."""
    return _frequency_spread(layout, *_hamiltonian(spec, _assemble(spec, layout, backend, "exact")))


def propagate(rho0, dset, spec, t_final, dt, record_every=None):
    """Integrate the master equation on a fixed time grid.

    Returns snapshots every record_every steps of dt (initial and final state
    always included).  A single-band family without a residual gas shift
    (the linearized backend, or no dissipator) is propagated exactly, chain
    by chain (_chain_flow); any other family by fixed-step RK4.  Raises
    StepSizeViolation if dt fails the resolution bound dt * max|Delta| <= 0.1,
    and NumericalDriftError if trace, hermiticity, or positivity drift past
    tolerance along the run.
    """
    layout = rho0.layout
    if dset is None:
        dset = DissipatorSet.empty(layout)
    if dset.layout != layout:
        raise ValueError("state layout does not match dissipator layout")
    if t_final <= 0 or dt <= 0:
        raise ValueError("t_final and dt must be positive")
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

    # both paths run in the rotating frame of the block scalars, which
    # commute with every block-diagonal jump and with the residual, so they
    # factor out of the flow exactly.  The dissipator and the residual gas
    # shift are all that is left, and the fast phases are applied in closed
    # form to each frame.
    omega = (levels[:, None] - levels[None, :]) / HBAR
    sizes = layout.block_sizes
    coherent = (-1j / HBAR) * residual if np.any(residual) else None
    flow = _chain_flow(rho0.matrix, dset)

    def deriv(rho):
        out = dset.apply(rho)
        if coherent is not None:
            out += coherent @ rho - rho @ coherent
        return out

    def snapshot(rho, elapsed):
        phase = np.exp(-1j * omega * elapsed)
        return rho * np.repeat(np.repeat(phase, sizes, axis=0), sizes, axis=1)

    rho = rho0.matrix
    traj = [rho0]
    for step in range(1, n_steps + 1):
        if flow is None:
            k1 = deriv(rho)
            k2 = deriv(rho + (0.5 * dt) * k1)
            k3 = deriv(rho + (0.5 * dt) * k2)
            k4 = deriv(rho + dt * k3)
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        monitor = step % DIAG_INTERVAL == 0 or step == n_steps
        record = step % record_every == 0 or step == n_steps
        if monitor or record:
            t = rho0.time + step * dt
            dense = snapshot(rho if flow is None else flow(step * dt), step * dt)
            # every recorded frame passes the trace and hermiticity monitor
            # first, so drift surfaces as NumericalDriftError and never as
            # the RotorState constructor's ValueError
            _check_drift(dense, t, positivity=monitor)
            if record:
                traj.append(RotorState(layout, dense, t))
    return traj


def _chain_flow(rho0, dset):
    """Exact rotating-frame flow of the dense matrix rho0, or None.

    When every jump lies on one diagonal q (dset.bands), the generator moves
    rho[r, c] only to rho[r + q, c + q] inside the same block rho_{jj'}: it
    keeps j, j' and Q = m - m', so each diagonal of each block is a chain of
    length <= 2 min(j, j') + 1 that evolves on its own under a pentadiagonal
    generator.  Chains that rho0 leaves empty stay exactly zero and are
    skipped.  The occupied chains are diagonalized by one stacked eigh per
    chain length, and the returned flow(tau) is the D x D matrix at elapsed
    time tau.

    Returns None, so that RK4 runs, when the family is dense, when it carries
    a residual gas shift s_iso * aniso_mean (which couples the chains), or
    when an occupied chain generator is not hermitian to within 1e-14 of its
    largest entry: eigh reads only one triangle and would be silently wrong.
    """
    if dset.bands is None or np.any(dset.aniso_mean):
        return None
    anti, shifts = dset.bands
    dtype = np.result_type(anti, *(gain for _, _, gain in shifts))
    parts = []
    for rows, cols in _occupied_chains(dset.layout, rho0):
        n = rows.shape[1]
        steps = np.arange(n)
        gen = np.zeros(rows.shape + (n,), dtype=dtype)
        gen[:, steps, steps] = anti[rows, cols]
        for dst, src, gain in shifts:
            # gain[r - o, c - o] feeds rho[r + q, c + q] into [r, c], o = dst.start;
            # a partner beyond the chain's end crosses a block edge, where gain is 0
            q, o = src.start - dst.start, dst.start
            s = steps[max(0, -q) : n - max(0, q)]
            gen[:, s, s + q] += gain[rows[:, s] - o, cols[:, s] - o]
        scale = max(float(np.max(np.abs(gen))), 1e-300)
        if np.max(np.abs(gen - gen.conj().swapaxes(1, 2))) > 1e-14 * scale:
            return None
        lam, vec = np.linalg.eigh(gen)
        coef = np.einsum("cji,cj->ci", vec.conj(), rho0[rows, cols])
        parts.append((rows, cols, lam, vec, coef))

    def flow(tau):
        out = np.zeros_like(rho0, dtype=complex)
        for rows, cols, lam, vec, coef in parts:
            out[rows, cols] = np.einsum("cij,cj->ci", vec, np.exp(lam * tau) * coef)
        return out

    return flow


def _occupied_chains(layout, rho):
    """(rows, cols) index arrays of the chains rho occupies, one pair per
    chain length, each of shape (n_chains, length).

    A chain is one diagonal of a block rho_{jj'}: the entries (a + s, b + s)
    of the block, s = 0 .. length - 1, starting on its first row or column.
    """
    sizes = np.array(layout.block_sizes)
    offsets = np.cumsum(sizes) - sizes
    block = np.repeat(np.arange(len(sizes)), sizes)
    r, c = np.nonzero(rho)
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
        rows = (offsets[bj[sel]] + a[sel])[:, None] + steps
        cols = (offsets[bk[sel]] + b[sel])[:, None] + steps
        chains.append((rows, cols))
    return chains


def _check_drift(dense, t, positivity=True):
    tr = np.trace(dense)
    if abs(tr - 1.0) > TRACE_TOL:
        raise NumericalDriftError("trace drift %.3g at t=%.6g" % (abs(tr - 1.0), t))
    herm = np.max(np.abs(dense - dense.conj().T))
    if herm > HERM_TOL:
        raise NumericalDriftError("hermiticity drift %.3g at t=%.6g" % (herm, t))
    if positivity:
        low = _min_eigenvalue(dense)
        if low < EIG_FLOOR:
            raise NumericalDriftError("negative eigenvalue %.3g at t=%.6g" % (low, t))


def _min_eigenvalue(mat):
    """Smallest eigenvalue of a hermitian matrix, component by component.

    The rows split into the connected components of the nonzero pattern;
    permuted to them the matrix is block diagonal, so its spectrum is the
    union of the blocks' spectra.  One stacked eigvalsh runs per component
    size, and a single component is one eigvalsh of the whole matrix.
    """
    n = len(mat)
    linked = mat != 0
    linked |= linked.T
    # each row takes the smallest label among itself and its neighbours, then
    # follows its label's label; the fixed point labels every component by
    # its smallest row
    labels = np.arange(n)
    while True:
        new = np.minimum(labels, np.where(linked, labels, n).min(axis=1))
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    counts = np.bincount(labels)
    counts = counts[counts > 0]
    if len(counts) == 1:
        return float(np.linalg.eigvalsh(mat)[0])
    order = np.argsort(labels, kind="stable")
    starts = np.cumsum(counts) - counts
    low = np.inf
    for size in np.unique(counts):
        idx = order[starts[counts == size][:, None] + np.arange(size)]
        low = min(low, np.linalg.eigvalsh(mat[idx[:, :, None], idx[:, None, :]])[:, 0].min())
    return float(low)


def evolve_exact(rho0, dset, spec, t_final):
    """Liouvillian exponentiation cross-check; practical only for D <= 60."""
    # the only scipy use in the package; importing it here keeps it off the
    # start-up path of every command
    import scipy.linalg

    layout = rho0.layout
    d = layout.dim
    if d > 60:
        raise ValueError("exact path limited to D <= 60 (D = %d)" % d)
    if dset is None:
        dset = DissipatorSet.empty(layout)
    levels, residual = _hamiltonian(spec, dset)
    h = np.diag(np.repeat(levels, layout.block_sizes)) + residual
    eye = np.eye(d)
    # row-major vec(A rho B) = kron(A, B^T) vec(rho)
    sup = (-1j / HBAR) * (np.kron(h, eye) - np.kron(eye, h.T))
    cw = dset.collision_weight
    for w, op in zip(dset.weights, dset.ops):
        sup += cw * w * np.kron(op, op.conj())
    sup -= 0.5 * cw * (np.kron(dset.kmat, eye) + np.kron(eye, dset.kmat.T))

    prop = scipy.linalg.expm(sup * t_final)
    vec = prop @ rho0.matrix.reshape(-1)
    return RotorState(layout, vec.reshape(d, d), rho0.time + t_final)


def alignment_signal(rho, j):
    """Squared coherence |<jj| rho |j-2,j-2>|^2 probed by Raman scattering."""
    if j < 2:
        raise ValueError("alignment signal needs j >= 2")
    rho.layout._check(j)
    rho.layout._check(j - 2)
    return float(abs(rho.corner_coherence(j, j - 2)) ** 2)


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
    """CSV rendering with columns t,trace,purity,min_eig,signal_j<j>..."""
    cols = ["t", "trace", "purity", "min_eig"] + ["signal_j%d" % j for j in signal_js]
    lines = [",".join(cols)]
    for state in trajectory:
        row = [
            state.time,
            float(np.trace(state.matrix).real),
            state.purity(),
            state.min_eigenvalue(),
        ]
        row.extend(alignment_signal(state, j) for j in signal_js)
        lines.append(",".join("%.11e" % x for x in row))
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
    with open(tmp, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(np.array([state.time], dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(state.matrix, dtype="<c16").tobytes())
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
    return RotorState(layout, mat.reshape(dim, dim).copy(), time)