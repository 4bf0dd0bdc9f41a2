"""Rotor density matrices and their dissipative propagation.

The master equation is d rho/dt = -i[H + H_g, rho]/hbar + D rho, where H is the
rigid-rotor Hamiltonian, H_g the gas-induced energy shift, and D a Lindblad
dissipator built from forward scattering amplitudes.  Every jump operator is
block diagonal over j, so block populations are conserved exactly and the
dynamics factorizes into (j, j') sectors.

Every jump operator lies on one diagonal m' - m = q and is stored only as
that diagonal, in the group of its band q >= 0 (DissipatorSet); the jumps of
band -q are the transposes of those of band q.  The linearized templates
each occupy one band, and the spectral family is split into the bands of
its azimuthal rings, which an exact azimuth average leaves uncoupled.  The
generator then keeps Q = m - m' inside each block as well: every diagonal
of a block rho_{jj'} is a chain that evolves on its own.

A density matrix on a BasisLayout (D = layout.dim) is kept as its values on
the chains it occupies, with their entry pattern (_EntryPattern): a
RotorState is one such vector.  propagate exponentiates the chains of its
initial state exactly, block scalars included; the others stay exactly zero.
Only RotorState.matrix and DissipatorSet.apply build a D x D matrix;
state_dump streams the dump of the CLI's --dump in blocks of rows.

The dissipator's action is defined once, as the generators of its chains
(_chain_generators): propagate exponentiates them, and _chain_action
multiplies them into a matrix's entries, for the convergence probe of a
spectral build_dissipator and for DissipatorSet.apply, which gathers and
scatters the entries of a dense matrix.  Both jump families are real
symmetric, and so is every chain generator, by construction, but for the
imaginary diagonal of a residual gas shift.
The radial factor of both families (rates.collision_weight) and the sphere
moments of the linearized one (rates.TEMPLATE_MOMENTS) are those of the rates.

propagate evaluates only the steps it records, a byte-bounded chunk of
frames (_frames_per_chunk) at a time with one batched product per chain
length, into one reused array, and reduces each chunk once, in time order:
_reduce gives every column (trace, purity, block populations, stretched
corners) and applies the density-matrix rule, hermitian with unit trace and
no eigenvalue below EIG_FLOOR, to the whole chunk at once
(_EntryPattern.check).  A RotorState is a chunk of one frame and takes the
same reduction and rule.  A Trajectory keeps the columns and the last frame,
as a RotorState, and frees the flow and every other frame.
"""

import math
import struct
from functools import cached_property

import numpy as np

from .mathkit import make_rule, order_doubling_drift
from .params import HBAR, Frozen, NumericalDriftError, StepSizeViolation, record
from .rates import TEMPLATE_MOMENTS, collision_weight, energy_shift_matrix, template_bands

# frames evaluated, checked or reduced at once: FRAME_CHUNK, or fewer (at
# least 1) where one (F, N) complex chunk would pass CHUNK_BYTES (_frames_per_chunk)
FRAME_CHUNK = 16
CHUNK_BYTES = 16 * 2**20
# a propagate run evaluates, and records, at most this many frames
MAX_EVALUATED_FRAMES = 10**6
# tolerances of the density-matrix rule (_EntryPattern.check)
TRACE_TOL = 1e-10
HERM_TOL = 1e-12
EIG_FLOOR = -1e-9
# dt * max|Delta| above this is a step-size violation (propagate)
STEP_GUARD = 0.1
# a chain generator is propagated through V diag(lam) V^T only while that
# product reproduces it to this fraction of its largest entry
EIG_RECON_TOL = 1e-10
# ring-node spectral shapes are real (their impact angles pair into conjugate
# couplings); an imaginary part above this fraction of their scale is drift
SHAPE_IMAG_TOL = 1e-12
# header of a state dump: int64 D, int64 j_min, int64 j_max, float64 time
STATE_HEADER = struct.Struct("<3qd")


class _DensityRuleError(ValueError):
    """Frame `frame` of a batch fails the density-matrix rule."""


class BasisLayout(record("BasisLayout", "j_min j_max")):
    """Contiguous block basis |jm>, j in [j_min, j_max], m in [-j, j]."""

    __slots__ = ()

    def __new__(cls, j_min, j_max):
        if j_min < 0 or j_max < j_min:
            raise ValueError("need 0 <= j_min <= j_max")
        return super().__new__(cls, j_min, j_max)

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


class RotorState(Frozen):
    """Immutable density matrix on a BasisLayout: values (N,) at the entries
    of pattern, the chains it occupies, and zero elsewhere.  Its columns are
    _reduce of values[None], which raises ValueError unless the state obeys
    the density-matrix rule (_EntryPattern.check); matrix, the read-only
    D x D array, is built on first use.
    """

    def __init__(self, layout, pattern, values, time):
        values = np.array(values, dtype=complex)  # (N,)
        if values.shape != pattern.rows.shape:
            raise ValueError("values shape %s does not match the pattern" % (values.shape,))
        values.setflags(write=False)
        vars(self).update(layout=layout, pattern=pattern, values=values, time=time,
                          _columns=_reduce(layout, pattern, values[None]))

    @classmethod
    def from_entries(cls, layout, rows, cols, values, time=0.0):
        """State with values at the entries (rows, cols), zero elsewhere."""
        values = np.asarray(values, dtype=complex)
        held = values != 0
        rows, cols = np.asarray(rows, dtype=int)[held], np.asarray(cols, dtype=int)[held]
        pattern = _EntryPattern.of_chains(layout, rows, cols)
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

    def purity(self):
        return float(self._columns["purity"][0])

    def min_eigenvalue(self):
        return float(self._columns["min_eig"][0])

    def block_populations(self):
        return dict(zip(self.layout.js, self._columns["populations"][0].tolist()))

    def corner_coherence(self, j, j_prime):
        """Matrix element <jj| rho |j'j'> between stretched states."""
        block = self.layout.js.index
        return complex(self._columns["corners"][0, block(j), block(j_prime)])

    def max_deviation(self, other):
        """max |rho - other| over all matrix entries, for a state other on
        this state's pattern: entries outside its chains are zero in both."""
        if other.pattern is not self.pattern:
            raise ValueError("max_deviation needs two states on one entry pattern")
        return float(np.max(np.abs(self.values - other.values)))


def isotropic_state(layout, populations):
    """Diagonal state at time 0 with populations p_j, normalized by their
    total and each spread evenly over its block."""
    if any(float(p) < 0 for p in populations.values()):
        raise ValueError("populations must be nonnegative")
    total = _weight_total((float(p) for p in populations.values()), "populations")
    diag = np.concatenate([np.r_[layout.block_slice(j)] for j in populations])
    values = np.repeat([float(p) / total / (2 * j + 1) for j, p in populations.items()],
                       [2 * j + 1 for j in populations])
    return RotorState.from_entries(layout, diag, diag, values)


def centrifuge_state(layout, coefficients):
    """Pure superposition at time 0 of stretched states |jj> with amplitudes
    c_j, normalized by the sum of |c_j|^2."""
    norm = math.sqrt(
        _weight_total((abs(complex(c)) ** 2 for c in coefficients.values()), "coefficients"))
    idx = np.array([layout.index(j, j) for j in coefficients])
    amp = np.array([complex(c) / norm for c in coefficients.values()])
    rows, cols = np.meshgrid(idx, idx, indexing="ij")
    return RotorState.from_entries(
        layout, rows.ravel(), cols.ravel(), np.outer(amp, amp.conj()).ravel()
    )


def _weight_total(terms, name):
    """math.fsum of terms, the total that normalizes the weights called name
    (the argument, and the state-file field); ValueError unless it is finite
    and positive.  A term or a partial sum that overflows counts as an
    infinite total."""
    try:
        total = math.fsum(terms)
    except OverflowError:
        total = math.inf
    if not 0.0 < total < math.inf:
        raise ValueError("%s have total %g, which cannot be normalized" % (name, total))
    return total


def gaussian_profile(layout, center, width):
    """Illustrative Gaussian-over-j amplitude profile for centrifuge_state,
    which normalizes it.

    Not derived from any collision model; it just provides a smooth default
    population of stretched-state coherences across the layout.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    js = np.array(list(layout.js), dtype=float)
    amp = np.exp(-((js - center) ** 2) / (4.0 * width**2))
    if not np.sum(amp**2) > 0.0:
        raise ValueError(
            "gaussian profile at center %g has no weight on j window [%d, %d]"
            % (center, layout.j_min, layout.j_max)
        )
    return {j: complex(a) for j, a in zip(layout.js, amp)}


class DissipatorSet:
    """Family of single-band, block-diagonal Lindblad operators B_k.

    The generator is

        D rho = collision_weight * sum_k (B_k rho B_k^T - {B_k^T B_k, rho}/2).

    Each jump of the quadrature-discretized (q, n') family is c(q) (I + A),
    with A real symmetric and q-independent, so its identity part cancels
    from the generator exactly and the radial average collapses into
    collision_weight; B_k = sqrt(w_k) A_k carry the direction average with
    their quadrature weights folded in.  Every B_k lies on one diagonal
    m' - m = q, and A symmetric makes the ops of band -q the transposes of
    those of band q, so only the bands q = 0 .. Q - 1 are stored: the n ops
    of band q are diagonals[q] (n, D), diagonals[q, k, r] = B_k[r, r + q],
    zero where r + q leaves the j block of row r.  An op of a band q > 0
    stands for itself and its transpose.  kmat is the diagonal of sum B^T B
    over the ops of the bands q >= 1, transposes included; band 0 enters
    each chain generator's diagonal as one square with its gain
    (_chain_generators).

    aniso_mean is the diagonal of the sphere mean (1/4 pi) Int d^2n' A(n')
    of the anisotropy the family discretizes, which the azimuth average
    makes diagonal in m.  The gas shift is the isotropic shift times
    I + aniso_mean, so it shares the family's amplitude model and kappa.

    (B rho B^T)[r, c] = b[r] rho[r + q, c + q] b[c], and the transpose
    carries rho[r, c] into [r + q, c + q] with the same factor, so band q
    couples the entries [r, c] and [r + q, c + q] both ways with the gain
    G_q[r, c] = collision_weight * sum_k b_k[r] b_k[c].  No gain is stored
    or formed densely: _chain_generators evaluates kmat and the G_q at the
    entries of the chains asked for, and both apply and _chain_flow act
    through it.
    """

    def __init__(self, layout, collision_weight, diagonals, aniso_mean, metadata=None):
        self.layout = layout
        self.collision_weight = collision_weight
        self.diagonals = diagonals  # (Q, n, D) real, band q at index q
        self.aniso_mean = aniso_mean  # (D,) real
        self.metadata = {} if metadata is None else metadata
        self.kmat = np.zeros(layout.dim)  # (D,) real
        for q, b in enumerate(diagonals[1:], 1):
            # B^T B holds b[r]^2 at r + q, and the transpose's B B^T at r
            square = np.square(b).sum(axis=0)
            self.kmat[q:] += square[: layout.dim - q]
            self.kmat += square

    @property
    def converged(self):
        return bool(self.metadata.get("converged", True))

    @property
    def jump_scale(self):
        """Total collision weight; normalizes stationarity and null checks."""
        return max(self.collision_weight, 1e-300)

    def apply(self, rho):
        """Dissipator action on a dense D x D matrix: _chain_action on the
        entries of the chains rho occupies, scattered back.

        The generator keeps every chain, so the chains rho leaves empty give
        exactly zero and the result is exact for any matrix, hermitian or
        not.
        """
        pattern = _EntryPattern.of_chains(self.layout, *np.nonzero(rho))
        out = np.zeros(rho.shape, dtype=np.result_type(rho, self.diagonals, 1j))
        entries = rho[pattern.rows, pattern.cols]
        out[pattern.rows, pattern.cols] = _chain_action(self, pattern, entries)
        return out


def _chain_action(dset, pattern, values):
    """(N,) values of the dissipator dset applied to the matrix with entry
    values (N,) on pattern, each group of chains of pattern.groups, read as
    its span of values, multiplied by its generators (_chain_generators)."""
    out = np.zeros(len(values), dtype=np.result_type(values, dset.diagonals, 1j))
    for rows, cols, span in pattern.groups:
        chain = values[span].reshape(rows.shape)
        out[span] = (_chain_generators(dset, rows, cols) @ chain[..., None]).ravel()
    return out


def _jump_family(spec, layout, backend, kappa_mode):
    """(diagonals, aniso_mean) of the direction-averaged jump family, its
    bands q >= 0 with the weights folded in, band q at diagonals[q], as
    DissipatorSet stores it.

    Linearized: A(n') = (2/5) sum_a g_a(n') T_a.  The sphere moments of
    g_a g_b^* vanish for a != b and equal rates.TEMPLATE_MOMENTS[|q_a|], the
    moments of the rate bracket, for a = b, so the five templates, one op
    per band, weighted by (2/5)^2 * moment reproduce the node sum exactly:
    band q = 0, 1, 2 holds template_bands' vector q times
    (2/5) sqrt(TEMPLATE_MOMENTS[q]), and the templates of bands -1 and -2
    are the transposes of those of 1 and 2.  Every g_a has zero sphere
    mean, so aniso_mean is zero.
    Spectral: the symmetrized anisotropy S(n') - I of the fractional-power
    shape.  A rotation about z conjugates it, A(R_z(phi) n') =
    U_z(phi) A(n') U_z(phi)^+, so band q of A picks up exp(i q phi), and the
    exact azimuth average of A rho A^+ keeps sum_q A^(q) rho A^(q)^+ with
    A^(q) band q of A at phi = 0, where S is real (NumericalDriftError past
    SHAPE_IMAG_TOL).  The jumps are those bands on the rings of the sphere
    rule, one op per ring in each of the 2 j_max + 1 bands q >= 0 (band -q
    is the transpose), scaled by the square root of its ring's 2 pi
    w_theta, and aniso_mean is the band-0 (diagonal) mean.
    """
    if backend == "linearized":
        ops = _band_diagonals(layout, 1, lambda j: [
            v[None] for v in template_bands(j, spec.molecule, kappa_mode)])
        ops *= 0.4 * np.sqrt(TEMPLATE_MOMENTS)[:, None, None]
        return ops, np.zeros(layout.dim)
    if backend != "spectral":
        raise ValueError("unknown backend %r" % backend)
    from . import scattering

    ring = make_rule("ring", spec.numerics.quad_order_sphere)
    root = np.sqrt(ring.weights)[:, None]

    def bands(j):
        shapes = scattering.spectral_shapes(j, ring.nodes, spec, kappa_mode)
        imag = float(np.max(np.abs(shapes.imag)) / np.max(np.abs(shapes)))
        if not imag <= SHAPE_IMAG_TOL:
            raise NumericalDriftError("ring-node shapes of j=%d are complex: %.3g" % (j, imag))
        aniso = shapes.real - np.eye(2 * j + 1)
        aniso = 0.5 * (aniso + aniso.transpose(0, 2, 1))
        return [root * np.diagonal(aniso, q, axis1=1, axis2=2) for q in range(2 * j + 1)]

    ops = _band_diagonals(layout, len(ring), bands)
    return ops, root[:, 0] @ ops[0] / (4.0 * math.pi)


def _band_diagonals(layout, n, bands):
    """(Q, n, D) diagonals of the bands q = 0 .. Q - 1 of n real block
    matrices.

    bands(j) lists the (n, 2j + 1 - q) bands q = 0, 1, ... of the n
    matrices of block j, and Q is the longest of those lists.  Entry
    [q, k, r] is M_k[r, r + q] of the block holding row r, and zero where
    the band leaves that block or its block lists no band q.
    """
    blocks = [(sl, bands(j)) for j, sl in layout.blocks()]
    out = np.zeros((max(len(listed) for _, listed in blocks), n, layout.dim))
    for sl, listed in blocks:
        for q, band in enumerate(listed):
            out[q, :, sl.start : sl.start + band.shape[1]] = band
    return out


def build_dissipator(spec, layout, backend="linearized", kappa_mode="exact"):
    """Assemble the jump family from forward amplitudes on quadrature grids.

    backend "linearized" reduces the sphere average to five real coupling
    templates (angular moments exact); "spectral" keeps the fractional-power
    amplitude on every ring (polar node) of quad_order_sphere and averages the
    azimuth exactly.  The convergence flag doubles each order on its own, as
    the rates do.  The generator is linear in the collision weight, so the
    radial doubling scales it by the weights' ratio, and that ratio's drift
    is the whole drift of the linearized family, whose sphere moments are
    exact.  The spectral family reads quad_order_sphere, so it is rebuilt at
    twice that order, and both families act on a probe state, a Gaussian
    centrifuge state at the window's centre, on the entries of the chains it
    occupies (_chain_action).  A collision weight that is not finite is a
    NumericalDriftError, raised before any family is built.  The radial
    order must be at least 24 for both families, and the spectral one needs
    a sphere rule of at least 26 nodes.  Every jump comes from the
    anisotropy, so the build at alpha_aniso = 0 is the jump-free dissipator.
    """
    num = spec.numerics
    if num.quad_order_q < 24:
        raise ValueError("radial quadrature order below documented minimum 24")
    # the product sphere rule the rings span has twice as many azimuths as rings
    n_sphere = 2 * len(make_rule("ring", num.quad_order_sphere)) ** 2
    if backend == "spectral" and n_sphere < 26:
        raise ValueError("sphere quadrature below documented minimum of 26 nodes")

    weight = collision_weight(spec, num.quad_order_q)
    if not math.isfinite(weight):
        raise NumericalDriftError("collision weight %g is not finite" % weight)
    # the generator at twice the radial order over the generator; a weight
    # that underflows to 0 leaves no generator to scale
    radial = collision_weight(spec, 2 * num.quad_order_q) / weight if weight else 1.0
    dset = DissipatorSet(layout, weight, *_jump_family(spec, layout, backend, kappa_mode))
    # the linearized sphere moments are exact: doubling the ring order leaves
    # the generator, here a unit action, as it is
    action = ring_action = 1.0
    if backend == "spectral":
        twice = spec._replace(numerics=num._replace(quad_order_sphere=2 * num.quad_order_sphere))
        ring = DissipatorSet(layout, weight, *_jump_family(twice, layout, backend, kappa_mode))
        profile = gaussian_profile(layout, 0.5 * (layout.j_min + layout.j_max), 2.0)
        probe = centrifuge_state(layout, profile)
        action, ring_action = (_chain_action(d, probe.pattern, probe.values) for d in (dset, ring))
    drift, converged = order_doubling_drift(action, radial * action, ring_action)
    dset.metadata = {
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
    s_iso = energy_shift_matrix(0, spec)[0, 0]
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

    Returns the Trajectory of the columns of the frames every record_every
    steps of dt (initial and final state always included), each evaluated
    in closed form on the entries of the chains rho0 occupies (rho0.pattern,
    _chain_flow), and of the final frame.  dt sets only the output grid, but
    it must still resolve the fastest coherent frequency: a coarser grid
    would alias the coherences it samples, so StepSizeViolation is raised
    when dt * max|Delta| > STEP_GUARD.  The diagnostic
    recorded_spacing_max_delta, record_every * dt * max|Delta|, tells whether
    the recorded frames alias.  Only the recorded steps are evaluated, in
    chunks of _frames_per_chunk and reduced in time order (_reduce), so the
    first frame that fails the density-matrix rule (_EntryPattern.check) is
    the one reported, as NumericalDriftError: no frame feeds another, so a step
    that is not recorded changes no output.  A run that would record more
    than MAX_EVALUATED_FRAMES frames raises ValueError.
    """
    layout = rho0.layout
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
    if dt * spread > STEP_GUARD + 1e-12:
        raise StepSizeViolation(
            "step-size violation: dt*max|Delta| = %.3g exceeds %g" % (dt * spread, STEP_GUARD)
        )
    if record_every is None:
        record_every = max(1, n_steps // 200)
    # a record_every beyond n_steps records the last step only, as n_steps does
    record_every = min(record_every, n_steps)
    # every record_every-th step and the last one, counted before they are
    # listed: n_steps itself may be far too large to list
    evaluated = -(-n_steps // record_every)
    if evaluated > MAX_EVALUATED_FRAMES:
        raise ValueError(
            "propagate would evaluate %d frames, more than %d; raise dt or record_every"
            % (evaluated, MAX_EVALUATED_FRAMES)
        )
    steps = np.append(np.arange(record_every, n_steps, record_every), n_steps)

    flow, decomposition = _chain_flow(rho0, dset, levels, residual)
    pattern = rho0.pattern
    times = rho0.time + np.concatenate([[0.0], steps * dt])
    recorded = [rho0._columns]
    buffer = np.empty((_frames_per_chunk(len(pattern.rows)), len(pattern.rows)), dtype=complex)
    for start in range(0, len(steps), len(buffer)):
        taus = steps[start : start + len(buffer)] * dt
        frames = flow(taus, buffer[: len(taus)])
        try:
            recorded.append(_reduce(layout, pattern, frames))
        except _DensityRuleError as exc:
            raise NumericalDriftError("%s at t=%.6g" % (exc, rho0.time + taus[exc.frame]))
    # the last evaluated frame is the last step, n_steps
    final = RotorState(layout, pattern, frames[-1], float(rho0.time + taus[-1]))
    columns = {name: np.concatenate([c[name] for c in recorded]) for name in recorded[0]}
    for col in columns.values():
        col.setflags(write=False)
    # the worst values over the evaluated frames, past rho0's row
    diagnostics = {
        "steps": n_steps,
        "dt_max_delta": dt * spread,
        "recorded_spacing_max_delta": record_every * (dt * spread),
        "max_trace_deviation": float(np.max(columns["trace_dev"][1:])),
        "max_hermiticity_deviation": float(np.max(columns["herm_dev"][1:])),
        "min_eigenvalue": float(np.min(columns["min_eig"][1:])),
        "chains": sum(len(rows) for rows, _, _ in pattern.groups),
        "entries": len(pattern.rows),
        "largest_chain": max(rows.shape[1] for rows, _, _ in pattern.groups),
        **decomposition,
    }
    return Trajectory(layout, times, columns, final, diagnostics)


def _frames_per_chunk(n_entries):
    return min(FRAME_CHUNK, max(1, CHUNK_BYTES // (16 * n_entries)))


class Trajectory(Frozen):
    """The columns of one propagate run's recorded frames and its final
    state, without the other frames.

    columns holds the reduction (_reduce) of frame k, at times[k]; len
    counts the frames.  final is the last frame, the checked RotorState
    whose reduction is the last row of columns, on the pattern of the chains
    the run occupied.  diagnostics holds what propagate saw: the worst
    deviations and the lowest smallest eigenvalue over the evaluated frames,
    and the chains.
    """

    def __init__(self, layout, times, columns, final, diagnostics):
        vars(self).update(
            layout=layout,
            times=times,  # (n,)
            columns=columns,  # name -> (n, ...) array, read-only
            final=final,  # RotorState at times[-1]
            diagnostics=diagnostics,
        )

    def __len__(self):
        return len(self.times)

    def trace(self):
        return self.columns["trace"].real

    def purity(self):
        return self.columns["purity"]

    def min_eigenvalues(self):
        return self.columns["min_eig"]

    def block_populations(self):
        """(n, number of blocks) populations, blocks in layout.js order."""
        return self.columns["populations"]

    def corner_coherence(self, j, j_prime):
        """(n,) matrix elements <jj| rho |j'j'> between stretched states."""
        return self.columns["corners"][:, self.layout.js.index(j), self.layout.js.index(j_prime)]

    def signal(self, j):
        """(n,) alignment signals |<jj| rho |j-2,j-2>|^2, the squared corner
        coherences that Raman scattering probes."""
        return np.abs(self.corner_coherence(j, j - 2)) ** 2


def _reduce(layout, pattern, values):
    """The columns of the F matrices with entry values (F, N) on pattern
    (of_chains on layout), each with the arithmetic of a single matrix:
    trace (complex), purity, block populations (F, B), corners (F, B, B),
    <jj| rho |j'j'> for blocks j, j' in layout.js order, and the columns of
    the density-matrix rule (pattern.check): trace_dev, herm_dev and
    min_eig.  Raises _DensityRuleError, a ValueError, for the earliest frame
    that fails the rule.
    """
    diag = np.zeros((len(values), pattern.dim), dtype=values.dtype)
    diag[:, pattern.rows[pattern.diag]] = values[:, pattern.diag]
    at = pattern.corners
    corners = np.zeros(values.shape[:1] + at.shape, dtype=values.dtype)
    corners[:, at >= 0] = values[:, at[at >= 0]]
    trace = diag.sum(axis=-1)
    # one |rho| per chunk, squared in place for the purity once the rule has
    # its maxima, and freed before the rule's own temporaries are allocated
    magnitude = np.abs(values)
    largest = np.max(magnitude, axis=-1, initial=0.0)
    purity = np.sum(np.square(magnitude, out=magnitude), axis=-1)
    del magnitude
    return {
        "trace": trace,
        "purity": purity,
        "populations": np.stack([diag[:, sl].sum(axis=-1).real for _, sl in layout.blocks()], -1),
        "corners": corners,
        **pattern.check(values, trace, largest),
    }


def _chain_flow(rho0, dset, levels, residual):
    """Exact flow of the RotorState rho0 under H + H_g and dset, on the
    entries of the chains rho0 occupies (rho0.pattern).

    Every jump lies on one diagonal q and the residual gas shift is
    diagonal, so the generator keeps j, j' and Q = m - m': each diagonal of
    each block rho_{jj'} is a chain of length <= 2 min(j, j') + 1 that
    evolves on its own.  Its generator is the dissipator's
    (_chain_generators), real symmetric, plus the residual, which adds
    -i (R_r - R_c) / hbar to its diagonal.  Chains that rho0 leaves empty
    stay exactly zero and are not in its pattern; the occupied ones are
    diagonalized stacked by chain length, with V^-1 = V^T and the
    coefficients V^T x0: eigh for the chains the residual leaves real, and
    eig for the others, whose eigenvectors of the complex symmetric chains
    are orthogonal under x^T y and scaled to V^T V = I.  A length that holds
    both is stored complex, its real chains too.  The block scalars
    E_j + s_iso (levels) commute with every chain generator
    and act as the unitary exp(-i levels tau / hbar) per block: flow
    multiplies chain (j, j') by p_j conj(p_j'), p_j = exp(-i levels[j] tau
    / hbar), after the dissipative exponential, and a (j, j) chain by
    exactly 1, which p_j conj(p_j) is only to rounding.  A phase factor of
    modulus one keeps the spectrum of each frame, however large
    levels * tau / hbar grows.

    Returns flow(taus, out=None), the (F, N) values at rho0's pattern
    entries at the F elapsed times taus, written into out when given, and
    the diagnostics of the decomposition: the worst reconstruction miss
    (below) as reconstruction_miss, and the chains that took eigh and eig as
    chains_eigh and chains_eig.

    Raises NumericalDriftError when a chain generator is not finite, or when
    V diag(lam) V^T misses it by more than EIG_RECON_TOL of its largest
    entry: the complex symmetric generator is then defective.
    """
    block = np.repeat(np.arange(len(levels)), dset.layout.block_sizes)
    parts = []
    diagnostics = {"reconstruction_miss": 0.0, "chains_eigh": 0, "chains_eig": 0}
    for rows, cols, span in rho0.pattern.groups:
        n = rows.shape[1]
        gen = _chain_generators(dset, rows, cols)
        shift = residual[rows] - residual[cols]
        # the chains the residual leaves unshifted stay real
        real = ~np.any(shift, axis=1)
        if not np.all(real):
            gen = gen + (-1j / HBAR) * shift[..., None] * np.eye(n)
        if not np.all(np.isfinite(gen)):
            raise NumericalDriftError("chain generator is not finite")
        diagnostics["chains_eigh"] += int(np.count_nonzero(real))
        diagnostics["chains_eig"] += int(np.count_nonzero(~real))
        # close eigenvalues leave eig's vectors orthogonal under x^T y only
        # to roundoff over their gap: one Newton-Schulz step V (3 I - V^T V)
        # / 2 restores V^T V = I.  A defective generator has an eigenvector
        # with x^T x = 0; the NaN or inf of its scaling counts as a miss
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if np.all(real):
                lam, vec = np.linalg.eigh(gen)
            else:
                lam = np.empty(gen.shape[:2], dtype=complex)
                vec = np.empty_like(gen)
                lam[real], vec[real] = np.linalg.eigh(gen[real].real)
                lam[~real], v = np.linalg.eig(gen[~real])
                v /= np.sqrt(np.einsum("cij,cij->cj", v, v))[:, None, :]
                vec[~real] = v @ (1.5 * np.eye(n) - 0.5 * v.transpose(0, 2, 1) @ v)
            inv = vec.transpose(0, 2, 1)
            scale = max(float(np.max(np.abs(gen))), 1e-300)
            miss = float(np.max(np.abs((vec * lam[:, None, :]) @ inv - gen))) / scale
        if not miss <= EIG_RECON_TOL:
            raise NumericalDriftError(
                "chain generator eigendecomposition misses it by %.3g of its scale" % miss
            )
        diagnostics["reconstruction_miss"] = max(diagnostics["reconstruction_miss"], miss)
        coef = np.einsum("cij,cj->ci", inv, rho0.values[span].reshape(rows.shape))
        parts.append((lam, vec, coef, block[rows[:, 0]], block[cols[:, 0]], span))

    def flow(taus, out=None):
        out = np.empty((len(taus), len(rho0.values)), dtype=complex) if out is None else out
        p = np.exp((-1j / HBAR) * np.multiply.outer(taus, levels))  # (F, blocks)
        for lam, vec, coef, bj, bk, span in parts:
            # (chains, length, F) amplitudes, then every frame of every chain
            # of this length in one product.  Real eigenvectors (no residual:
            # the linearized family, the one that reaches large j) multiply
            # the interleaved real and imaginary parts through BLAS; complex
            # ones (spectral, small j) go through einsum, as fast at those
            # sizes and summed in the order of a single frame
            amp = np.exp(lam[..., None] * taus) * coef[..., None]
            if vec.dtype.kind == "f":
                chains = (vec @ amp.view(float)).view(complex)
            else:
                chains = np.einsum("cij,cjf->cif", vec, amp)
            chains *= np.where(bj == bk, 1.0, p[:, bj] * p[:, bk].conj()).T[:, None, :]
            out[:, span] = chains.reshape(coef.size, -1).T
        return out

    return flow, diagnostics


def _chain_generators(dset, rows, cols):
    """(n_chains, n, n) generators of the dissipator dset on the chains of
    length n whose entries are (rows, cols) (_occupied_chains): the only
    definition of the dissipator's action in the package.

    At the chain's i-th entry (r, c), entry [i, i] is -collision_weight / 2
    times sum_k (b_k[r] - b_k[c])^2 over the ops b_k of band 0 plus
    (kmat[r] + kmat[c]): band 0's loss less its gain G_0[r, c], as one
    square, the form of rates.chain_row (summed apart, the two cancel and
    lose digits at large j), and the loss of the bands q >= 1.  Entries
    [i, i + q] and [i + q, i] are the one gain G_q[r, c] (DissipatorSet)
    with which band q and its transpose exchange rho[r + q, c + q] and
    rho[r, c].  Only the bands diagonals[:n] enter: a band q >= n would
    pair an entry with one past the chain's end, across a block edge, where
    its diagonal is 0.  Real and symmetric by construction, and bit for bit
    the same for a chain and its transpose.
    """
    cw = dset.collision_weight
    n = rows.shape[1]
    steps = np.arange(n)
    b = dset.diagonals[:n]
    square = np.square(b[:1, :, rows] - b[:1, :, cols]).sum(axis=(0, 1))
    gen = np.zeros(rows.shape + (n,))
    # kmat[r] + kmat[c] is grouped so that the transposed chain, (c, r),
    # rounds its diagonal the same way
    gen[:, steps, steps] = (-0.5 * cw) * (square + (dset.kmat[rows] + dset.kmat[cols]))
    # gains[q - 1, :, s] couples the entries s and s + q; for s >= n - q one
    # factor's band leaves its block, where it is stored as 0, and is dropped
    gains = cw * (b[1:, :, rows] * b[1:, :, cols]).sum(axis=1)
    for q, gain in enumerate(gains, 1):
        s = steps[: n - q]
        gen[:, s, s + q] = gen[:, s + q, s] = gain[:, : n - q]
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
    # distinct (bj, bk, diag) in lexicographic order
    keys = np.stack([bj, bk, diag])
    keys = keys[:, np.lexsort(keys[::-1])]
    # cut to the number of keys, so no keys give an empty mask
    first = np.r_[True, np.any(keys[:, 1:] != keys[:, :-1], axis=0)][: keys.shape[1]]
    bj, bk, diag = keys[:, first]
    a = np.maximum(0, -diag)
    b = a + diag
    lengths = np.minimum(sizes[bj] - a, sizes[bk] - b)
    chains = []
    for n in sorted(set(lengths.tolist())):
        sel = lengths == n
        steps = np.arange(n)
        chain_rows = (offsets[bj[sel]] + a[sel])[:, None] + steps
        chain_cols = (offsets[bk[sel]] + b[sel])[:, None] + steps
        chains.append((chain_rows, chain_cols))
    return chains


class _EntryPattern:
    """Entries (rows, cols) of D x D matrices, a pattern equal to its
    transpose; a matrix on it is the (N,) vector of its values there.

    _reduce and check read it through the entries on the main diagonal
    (diag), the transposed partner of every entry (partner) for hermiticity
    and the connected components of the rows (components) for the smallest
    eigenvalue, each found once per pattern.  A pattern of chains
    (of_chains) holds the entries of the (rows, cols) groups of
    _occupied_chains, group after group and chain after chain: groups lists
    them with the span of their values, and corners (B, B) is the entry of
    each stretched corner <jj| rho |j'j'> of the layout's blocks, -1 where
    the pattern lacks it.
    """

    def __init__(self, dim, rows, cols, chains=()):
        self.dim, self.rows, self.cols = dim, rows, cols
        self.diag = np.flatnonzero(rows == cols)
        keys = rows * dim + cols
        self._order = np.argsort(keys)
        self._keys = keys[self._order]
        self.partner = self.locate(cols, rows)
        # each entry with its partner once, for check: |a - b^*| = |b - a^*| bit for bit
        self._pairs = np.flatnonzero(self.partner >= np.arange(len(rows)))
        ends = np.cumsum([r.size for r, _ in chains], dtype=int).tolist()
        self.groups = [(r, c, slice(end - r.size, end)) for (r, c), end in zip(chains, ends)]

    @classmethod
    def of_chains(cls, layout, rows, cols):
        """Pattern of the chains that hold the entries (rows, cols)
        (_occupied_chains) on layout."""
        chains = _occupied_chains(layout, rows, cols)
        flat = [np.concatenate([c[k].ravel() for c in chains] or [np.zeros(0, int)])
                for k in (0, 1)]
        pattern = cls(layout.dim, *flat, chains)
        stretched = np.cumsum(layout.block_sizes) - 1  # |jj>, the last row of block j
        pattern.corners = pattern.locate(stretched[:, None], stretched[None, :])
        return pattern

    def locate(self, rows, cols):
        """Indices of the entries (rows, cols); -1 where the pattern lacks one."""
        want = np.asarray(rows) * self.dim + np.asarray(cols)
        if not len(self._keys):
            return np.full(want.shape, -1)
        at = np.minimum(np.searchsorted(self._keys, want), len(self._keys) - 1)
        return np.where(self._keys[at] == want, self._order[at], -1)

    def check(self, values, trace, largest):
        """The density-matrix rule on the F matrices with entry values (F, N),
        traces (F,) and largest entries max|rho| (F,) from _reduce: each
        must have |trace - 1| <= TRACE_TOL, herm = max|rho - rho^+| <=
        HERM_TOL * max(1, max|rho|) and its
        smallest eigenvalue (min_eigenvalues) >= EIG_FLOOR.  Returns the (F,)
        columns trace_dev = |trace - 1|, herm_dev = herm and min_eig, the
        smallest eigenvalue.

        Otherwise raises _DensityRuleError, a ValueError, for the earliest
        frame that fails, with its index: the eigenvalues are taken
        only of the frames before the first that fails on trace or herm, as
        they are finite, and a negative one among them comes earlier.  Each
        test is written as `not x <= tol`, so a NaN or inf entry fails.
        """
        # hypot is the abs of one complex scalar bit for bit; np.abs of an
        # array may round differently
        trace_dev = np.hypot(trace.real - 1.0, trace.imag)
        # rho - rho^+ in place, on one entry of each pair; an inf entry less
        # its partner is NaN, which the comparison rejects
        gap = values[:, self.partner[self._pairs]]
        np.conjugate(gap, out=gap)
        with np.errstate(invalid="ignore"):
            np.subtract(values[:, self._pairs], gap, out=gap)
        herm = np.max(np.abs(gap), axis=-1, initial=0.0)
        scale = np.fmax(1.0, largest)
        fails = ~((trace_dev <= TRACE_TOL) & (herm <= HERM_TOL * scale))
        frame = int(np.argmax(fails)) if fails.any() else len(values)
        min_eig = self.min_eigenvalues(values[:frame])
        low = np.flatnonzero(~(min_eig >= EIG_FLOOR))
        if low.size:
            frame = int(low[0])
            message = "negative eigenvalue %.3g" % min_eig[frame]
        elif frame == len(values):
            return {"trace_dev": trace_dev, "herm_dev": herm, "min_eig": min_eig}
        elif not trace_dev[frame] <= TRACE_TOL:
            message = "trace drift %.3g exceeds %g" % (trace_dev[frame], TRACE_TOL)
        else:
            message = "matrix is not hermitian: drift %.3g" % herm[frame]
        exc = _DensityRuleError(message)
        exc.frame = frame
        raise exc

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
        sizes = sorted(set(counts.tolist()))
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
        component size, over the F matrices at once.
        """
        groups, empty = self.components
        low = np.full(len(values), 0.0 if empty else np.inf)
        for n, s, ent, flat in groups:
            stack = np.zeros((len(values), n * s * s), dtype=values.dtype)
            stack[:, flat] = values[:, ent]
            eig = np.linalg.eigvalsh(stack.reshape(-1, s, s))[:, 0]
            low = np.minimum(low, eig.reshape(len(values), n).min(axis=1))
        return low


def extract_decay_rate(samples):
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
        return 0.0
    return float(-np.polyfit(t, logs, 1)[0])


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


def state_dump(state):
    """The little-endian binary dump of a state as chunks: the header bytes
    int64 D, int64 j_min, int64 j_max, float64 time, then the D*D complex128
    entries row-major, in blocks of whole rows of at most CHUNK_BYTES (one
    row at least).  Each block is scattered from the state's entries, whose
    sorted keys row * D + col are row-major, so no D x D matrix is built."""
    layout, pattern = state.layout, state.pattern
    dim = layout.dim
    yield STATE_HEADER.pack(dim, layout.j_min, layout.j_max, state.time)
    rows = max(1, CHUNK_BYTES // (16 * dim))
    for start in range(0, dim * dim, rows * dim):
        stop = min(start + rows * dim, dim * dim)
        lo, hi = np.searchsorted(pattern._keys, [start, stop])
        block = np.zeros(stop - start, dtype="<c16")
        block[pattern._keys[lo:hi] - start] = state.values[pattern._order[lo:hi]]
        yield block


def read_state_binary(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < STATE_HEADER.size:
        raise ValueError(
            "state file is %d bytes, shorter than its %d-byte header"
            % (len(raw), STATE_HEADER.size)
        )
    dim, j_min, j_max, time = STATE_HEADER.unpack_from(raw)
    layout = BasisLayout(j_min, j_max)
    if layout.dim != dim:
        raise ValueError("header dimension %d inconsistent with j range" % dim)
    if len(raw) != STATE_HEADER.size + 16 * dim * dim:
        raise ValueError("payload size does not match header dimension")
    mat = np.frombuffer(raw, dtype="<c16", offset=STATE_HEADER.size)
    return RotorState.from_matrix(layout, mat.reshape(dim, dim), time)
