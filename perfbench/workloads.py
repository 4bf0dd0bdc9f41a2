"""The benchmark's workloads: seeded input families, child jobs and output checks.

Each workload draws every op's input from a fixed family of variants of equal
cost.  An op is a list of child jobs (one fresh process each, see child.py).
It passes when every child exits 0 without a ``flag:`` line, every output
matches the reference stored under ``refs/<workload>/`` for its variant
within a tolerance set by the accuracy of the method that produced it, and
the workload's own independent check holds.  make_refs.py regenerates the
references.
"""

import gzip
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
REFS = BENCH / "refs"
SPECTRAL_CONFIG = BENCH / "spectral_chain.json"


def _read_csv(path):
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def compare_rate_table(out, ref, rel=1e-10):
    """Rate CSV rows: j, j', method exact; rates within rel (closed forms and
    the quadrature of a polynomial integrand are exact to ~1e-13)."""
    head, rows = _read_csv(out)
    ref_head, ref_rows = _read_csv(ref)
    if head != ref_head or len(rows) != len(ref_rows):
        return ["%s: header or row count differs from reference" % Path(out).name]
    errors = []
    for row, want in zip(rows, ref_rows):
        if row[:2] != want[:2] or row[5] != want[5]:
            errors.append("%s: row %s differs in j, j' or method" % (Path(out).name, want[:2]))
            continue
        for got, exp in zip(row[2:5], want[2:5]):
            got, exp = float(got), float(exp)
            if abs(got - exp) > rel * abs(exp):
                errors.append("%s: row %s value %r, reference %r" % (Path(out).name, want[:2], got, exp))
    return errors[:5]


def _polyline(path):
    for node in ET.parse(path).getroot().iter():
        if node.tag.endswith("polyline"):
            return np.array([[float(v) for v in p.split(",")] for p in node.get("points").split()])
    return np.zeros((0, 2))


def compare_svg(out, ref, tol=0.01 + 1e-9):
    """Plot polyline: same points, to the 0.01 px the SVG is written with."""
    got, want = _polyline(out), _polyline(ref)
    if got.shape != want.shape:
        return ["sweep.svg: %d points, reference %d" % (len(got), len(want))]
    err = float(np.max(np.abs(got - want))) if len(got) else 0.0
    return [] if err <= tol else ["sweep.svg: points differ by %.3g px" % err]


def compare_trajectory(tol):
    """Trajectory CSV: same columns and frames, every entry within tol."""

    def compare(out, ref):
        head, rows = _read_csv(out)
        ref_head, ref_rows = _read_csv(ref)
        if head != ref_head or len(rows) != len(ref_rows):
            return ["trajectory.csv: columns or frame count differ from reference"]
        err = float(np.max(np.abs(np.array(rows, float) - np.array(ref_rows, float))))
        return [] if err <= tol else ["trajectory.csv: max deviation %.3g > %.3g" % (err, tol)]

    return compare


def read_state(raw):
    """Parse a binary state dump: int64 D, j_min, j_max, float64 t, D*D complex128."""
    dim, j_min, j_max = (int(x) for x in np.frombuffer(raw[:24], dtype="<i8"))
    mat = np.frombuffer(raw[32:], dtype="<c16")
    if mat.size != dim * dim:
        raise ValueError("state dump payload does not match its header")
    return (dim, j_min, j_max), mat.reshape(dim, dim)


def compare_state(tol):
    """Dumped density matrix: same header, every entry within tol."""

    def compare(out, ref):
        head, rho = read_state(Path(out).read_bytes())
        ref_head, ref_rho = read_state(gzip.decompress(Path(ref).read_bytes()))
        if head != ref_head:
            return ["state.bin: header %s, reference %s" % (head, ref_head)]
        err = float(np.max(np.abs(rho - ref_rho)))
        return [] if err <= tol else ["state.bin: max |rho - ref| = %.3g > %.3g" % (err, tol)]

    return compare


def compare_gamma(rel):
    """Library rate: within rel of the reference, and converged."""

    def compare(out, ref):
        got = json.loads(Path(out).read_text())
        want = json.loads(Path(ref).read_text())["gamma"]
        errors = [] if got["converged"] else ["gamma_numeric reports no convergence"]
        if abs(got["gamma"] - want) > rel * abs(want):
            errors.append("gamma %r, reference %r" % (got["gamma"], want))
        return errors

    return compare


class RateCli:
    """README quick start plus both sweep routes, one CLI process each."""

    name = "rate-cli"
    why = ("3 CLI processes per op (rates, closed-form sweep to j=1000, quadrature sweep "
           "to j=100): start-up, sweep thread pool, rates; never enters lindblad")
    PAIRS = ((10, 8), (12, 10), (15, 13), (20, 18), (25, 23), (9, 6), (40, 37), (100, 98))
    family = tuple((j, jp, kappa) for j, jp in PAIRS for kappa in ("exact", "half"))

    def jobs(self, variant, opdir):
        j, jp, kappa = variant
        return [
            {"argv": ["rates", "n1", "--j", str(j), "--jprime", str(jp), "--out", "rates.csv"]},
            {"argv": ["sweep", "n1", "--jmin", "2", "--jmax", "1000",
                      "--out", "sweep.csv", "--plot", "sweep.svg"]},
            {"argv": ["sweep", "n1", "--jmin", "2", "--jmax", "100", "--method", "quadrature",
                      "--kappa", kappa, "--out", "quadrature.csv"]},
        ]

    def outputs(self, variant):
        j, jp, kappa = variant
        return [
            ("rates.csv", "rates-%d-%d.csv" % (j, jp), compare_rate_table),
            ("sweep.csv", "sweep.csv", compare_rate_table),
            ("sweep.svg", "sweep.svg", compare_svg),
            ("quadrature.csv", "quadrature-%s.csv" % kappa, compare_rate_table),
        ]

    def check(self, variant, opdir):
        """The quadrature route against the closed form of the same op.

        With kappa = 1/2 the two are the same integral, exact to ~1e-13, so
        they agree to the CSV's 12 digits.  With the exact kappa the closed
        form is the large-j limit, which the quadrature approaches as
        3/(4 j^2), 7.5e-5 at j = 100.
        """
        closed = {int(r[0]): float(r[3]) for r in _read_csv(opdir / "sweep.csv")[1]}
        quad = {int(r[0]): float(r[3]) for r in _read_csv(opdir / "quadrature.csv")[1]}
        ratios = {j: quad[j] / closed[j] - 1.0 for j in quad}
        if variant[2] == "half":
            worst = max(abs(r) for r in ratios.values())
            return [] if worst <= 1e-9 else ["kappa=1/2 quadrature off closed form by %.3g" % worst]
        return [] if abs(ratios[100]) <= 1e-4 else [
            "exact-kappa quadrature at j=100 off closed form by %.3g" % ratios[100]]


class PropagateLinearized:
    """Block-population problem at a bounded step count: D = 192, 100 RK4 steps."""

    name = "propagate-linearized"
    why = ("propagate a Gaussian centrifuge state on j in [8,15] (D=192, 100 RK4 steps): "
           "DissipatorSet.apply, energy shift, per-frame eigvalsh")
    family = (10.5, 11.0, 11.5, 12.0, 12.5)
    WIDTH = 2.0
    LAYOUT = (8, 15)

    def jobs(self, centre, opdir):
        return [{"argv": [
            "propagate", "n1", "--state", "gaussian:%g,%g" % (centre, self.WIDTH),
            "--jwindow", "%d,%d" % self.LAYOUT, "--tfinal", "0.1", "--dt", "0.001",
            "--out", "trajectory.csv", "--dump", "state.bin"]}]

    def outputs(self, centre):
        # the rotating frame leaves RK4 only the slow dissipative motion
        # (gamma*dt ~ 1e-3), so any exact propagator agrees to ~1e-14
        return [
            ("trajectory.csv", "c%g/trajectory.csv" % centre, compare_trajectory(1e-9)),
            ("state.bin", "c%g/state.bin.gz" % centre, compare_state(1e-9)),
        ]

    def check(self, centre, opdir):
        """Jumps are block diagonal: block populations keep their initial
        Gaussian weights p_j ~ exp(-(j - c)^2 / (2 w^2))."""
        (_dim, j_min, j_max), rho = read_state((opdir / "state.bin").read_bytes())
        js = np.arange(j_min, j_max + 1)
        want = np.exp(-((js - centre) ** 2) / (2.0 * self.WIDTH**2))
        want /= want.sum()
        diag = np.real(np.diag(rho))
        got = np.array([diag[j * j - j_min**2: (j + 1) ** 2 - j_min**2].sum() for j in js])
        err = float(np.max(np.abs(got - want)))
        return [] if err <= 1e-8 else ["block-population drift %.3g > 1e-8" % err]


class SpectralChain:
    """Spectral amplitudes through to a fitted decay rate, one process per op."""

    name = "spectral-chain"
    why = ("spectral propagate on j in [2,4] (400 steps) plus spectral gamma_numeric(4,2) in "
           "one process: forward_amplitude_spectral, node-stack assembly, cheap apply")
    STATES = {
        "c24": "centrifuge:2,4",
        "c234": "centrifuge:2,3,4",
        "phased": {"type": "centrifuge", "coefficients": {"2": [0.6, 0.0], "4": [0.0, 0.8]}},
    }
    family = tuple((state, kappa) for state in STATES for kappa in ("exact", "half"))

    def jobs(self, variant, opdir):
        state, kappa = variant
        arg = self.STATES[state]
        if not isinstance(arg, str):
            (opdir / "state.json").write_text(json.dumps(arg))
            arg = "state.json"
        return [{
            "argv": ["propagate", str(SPECTRAL_CONFIG), "--state", arg, "--jwindow", "2,4",
                     "--backend", "spectral", "--kappa", kappa, "--tfinal", "40", "--dt", "0.1",
                     "--out", "trajectory.csv"],
            "gamma": {"config": str(SPECTRAL_CONFIG), "j": 4, "jprime": 2,
                      "backend": "spectral", "kappa": kappa, "out": "gamma.json"},
        }]

    def outputs(self, variant):
        kappa = variant[1]
        # RK4 at dt*max|Delta| <= 0.1 sits 3e-6 from the exact exponential
        # and the sphere order-doubling drift of the dissipator is 2e-4 of
        # gamma*t ~ 0.03; the spectral rate's own drift is 3e-5.
        return [
            ("trajectory.csv", "%s-%s/trajectory.csv" % variant, compare_trajectory(2e-5)),
            ("gamma.json", "gamma-%s.json" % kappa, compare_gamma(1e-4)),
        ]

    def check(self, variant, opdir):
        """The signal |rho_{44,22}|^2 decays at 2*gamma(4, 2): a log-linear fit
        of the trajectory lands within 2% (multi-exponential contamination
        at gamma*t ~ 0.03 is ~1%)."""
        head, rows = _read_csv(opdir / "trajectory.csv")
        data = np.array(rows, float)
        t, signal = data[:, 0], data[:, head.index("signal_j4")]
        fitted = -np.polyfit(t, np.log(signal), 1)[0]
        expected = 2.0 * json.loads((opdir / "gamma.json").read_text())["gamma"]
        dev = fitted / expected - 1.0
        return [] if abs(dev) <= 0.02 else ["fitted signal rate off 2*gamma by %+.2f%%" % (100 * dev)]


WORKLOADS = {w.name: w for w in (RateCli(), PropagateLinearized(), SpectralChain())}


def check_op(workload, variant, opdir):
    """Every reference comparison plus the workload's independent check."""
    outputs = workload.outputs(variant)
    missing = [out for out, _ref, _compare in outputs if not (opdir / out).exists()]
    if missing:
        return ["missing output %s" % ", ".join(missing)]
    errors = []
    for out, ref, compare in outputs:
        errors.extend(compare(opdir / out, REFS / workload.name / ref))
    return errors + workload.check(variant, opdir)
