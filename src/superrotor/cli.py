"""Command-line front end: rates, sweeps, propagation runs, acceptance suite.

Exit codes: 0 success, 1 validation failure, 2 usage or config error,
3 numerical non-convergence (quadrature flag or drift abort).  Output files
are written atomically (temp + rename) and are byte-stable for identical
inputs.
"""

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import rates
from .params import builtin_config, load_config, normalized_document

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3


@dataclass
class RunManifest:
    command: str
    spec_echo: dict
    outputs: list = field(default_factory=list)
    wall_time_s: float = 0.0
    flags: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def write(self, path):
        for out in self.outputs:
            if not os.path.exists(out):
                raise RuntimeError("manifest lists missing output %s" % out)
        doc = {
            "command": self.command,
            "spec": self.spec_echo,
            "outputs": list(self.outputs),
            "wall_time_s": round(self.wall_time_s, 3),
            "flags": list(self.flags),
            "diagnostics": dict(self.diagnostics),
        }
        _atomic_write(path, json.dumps(doc, indent=2) + "\n")


def _atomic_write(path, text):
    tmp = "%s.tmp-%d" % (path, os.getpid())
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _load_spec(path):
    if path == "n1":
        return load_config(builtin_config("n1"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError("cannot read config %s: %s" % (path, exc))
    return load_config(text)


def _spec_echo(spec):
    return json.loads(normalized_document(spec))


def _finish(args, spec, outputs, t0, flags, diagnostics=None):
    """Write the run manifest if asked, print each flag, and map flags to
    the exit code."""
    if args.manifest:
        RunManifest(
            args.command,
            _spec_echo(spec),
            outputs,
            time.perf_counter() - t0,
            flags,
            diagnostics or {},
        ).write(args.manifest)
    for f in flags:
        print("flag: %s" % f, file=sys.stderr)
    return EXIT_NONCONVERGED if flags else EXIT_OK


def rate_plot_svg(js, values):
    """Minimal self-contained SVG: one polyline on log-log axes."""
    js = np.asarray(js, dtype=float)
    values = np.asarray(values, dtype=float)
    logplot = bool(np.all(values > 0) and np.all(js > 0))
    x = np.log10(js) if logplot else js
    y = np.log10(values) if logplot else values
    width, height = 640.0, 480.0
    left, right, top, bottom = 70.0, 20.0, 20.0, 50.0
    xspan = (x.max() - x.min()) or 1.0
    yspan = (y.max() - y.min()) or 1.0
    px = left + (x - x.min()) / xspan * (width - left - right)
    py = height - bottom - (y - y.min()) / yspan * (height - top - bottom)
    points = " ".join("%.2f,%.2f" % (a, b) for a, b in zip(px, py))

    def xtick(v):
        return left + (v - x.min()) / xspan * (width - left - right)

    def ytick(v):
        return height - bottom - (v - y.min()) / yspan * (height - top - bottom)

    ticks = []
    if logplot:
        for d in range(int(math.floor(x.min())), int(math.ceil(x.max())) + 1):
            if x.min() - 1e-9 <= d <= x.max() + 1e-9:
                ticks.append(
                    '<text x="%.1f" y="%.1f" font-size="12" text-anchor="middle">1e%d</text>'
                    % (xtick(d), height - bottom + 18, d)
                )
        for d in range(int(math.floor(y.min())), int(math.ceil(y.max())) + 1):
            if y.min() - 1e-9 <= d <= y.max() + 1e-9:
                ticks.append(
                    '<text x="%.1f" y="%.1f" font-size="12" text-anchor="end">1e%d</text>'
                    % (left - 6, ytick(d) + 4, d)
                )
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect x="0" y="0" width="%d" height="%d" fill="white"/>' % (width, height),
        '<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>'
        % (left, height - bottom, width - right, height - bottom),
        '<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>'
        % (left, top, left, height - bottom),
        '<text x="%.1f" y="%.1f" font-size="14" text-anchor="middle">j</text>'
        % ((left + width - right) / 2, height - 10),
        '<text x="16" y="%.1f" font-size="14" text-anchor="middle" '
        'transform="rotate(-90 16 %.1f)">Gamma_j</text>'
        % ((top + height - bottom) / 2, (top + height - bottom) / 2),
    ]
    parts.extend(ticks)
    parts.append(
        '<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="%s"/>' % points
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _parse_state(arg, layout_arg):
    """Resolve --state into ((j_min, j_max) of the layout, _build_state input)."""
    if arg.startswith("centrifuge:"):
        js = [int(x) for x in arg.split(":", 1)[1].split(",") if x.strip()]
        if not js:
            raise ValueError("centrifuge state needs at least one j")
        kind = ("centrifuge", {j: 1.0 / math.sqrt(len(js)) for j in js})
        lo, hi = min(js), max(js)
    elif arg.startswith("gaussian:"):
        fieldsv = arg.split(":", 1)[1].split(",")
        if len(fieldsv) != 2:
            raise ValueError("gaussian state takes center,width")
        center, width = float(fieldsv[0]), float(fieldsv[1])
        if not (math.isfinite(center) and math.isfinite(width)):
            raise ValueError("gaussian state needs a finite center and width")
        kind = ("gaussian", (center, width))
        lo = max(0, int(math.floor(center - 2 * width)))
        hi = int(math.ceil(center + 2 * width))
    elif arg == "isotropic":
        kind = ("isotropic", None)
        lo = hi = None
    else:
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError("cannot read state %s: %s" % (arg, exc))
        if not isinstance(doc, dict):
            raise ValueError("state file %s must hold a JSON object" % arg)
        if doc.get("type") == "centrifuge":
            coeff = {
                int(j): _as_complex(c, "coefficients")
                for j, c in _state_field(doc, "coefficients").items()
            }
            kind = ("centrifuge", coeff)
            lo, hi = min(coeff), max(coeff)
        elif doc.get("type") == "isotropic":
            pops = {
                int(j): _as_real(p, "populations")
                for j, p in _state_field(doc, "populations").items()
            }
            kind = ("isotropic", pops)
            lo, hi = min(pops), max(pops)
        else:
            raise ValueError("state file needs type centrifuge or isotropic")

    if layout_arg:
        a, b = (int(x) for x in layout_arg.split(","))
        return (a, b), kind
    if lo is None:
        raise ValueError("isotropic builtin needs an explicit --jwindow")
    return (max(0, lo - 2), hi), kind


def _state_field(doc, name):
    """The nonempty JSON object a state file holds under name."""
    if name not in doc:
        raise ValueError("state file has no %r field" % name)
    value = doc[name]
    if not isinstance(value, dict) or not value:
        raise ValueError("state file field %r must be a nonempty object" % name)
    return value


def _as_complex(v, name):
    """A state file number or [re, im] pair under field name."""
    try:
        if isinstance(v, (int, float)):
            return complex(v)
        re, im = v
        return complex(float(re), float(im))
    except (TypeError, ValueError):
        raise ValueError(
            "state file field %r holds %r, not a number or [re, im] pair" % (name, v)
        ) from None


def _as_real(v, name):
    """A state file number under field name."""
    try:
        return float(v)
    except (TypeError, ValueError):
        raise ValueError("state file field %r holds %r, not a number" % (name, v)) from None


def _build_state(bounds, kind):
    # lindblad is imported here and in cmd_propagate only, so the rates and
    # sweep commands never load it
    from . import lindblad as lb

    layout = lb.BasisLayout(*bounds)
    tag, payload = kind
    if tag == "centrifuge":
        total = math.fsum(abs(c) ** 2 for c in payload.values())
        _check_total(total, "coefficients")
        coeff = {j: c / math.sqrt(total) for j, c in payload.items()}
        return lb.centrifuge_state(layout, coeff)
    if tag == "gaussian":
        return lb.centrifuge_state(layout, lb.gaussian_profile(layout, *payload))
    if payload is None:
        js = list(layout.js)
        payload = {j: 1.0 / len(js) for j in js}
    total = math.fsum(payload.values())
    _check_total(total, "populations")
    return lb.isotropic_state(layout, {j: p / total for j, p in payload.items()})


def _check_total(total, name):
    """A state is normalized by the total of its field name; a total that is
    not positive (all zero, or NaN) cannot be."""
    if not total > 0:
        raise ValueError("state field %r has total %g and cannot be normalized" % (name, total))


def cmd_rates(args):
    spec = _load_spec(args.config)
    t0 = time.perf_counter()
    flags = []
    if args.method == "closed_form":
        res = rates.gamma_closed_form(args.j, args.jprime, spec)
    else:
        res = rates.gamma_numeric(args.j, args.jprime, spec, kappa_mode=args.kappa)
        if not res.converged:
            flags.append("quadrature not converged")
    scale = spec.scales.rate
    print("gamma = %.12g" % (res.gamma * scale))
    if args.jprime == args.j - 2:
        print("Gamma_signal = %.12g" % (res.gamma_signal * scale))
    print("a_coeff = %.12g" % res.a_coefficient)
    print("method = %s" % res.method)
    if spec.unit_system == "SI":
        print("units = 1/s")
    table = rates.RateTable(rows=(res,), method=res.method)
    _atomic_write(args.out, rates.rate_table_csv(table, rate_scale=scale))
    print("wrote %s" % args.out)
    return _finish(args, spec, [args.out], t0, flags)


def cmd_sweep(args):
    spec = _load_spec(args.config)
    t0 = time.perf_counter()
    if args.jmin > args.jmax:
        raise ValueError("sweep needs jmin <= jmax (got %d > %d)" % (args.jmin, args.jmax))
    js = list(range(args.jmin, args.jmax + 1))
    table = rates.sweep_rates(js, spec, method=args.method, kappa_mode=args.kappa)
    rows = table.rows
    flags = []
    if args.method == "quadrature" and not all(r.converged for r in rows):
        flags.append("quadrature not converged")
    scale = spec.scales.rate
    _atomic_write(args.out, rates.rate_table_csv(table, rate_scale=scale))
    outputs = [args.out]
    print("wrote %s (%d rows)" % (args.out, len(rows)))
    if args.plot:
        svg = rate_plot_svg(js, [r.gamma_signal * scale for r in rows])
        _atomic_write(args.plot, svg)
        outputs.append(args.plot)
        print("wrote %s" % args.plot)
    return _finish(args, spec, outputs, t0, flags)


def cmd_propagate(args):
    from . import lindblad as lb

    spec = _load_spec(args.config)
    t0 = time.perf_counter()
    bounds, kind = _parse_state(args.state, args.jwindow)
    if bounds[1] > spec.numerics.j_max:
        limit = (bounds[1], spec.numerics.j_max)
        raise ValueError("propagate: j=%d exceeds basis limit %d" % limit)
    rho0 = _build_state(bounds, kind)
    layout = rho0.layout
    if args.signal:
        signal_js = [int(x) for x in args.signal.split(",")]
        for j in signal_js:
            if not layout.j_min + 2 <= j <= layout.j_max:
                raise ValueError(
                    "signal j=%d needs j >= 2 with j and j-2 in layout [%d, %d]"
                    % (j, layout.j_min, layout.j_max)
                )
    else:
        signal_js = [
            j
            for j in layout.js
            if j - 2 >= layout.j_min and lb.alignment_signal(rho0, j) > 0
        ]
    dset = lb.build_dissipator(spec, layout, backend=args.backend, kappa_mode=args.kappa)
    flags = []
    if not dset.converged:
        flags.append("dissipator quadrature not converged")
    try:
        traj = lb.propagate(
            rho0, dset, spec, args.tfinal, args.dt, record_every=args.record_every
        )
    except lb.StepSizeViolation as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except lb.NumericalDriftError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NONCONVERGED

    _atomic_write(args.out, lb.trajectory_csv(traj, signal_js=signal_js))
    outputs = [args.out]
    print("wrote %s (%d frames, D = %d)" % (args.out, len(traj), layout.dim))

    for j in signal_js:
        samples = list(zip(traj.times, traj.signal(j)))
        closed = 2.0 * rates.gamma_closed_form(j, j - 2, spec).gamma
        try:
            fitted = lb.extract_decay_rate(samples)
        except ValueError:
            print("signal j=%d: no usable decay fit" % j)
            continue
        if closed > 0:
            print(
                "signal j=%d: fitted Gamma = %.6g, closed form %.6g (%+.2f%%)"
                % (j, fitted, closed, 100 * (fitted / closed - 1))
            )
        else:
            print("signal j=%d: fitted Gamma = %.6g, closed form 0" % (j, fitted))
    # entries outside the occupied chains are zero in every frame
    drift = float(np.max(np.abs(traj.values[-1] - traj.values[0])))
    print("max |rho(t_final) - rho(0)| = %.3g" % drift)

    if args.dump:
        lb.write_state_binary(traj[-1], args.dump)
        outputs.append(args.dump)
        print("wrote %s" % args.dump)
    return _finish(args, spec, outputs, t0, flags, traj.diagnostics)


def cmd_validate(args):
    from . import validation

    spec = _load_spec(args.config) if args.config else None
    t0 = time.perf_counter()
    names = None
    if args.only is not None:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        if not names:
            raise ValueError("--only %r names no criterion" % args.only)
        known = {name for name, _ in validation.CRITERIA}
        unknown = [n for n in names if n not in known]
        if unknown:
            raise ValueError("unknown criteria: %s" % ", ".join(unknown))
    results = validation.run_acceptance(spec, names=names)
    sys.stdout.write(validation.report_text(results))
    outputs = []
    if args.json:
        _atomic_write(args.json, validation.report_json(results) + "\n")
        outputs.append(args.json)
        print("wrote %s" % args.json)
    if args.manifest:
        echo = _spec_echo(spec) if spec else {"builtin": "n1"}
        failed = [r.name for r in results if not r.passed]
        RunManifest(
            "validate", echo, outputs, time.perf_counter() - t0, failed
        ).write(args.manifest)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="superrotor",
        description="Collisional decoherence rates and rotor state propagation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="single coherence decay rate")
    p.add_argument("config", help="config JSON path, or 'n1' for the builtin benchmark")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--jprime", type=int, required=True)
    p.add_argument("--method", choices=("closed_form", "quadrature"), default="closed_form")
    p.add_argument("--kappa", choices=("exact", "half"), default="exact")
    p.add_argument("--out", default="rates.csv")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("sweep", help="signal decay rates over a j range")
    p.add_argument("config")
    p.add_argument("--jmin", type=int, default=2)
    p.add_argument("--jmax", type=int, required=True)
    p.add_argument("--method", choices=("closed_form", "quadrature"), default="closed_form")
    p.add_argument("--kappa", choices=("exact", "half"), default="exact")
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--plot", help="optional SVG output path")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("propagate", help="integrate the master equation")
    p.add_argument("config")
    p.add_argument(
        "--state",
        required=True,
        help="builtin 'isotropic', 'centrifuge:j1,j2,...', 'gaussian:center,width', "
        "or a JSON state file",
    )
    p.add_argument("--jwindow", help="explicit layout as 'jmin,jmax'")
    p.add_argument("--tfinal", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--record-every", type=int, default=None)
    p.add_argument("--signal", help="comma-separated j values for signal columns")
    p.add_argument("--backend", choices=("linearized", "spectral"), default="linearized")
    p.add_argument("--kappa", choices=("exact", "half"), default="exact")
    p.add_argument("--out", default="trajectory.csv")
    p.add_argument("--dump", help="optional binary dump of the final state")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("validate", help="run the acceptance criteria")
    p.add_argument("config", nargs="?", default=None)
    p.add_argument("--only", help="comma-separated criterion names to run")
    p.add_argument("--json", help="machine-readable report path")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())