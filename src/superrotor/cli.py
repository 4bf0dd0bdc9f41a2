"""Command-line front end: rates, sweeps, propagation runs, acceptance suite.

Exit codes: 0 success, 1 validation failure, 2 usage or config error
(a step-size violation too), 3 numerical non-convergence (quadrature flag,
or a NumericalDriftError of any command; main maps both errors).  Output files
are written atomically (temp + rename) and are byte-stable for identical
inputs; an output path that cannot be written is a usage error, found before
any computation where the path is empty, names the same file as another
output option, names a directory or other non-regular file, or lies in a
missing directory.

This module, params and rates import only the standard library, so rates
and sweep run without numpy: the closed form is plain arithmetic, and the
quadrature route reads mathkit's rules as Python floats.  propagate and
validate load numpy and their numeric modules when they run.
"""

import argparse
import contextlib
import json
import math
import os
import sys
import time

from . import rates
from .params import (NumericalDriftError, StepSizeViolation, builtin_config, load_config,
                     normalized_document)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3

KAPPA_HELP = "kappa of the quadrature route; the closed form, its kappa -> 1/2 limit, ignores it"


class OutputError(Exception):
    """An output file that cannot be written (exit 2)."""

    def __init__(self, path, reason):
        super().__init__("cannot write %s: %s" % (path, reason))


def _check_outputs(*paths):
    """Raise OutputError for an output path (None: not asked for) that is
    empty, names the same file as another output of the command, lies in a
    directory that does not exist, or names something other than a regular
    file: the rename of an atomic write would replace a device node or FIFO,
    and fails on a directory."""
    seen = set()
    for path in paths:
        if path is None:
            continue
        if not path:
            raise OutputError("''", "empty path")
        real = os.path.realpath(path)
        if real in seen:
            raise OutputError(path, "named by two output options")
        seen.add(real)
        parent = os.path.dirname(path) or "."
        if os.path.exists(path) and not os.path.isfile(path):
            raise OutputError(path, "not a regular file")
        if not os.path.isdir(parent):
            raise OutputError(path, "no directory %s" % parent)


def _atomic_write(path, chunks):
    """Write the iterable chunks to path, the package's only file writer,
    taking one chunk at a time: str chunks as UTF-8, any other through the
    buffer protocol, so an array is not copied.  The file is written under a
    temporary name and renamed into place, so readers never see a partial
    file; any failure, also one raised by chunks, removes the temporary, and
    an OSError is an OutputError."""
    tmp = "%s.tmp-%d" % (path, os.getpid())
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except OSError as exc:
        raise OutputError(path, exc.strerror or exc) from None
    finally:
        # after the rename no temporary is left to remove
        with contextlib.suppress(OSError):
            os.remove(tmp)


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


def _write_manifest(path, command, spec_echo, outputs, t0, flags, diagnostics=None):
    """Write the run manifest: the command, its spec, the outputs it wrote
    (each must exist), the wall time since t0, its flags and diagnostics."""
    for out in outputs:
        if not os.path.exists(out):
            raise RuntimeError("manifest lists missing output %s" % out)
    doc = {
        "command": command,
        "spec": spec_echo,
        "outputs": list(outputs),
        "wall_time_s": round(time.perf_counter() - t0, 3),
        "flags": list(flags),
        "diagnostics": dict(diagnostics or {}),
    }
    _atomic_write(path, [json.dumps(doc, indent=2) + "\n"])


def _finish(args, spec, outputs, t0, flags, diagnostics=None):
    """Write the run manifest if asked, print each flag, and map flags to
    the exit code."""
    if args.manifest:
        _write_manifest(args.manifest, args.command, _spec_echo(spec), outputs, t0, flags,
                        diagnostics)
    for f in flags:
        print("flag: %s" % f, file=sys.stderr)
    return EXIT_NONCONVERGED if flags else EXIT_OK


def rate_plot_svg(js, values):
    """Minimal self-contained SVG: one polyline on log-log axes."""
    js = [float(v) for v in js]
    values = [float(v) for v in values]
    logplot = all(v > 0 for v in values) and all(v > 0 for v in js)
    x = [math.log10(v) for v in js] if logplot else js
    y = [math.log10(v) for v in values] if logplot else values
    x_min, x_max, y_min, y_max = min(x), max(x), min(y), max(y)
    width, height = 640.0, 480.0
    left, right, top, bottom = 70.0, 20.0, 20.0, 50.0
    xspan = (x_max - x_min) or 1.0
    yspan = (y_max - y_min) or 1.0

    def xtick(v):
        return left + (v - x_min) / xspan * (width - left - right)

    def ytick(v):
        return height - bottom - (v - y_min) / yspan * (height - top - bottom)

    points = " ".join("%.2f,%.2f" % (xtick(a), ytick(b)) for a, b in zip(x, y))
    ticks = []
    if logplot:
        for d in range(int(math.floor(x_min)), int(math.ceil(x_max)) + 1):
            if x_min - 1e-9 <= d <= x_max + 1e-9:
                ticks.append(
                    '<text x="%.1f" y="%.1f" font-size="12" text-anchor="middle">1e%d</text>'
                    % (xtick(d), height - bottom + 18, d)
                )
        for d in range(int(math.floor(y_min)), int(math.ceil(y_max)) + 1):
            if y_min - 1e-9 <= d <= y_max + 1e-9:
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


def _read_state(arg, window_arg, j_max):
    """The RotorState that --state names, on the layout of --jwindow or of
    the state's default window [min - 2, max] of its levels.

    In order: parse the state, fix the window, check it against the basis
    limit j_max and build the state, whose constructor normalizes the
    parsed weights (the builtin isotropic state weighs every level of the
    window alike).  Every level is a distinct integer >= 0 inside the
    window."""
    # centrifuge amplitudes or isotropic populations by level, as parsed;
    # None for a Gaussian and for the builtin isotropic state
    weights = None
    if arg.startswith("centrifuge:"):
        form = "--state takes 'centrifuge:j1,j2,...' with distinct integers j >= 0 (got %r)" % arg
        try:
            js = [int(x) for x in arg.split(":", 1)[1].split(",") if x.strip()]
        except ValueError:
            raise ValueError(form) from None
        if not js or min(js) < 0 or len(set(js)) < len(js):
            raise ValueError(form)
        kind, weights = "centrifuge", dict.fromkeys(js, 1.0)
    elif arg.startswith("gaussian:"):
        form = ("--state takes 'gaussian:center,width' with finite width > 0 and "
                "center + 2 width >= 0 (got %r)" % arg)
        try:
            center, width = (float(x) for x in arg.split(":", 1)[1].split(","))
        except ValueError:
            raise ValueError(form) from None
        # the window [center - 2 width, center + 2 width] must hold some j >= 0
        if not (math.isfinite(center) and 0 < width < math.inf and center + 2 * width >= 0):
            raise ValueError(form)
        kind = "gaussian"
        lo = max(0, int(math.floor(center - 2 * width)))
        hi = int(math.ceil(center + 2 * width))
    elif arg == "isotropic":
        kind = "isotropic"
    else:
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError("cannot read state %s: %s" % (arg, exc))
        if not isinstance(doc, dict):
            raise ValueError("state file %s must hold a JSON object" % arg)
        kind = doc.get("type")
        if kind == "centrifuge":
            weights = _state_field(doc, "coefficients", _as_complex)
        elif kind == "isotropic":
            weights = _state_field(doc, "populations", _as_real)
        else:
            raise ValueError("state file needs type centrifuge or isotropic")
    if weights is not None:
        lo, hi = max(0, min(weights) - 2), max(weights)

    if window_arg is not None:
        form = ("--jwindow takes 'jmin,jmax' (got %r) with integers 0 <= jmin <= jmax "
                "around every level of --state" % window_arg)
        try:
            lo, hi = (int(x) for x in window_arg.split(","))
        except ValueError:
            raise ValueError(form) from None
        if not 0 <= lo <= hi or (weights and not lo <= min(weights) <= max(weights) <= hi):
            raise ValueError(form)
    elif arg == "isotropic":
        raise ValueError("--state isotropic takes its levels from --jwindow 'jmin,jmax'")
    if hi > j_max:
        raise ValueError("propagate: j=%d exceeds basis limit %d" % (hi, j_max))

    # lindblad is imported here and in cmd_propagate only, so the rates and
    # sweep commands never load it
    from . import lindblad as lb

    layout = lb.BasisLayout(lo, hi)
    if kind == "gaussian":
        return lb.centrifuge_state(layout, lb.gaussian_profile(layout, center, width))
    if kind == "centrifuge":
        return lb.centrifuge_state(layout, weights)
    return lb.isotropic_state(layout, weights or dict.fromkeys(layout.js, 1.0))


def _state_field(doc, name, read):
    """The levels and values of the nonempty JSON object a state file holds
    under name: each key a distinct integer level j >= 0, each value read
    by read(value, name)."""
    if name not in doc:
        raise ValueError("state file has no %r field" % name)
    field = doc[name]
    if not isinstance(field, dict) or not field:
        raise ValueError("state file field %r must be a nonempty object" % name)
    values = {}
    for key, value in field.items():
        if not key.isdecimal() or int(key) in values:
            raise ValueError(
                "state file field %r takes distinct integer levels j >= 0 as keys (got %r)"
                % (name, key)
            )
        values[int(key)] = read(value, name)
    return values


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


def cmd_rates(args):
    _check_outputs(args.out, args.manifest)
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
    _atomic_write(args.out, [rates.rate_table_csv([res], rate_scale=scale)])
    print("wrote %s" % args.out)
    return _finish(args, spec, [args.out], t0, flags)


def cmd_sweep(args):
    _check_outputs(args.out, args.plot, args.manifest)
    spec = _load_spec(args.config)
    t0 = time.perf_counter()
    if args.jmin > args.jmax:
        raise ValueError("sweep needs jmin <= jmax (got %d > %d)" % (args.jmin, args.jmax))
    js = list(range(args.jmin, args.jmax + 1))
    rows = rates.sweep_rates(js, spec, method=args.method, kappa_mode=args.kappa)
    flags = []
    if args.method == "quadrature" and not all(r.converged for r in rows):
        flags.append("quadrature not converged")
    scale = spec.scales.rate
    _atomic_write(args.out, [rates.rate_table_csv(rows, rate_scale=scale)])
    outputs = [args.out]
    print("wrote %s (%d rows)" % (args.out, len(rows)))
    if args.plot:
        svg = rate_plot_svg(js, [r.gamma_signal * scale for r in rows])
        _atomic_write(args.plot, [svg])
        outputs.append(args.plot)
        print("wrote %s" % args.plot)
    return _finish(args, spec, outputs, t0, flags)


def cmd_propagate(args):
    from . import lindblad as lb

    _check_outputs(args.out, args.dump, args.manifest)
    spec = _load_spec(args.config)
    t0 = time.perf_counter()
    rho0 = _read_state(args.state, args.jwindow, spec.numerics.j_max)
    layout = rho0.layout
    if args.signal:
        try:
            signal_js = [int(x) for x in args.signal.split(",")]
        except ValueError:
            raise ValueError("--signal takes 'j1,j2,...' (got %r)" % args.signal) from None
        if len(set(signal_js)) < len(signal_js):
            raise ValueError("--signal repeats a level (got %r)" % args.signal)
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
            if j - 2 >= layout.j_min and rho0.corner_coherence(j, j - 2) != 0
        ]
    dset = lb.build_dissipator(spec, layout, backend=args.backend, kappa_mode=args.kappa)
    flags = []
    if not dset.converged:
        flags.append("dissipator quadrature not converged")
    traj = lb.propagate(rho0, dset, spec, args.tfinal, args.dt, record_every=args.record_every)
    _atomic_write(args.out, [lb.trajectory_csv(traj, signal_js=signal_js)])
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
    print("max |rho(t_final) - rho(0)| = %.3g" % traj.final.max_deviation(rho0))

    if args.dump:
        _atomic_write(args.dump, lb.state_dump(traj.final))
        outputs.append(args.dump)
        print("wrote %s" % args.dump)
    dissipator = {k: dset.metadata[k] for k in ("order_doubling_drift", "converged")}
    return _finish(args, spec, outputs, t0, flags, dict(traj.diagnostics, dissipator=dissipator))


def cmd_validate(args):
    from . import validation

    _check_outputs(args.json, args.manifest)
    spec = _load_spec(args.config) if args.config else None
    t0 = time.perf_counter()
    names = None
    if args.only is not None:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        if not names:
            raise ValueError("--only %r names no criterion" % args.only)
    results = validation.run_acceptance(spec, names=names)
    sys.stdout.write(validation.report_text(results))
    outputs = []
    if args.json:
        _atomic_write(args.json, [validation.report_json(results) + "\n"])
        outputs.append(args.json)
        print("wrote %s" % args.json)
    if args.manifest:
        echo = _spec_echo(spec) if spec else {"builtin": "n1"}
        failed = [r.name for r in results if not r.passed]
        criteria = {r.name: {"passed": r.passed, "runtime_s": r.runtime} for r in results}
        _write_manifest(args.manifest, "validate", echo, outputs, t0, failed,
                        {"criteria": criteria})
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
    p.add_argument("--kappa", choices=("exact", "half"), default="exact", help=KAPPA_HELP)
    p.add_argument("--out", default="rates.csv")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("sweep", help="signal decay rates over a j range")
    p.add_argument("config")
    p.add_argument("--jmin", type=int, default=2)
    p.add_argument("--jmax", type=int, required=True)
    p.add_argument("--method", choices=("closed_form", "quadrature"), default="closed_form")
    p.add_argument("--kappa", choices=("exact", "half"), default="exact", help=KAPPA_HELP)
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
    # StepSizeViolation is a ValueError, reported as a run error, not a config one
    except StepSizeViolation as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except NumericalDriftError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NONCONVERGED
    except ValueError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except OutputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())