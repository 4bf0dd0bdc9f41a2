"""One benchmark child process: a fresh interpreter that runs one op's job.

Usage: python3 perfbench/child.py JOB.json

The job names CLI arguments for ``superrotor.cli.main`` and optionally one
library rate (``rates.gamma_numeric``) to compute after the CLI run.  A job
without CLI arguments only measures start-up.  The child imports superrotor
from the checkout's ``src`` directory, records the monotonic time at which it
enters ``cli.main``, and writes a result JSON next to the job file.  With
``"trace": true`` it first wraps the public layer functions (see ``install``)
and adds the recorded spans to the result.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _nbytes(obj):
    return sum(v.nbytes for v in vars(obj).values() if hasattr(v, "nbytes"))


def install(tracer):
    """Wrap each layer function where callers look it up.

    ``rates`` and ``lindblad`` import some functions by name, so those names
    are patched in the importing module as well; ``apply`` is patched on the
    class.  coupling_matrix, forward_scalar and make_rule are called tens of
    thousands of times and are counted without spans.
    """
    from superrotor import cli, lindblad, mathkit, params, rates, scattering

    def patch(sites, wrapped):
        for owner, attr in sites:
            setattr(owner, attr, wrapped)

    def spanned(name, sites, key=None, attrs=None):
        owner, attr = sites[0]
        patch(sites, tracer.span(name, getattr(owner, attr), key, attrs))

    def counted(name, sites, key=None):
        owner, attr = sites[0]
        patch(sites, tracer.count(name, getattr(owner, attr), key))

    def amp_key(j, q, n_prime, spec, kappa_mode="exact"):
        return (int(j), float(q), tuple(float(x) for x in n_prime), kappa_mode, spec)

    def shift_key(j, spec, backend="linearized", with_diagnostics=False):
        return (int(j), spec, backend, bool(with_diagnostics))

    def drift(res, *args, **kwargs):
        return {"drift": float(res.metadata["order_doubling_drift"])}

    def dissipator(res, *args, **kwargs):
        return {"drift": float(res.metadata["order_doubling_drift"]), "bytes": _nbytes(res)}

    def useful(res, dset, packed):
        return {"useful_ratio": dset.layout.dim**2 / packed.size}

    spanned("cli.main", [(cli, "main")])
    spanned("params.load_config", [(params, "load_config"), (cli, "load_config")])
    spanned(
        "scattering.forward_amplitude_spectral",
        [(scattering, "forward_amplitude_spectral"), (rates, "forward_amplitude_spectral")],
        key=amp_key,
    )
    spanned("rates.gamma_closed_form", [(rates, "gamma_closed_form")])
    spanned("rates.gamma_numeric", [(rates, "gamma_numeric")], attrs=drift)
    spanned(
        "rates.energy_shift_matrix",
        [(rates, "energy_shift_matrix"), (lindblad, "energy_shift_matrix")],
        key=shift_key,
    )
    spanned("lindblad.build_dissipator", [(lindblad, "build_dissipator")], attrs=dissipator)
    spanned("lindblad.DissipatorSet.apply", [(lindblad.DissipatorSet, "apply")], attrs=useful)
    spanned("lindblad.propagate", [(lindblad, "propagate")])
    spanned("lindblad.coherent_frequency_spread", [(lindblad, "coherent_frequency_spread")])
    spanned("lindblad.trajectory_csv", [(lindblad, "trajectory_csv")])
    counted("scattering.coupling_matrix", [(scattering, "coupling_matrix")])
    counted(
        "scattering.forward_scalar", [(scattering, "forward_scalar"), (rates, "forward_scalar")]
    )
    counted(
        "mathkit.make_rule",
        [(mathkit, "make_rule"), (scattering, "make_rule"), (rates, "make_rule"),
         (lindblad, "make_rule")],
        key=lambda domain, order: (domain, int(order)),
    )


def main(job_path):
    job_path = Path(job_path)
    job = json.loads(job_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from superrotor import cli, params, rates

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "superrotor":
        raise SystemExit("superrotor was not imported from %s" % (ROOT / "src"))
    tracer = None
    if job.get("trace"):
        from spans import Tracer

        tracer = Tracer(job["op"])
        install(tracer)

    result = {"t_main": time.monotonic(), "exit": 0}
    if job.get("argv"):
        result["exit"] = cli.main(job["argv"])
    rate = job.get("gamma")
    if rate and result["exit"] == 0:
        spec = params.load_config(Path(rate["config"]).read_text())
        res = rates.gamma_numeric(
            rate["j"], rate["jprime"], spec,
            amplitude_backend=rate["backend"], kappa_mode=rate["kappa"],
        )
        doc = {
            "gamma": res.gamma,
            "converged": res.converged,
            "order_doubling_drift": float(res.metadata["order_doubling_drift"]),
        }
        (job_path.parent / rate["out"]).write_text(json.dumps(doc) + "\n")
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        result["trace"] = tracer.dump()
    job_path.with_suffix(".result.json").write_text(json.dumps(result))
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
