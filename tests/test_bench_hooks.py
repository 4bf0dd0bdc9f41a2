"""The benchmark's traced child process still finds every layer it wraps.

perfbench/child.py patches public superrotor functions by name and keys some
of them on their signatures; a renamed function or a new keyword would make a
traced benchmark run crash or lose its spans.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"
SPECTRAL_CONFIG = ROOT / "perfbench" / "spectral_chain.json"


def trace_job(job, tmp_path):
    """The trace dump of one traced child run of job in tmp_path."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(dict(job, op=0, trace=True)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(path.with_suffix(".result.json").read_text())
    assert result["exit"] == 0
    return result["trace"]


def run_traced(job, tmp_path):
    return {span[2] for span in trace_job(job, tmp_path)["spans"]}


def test_traced_child_linearized_propagate(tmp_path):
    names = run_traced(
        {"argv": ["propagate", "n1", "--state", "centrifuge:2,4", "--tfinal", "0.01",
                  "--dt", "0.001", "--out", "trajectory.csv"]},
        tmp_path,
    )
    for name in ("lindblad.build_dissipator", "rates.energy_shift_matrix",
                 "lindblad.propagate"):
        assert name in names


def test_traced_child_rate_cli(tmp_path):
    # the three rate-cli children: the closed-form commands load no numeric
    # module, and the counters must still see the quadrature sweep's calls
    # into mathkit and scattering, which rates imports when it runs
    jobs = {
        "rates": ["rates", "n1", "--j", "10", "--jprime", "8", "--out", "rates.csv"],
        "closed": ["sweep", "n1", "--jmin", "2", "--jmax", "1000", "--out", "sweep.csv",
                   "--plot", "sweep.svg"],
        "quadrature": ["sweep", "n1", "--jmin", "2", "--jmax", "100", "--method",
                       "quadrature", "--kappa", "half", "--out", "quadrature.csv"],
    }
    traces = {}
    for name, argv in jobs.items():
        (tmp_path / name).mkdir()
        traces[name] = trace_job({"argv": argv}, tmp_path / name)
    names = {name: {span[2] for span in trace["spans"]} for name, trace in traces.items()}
    assert {"cli.main", "rates.gamma_closed_form"} <= names["rates"]
    assert "cli.main" in names["closed"] and "cli.main" in names["quadrature"]
    calls = traces["quadrature"]["calls"]
    assert calls.get("mathkit.make_rule", 0) > 0
    assert calls.get("scattering.forward_scalar", 0) > 0


def test_traced_child_apply(tmp_path):
    # propagate acts on chain entries only; the stationarity criterion still
    # applies a dissipator to a dense matrix
    names = run_traced({"argv": ["validate", "--only", "isotropic stationarity"]}, tmp_path)
    for name in ("lindblad.build_dissipator", "lindblad.DissipatorSet.apply"):
        assert name in names


def test_traced_child_spectral_chain(tmp_path):
    names = run_traced(
        {
            "argv": ["propagate", str(SPECTRAL_CONFIG), "--state", "centrifuge:2,4",
                     "--jwindow", "2,4", "--backend", "spectral", "--kappa", "half",
                     "--tfinal", "1.0", "--dt", "0.1", "--out", "trajectory.csv"],
            "gamma": {"config": str(SPECTRAL_CONFIG), "j": 4, "jprime": 2,
                      "backend": "spectral", "kappa": "half", "out": "gamma.json"},
        },
        tmp_path,
    )
    for name in ("lindblad.build_dissipator", "rates.energy_shift_matrix",
                 "lindblad.propagate", "rates.gamma_numeric"):
        assert name in names
    assert json.loads((tmp_path / "gamma.json").read_text())["converged"]
