import json
import math
import os
import pathlib
import stat
import subprocess
import sys

import numpy as np
import pytest

import superrotor.rates as rates_mod
from superrotor import lindblad as lb
from superrotor.cli import OutputError, _atomic_write, main, rate_plot_svg


def run_cli(args):
    return main(list(args))


def test_rates_command(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run_cli(["rates", "n1", "--j", "10", "--jprime", "8", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "gamma = 0.307727410356" in captured
    assert "Gamma_signal = 0.615454820712" in captured
    lines = out.read_text().splitlines()
    assert lines[0] == "j,j_prime,gamma,Gamma_signal,a_coeff,method"
    assert len(lines) == 2
    assert lines[1].endswith("closed_form")


def test_rates_zero_pair(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run_cli(["rates", "n1", "--j", "0", "--jprime", "0", "--out", str(out)])
    assert code == 0
    assert "gamma = 0" in capsys.readouterr().out


def test_rates_quadrature_method(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run_cli(
        [
            "rates", "n1", "--j", "6", "--jprime", "4",
            "--method", "quadrature", "--kappa", "half", "--out", str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    gamma = float([l for l in captured.splitlines() if l.startswith("gamma")][0].split("=")[1])
    assert gamma == pytest.approx(rates_mod.gamma_closed_form(6, 4, _n1()).gamma, rel=1e-9)


def _n1():
    from superrotor.params import builtin_config, load_config

    return load_config(builtin_config("n1"))


def test_rates_malformed_config(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"molecule": {"mass": 1}, "gas": {}, "mystery": 1}')
    code = run_cli(["rates", str(cfg), "--j", "4", "--jprime", "2"])
    assert code == 2
    assert "mystery" in capsys.readouterr().err


def test_missing_config_file(capsys):
    code = run_cli(["rates", "/nonexistent/cfg.json", "--j", "4", "--jprime", "2"])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err


def test_sweep_deterministic_and_manifest(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    man = tmp_path / "m.json"
    assert run_cli(["sweep", "n1", "--jmax", "40", "--out", str(out1), "--manifest", str(man)]) == 0
    assert run_cli(["sweep", "n1", "--jmax", "40", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = out1.read_text().splitlines()
    assert len(rows) == 40 - 2 + 2  # header + j in [2, 40]
    manifest = json.loads(man.read_text())
    assert manifest["command"] == "sweep"
    assert manifest["flags"] == []
    assert manifest["spec"]["units"]["system"] == "normalized"
    assert manifest["outputs"] == [str(out1)]


RATE_CLI_REFS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "rate-cli"


def test_rate_cli_outputs_match_benchmark_refs(tmp_path, monkeypatch, capsys):
    # the benchmark's rate-cli jobs, byte for byte against its stored outputs
    monkeypatch.chdir(tmp_path)
    pairs = ((10, 8), (12, 10), (15, 13), (20, 18), (25, 23), (9, 6), (40, 37), (100, 98))
    outputs = []
    for j, jp in pairs:
        name = "rates-%d-%d.csv" % (j, jp)
        assert run_cli(["rates", "n1", "--j", str(j), "--jprime", str(jp), "--out", name]) == 0
        outputs.append(name)
    argv = ["sweep", "n1", "--jmax", "1000", "--out", "sweep.csv", "--plot", "sweep.svg"]
    assert run_cli(argv) == 0
    outputs += ["sweep.csv", "sweep.svg"]
    for kappa in ("exact", "half"):
        name = "quadrature-%s.csv" % kappa
        argv = ["sweep", "n1", "--jmax", "100", "--method", "quadrature", "--kappa", kappa,
                "--out", name]
        assert run_cli(argv) == 0
        outputs.append(name)
    capsys.readouterr()
    for name in outputs:
        assert (tmp_path / name).read_bytes() == (RATE_CLI_REFS / name).read_bytes(), name


def test_sweep_jmax_guard(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    doc = json.loads((_n1_text()))
    doc["numerics"] = {"j_max": 50}
    cfg.write_text(json.dumps(doc))
    code = run_cli(["sweep", str(cfg), "--jmax", "60", "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "exceeds basis limit" in capsys.readouterr().err


def test_sweep_rejects_empty_range(tmp_path, capsys):
    out = tmp_path / "s.csv"
    svg = tmp_path / "s.svg"
    code = run_cli(
        ["sweep", "n1", "--jmin", "10", "--jmax", "5", "--out", str(out), "--plot", str(svg)]
    )
    assert code == 2
    assert "jmin <= jmax" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _n1_text():
    from superrotor.params import builtin_config

    return builtin_config("n1")


def test_sweep_plot_svg(tmp_path):
    out = tmp_path / "s.csv"
    svg_path = tmp_path / "s.svg"
    assert run_cli(["sweep", "n1", "--jmax", "30", "--out", str(out), "--plot", str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert svg.startswith("<?xml")
    assert svg.count("<polyline") == 1
    assert ">j</text>" in svg
    assert "Gamma_j" in svg


def test_rate_plot_svg_handles_flat_data():
    svg = rate_plot_svg([2, 3, 4], [0.0, 0.0, 0.0])
    assert svg.count("<polyline") == 1


def test_propagate_fit_summary(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = run_cli(
        [
            "propagate", "n1", "--state", "centrifuge:8,10",
            "--tfinal", "0.0975", "--dt", "0.0012",
            "--kappa", "half", "--out", str(out), "--record-every", "1",
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    line = [l for l in captured.splitlines() if l.startswith("signal j=10")][0]
    fitted = float(line.split("fitted Gamma = ")[1].split(",")[0])
    gamma = rates_mod.gamma_closed_form(10, 8, _n1()).gamma
    assert fitted == pytest.approx(2 * gamma, rel=0.02)
    header = out.read_text().splitlines()[0]
    assert header == "t,trace,purity,min_eig,signal_j10"


def test_propagate_isotropic_stationary(tmp_path, capsys):
    out = tmp_path / "iso.csv"
    code = run_cli(
        [
            "propagate", "n1", "--state", "isotropic", "--jwindow", "2,5",
            "--tfinal", "0.5", "--dt", "0.01", "--out", str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    drift_line = [l for l in captured.splitlines() if l.startswith("max |rho")][0]
    assert float(drift_line.split("=")[1]) <= 1e-8
    assert out.read_text().splitlines()[0] == "t,trace,purity,min_eig"


def test_propagate_step_size_violation(tmp_path, capsys):
    code = run_cli(
        [
            "propagate", "n1", "--state", "centrifuge:8,10",
            "--tfinal", "1.0", "--dt", "0.5", "--out", str(tmp_path / "t.csv"),
        ]
    )
    assert code == 2
    # a run error, mapped before the ValueError it subclasses
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "step-size violation" in err


def test_propagate_record_every_guard(tmp_path, capsys):
    # a non-positive stride is a usage error (exit 2), not a crash or a
    # silent every-step recording
    for stride in ("0", "-3"):
        out = tmp_path / ("t%s.csv" % stride)
        code = run_cli(
            [
                "propagate", "n1", "--state", "centrifuge:2,4", "--tfinal", "0.05",
                "--dt", "0.005", "--record-every", stride, "--out", str(out),
            ]
        )
        assert code == 2
        assert "record_every" in capsys.readouterr().err
        assert not out.exists()


def test_propagate_gaussian_outside_window(tmp_path, capsys):
    # a profile with no weight on the layout used to become an all-NaN state
    out = tmp_path / "t.csv"
    code = run_cli(
        [
            "propagate", "n1", "--state", "gaussian:1000,0.1", "--jwindow", "2,4",
            "--tfinal", "0.01", "--dt", "0.001", "--out", str(out),
        ]
    )
    assert code == 2
    assert "center 1000 has no weight on j window [2, 4]" in capsys.readouterr().err
    assert not out.exists()


def test_propagate_state_file_and_dump(tmp_path, capsys):
    state_doc = {
        "type": "centrifuge",
        "coefficients": {"4": [0.8, 0.0], "6": [0.0, 0.6]},
    }
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(state_doc))
    out = tmp_path / "t.csv"
    dump = tmp_path / "final.bin"
    man = tmp_path / "m.json"
    code = run_cli(
        [
            "propagate", "n1", "--state", str(state_path),
            "--tfinal", "0.05", "--dt", "0.002",
            "--out", str(out), "--dump", str(dump), "--manifest", str(man),
        ]
    )
    assert code == 0
    final = lb.read_state_binary(dump)
    assert final.layout == lb.BasisLayout(2, 6)
    assert final.time == pytest.approx(0.05)
    manifest = json.loads(man.read_text())
    assert manifest["outputs"] == [str(out), str(dump)]
    assert manifest["flags"] == []


def test_propagate_drift_exits_nonconverged(tmp_path, capsys, monkeypatch):
    # a dissipator whose chain generator leaks trace at rate 5e-9 drifts
    # past the state tolerance mid-run: exit 3 (numerical drift), not 2
    # (config error)
    build = lb.build_dissipator

    def leaky(*args, **kwargs):
        dset = build(*args, **kwargs)
        dset.kmat = dset.kmat - 5e-9 / dset.collision_weight
        return dset

    monkeypatch.setattr(lb, "build_dissipator", leaky)
    code = run_cli(
        [
            "propagate", "n1", "--state", "centrifuge:2,4",
            "--tfinal", "1.0", "--dt", "0.001", "--out", str(tmp_path / "t.csv"),
        ]
    )
    assert code == 3
    assert "trace drift" in capsys.readouterr().err


def test_propagate_non_finite_generator_exits_nonconverged(tmp_path, capsys, monkeypatch):
    # an inf in kmat makes every chain generator non-finite: exit 3
    # (numerical drift), not a config error from inside eig
    build = lb.build_dissipator

    def broken(*args, **kwargs):
        dset = build(*args, **kwargs)
        dset.kmat = np.full_like(dset.kmat, np.inf)
        return dset

    monkeypatch.setattr(lb, "build_dissipator", broken)
    out = tmp_path / "t.csv"
    code = run_cli(
        [
            "propagate", "n1", "--state", "centrifuge:2,4",
            "--tfinal", "0.05", "--dt", "0.001", "--out", str(out),
        ]
    )
    assert code == 3
    assert "chain generator is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_huge_anisotropy_is_a_config_error(tmp_path, capsys):
    doc = json.loads(_n1_text())
    doc["molecule"]["alpha_aniso"] = 1e300
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(doc))
    for argv in (
        ["rates", str(cfg), "--j", "4", "--jprime", "2", "--out", str(tmp_path / "r.csv")],
        ["propagate", str(cfg), "--state", "centrifuge:2,4", "--tfinal", "0.05",
         "--dt", "0.001", "--out", str(tmp_path / "t.csv")],
    ):
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "alpha_aniso" in err
        assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "section, key, raw, command",
    [
        ("gas", "density", "NaN", ["rates", "--j", "4", "--jprime", "2"]),
        ("gas", "density", "NaN", ["propagate", "--state", "centrifuge:2,4", "--tfinal", "0.05",
                                   "--dt", "0.001"]),
        ("gas", "c6", "Infinity", ["rates", "--j", "4", "--jprime", "2"]),
        ("molecule", "alpha_mean", "Infinity", ["rates", "--j", "4", "--jprime", "2"]),
        ("molecule", "moment_of_inertia", "NaN", ["propagate", "--state", "centrifuge:2,4",
                                                  "--tfinal", "0.05", "--dt", "0.001"]),
        ("numerics", "b_max", "NaN", ["validate", "--only", "optical theorem"]),
        ("numerics", "j_max", "1e999", ["sweep", "--jmax", "10"]),
        ("numerics", "quad_order_q", "47.9", ["rates", "--j", "4", "--jprime", "2"]),
        ("molecule", "mass", "true", ["rates", "--j", "4", "--jprime", "2"]),
    ],
)
def test_non_finite_config_number_is_a_config_error(tmp_path, capsys, monkeypatch, section, key,
                                                    raw, command):
    # these used to print gamma = nan or inf, a silent zero anisotropy, a
    # drift error (exit 3), a failed criterion (exit 1) or a traceback; a
    # fractional order ran at order 47, and true loaded as the mass 1
    doc = json.loads(_n1_text())
    doc.setdefault(section, {})[key] = "@"
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc).replace('"@"', raw))
    argv = command[:1] + [str(cfg)] + command[1:]
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {section}.{key} ") and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_overflowing_collision_weight_exits_nonconverged(tmp_path):
    # a finite density whose collision weight overflows passes the schema;
    # build_dissipator refuses that weight before any numpy work, which
    # every command reports as numerical drift (exit 3) in one line, with
    # no warning ahead of it.  validate used to die with a traceback and
    # exit 1, the code of a failed criterion
    doc = json.loads(_n1_text())
    doc["gas"]["density"] = 1e308
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(doc))
    for argv in (
        ["validate", str(cfg)],
        ["propagate", str(cfg), "--state", "centrifuge:2,4", "--tfinal", "0.05",
         "--dt", "0.001", "--out", str(tmp_path / "t.csv")],
    ):
        proc = run_module(argv, tmp_path)
        assert proc.returncode == 3, proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert errors == ["error: collision weight inf is not finite"]
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert proc.stdout == ""
    assert not list(tmp_path.glob("*.csv"))


def test_propagate_manifest_diagnostics(tmp_path, capsys):
    # the worst deviations propagate saw over its checked frames, and the
    # shape of the chains it propagated, reach the run manifest
    man = tmp_path / "m.json"
    code = run_cli(
        [
            "propagate", "n1", "--state", "centrifuge:8,10", "--tfinal", "0.1",
            "--dt", "0.001", "--out", str(tmp_path / "t.csv"), "--manifest", str(man),
        ]
    )
    assert code == 0
    diag = json.loads(man.read_text())["diagnostics"]
    assert diag["steps"] == 100
    assert 0.0 < diag["dt_max_delta"] <= 0.1
    # every step is recorded, so the recorded frames are dt apart
    assert diag["recorded_spacing_max_delta"] == diag["dt_max_delta"]
    assert 0.0 <= diag["max_trace_deviation"] <= lb.TRACE_TOL
    assert 0.0 <= diag["max_hermiticity_deviation"] <= lb.HERM_TOL
    assert lb.EIG_FLOOR <= diag["min_eigenvalue"] <= 1e-12
    # the stretched corners of blocks 8 and 10 occupy four chains
    assert (diag["chains"], diag["entries"], diag["largest_chain"]) == (4, 72, 21)
    assert 0.0 <= diag["reconstruction_miss"] <= lb.EIG_RECON_TOL
    # the linearized chain generators are real and symmetric: each takes eigh
    assert (diag["chains_eigh"], diag["chains_eig"]) == (4, 0)
    # the dissipator's order-doubling drift, the radial one of n1
    assert diag["dissipator"]["converged"] is True
    assert 0.0 < diag["dissipator"]["order_doubling_drift"] <= 1e-12


def run_state_file(tmp_path, doc):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    return run_cli(["propagate", "n1", "--state", str(path), "--tfinal", "0.1",
                    "--dt", "0.01", "--out", str(tmp_path / "t.csv")])


def test_propagate_state_file_missing_field(tmp_path, capsys):
    assert run_state_file(tmp_path, {"type": "centrifuge"}) == 2
    assert "no 'coefficients' field" in capsys.readouterr().err


def test_propagate_state_file_not_an_object(tmp_path, capsys):
    assert run_state_file(tmp_path, [{"type": "centrifuge"}]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_propagate_state_file_empty_field(tmp_path, capsys):
    assert run_state_file(tmp_path, {"type": "isotropic", "populations": {}}) == 2
    assert "'populations' must be a nonempty object" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["coefficients", "populations"])
@pytest.mark.parametrize(
    "levels, key", [(("4", "04"), "04"), (("4.0",), "4.0"), (("-1", "2"), "-1")],
    ids=["repeated", "fraction", "negative"],
)
def test_propagate_state_file_levels_are_distinct_integers(tmp_path, capsys, field, levels,
                                                           key):
    # "4" and "04" used to merge into one level and propagate the pure
    # state |44> with exit 0; "4.0" and "-1" leaked int()'s message or the
    # layout's own check
    kind = "centrifuge" if field == "coefficients" else "isotropic"
    doc = {"type": kind, field: {level: 0.5 for level in levels}}
    assert run_state_file(tmp_path, doc) == 2
    message = ("config error: state file field %r takes distinct integer levels j >= 0 "
               "as keys (got %r)" % (field, key))
    assert message in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_propagate_state_file_null_coefficient(tmp_path, capsys):
    doc = {"type": "centrifuge", "coefficients": {"2": None}}
    assert run_state_file(tmp_path, doc) == 2
    assert "field 'coefficients' holds None" in capsys.readouterr().err


def test_propagate_state_file_nested_population(tmp_path, capsys):
    doc = {"type": "isotropic", "populations": {"2": [1, 2]}}
    assert run_state_file(tmp_path, doc) == 2
    assert "field 'populations' holds [1, 2]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, weights",
    [("coefficients", {"8": 0, "10": [0.0, 0.0]}), ("coefficients", {"8": math.inf}),
     ("coefficients", {"8": 1e200}), ("populations", {"8": 1e308, "10": 1e308}),
     ("populations", {"8": math.inf})],
    ids=["zero", "infinity", "square-overflows", "sum-overflows", "population-infinity"],
)
def test_propagate_weights_that_cannot_be_normalized(tmp_path, field, weights):
    # an overflow is a config error naming the field, not an OverflowError
    # traceback with exit code 1, and so is Infinity, not a trace drift
    path = tmp_path / "state.json"
    kind = "centrifuge" if field == "coefficients" else "isotropic"
    path.write_text(json.dumps({"type": kind, field: weights}))
    src = os.path.dirname(os.path.dirname(lb.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "superrotor.cli", "propagate", "n1", "--state", str(path),
         "--tfinal", "0.1", "--dt", "0.01", "--out", str(tmp_path / "t.csv")],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "config error: %s have total" % field in proc.stderr
    assert "Traceback" not in proc.stderr and not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "state, times",
    [
        ({"type": "centrifuge", "coefficients": {"2": 0, "4": 0.0}}, ("0.1", "0.01")),
        ({"type": "isotropic", "populations": {"2": 0, "3": 0}}, ("0.1", "0.01")),
        ("gaussian:inf,1", ("0.1", "0.01")),
        ("gaussian:1e400,1", ("0.1", "0.01")),
        ("gaussian:5,inf", ("0.1", "0.01")),
        ("centrifuge:2,4", ("inf", "0.01")),
        ("centrifuge:2,4", ("0.1", "nan")),
        ("centrifuge:2,4", ("1e300", "1e-300")),
    ],
)
def test_propagate_malformed_numbers_are_config_errors(tmp_path, state, times):
    # each used to escape as a ZeroDivisionError or OverflowError traceback
    # with exit code 1
    if isinstance(state, dict):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        state = str(path)
    src = os.path.dirname(os.path.dirname(lb.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "superrotor.cli", "propagate", "n1", "--state", state,
         "--tfinal", times[0], "--dt", times[1], "--out", str(tmp_path / "t.csv")],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "state,window", [("isotropic", ["--jwindow", "0,1001"]), ("gaussian:5,1e8", [])]
)
def test_propagate_layout_beyond_basis_limit_is_config_error(tmp_path, state, window):
    # numerics.j_max (1000 for n1) bounds the layout before any state is
    # built: the isotropic window used to die allocating its dense state, and
    # the Gaussian would build a profile over 2e8 blocks
    src = os.path.dirname(os.path.dirname(lb.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "superrotor.cli", "propagate", "n1", "--state", state]
        + window + ["--tfinal", "0.1", "--dt", "0.001", "--out", str(tmp_path / "t.csv")],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr and "exceeds basis limit 1000" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "t.csv").exists()


def run_module(args, cwd, timeout=120):
    src = os.path.dirname(os.path.dirname(lb.__file__))
    return subprocess.run(
        [sys.executable, "-m", "superrotor.cli"] + list(args),
        cwd=cwd, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=timeout,
    )


PROPAGATE_24 = [
    "propagate", "n1", "--state", "centrifuge:2,4", "--tfinal", "0.01", "--dt", "0.001"
]


@pytest.mark.parametrize(
    "args",
    [
        ["rates", "n1", "--j", "10", "--jprime", "8", "--out", "missing/r.csv"],
        ["rates", "n1", "--j", "10", "--jprime", "8", "--out", "dirout"],
        ["sweep", "n1", "--jmax", "6", "--plot", "missing/s.svg"],
        PROPAGATE_24 + ["--dump", "missing/x.bin"],
        PROPAGATE_24 + ["--manifest", "missing/m.json"],
        PROPAGATE_24 + ["--out", "dirout"],
        # the rename of an atomic write would replace the FIFO (or a device
        # node) with a regular file
        PROPAGATE_24 + ["--out", "fifo"],
        ["validate", "--only", "closed-form prefactor", "--json", "dirout"],
        # checked before any work: at j in [20, 40] the dissipator takes
        # seconds, and this dt would otherwise stop the run as a step-size
        # violation once it is built
        ["propagate", "n1", "--state", "gaussian:30,5", "--jwindow", "20,40",
         "--tfinal", "0.05", "--dt", "0.01", "--out", "missing/t.csv"],
        # two options naming one file would leave only the last write
        ["propagate", "n1", "--state", "gaussian:30,5", "--jwindow", "20,40",
         "--tfinal", "0.05", "--dt", "0.01", "--out", "t.csv", "--dump", "t.csv"],
        ["sweep", "n1", "--jmax", "6", "--out", "s.csv", "--plot", "s.csv", "--manifest", "s.csv"],
        ["sweep", "n1", "--jmax", "6", "--out", "s.csv", "--plot", "./s.csv"],
        ["rates", "n1", "--j", "4", "--jprime", "2", "--out", "r.csv", "--manifest", "r.csv"],
        ["validate", "--json", "v.json", "--manifest", "dirout/../v.json"],
        # an empty path would be skipped, or fail after the run
        ["rates", "n1", "--j", "4", "--jprime", "2", "--manifest", ""],
        ["rates", "n1", "--j", "4", "--jprime", "2", "--out", ""],
        ["sweep", "n1", "--jmax", "6", "--plot", ""],
        PROPAGATE_24 + ["--dump", ""],
        ["validate", "--json", ""],
    ],
)
def test_unwritable_output_is_usage_error(tmp_path, args):
    (tmp_path / "dirout").mkdir()
    os.mkfifo(tmp_path / "fifo")
    proc = run_module(args, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "error: cannot write" in proc.stderr and "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["dirout", "fifo"]
    assert stat.S_ISFIFO(os.stat(tmp_path / "fifo").st_mode)


def test_failed_write_leaves_no_temporary(tmp_path):
    # past the path check, a failing rename still removes the temporary
    # file, for text and for a binary dump alike, and so does a failure
    # while writing that is not an OSError
    target = tmp_path / "dirout"
    target.mkdir()
    with pytest.raises(OutputError, match="cannot write"):
        _atomic_write(str(target), ["text"])
    rho = lb.isotropic_state(lb.BasisLayout(0, 1), {0: 0.5, 1: 0.5})
    with pytest.raises(OutputError, match="cannot write"):
        _atomic_write(str(target), lb.state_dump(rho))
    with pytest.raises(TypeError):
        _atomic_write(str(tmp_path / "t.csv"), ["text", None])
    assert [p.name for p in tmp_path.iterdir()] == ["dirout"]


def test_propagate_too_many_frames_is_config_error(tmp_path):
    # 1e10 steps of 1e-7 pass the step-size guard; recording every one of
    # them is 1e10 frames, and the run used to loop over every step and
    # never end
    proc = run_module(
        ["propagate", "n1", "--state", "centrifuge:2,4", "--tfinal", "1e3", "--dt", "1e-7",
         "--record-every", "1", "--out", "t.csv"],
        tmp_path, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "config error: propagate would evaluate" in proc.stderr
    assert "Traceback" not in proc.stderr and not (tmp_path / "t.csv").exists()


def test_propagate_and_validate_do_not_import_numpy_ma(tmp_path):
    # np.unique loads numpy.ma on first use (numpy 2.4), about 10 ms of every
    # cold run
    script = "\n".join([
        "import sys",
        "from superrotor.cli import main",
        "assert main(%r + ['--out', 't.csv']) == 0" % PROPAGATE_24,
        "assert main(['validate']) == 0",
        "print('numpy.ma' in sys.modules)",
    ])
    src = os.path.dirname(os.path.dirname(lb.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_propagate_bad_state(capsys):
    assert run_cli(["propagate", "n1", "--state", "isotropic",
                    "--tfinal", "0.1", "--dt", "0.01"]) == 2
    assert "jwindow" in capsys.readouterr().err


@pytest.mark.parametrize("window", ["5", "5,x", "1,2,3"])
def test_propagate_malformed_jwindow(window, tmp_path, capsys):
    code = run_cli(["propagate", "n1", "--state", "centrifuge:2,4", "--jwindow", window,
                    "--tfinal", "0.1", "--dt", "0.01", "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "config error: --jwindow takes 'jmin,jmax' (got %r)" % window in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "state, window", [("centrifuge:2,4", "5,3"), ("isotropic", "-1,3"),
                      ("centrifuge:8,10", "2,5"), ("centrifuge:2,4", "3,6")]
)
def test_propagate_jwindow_out_of_range(state, window, tmp_path, capsys, monkeypatch):
    # a reversed or negative window, or one that leaves out a level of the
    # state, used to fail in the layout ("need 0 <= j_min <= j_max",
    # "j=8 outside layout [2, 5]") without naming the option
    def no_layout(*args, **kwargs):
        raise AssertionError("layout built")

    monkeypatch.setattr(lb, "BasisLayout", no_layout)
    # "--jwindow -1,3" would be an unknown option to argparse
    code = run_cli(["propagate", "n1", "--state", state, "--jwindow=" + window,
                    "--tfinal", "0.1", "--dt", "0.01", "--out", str(tmp_path / "t.csv")])
    assert code == 2
    message = ("config error: --jwindow takes 'jmin,jmax' (got %r) with integers "
               "0 <= jmin <= jmax around every level of --state" % window)
    assert message in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_propagate_malformed_state(tmp_path, capsys, monkeypatch):
    # each input is rejected with the option's form before any layout is
    # built; they used to leak int()'s message or the layout's own checks,
    # and a repeated level propagated the state of the levels named once
    def no_layout(*args, **kwargs):
        raise AssertionError("layout built")

    monkeypatch.setattr(lb, "BasisLayout", no_layout)
    out = tmp_path / "t.csv"
    centrifuge = ("config error: --state takes 'centrifuge:j1,j2,...' with distinct integers "
                  "j >= 0 (got %r)")
    gaussian = ("config error: --state takes 'gaussian:center,width' with finite width > 0 "
                "and center + 2 width >= 0 (got %r)")
    for state, form in (("centrifuge:a", centrifuge), ("centrifuge:-2,4", centrifuge),
                        ("centrifuge:", centrifuge), ("centrifuge:4,4", centrifuge),
                        ("centrifuge:2,4,2", centrifuge), ("gaussian:5,-1", gaussian),
                        ("gaussian:-9,1", gaussian), ("gaussian:5,0", gaussian),
                        ("gaussian:5", gaussian), ("gaussian:x,1", gaussian),
                        ("gaussian:inf,1", gaussian)):
        code = run_cli(["propagate", "n1", "--state", state, "--tfinal", "0.1", "--dt", "0.01",
                        "--out", str(out)])
        assert code == 2
        assert form % state in capsys.readouterr().err
    assert not out.exists()


def test_propagate_signal_checked_before_run(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("propagation started")

    monkeypatch.setattr(lb, "build_dissipator", no_run)
    out = tmp_path / "traj.csv"
    # centrifuge:8,10 gives the layout [6, 10]
    outside = "layout [6, 10]"
    malformed = "config error: --signal takes 'j1,j2,...' (got %r)"
    repeated = "config error: --signal repeats a level (got %r)"
    for signal, message in (("7", outside), ("12", outside), ("1", outside), ("8,7", outside),
                            ("4,x", malformed % "4,x"), ("4,", malformed % "4,"),
                            ("4,4", repeated % "4,4"), ("10,8,10", repeated % "10,8,10")):
        code = run_cli(["propagate", "n1", "--state", "centrifuge:8,10", "--tfinal", "0.1",
                        "--dt", "0.01", "--signal", signal, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_validate_filtered(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = run_cli(
        [
            "validate", "--only",
            "closed-form prefactor,small-j guard values,radial integral table",
            "--json", str(report),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert captured.count("[PASS]") == 3
    doc = json.loads(report.read_text())
    assert doc["all_passed"] is True
    assert len(doc["criteria"]) == 3


def test_validate_unknown_criterion(capsys):
    assert run_cli(["validate", "--only", "no-such-check"]) == 2
    assert "unknown criteria" in capsys.readouterr().err


def test_validate_only_names_no_criterion(capsys):
    # used to run nothing and pass with "0/0 criteria passed"
    for only in (",", "", " , "):
        assert run_cli(["validate", "--only", only]) == 2
        captured = capsys.readouterr()
        assert "names no criterion" in captured.err and "criteria passed" not in captured.out


def test_validate_negative_control(tmp_path, capsys, monkeypatch):
    # on n1 the eikonal strength a(q_th) is 1, so raising it by 1e-8 moves
    # gamma/A by 0.8e-8 of its 0.563, past the criterion's 1e-9 bound
    strength = rates_mod.eikonal_strength
    monkeypatch.setattr(rates_mod, "eikonal_strength",
                        lambda q, spec: (1.0 + 1e-8) * strength(q, spec))
    code = run_cli(["validate", "--only", "closed-form prefactor"])
    captured = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] closed-form prefactor" in captured


def test_validate_manifest_records_criteria(tmp_path, capsys):
    # the manifest's diagnostics hold each criterion's verdict and runtime,
    # in the order they ran, as the report prints them
    man = tmp_path / "v.json"
    only = ["closed-form prefactor", "small-j guard values"]
    assert run_cli(["validate", "--only", ",".join(only), "--manifest", str(man)]) == 0
    doc = json.loads(man.read_text())
    criteria = doc["diagnostics"]["criteria"]
    assert list(criteria) == only and doc["flags"] == []
    out = capsys.readouterr().out
    for name, rec in criteria.items():
        assert rec["passed"] is True and 0.0 <= rec["runtime_s"] < math.inf
        assert "[PASS] %-32s" % name in out and "(%.2fs)" % rec["runtime_s"] in out


def test_module_entry_point(tmp_path):
    out = tmp_path / "r.csv"
    proc = subprocess.run(
        [
            sys.executable, "-m", "superrotor.cli",
            "rates", "n1", "--j", "4", "--jprime", "2", "--out", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "gamma =" in proc.stdout
    assert out.exists()


def test_cli_paths_do_not_import_scipy(tmp_path):
    # scipy adds about 29 MB of RSS to every process; only the evolve_exact
    # cross-check imports it
    script = "\n".join([
        "import sys",
        "from superrotor.cli import main",
        "assert main(['propagate', 'n1', '--state', 'centrifuge:2,4', '--tfinal', '0.01',"
        " '--dt', '0.001', '--out', 't.csv']) == 0",
        "assert main(['sweep', 'n1', '--jmax', '12', '--method', 'quadrature',"
        " '--out', 's.csv']) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    src = os.path.dirname(os.path.dirname(lb.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_package_runs_without_scipy(tmp_path):
    # scipy is a test dependency only, and the package defines no
    # dataclasses: with every scipy and dataclasses import failing, each
    # module imports and validate, a spectral propagate and a quadrature
    # sweep all run
    root = os.path.dirname(os.path.dirname(os.path.dirname(lb.__file__)))
    script = "\n".join([
        "import importlib, pkgutil, sys",
        "class Blocked:",
        "    def find_spec(self, name, path=None, target=None):",
        "        if name.split('.')[0] in ('scipy', 'dataclasses'):",
        "            raise ImportError('%s is blocked' % name)",
        "sys.meta_path.insert(0, Blocked())",
        "import superrotor",
        "for mod in pkgutil.iter_modules(superrotor.__path__):",
        "    importlib.import_module('superrotor.' + mod.name)",
        "from superrotor.cli import main",
        "assert main(['validate']) == 0",
        "assert main(['propagate', %r, '--state', 'centrifuge:2,4', '--jwindow', '2,4',"
        " '--backend', 'spectral', '--tfinal', '4', '--dt', '0.1', '--out', 't.csv']) == 0"
        % os.path.join(root, "perfbench", "spectral_chain.json"),
        "assert main(['sweep', 'n1', '--jmax', '12', '--method', 'quadrature',"
        " '--out', 's.csv']) == 0",
        "print('ok')",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


def test_linearized_propagate_does_not_import_scattering(tmp_path):
    # the linearized dissipator reads the template bands of rates; only the
    # spectral family loads scattering, for its fractional-power shapes
    root = os.path.dirname(os.path.dirname(os.path.dirname(lb.__file__)))
    script = "\n".join([
        "import sys",
        "from superrotor.cli import main",
        "assert main(['propagate', 'n1', '--state', 'centrifuge:2,4', '--tfinal', '0.01',"
        " '--dt', '0.001', '--out', 'l.csv']) == 0",
        "print('linearized', 'superrotor.scattering' in sys.modules)",
        "assert main(['propagate', %r, '--state', 'centrifuge:2,4', '--jwindow', '2,4',"
        " '--backend', 'spectral', '--tfinal', '4', '--dt', '0.1', '--out', 's.csv']) == 0"
        % os.path.join(root, "perfbench", "spectral_chain.json"),
        "print('spectral', 'superrotor.scattering' in sys.modules)",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "linearized False" in lines
    assert lines[-1] == "spectral True"


def test_rate_commands_do_not_import_propagation(tmp_path):
    # rates and sweep run in short-lived processes; lindblad and validation
    # cost them import time they never use, the closed-form commands need
    # neither numpy nor the quadrature modules, and the linearized
    # quadrature route runs on mathkit's floats without numpy or scattering.
    # No record class generates methods at import, so none of them loads
    # dataclasses or, through it, inspect
    script = "\n".join([
        "import sys",
        "import superrotor.params, superrotor.rates",
        "from superrotor.cli import main",
        "assert main(['rates', 'n1', '--j', '10', '--jprime', '8', '--out', 'r.csv']) == 0",
        "assert main(['sweep', 'n1', '--jmax', '1000', '--out', 'c.csv',"
        " '--plot', 'c.svg']) == 0",
        "print('closed form loaded', sorted(m for m in ('numpy', 'superrotor.mathkit',"
        " 'superrotor.scattering') if m in sys.modules))",
        "assert main(['sweep', 'n1', '--jmax', '12', '--method', 'quadrature',"
        " '--out', 's.csv']) == 0",
        "assert main(['rates', 'n1', '--j', '10', '--jprime', '8', '--method', 'quadrature',"
        " '--out', 'q.csv']) == 0",
        "assert main(['sweep', 'n1', '--jmax', '100', '--method', 'quadrature',"
        " '--out', 'h.csv']) == 0",
        "print('quadrature loaded', sorted(m for m in ('numpy', 'superrotor.scattering')"
        " if m in sys.modules))",
        "print('record machinery loaded', sorted(m for m in ('dataclasses', 'inspect')"
        " if m in sys.modules))",
        "print(sorted(m for m in ('superrotor.lindblad', 'superrotor.validation')"
        " if m in sys.modules))",
    ])
    src = os.path.dirname(os.path.dirname(lb.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "closed form loaded []" in lines
    assert "quadrature loaded []" in lines
    assert "record machinery loaded []" in lines
    assert lines[-1] == "[]"
    assert (tmp_path / "s.csv").read_text().count("quadrature") == 11
    assert (tmp_path / "h.csv").read_text().count("quadrature") == 99


# spectral gamma_numeric(4, 2) on n1 with alpha_aniso = 0.03, as computed
# when the quadrature rules came from numpy's leggauss
SPECTRAL_GAMMA_4_2 = 6.941052661164971e-07


def test_spectral_rate_after_numpy_free_commands(tmp_path):
    # the spectral backend loads numpy and scattering on its first call, in
    # a process whose rate commands ran without them
    script = "\n".join([
        "import json, sys",
        "from superrotor import params, rates",
        "from superrotor.cli import main",
        "assert main(['sweep', 'n1', '--jmax', '20', '--method', 'quadrature',"
        " '--out', 'h.csv']) == 0",
        "assert 'numpy' not in sys.modules",
        "doc = json.loads(params.builtin_config('n1'))",
        "doc['molecule']['alpha_aniso'] = 0.03",
        "spec = params.load_config(json.dumps(doc))",
        "res = rates.gamma_numeric(4, 2, spec, amplitude_backend='spectral')",
        "print(repr(float(res.gamma)), res.converged)",
    ])
    src = os.path.dirname(os.path.dirname(lb.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    gamma, converged = proc.stdout.splitlines()[-1].split()
    assert converged == "True"
    assert abs(float(gamma) - SPECTRAL_GAMMA_4_2) <= 1e-12 * SPECTRAL_GAMMA_4_2


def test_shipped_configs_load(tmp_path):
    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    for name in ("n1.json", "nitrogen_helium_si.json"):
        out = tmp_path / ("%s.csv" % name)
        code = run_cli(["rates", str(root / name), "--j", "10", "--jprime", "8", "--out", str(out)])
        assert code == 0