import json
import os
import subprocess
import sys

import numpy as np
import pytest

import superrotor.rates as rates_mod
from superrotor import lindblad as lb
from superrotor.cli import main, rate_plot_svg


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
    assert "step-size violation" in capsys.readouterr().err


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


def test_propagate_manifest_diagnostics(tmp_path, capsys):
    # the worst deviations propagate saw over its checked frames reach the
    # run manifest
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
    assert 0.0 <= diag["max_trace_deviation"] <= lb.TRACE_TOL
    assert 0.0 <= diag["max_hermiticity_deviation"] <= lb.HERM_TOL
    assert lb.EIG_FLOOR <= diag["min_eigenvalue"] <= 1e-12


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


def test_propagate_state_file_null_coefficient(tmp_path, capsys):
    doc = {"type": "centrifuge", "coefficients": {"2": None}}
    assert run_state_file(tmp_path, doc) == 2
    assert "field 'coefficients' holds None" in capsys.readouterr().err


def test_propagate_state_file_nested_population(tmp_path, capsys):
    doc = {"type": "isotropic", "populations": {"2": [1, 2]}}
    assert run_state_file(tmp_path, doc) == 2
    assert "field 'populations' holds [1, 2]" in capsys.readouterr().err


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


def test_propagate_bad_state(capsys):
    assert run_cli(["propagate", "n1", "--state", "isotropic",
                    "--tfinal", "0.1", "--dt", "0.01"]) == 2
    assert "jwindow" in capsys.readouterr().err


def test_propagate_signal_checked_before_run(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("propagation started")

    monkeypatch.setattr(lb, "build_dissipator", no_run)
    out = tmp_path / "traj.csv"
    # centrifuge:8,10 gives the layout [6, 10]
    for signal in ("7", "12", "1", "8,7"):
        code = run_cli(["propagate", "n1", "--state", "centrifuge:8,10", "--tfinal", "0.1",
                        "--dt", "0.01", "--signal", signal, "--out", str(out)])
        assert code == 2
        assert "layout [6, 10]" in capsys.readouterr().err
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
    monkeypatch.setattr(rates_mod, "_PREFACTOR_SCALE", 1.0 + 5e-9)
    code = run_cli(["validate", "--only", "closed-form prefactor"])
    captured = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] closed-form prefactor" in captured


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
    # scipy is a test dependency only: with every scipy import failing, each
    # module imports and validate, a spectral propagate and a quadrature
    # sweep all run
    root = os.path.dirname(os.path.dirname(os.path.dirname(lb.__file__)))
    script = "\n".join([
        "import importlib, pkgutil, sys",
        "class NoScipy:",
        "    def find_spec(self, name, path=None, target=None):",
        "        if name.split('.')[0] == 'scipy':",
        "            raise ImportError('scipy is blocked')",
        "sys.meta_path.insert(0, NoScipy())",
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


def test_rate_commands_do_not_import_propagation(tmp_path):
    # rates and sweep run in short-lived processes; lindblad and validation
    # cost them import time they never use
    script = "\n".join([
        "import sys",
        "from superrotor.cli import main",
        "assert main(['rates', 'n1', '--j', '10', '--jprime', '8', '--out', 'r.csv']) == 0",
        "assert main(['sweep', 'n1', '--jmax', '12', '--method', 'quadrature',"
        " '--out', 's.csv']) == 0",
        "print(sorted(m for m in ('superrotor.lindblad', 'superrotor.validation')"
        " if m in sys.modules))",
    ])
    src = os.path.dirname(os.path.dirname(lb.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_shipped_configs_load(tmp_path):
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    for name in ("n1.json", "nitrogen_helium_si.json"):
        out = tmp_path / ("%s.csv" % name)
        code = run_cli(["rates", str(root / name), "--j", "10", "--jprime", "8", "--out", str(out)])
        assert code == 0