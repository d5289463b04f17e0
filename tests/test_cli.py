import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbic import cli
from cbic.cli import run
from cbic.config import ConfigError, load_config, parse_measure
from cbic.ergodicity import estimate_wv_decay, wv_exact_discrete
from cbic.mechanisms import CompetitionMechanism, QuadratureError
from cbic.simulator import EnsembleResult, SimulationError, simulate_coupled_ensemble

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _run_recording(argv):
    """(exit code, stderr, RuntimeWarnings as "file:line: message") of one CLI run."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(argv)
    runtime = [
        f"{os.path.basename(w.filename)}:{w.lineno}: {w.message}"
        for w in caught
        if issubclass(w.category, RuntimeWarning)
    ]
    return code, err.getvalue(), runtime


@pytest.fixture()
def ergodic_cfg(tmp_path):
    dst = tmp_path / "model.cfg"
    shutil.copy(os.path.join(CONFIGS, "ergodic_v1.cfg"), dst)
    return str(dst)


class TestConfigParsing:
    def test_roundtrip_of_shipped_configs(self):
        for name in ("ergodic_v1.cfg", "critical_cbi.cfg", "neveu_xlog.cfg",
                     "stable_power_vlog.cfg"):
            run_cfg = load_config(os.path.join(CONFIGS, name))
            assert run_cfg.sim.n_paths >= 1
            assert run_cfg.weight.kind in ("v1", "vlog")

    def test_measure_grammar(self):
        m = parse_measure("atoms 2.0:1.0 + uniform rate=1.0 lo=0.0 hi=1.0", "test")
        assert m.kind == "sum"
        assert m.atoms() == ((2.0, 1.0),)
        with pytest.raises(ConfigError, match="unknown measure kind"):
            parse_measure("gaussian mean=0", "test")
        with pytest.raises(ConfigError, match="stable needs"):
            parse_measure("stable alpha=1.5", "test")
        # a sum needs spaces around "+", so an exponent sign is part of its number
        assert parse_measure("uniform rate=1e+0 lo=0.0 hi=1.0", "test").rate == 1.0
        m = parse_measure("uniform rate=2.5e+0 lo=0.0 hi=1.0 + atoms 2.0:1.0", "test")
        assert m.parts[0].rate == 2.5
        assert m.atoms() == ((2.0, 1.0),)

    def test_missing_section_is_diagnosed(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[immigration]\nbeta = 1.0\n")
        with pytest.raises(ConfigError, match=r"\[branching\]"):
            load_config(str(bad))

    def test_bad_field_is_diagnosed(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[branching]\nb = two\n")
        with pytest.raises(ConfigError, match="'b'"):
            load_config(str(bad))


class TestExitCodes:
    def test_simulate_success(self, ergodic_cfg, tmp_path):
        out = tmp_path / "out"
        code = run([
            "simulate", "--model", ergodic_cfg, "--out", str(out),
            "--paths", "64", "--t-end", "0.25",
        ])
        assert code == 0
        assert (out / "simulate.csv").exists()

    def test_zero_paths_is_usage_error(self, ergodic_cfg, capsys):
        code = run(["simulate", "--model", ergodic_cfg, "--paths", "0"])
        assert code == 2
        assert "paths" in capsys.readouterr().err

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[branching]\nmu = martian\n")
        code = run(["simulate", "--model", str(bad)])
        assert code == 2
        assert "mu" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self):
        assert run(["transmogrify"]) == 2

    @pytest.mark.parametrize("text", [
        "[branching]\nb = 0.5\n[sim]\neps = foo\n",
        "b = 0.5\n",
        "[branching]\nb = 0.5\nb = 0.6\n",
        "[branching]\nb = 0.5\n[immigration]\nbeta = 5%\n",
        "[branching]\nb = 0.5\nmu = atoms 2.0:x\n",
        "[branching]\nb = 0.5\n[sim]\npaths = 1.5\n",
        "[branching]\nb = 0.5\n[sim]\nseed = 2.5\n",
        "[branching]\nb = 0.5\n[sim]\ndt = 0\n",
        "[branching]\nb = 0.5\n[sim]\ndt = nan\n",
        "[branching]\nb = 0.5\n[sim]\nseed = -1\n",
        "[branching]\nb = nan\n",
        "[branching]\nb = 0.5\nc = inf\n",
        "[branching]\nb = 0.5\nmu = uniform rate=nan lo=0 hi=1\n",
        "[branching]\nb = 0.5\nmu = atoms 2.0:inf\n",
        "[branching]\nb = 0.5\nmu = uniform rate\n",
        "[branching]\nb = 0.5\nmu =\n",
        "[branching]\nb = 0.5\nmu = uniform rate=1 lo=0\n",
        "[branching]\nb = 0.5\nmu = atoms 2.0\n",
        "[branching]\nb = 0.5\nmu = atoms\n",
        "[branching]\nb = 0.5\nmu = stable alpha=1.5 sigma=-1\n",
        "[branching]\nb = 0.5\n[competition]\ng =\n",
        "[branching]\nb = 0.5\n[competition]\ng = power k=1\n",
        "[branching]\nb = 0.5\n[competition]\ng = xlog\n",
        "[branching]\nb = 0.5\n[competition]\ng = cubic\n",
        "[branching]\nb = 0.5\n[competition]\ng = linear a=-1\n",
        "[branching]\nb = 0.5\n[competition]\ng = power k=-1 p=1.5\n",
        "[branching]\nb = 0.5\n[sim]\nx_max = 0\n",
        "[branching]\nb = 0.5\n[certificate]\nweight = v2\n",
    ], ids=["eps", "no-section-header", "duplicate-option",
            "interpolation", "atom-mass", "fractional-paths", "fractional-seed",
            "zero-dt", "nan-dt", "negative-seed", "nan-b", "inf-c", "nan-rate", "inf-atom",
            "key-without-value", "empty-measure", "uniform-without-hi", "atom-without-mass",
            "atoms-without-entries", "negative-sigma", "empty-competition",
            "power-without-p", "xlog-without-k", "unknown-competition", "negative-slope",
            "negative-power-k", "zero-x-max", "unknown-weight"])
    def test_config_error_is_one_line(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        code = run(["lyapunov", "--model", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--dt", "0"],
        ["simulate", "--dt", "nan"],
        ["simulate", "--t-end", "-1"],
        ["simulate", "--eps", "-1"],
        ["simulate", "--seed", "-1"],
        # t_end / dt steps past an int64: refused before any step
        ["simulate", "--dt", "5e-324"],
        ["couple", "--dt", "5e-324"],
        ["simulate", "--dt", "1e-300", "--paths", "1"],
        ["simulate", "--dt", "1e-300", "--paths", "2"],
        ["simulate", "--dt", "1e-20", "--paths", "2"],
        ["couple", "--dt", "1e-300"],
        ["stationary", "--dt", "1e-300"],
        # past 2^63 steps only over burn-in plus the sampling span, not the config's t_end
        ["stationary", "--dt", "1e-18"],
        ["stationary", "--burn-in", "1e17"],
        ["stationary", "--burn-in", "1e300"],
        ["stationary", "--samples", "0"],
        ["stationary", "--samples", "-5"],
        ["stationary", "--burn-in", "nan"],
        ["rate", "--grid", "-1"],
        ["check-generator", "--grid", "0"],
    ], ids=lambda argv: " ".join(argv))
    def test_bad_argument_is_one_line(self, ergodic_cfg, tmp_path, capsys, argv):
        code = run([*argv, "--model", ergodic_cfg, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert len(err.strip().splitlines()) == 1

    def test_stationary_dt_is_checked_against_its_own_span(self, ergodic_cfg, tmp_path, capsys):
        # t_end / dt is 1e19 steps at the config's t_end, which stationary does not run;
        # at burn-in 0 and one sample per chain it runs zero steps
        with open(ergodic_cfg) as fh:
            text = fh.read().replace("t_end = 1.0", "t_end = 1e4")
        with open(ergodic_cfg, "w") as fh:
            fh.write(text)
        code = run(["stationary", "--model", ergodic_cfg, "--out", str(tmp_path / "st"),
                    "--dt", "1e-15", "--burn-in", "0", "--samples", "16"])
        err = capsys.readouterr().err
        assert code != 2, err
        assert "config error" not in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["rate", "--seed", "1"],
        ["lyapunov", "--dt", "1e-3"],
        ["check-generator", "--eps", "0.1"],
        ["stationary", "--paths", "8"],
        ["stationary", "--t-end", "1"],
        ["simulate", "--paths", "abc"],
    ], ids=lambda argv: " ".join(argv))
    def test_usage_error_is_one_line(self, ergodic_cfg, tmp_path, capsys, argv):
        # a flag the subcommand does not take, or a value of the wrong type
        code = run([*argv, "--model", ergodic_cfg, "--out", str(tmp_path)])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("cbic") and "error: " in err and argv[1] in err
        assert len(err.strip().splitlines()) == 1, err
        assert "usage:" not in err

    def test_missing_model_is_one_line(self, capsys):
        assert run(["simulate"]) == 2
        err = capsys.readouterr().err
        assert err == "cbic simulate: error: the following arguments are required: --model\n"

    def test_missing_config_file_is_one_line(self, tmp_path, capsys):
        code = run(["lyapunov", "--model", str(tmp_path / "absent.cfg")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config file ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["simulate", "--x0", "-1"],
        ["simulate", "--x0", "nan"],
        ["simulate", "--x0", "1e9"],
        ["couple", "--y0", "-1"],
        ["couple", "--x0", "1", "--y0", "2"],
        ["couple", "--x0", "nan"],
        ["couple", "--y0", "nan"],
        ["couple", "--x0", "1e9"],
    ], ids=lambda argv: " ".join(argv))
    def test_bad_start_is_one_line(self, ergodic_cfg, tmp_path, capsys, argv):
        # x_max is 1e8; the start is refused before any step or output file
        out = tmp_path / "out"
        code = run([*argv, "--model", ergodic_cfg, "--out", str(out),
                    "--paths", "4", "--t-end", "0.002"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "x_max" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_out_of_memory_is_one_line(self, ergodic_cfg, tmp_path, capsys):
        # 888 PiB: more than any address space holds, so the allocation fails at once
        code = run(["simulate", "--paths", str(10**18), "--model", ergodic_cfg,
                    "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command, name", [
        ("rate", "compute_rate_certificate"),
        ("stationary", "estimate_stationary"),
        ("couple", "simulate_coupled_ensemble"),
    ])
    def test_memory_error_exits_one(self, ergodic_cfg, tmp_path, capsys, monkeypatch,
                                    command, name):
        message = "Unable to allocate 74.5 GiB for an array"

        def fail(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, name, fail)
        code = run([command, "--model", ergodic_cfg, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: out of memory: {message}\n"

    def test_help_exits_zero(self, capsys):
        assert run(["rate", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: cbic rate [-h] --model MODEL")

    def test_one_parser_keeps_no_option_between_runs(self, ergodic_cfg, tmp_path, capsys):
        """Every run in a process parses with one parser, and no run's options reach the
        next: after ``rate --grid 5`` and a usage error, ``rate`` validates at its
        default grid of 101, and ``lyapunov`` after ``--weight v1`` uses the config's."""
        assert cli._build_parser() is cli._build_parser()
        dirs = [tmp_path / name for name in ("full", "small", "default")]
        assert run(["rate", "--model", ergodic_cfg, "--out", str(dirs[0]), "--grid", "101"]) == 0
        assert run(["rate", "--model", ergodic_cfg, "--out", str(dirs[1]), "--grid", "5"]) == 0
        capsys.readouterr()
        assert run(["rate", "--model", ergodic_cfg, "--grid", "x"]) == 2
        assert capsys.readouterr().err == \
            "cbic rate: error: argument --grid: invalid int value: 'x'\n"
        assert run(["rate", "--model", ergodic_cfg, "--out", str(dirs[2])]) == 0
        full, small, default = ((d / "certificate_margins.csv").read_bytes() for d in dirs)
        assert default == full != small
        assert (dirs[2] / "certificate.txt").read_bytes() == (dirs[0] / "certificate.txt").read_bytes()
        stable = os.path.join(CONFIGS, "stable_power_vlog.cfg")  # its config weight is vlog
        assert run(["lyapunov", "--model", stable, "--weight", "v1"]) == 1
        capsys.readouterr()
        assert run(["lyapunov", "--model", stable]) == 0
        assert capsys.readouterr().out.endswith(", weight vlog)\n")

    def test_certificate_ignores_removed_keys(self, tmp_path, capsys):
        # lambda0 and c0 always come from the search, and the grid from `rate
        # --grid`; a config that still sets them loads them as unknown keys
        shipped = os.path.join(CONFIGS, "ergodic_v1.cfg")
        with open(shipped) as fh:
            text = fh.read()
        path = tmp_path / "model.cfg"
        assert "[certificate]" in text
        for keys, argv in (("lambda0 = bar\nc0 = 0.5", ["--grid", "5"]), ("grid_nx = 5", [])):
            path.write_text(text.replace("[certificate]", "[certificate]\n" + keys))
            outs = []
            for model in (shipped, str(path)):
                assert run(["rate", "--model", model, "--out", str(tmp_path), *argv]) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["lyapunov", "check-generator"])
    def test_weight_outside_domain_exits_one(self, tmp_path, capsys, command):
        # the stable index 1/2 branching measure has no first moment
        code = run([
            command, "--model", os.path.join(CONFIGS, "stable_power_vlog.cfg"),
            "--weight", "v1", "--out", str(tmp_path),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: linear-growth weight")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("config, old, new, argv, code, message", [
        ("stable_power_vlog", "alpha = 0.5", "alpha = 1e-06",
         ["simulate", "--paths", "4", "--t-end", "0.002"], 1, "underflows"),
        ("stable_power_vlog", "alpha = 0.5", "alpha = 5e-324", ["lyapunov"], 1, "not a finite"),
        ("stable_power_vlog", "alpha = 0.5", "alpha = 5e-324", ["rate", "--grid", "11"], 1,
         "not a finite"),
        ("ergodic_v1", "c = 0.0", "c = 1e308", ["simulate", "--paths", "4", "--t-end", "0.002"],
         0, ""),
        ("ergodic_v1", "c = 0.0", "c = 1e308", ["couple", "--paths", "4", "--t-end", "0.002"],
         0, ""),
        ("ergodic_v1", "c = 0.0", "c = 1e308", ["rate", "--grid", "11"], 1, "degenerated"),
        ("ergodic_v1", "hi=1.0", "hi=1e308", ["lyapunov"], 1,
         "linear-growth weight needs finite first-moment tails"),
        ("ergodic_v1", "hi=1.0", "hi=1e308", ["lyapunov", "--weight", "vlog"], 1,
         "logarithmic weight needs finite log-moment tails"),
        ("ergodic_v1", "hi=1.0", "hi=1e308", ["rate", "--grid", "11"], 1, "non-triviality"),
        ("stable_power_vlog", "eps = 1e-4", "eps = 1e308",
         ["couple", "--paths", "4", "--t-end", "0.002", "--dt", "1e-3"], 1, "infinite moment"),
        ("neveu_xlog", "xlog k=1.0", "xlog k=1e308", ["lyapunov"], 1, "not a finite"),
        ("stable_power_vlog", "\na = 1.0\n", "\na = 1e308\n", ["lyapunov"], 1, "not a finite"),
        ("stable_power_vlog", "\na = 1.0\n", "\na = -1e308\n", ["lyapunov"], 1, "not a finite"),
        ("neveu_xlog", "sigma=1.0", "sigma=1e308", ["couple", "--paths", "4", "--t-end", "0.002"],
         1, "infinite moment"),
        ("neveu_xlog", "sigma=1.0", "sigma=1e308",
         ["stationary", "--samples", "32", "--burn-in", "0.01"], 1, "[lyapunov] vlog drift LV"),
        # an infinite-activity measure truncated at eps = 0 has infinitely many jumps per step
        ("stable_power_vlog", "eps = 1e-4", "eps = 0", ["couple", "--paths", "4", "--t-end", "0.001"], 1,
         "error: branching measure needs eps > 0 (infinite activity)"),
        ("ergodic_v1", "nu = none", "nu = stable alpha=0.5 sigma=1.0",
         ["simulate", "--paths", "4", "--t-end", "0.001"], 1,
         "error: immigration measure needs eps > 0 (infinite activity)"),
    ], ids=["alpha-1e-6-simulate", "alpha-5e-324-lyapunov", "alpha-5e-324-rate",
            "c-1e308-simulate", "c-1e308-couple", "c-1e308-rate", "mu-hi-1e308-lyapunov",
            "mu-hi-1e308-lyapunov-vlog", "mu-hi-1e308-rate", "eps-1e308-couple", "xlog-k-1e308-lyapunov",
            "a-1e308-lyapunov", "a-minus-1e308-lyapunov", "sigma-1e308-couple",
            "sigma-1e308-stationary", "eps-0-stable-mu-couple", "eps-0-stable-nu-simulate"])
    def test_extreme_parameter_is_one_line(self, tmp_path, config, old, new, argv, code,
                                           message):
        with open(os.path.join(CONFIGS, f"{config}.cfg")) as fh:
            text = fh.read()
        assert old in text
        path = tmp_path / "model.cfg"
        path.write_text(text.replace(old, new))
        got, err, runtime = _run_recording([*argv, "--model", str(path), "--out", str(tmp_path)])
        assert not runtime, runtime
        assert got == code, err
        assert len(err.strip().splitlines()) == (1 if code else 0), err
        assert message in err

    def test_module_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "cbic.cli", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: cbic")

    # a fresh interpreter loads configs, runs CLI commands, each with its
    # arguments and expected exit code, and prints, after each step, which of
    # scipy's special, integrate and optimize it has loaded
    STARTUP = """
import contextlib, io, json, sys
def loaded(step):
    print(step + "=" + ",".join(m for m in ("scipy.special", "scipy.integrate",
                                            "scipy.optimize") if m in sys.modules))
import cbic.cli
loaded("import")
from cbic.config import load_config
for name in sys.argv[3:]:
    load_config(sys.argv[1] + "/" + name + ".cfg")
loaded("load")
for cmd, name, args, code in json.loads(sys.argv[2]):
    argv = [cmd, "--model", sys.argv[1] + "/" + name + ".cfg", *args, "--out", "."]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cbic.cli.run(argv) == code, argv
    loaded(cmd + ":" + name)
"""
    STARTUP_ARGS = {"simulate": ["--paths", "4", "--t-end", "0.002"],
                    "couple": ["--paths", "4", "--t-end", "0.002"],
                    "rate": [], "lyapunov": []}

    def _startup(self, tmp_path, runs, configs=()):
        """``runs`` are (command, config, exit code) triples."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        runs = json.dumps([(cmd, name, self.STARTUP_ARGS[cmd], code) for cmd, name, code in runs])
        proc = subprocess.run(
            [sys.executable, "-c", self.STARTUP, os.path.abspath(CONFIGS), runs, *configs],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return dict(line.split("=") for line in proc.stdout.splitlines())

    def test_startup_loads_no_scipy_submodule_a_run_does_not_need(self, tmp_path):
        # uniform masses and moments are closed forms: no quadrature, no scipy.integrate;
        # the stable config needs scipy.special
        got = self._startup(tmp_path, [("simulate", "ergodic_v1", 0),
                                       ("simulate", "critical_cbi", 0),
                                       ("couple", "ergodic_v1", 0)],
                            ["ergodic_v1", "critical_cbi", "neveu_xlog", "stable_power_vlog"])
        assert got == {"import": "", "load": "scipy.special",
                       "simulate:ergodic_v1": "scipy.special",
                       "simulate:critical_cbi": "scipy.special",
                       "couple:ergodic_v1": "scipy.special"}
        assert self._startup(tmp_path, [("simulate", "neveu_xlog", 0)]) == {
            "import": "", "load": "", "simulate:neveu_xlog": ""}
        # Psi, Phi, LV and the sweep term of uniform and atom parts are closed forms
        # too; critical_cbi's certificate fails at its Lyapunov step
        assert self._startup(tmp_path, [("rate", "ergodic_v1", 0), ("lyapunov", "ergodic_v1", 0),
                                        ("rate", "critical_cbi", 1)]) == {
            "import": "", "load": "", "rate:ergodic_v1": "", "lyapunov:ergodic_v1": "",
            "rate:critical_cbi": ""}
        # the stable log tail of the vlog margin is closed (hyp2f1); neveu_xlog fails there
        assert self._startup(tmp_path, [("rate", "stable_power_vlog", 0),
                                        ("lyapunov", "stable_power_vlog", 0),
                                        ("lyapunov", "neveu_xlog", 1)]) == {
            "import": "", "load": "", "rate:stable_power_vlog": "scipy.special",
            "lyapunov:stable_power_vlog": "scipy.special", "lyapunov:neveu_xlog": "scipy.special"}

    def test_lyapunov_failure_exits_one(self, capsys):
        code = run([
            "lyapunov", "--model", os.path.join(CONFIGS, "critical_cbi.cfg"),
            "--weight", "v1",
        ])
        assert code == 1
        assert "margin" in capsys.readouterr().err

    @pytest.mark.parametrize("mu", [
        "uniform rate=-1 lo=0 hi=1",
        "stable alpha=2.5 sigma=1",
    ])
    def test_invalid_mechanism_is_usage_error(self, tmp_path, capsys, mu):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[branching]\nb = 0.5\nmu = {mu}\n")
        code = run(["rate", "--model", str(bad), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    # c = 1e308 overflows the Gaussian parts of most pairs within a step
    EXPLODING = ("[branching]\nb = 0.5\nc = 1e308\nmu = uniform rate=2.0 lo=0.0 hi=1.0\n\n"
                 "[immigration]\nbeta = 0.3\n")

    @pytest.mark.parametrize("start, code, err", [
        (["--x0", "1e-300", "--y0", "0"], 0, ""),
        # a pair 10 apart near 1e4 gets infinite Gaussian parts of either sign
        (["--x0", "1e4", "--y0", "9990"], 1, "error: coupled Euler step produced a NaN state\n"),
    ], ids=["explodes", "nan"])
    def test_overflowing_coupled_steps_warn_nothing(self, tmp_path, start, code, err):
        path = tmp_path / "model.cfg"
        path.write_text(self.EXPLODING)
        got = _run_recording(["couple", "--model", str(path), *start, "--dt", "1e-3",
                              "--t-end", "0.01", "--paths", "100", "--out", str(tmp_path)])
        assert got == (code, err, [])

    def test_small_stable_index_has_a_log_generator(self, tmp_path):
        # the log tail of a stable part is finite for every index
        with open(os.path.join(CONFIGS, "stable_power_vlog.cfg")) as fh:
            text = fh.read()
        path = tmp_path / "model.cfg"
        path.write_text(text.replace("alpha = 0.5", "alpha = 0.05")
                        .replace("k=3.544907701811032", "k=3.0"))
        code, err, runtime = _run_recording(["check-generator", "--model", str(path),
                                             "--weight", "vlog", "--out", str(tmp_path)])
        assert (code, err, runtime) == (0, "", [])

    def test_quadrature_failure_exits_one(self, ergodic_cfg, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise QuadratureError("quadrature did not converge on [0, 1]", interval=(0.0, 1.0))

        monkeypatch.setattr(cli, "compute_rate_certificate", fail)
        code = run(["rate", "--model", ergodic_cfg, "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: quadrature did not converge on [0, 1]\n"

    def test_lyapunov_success(self, ergodic_cfg, capsys):
        code = run(["lyapunov", "--model", ergodic_cfg, "--weight", "v1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "C0" in out and "C1" in out


class TestSubcommands:
    def test_rate_writes_report_and_margins(self, ergodic_cfg, tmp_path, capsys):
        out = tmp_path / "rate"
        code = run(["rate", "--model", ergodic_cfg, "--out", str(out), "--grid", "15"])
        assert code == 0
        text = (out / "certificate.txt").read_text()
        assert "lambda" in text and "PASS" in text
        header = (out / "certificate_margins.csv").read_text().splitlines()[0]
        assert header == "x,y,lhs,rhs,margin"
        assert b"\r" not in (out / "certificate_margins.csv").read_bytes()

    def test_rate_failure_exits_one(self, tmp_path, capsys):
        code = run([
            "rate", "--model", os.path.join(CONFIGS, "critical_cbi.cfg"), "--out",
            str(tmp_path), "--grid", "9",
        ])
        assert code == 1
        assert "lyapunov" in capsys.readouterr().err

    def test_rate_with_a_c1_underflowing_to_zero_exits_one(self, tmp_path):
        # the Lyapunov sweep's C1 halves from a margin of 4.9e-324 to 0; the one
        # positive C1 makes 12 C0 / C1 overflow, so no (lambda0, C1) pair is left
        path = tmp_path / "model.cfg"
        path.write_text("[branching]\nb = 5e-324\nc = 0.0\nmu = none\n[immigration]\n"
                        "beta = 0.3\nnu = uniform rate=1.0 lo=0.0 hi=1.0\n[competition]\n"
                        "g = none\n[certificate]\nweight = v1\n")
        code, err, runtime = _run_recording(["rate", "--model", str(path),
                                             "--out", str(tmp_path / "rate")])
        assert (code, runtime) == (1, [])
        assert err == ("rate certificate failed: [contraction] every (lambda0, C1, x0) "
                       "combination degenerated to lambda <= 0\n")
        assert not (tmp_path / "rate").exists()

    def test_couple_writes_summary(self, ergodic_cfg, tmp_path):
        out = tmp_path / "couple"
        code = run([
            "couple", "--model", ergodic_cfg, "--out", str(out),
            "--paths", "64", "--t-end", "0.5",
        ])
        assert code == 0
        lines = (out / "couple.csv").read_text().splitlines()
        assert lines[0] == "time,mean_x,mean_y,uncoupled_frac"

    def test_couple_shorter_than_decay_grid(self, ergodic_cfg, tmp_path):
        # t_end = 10 dt: the 25-point decay grid snaps to 11 distinct step times
        out = tmp_path / "couple"
        code = run([
            "couple", "--model", ergodic_cfg, "--out", str(out),
            "--paths", "16", "--t-end", "0.01",
        ])
        assert code == 0
        rows = (out / "decay.csv").read_text().splitlines()[1:]
        times = [float(r.split(",")[0]) for r in rows]
        assert len(times) == len(set(times)) == 11

    @pytest.mark.parametrize("paths, t_end", [("1100", "0.05"), ("16", "0.01")],
                             ids=["two-blocks", "shorter-than-24-steps"])
    def test_couple_matches_separate_runs(self, ergodic_cfg, tmp_path, paths, t_end):
        out = tmp_path / "couple"
        code = run([
            "couple", "--model", ergodic_cfg, "--out", str(out), "--paths", paths,
            "--t-end", t_end,
        ])
        assert code == 0
        conf = load_config(ergodic_cfg)
        sim = replace(conf.sim, n_paths=int(paths), t_end=float(t_end))
        res = simulate_coupled_ensemble(
            conf.model, 2.0, 0.0, sim, record_times=np.linspace(0.0, sim.t_end, 101)
        )
        lines = ["time,mean_x,mean_y,uncoupled_frac\n"]
        for i, t in enumerate(res.times):
            ok = np.isfinite(res.x_values[i])
            unc = float((res.coupling_times > t).mean())
            mx = float(res.x_values[i, ok].mean()) if ok.any() else math.nan
            my = float(res.y_values[i, ok].mean()) if ok.any() else math.nan
            lines.append(f"{t:.17g},{mx:.17g},{my:.17g},{unc:.17g}\n")
        assert (out / "couple.csv").read_text() == "".join(lines)
        res = simulate_coupled_ensemble(
            conf.model, 2.0, 0.0, sim, record_times=np.linspace(0.0, sim.t_end, 25)
        )
        est = estimate_wv_decay(res, conf.weight)
        lines = ["t,wv_upper,se,n_uncoupled\n"] + [
            f"{t:.17g},{w:.17g},{s:.17g},{n}\n"
            for t, w, s, n in zip(est.times, est.wv_upper, est.se, est.n_uncoupled)
        ]
        assert (out / "decay.csv").read_bytes() == "".join(lines).encode()

    def test_check_generator(self, ergodic_cfg, tmp_path):
        out = tmp_path / "chk"
        code = run(["check-generator", "--model", ergodic_cfg, "--out", str(out)])
        assert code == 0
        assert (out / "check_generator.csv").exists()

    def test_failed_check_generator_says_why(self, tmp_path, capsys):
        with open(os.path.join(CONFIGS, "neveu_xlog.cfg")) as fh:
            text = fh.read()
        path = tmp_path / "model.cfg"
        path.write_text(text.replace("alpha=1.0", "alpha=1e-300"))
        code = run(["check-generator", "--grid", "3", "--model", str(path),
                    "--out", str(tmp_path)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out.startswith("check-generator: worst relative deviation")
        assert err.startswith("error: generator check failed")
        assert len(err.strip().splitlines()) == 1

    def test_wv_subcommand(self, tmp_path, capsys):
        g = tmp_path / "g.csv"
        e = tmp_path / "e.csv"
        g.write_text("atom,prob\n0.0,0.25\n1.0,0.75\n")
        e.write_text("atom,prob\n0.0,0.75\n1.0,0.25\n")
        code = run(["wv", "--gamma", str(g), "--eta", str(e), "--weight", "v1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "wv_exact = 1.5" in out
        assert "wv_transport" in out

    def test_wv_transport_failure_is_one_line(self, tmp_path, capsys):
        """HiGHS takes a cost of 1e20 or more as infinite and finds no optimum."""
        g = tmp_path / "g.csv"
        e = tmp_path / "e.csv"
        g.write_text("atom,prob\n1e20,0.5\n0,0.5\n")
        e.write_text("atom,prob\n1,1\n")
        code = run(["wv", "--gamma", str(g), "--eta", str(e), "--weight", "v1"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == "wv_exact = 5e+19\n"
        assert err.startswith("error: transport LP failed: ") and err.count("\n") == 1

    def test_stationary_subcommand(self, ergodic_cfg, tmp_path, capsys):
        out = tmp_path / "st"
        code = run([
            "stationary", "--model", ergodic_cfg, "--out", str(out),
            "--burn-in", "4.0", "--samples", "600", "--dt", "5e-3",
        ])
        assert code == 0
        atoms, probs = [], []
        for line in (out / "stationary.csv").read_text().splitlines()[1:]:
            a, p = line.split(",")
            atoms.append(float(a))
            probs.append(float(p))
        assert abs(sum(probs) - 1.0) < 1e-9
        # sanity: usable as a discrete law
        wv_exact_discrete((np.array(atoms), np.array(probs)),
                          (np.array(atoms), np.array(probs)),
                          load_config(ergodic_cfg).weight)

    def test_stationary_not_converged_exits_one(self, ergodic_cfg, tmp_path, capsys):
        # the same run passes the two-start check after a burn-in of 20 and
        # fails it after 0.1, when the chains started at 8 have not come down
        for burn_in, code in (("20", 0), ("0.1", 1)):
            got = run(["stationary", "--model", ergodic_cfg, "--out", str(tmp_path),
                       "--samples", "64", "--dt", "1e-2", "--seed", "1", "--burn-in", burn_in])
            err = capsys.readouterr().err
            assert got == code, err
            assert err == ("" if code == 0 else
                           "stationary: two-start diagnostic ABOVE threshold (not converged)\n")

    @pytest.mark.parametrize("config, margin", [("critical_cbi", "0"), ("neveu_xlog", "-0.143693")])
    def test_stationary_without_drift_certificate_exits_one(self, tmp_path, capsys, config,
                                                            margin):
        # no Lyapunov certificate, no stationary law: the run stops before any step
        out = tmp_path / "st"
        code = run(["stationary", "--model", os.path.join(CONFIGS, f"{config}.cfg"),
                    "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: [lyapunov] Lyapunov certification failed: ")
        assert f"(asymptotic margin {margin}, " in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_reruns_are_byte_identical(self, ergodic_cfg, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = run([
                "simulate", "--model", ergodic_cfg, "--out", str(out),
                "--paths", "128", "--t-end", "0.5", "--seed", "99",
            ])
            assert code == 0
            outs.append((out / "simulate.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("part", ["uniform rate=0 lo=0 hi=1", "stable alpha=0.5 sigma=0"],
                             ids=["uniform-rate-0", "stable-sigma-0"])
    @pytest.mark.parametrize("old, argv, files", [
        ("nu = none", ["rate"], ["certificate.txt", "certificate_margins.csv"]),
        ("mu = uniform rate=1.0 lo=0.0 hi=1.0", ["simulate", "--paths", "50", "--t-end", "0.1"],
         ["simulate.csv"]),
    ], ids=["nu-rate", "mu-simulate"])
    def test_zero_weight_part_is_no_measure(self, tmp_path, capsys, part, old, argv, files):
        # a part of zero weight is the zero measure: the outputs are those of "none"
        with open(os.path.join(CONFIGS, "ergodic_v1.cfg")) as fh:
            text = fh.read()
        assert old in text
        outs = []
        for name, measure in (("none", "none"), ("zero", part)):
            path = tmp_path / f"{name}.cfg"
            path.write_text(text.replace(old, f"{old[:2]} = {measure}"))
            out = tmp_path / name
            assert run([*argv, "--model", str(path), "--out", str(out)]) == 0
            outs.append([capsys.readouterr().out] + [(out / f).read_bytes() for f in files])
        assert outs[0] == outs[1]

    def test_zero_rate_uniform_part_has_no_support_to_check(self, tmp_path, capsys):
        # a uniform part of rate 0 is the zero measure before its support is
        # read: with lo > hi, which a uniform part of positive rate may not
        # have, the run is that of "none", not a config error
        with open(os.path.join(CONFIGS, "ergodic_v1.cfg")) as fh:
            text = fh.read()
        outs = []
        for name, measure in (("none", "none"), ("zero", "uniform rate=0 lo=1 hi=0.5")):
            path = tmp_path / f"{name}.cfg"
            path.write_text(text.replace("mu = uniform rate=1.0 lo=0.0 hi=1.0", f"mu = {measure}"))
            out = tmp_path / name
            assert run(["simulate", "--paths", "50", "--t-end", "0.1", "--model", str(path),
                        "--out", str(out)]) == 0
            outs.append([capsys.readouterr(), (out / "simulate.csv").read_bytes()])
        assert outs[0] == outs[1]


class TestOutputFiles:
    SIMULATE_HEADER = ("time", "mean", "variance", "q05", "q25", "q50", "q75", "q95",
                       "exploded_frac")

    def test_record_time_with_every_path_exploded(self, tmp_path):
        res = EnsembleResult(np.array([0.0, 0.5]), np.array([[1.0, 3.0], [math.inf, math.nan]]),
                             np.array([True, True]))
        path = tmp_path / "simulate.csv"
        cli._write_csv(path, self.SIMULATE_HEADER, cli._ensemble_rows(res))
        header, first, last = path.read_text().splitlines()
        assert header == ",".join(self.SIMULATE_HEADER)
        assert first.startswith("0,2,2,") and first.endswith(",0")
        assert last == "0.5," + "nan," * 7 + "1"

    def test_path_dump_needs_its_magic(self, tmp_path):
        path = tmp_path / "simulate.bin"
        path.write_bytes(b"CBEX\x01\x00" + bytes(16))
        with pytest.raises(SimulationError, match="not a path dump file"):
            cli.read_path_dump(path)

    def test_dump_through_the_cli_reads_back(self, ergodic_cfg, tmp_path):
        out = tmp_path / "sim"
        assert run(["simulate", "--model", ergodic_cfg, "--out", str(out), "--paths", "8",
                    "--t-end", "0.05", "--dump"]) == 0
        res = cli.read_path_dump(out / "simulate.bin")
        assert res.values.shape[1] == 8 and not res.exploded.any()
        rows = [",".join("%.17g" % v for v in row) for row in cli._ensemble_rows(res)]
        assert (out / "simulate.csv").read_text().splitlines()[1:] == rows


class TestWvInput:
    """A malformed law exits 2 with one config-error line naming its file."""

    @staticmethod
    def _laws(tmp_path, gamma_text):
        eta = tmp_path / "eta.csv"
        eta.write_text("atom,prob\n0.0,0.75\n1.0,0.25\n")
        if gamma_text is None:
            return str(tmp_path / "missing.csv"), str(eta)
        gamma = tmp_path / "gamma.csv"
        gamma.write_text(gamma_text)
        return str(gamma), str(eta)

    @pytest.mark.parametrize("text, message", [
        (None, "missing.csv: No such file or directory"),
        ("atom,prob\n0.0 0.25\n1.0,0.75\n", "every row needs atom,prob"),
        ("atom,prob\n0.0,x\n1.0,0.75\n", "could not convert string to float: 'x'"),
        ("atom,prob\n0.0,-0.25\n1.0,1.25\n", "negative probabilities"),
        ("atom,prob\n0.0,0.5\n1.0,0.75\n", "not normalized: sum = 1.25"),
        ("atom,prob\n0.0,nan\n", "not normalized: sum = nan"),
        ("atom,prob\n-1.0,1.0\n", "atoms must be finite states >= 0"),
        ("x,p\n0.0,0.25\n1.0,0.75\n", "expected header atom,prob"),
    ], ids=["missing-file", "no-comma", "non-numeric", "negative-prob", "sum-not-1", "nan-prob",
            "negative-atom", "header"])
    def test_bad_law_is_one_config_line(self, tmp_path, text, message):
        gamma, eta = self._laws(tmp_path, text)
        code, err, runtime = _run_recording(["wv", "--gamma", gamma, "--eta", eta])
        assert not runtime, runtime
        assert code == 2
        assert err.startswith(f"config error: {gamma}: ") and message in err, err
        assert len(err.strip().splitlines()) == 1

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        outs = []
        for text in ("atom,prob\n0.0,0.25\n1.0,0.75\n", "atom,prob\n\n0.0,0.25\n \n1.0,0.75\n\n"):
            gamma, eta = self._laws(tmp_path, text)
            assert run(["wv", "--gamma", gamma, "--eta", eta, "--weight", "vlog"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0].startswith("wv_exact = ")


def test_linear_competition_enters_the_lyapunov_constants(tmp_path, capsys):
    """ergodic_v1 with g = 0.2 x: the sweep tops out at C1 = b + a = 0.7."""
    with open(os.path.join(CONFIGS, "ergodic_v1.cfg")) as fh:
        text = fh.read()
    assert "g = none" in text
    path = tmp_path / "model.cfg"
    path.write_text(text.replace("g = none", "g = linear a=0.2"))
    assert load_config(str(path)).model.g == CompetitionMechanism.linear(0.2)
    assert run(["lyapunov", "--model", str(path)]) == 0
    assert capsys.readouterr().out.startswith("Lyapunov certificate: C0 = 0.3000000003, C1 = 0.7 ")


def _numeric_fields():
    """(config name, text, span) for every number in a value of a shipped config."""
    number = re.compile(r"(?<![\w.])-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
    out = []
    for name in sorted(f for f in os.listdir(CONFIGS) if f.endswith(".cfg")):
        with open(os.path.join(CONFIGS, name)) as fh:
            text = fh.read()
        pos = 0
        for line in text.splitlines(keepends=True):
            if "=" in line and not line.lstrip().startswith("#"):
                start = pos + line.index("=")
                for m in number.finditer(text, start, pos + len(line)):
                    out.append((name, text, m.span()))
            pos += len(line)
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    field=st.sampled_from(_numeric_fields()),
    value=st.one_of(
        st.floats(-1e6, 1e6).map(repr),
        st.sampled_from(["nan", "inf", "-inf", "1.5.2", "x", ""]),
    ),
)
def test_mutated_config_keeps_cli_contract(field, value):
    name, text, (a, b) = field
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w") as fh:
            fh.write(text[:a] + value + text[b:])
        for argv in (
            ["lyapunov"],
            ["simulate", "--paths", "4", "--t-end", "0.002", "--dt", "1e-3"],
        ):
            code, err, runtime = _run_recording([*argv, "--model", path, "--out", tmp])
            assert not runtime, runtime
            assert code in (0, 1, 2)
            assert "Traceback" not in err
            if code != 0:
                assert len(err.strip().splitlines()) == 1, err
