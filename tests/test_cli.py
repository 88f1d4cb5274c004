import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stefan_thaw.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CONVECTIVE = str(CONFIGS / "thaw_convective.cfg")
SUBCRITICAL = str(CONFIGS / "thaw_subcritical.cfg")
TWO_ROOTS = str(CONFIGS / "thaw_two_roots.cfg")
CLASSICAL = str(CONFIGS / "thaw_classical.cfg")

# a bad option value: the subcommand, the flag, the value and the error
BAD_OPTIONS = [
    ("solve", "--scan-max", "0", "scan_max must be finite and > 0"),
    ("solve", "--scan-max", "-1", "scan_max must be finite and > 0"),
    ("solve", "--scan-max", "nan", "scan_max must be finite and > 0"),
    ("solve", "--scan-max", "inf", "scan_max must be finite and > 0"),
    ("solve", "--tol", "0", "tolerance must be finite and > 0"),
    ("solve", "--tol", "-1e-12", "tolerance must be finite and > 0"),
    ("solve", "--tol", "nan", "tolerance must be finite and > 0"),
    ("solve", "--tol", "inf", "tolerance must be finite and > 0"),
    ("profile", "--points", "0", "--points must be >= 1"),
    ("profile", "--points", "-1", "--points must be >= 1"),
    ("profile", "--time", "0", "t must be > 0"),
    ("profile", "--time", "-1", "t must be > 0"),
    ("profile", "--x-max", "-1", "--x-max must be finite and >= 0"),
    ("profile", "--x-max", "inf", "--x-max must be finite and >= 0"),
    ("profile", "--x-max", "nan", "--x-max must be finite and >= 0"),
    ("verify", "--perturb-front", "0", "--perturb-front must be finite and > 0"),
    ("verify", "--perturb-front", "-1", "--perturb-front must be finite and > 0"),
    ("verify", "--perturb-front", "inf", "--perturb-front must be finite and > 0"),
    ("verify", "--perturb-front", "nan", "--perturb-front must be finite and > 0"),
    ("sweep", "--h0-points", "-1", "--h0-points must be >= 2"),
    ("sweep", "--h0-points", "0", "--h0-points must be >= 2"),
    ("sweep", "--h0-points", "1", "--h0-points must be >= 2"),
    ("sweep", "--h0-min", "0", "--h0-min must be finite and > 0"),
    ("sweep", "--h0-min", "-1", "--h0-min must be finite and > 0"),
    ("sweep", "--h0-min", "inf", "--h0-min must be finite and > 0"),
    ("sweep", "--h0-min", "nan", "--h0-min must be finite and > 0"),
    ("sweep", "--h0-max", "0", "--h0-max must be finite and > 0"),
    ("sweep", "--h0-max", "inf", "--h0-max must be finite and > 0"),
    ("sweep", "--h0-max", "nan", "--h0-max must be finite and > 0"),
]


class TestSolve:
    def test_convective_success(self, capsys):
        assert main(["solve", CONVECTIVE]) == 0
        out = capsys.readouterr().out
        assert "principal xi = " in out
        assert "UniqueInRange" in out

    def test_temperature_mode(self, capsys):
        assert main(["solve", CONVECTIVE, "--mode", "temperature"]) == 0
        assert "principal omega = " in capsys.readouterr().out

    def test_classical_mode(self, capsys):
        assert main(["solve", CLASSICAL, "--mode", "classical"]) == 0
        assert "principal xi = " in capsys.readouterr().out

    def test_subcritical_exit_2(self, capsys):
        assert main(["solve", SUBCRITICAL]) == 2
        assert "no phase change" in capsys.readouterr().out

    def test_two_roots_reported(self, capsys):
        assert main(["solve", TWO_ROOTS]) == 0
        out = capsys.readouterr().out
        assert "secondary root = " in out
        assert "AtLeastTwo" in out

    def test_missing_file_exit_1(self, capsys):
        assert main(["solve", str(CONFIGS / "nope.cfg")]) == 1


class TestInputErrors:
    def test_malformed_key_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(Path(CONVECTIVE).read_text() + "bogus_key = 1.0\n")
        assert main(["solve", str(bad)]) == 1
        assert "bogus_key" in capsys.readouterr().err

    def test_bad_number_line_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(Path(CONVECTIVE).read_text().replace(
            "epsilon = 0.4", "epsilon = banana"))
        assert main(["solve", str(bad)]) == 1
        assert "not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "classify"])
    def test_underflowing_diffusivity_exit_1(self, command, tmp_path, capsys):
        # each value is valid, but d_F = k_F / (rho_F c_F) underflows to 0
        text = Path(CONVECTIVE).read_text()
        for old, new in (("k_f = 0.0053", "k_f = 1e-200"), ("rho_f = 1.4", "rho_f = 1e200"),
                         ("c_f = 0.6", "c_f = 1e200")):
            text = text.replace(old, new)
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert main([command, str(bad)]) == 1
        out = capsys.readouterr()
        assert out.err == "input error: d_f: must be > 0, got 0.0\n"
        assert out.out == ""


    @pytest.mark.parametrize("command, flag, value, message", BAD_OPTIONS, ids=[
        f"{flag}-{value}-{message.split()[0]}" for _, flag, value, message in BAD_OPTIONS
    ])
    def test_bad_option_exit_1(self, command, flag, value, message, capsys):
        assert main([command, CONVECTIVE, f"{flag}={value}"]) == 1
        out = capsys.readouterr()
        assert f"error: {message}, got " in out.err
        assert out.out == ""


class TestClassify:
    def test_reports_regime_and_critical(self, capsys):
        assert main(["classify", CONVECTIVE]) == 0
        out = capsys.readouterr().out
        assert "critical h0 = " in out
        assert "guarantee: UniqueInRange" in out


class TestProfile:
    def test_row_count_and_schema(self, tmp_path):
        out = tmp_path / "profile.csv"
        assert main(["profile", CONVECTIVE, "--points", "200",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,region,value"
        assert len(lines) == 201
        regions = {line.split(",")[2] for line in lines[1:]}
        assert regions <= {"U", "F", "front"}
        assert {"U", "F"} <= regions

    def test_temperature_mode(self, tmp_path):
        out = tmp_path / "profile.csv"
        assert main(["profile", CONVECTIVE, "--mode", "temperature", "--points", "50",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 50
        assert {"U", "F"} <= {row[2] for row in rows}
        # the wall value of the fixed-wall problem is b0_wall = 3.0 exactly
        assert rows[0][1:] == ["0.0", "U", "3.0"]

    def test_zero_x_max_profiles_the_wall(self, capsys):
        # --x-max 0 is valid: every point is the wall, in the unfrozen zone
        assert main(["profile", CONVECTIVE, "--x-max", "0", "--points", "2"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[1:3] for row in rows] == [["0.0", "U"]] * 2

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["profile", CONVECTIVE, "--out", str(a)])
        main(["profile", CONVECTIVE, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSweep:
    def test_pass_line_and_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", CONVECTIVE, "--h0-points", "8",
                     "--out", str(out)]) == 0
        assert "monotonicity: PASS" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "h0,xi"
        assert len(lines) == 9
        xis = [float(line.split(",")[1]) for line in lines[1:]]
        assert xis == sorted(xis)

    def test_repeat_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", CONVECTIVE, "--h0-points", "8",
                     "--out", str(a)]) == 0
        assert main(["sweep", CONVECTIVE, "--h0-points", "8",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestImport:
    @pytest.mark.parametrize("module", [
        "special", "model", "solver", "profiles", "equivalence", "verification",
    ])
    def test_public_names_exist(self, module):
        # tools that walk __all__ (tracers, star imports) fail on a stale entry
        mod = importlib.import_module(f"stefan_thaw.{module}")
        assert mod.__all__
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module}.__all__ names missing {name}"

    def test_lhs_takes_y(self):
        # perfbench's tracer reads the argument ``y`` of each LHS call
        from stefan_thaw.special import lhs_convective, lhs_temperature
        for fn in (lhs_convective, lhs_temperature):
            assert list(inspect.signature(fn).parameters)[0] == "y"

    def test_bound_fields_replace_the_eval_wrappers(self):
        import stefan_thaw
        from stefan_thaw import profiles
        for name in ("eval_u", "eval_u_x", "eval_v", "eval_v_x"):
            assert not hasattr(profiles, name) and not hasattr(stefan_thaw, name)
        assert stefan_thaw.unfrozen_field is profiles.unfrozen_field
        assert stefan_thaw.frozen_field is profiles.frozen_field

    def test_no_scipy_at_import(self):
        # scipy.special alone costs about 0.45 s and 25 MB at start-up
        code = ("import sys, stefan_thaw.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


class TestEquiv:
    def test_columns_and_tiny_gaps(self, tmp_path):
        out = tmp_path / "equiv.csv"
        assert main(["equiv", CONVECTIVE, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "h0,xi,b0,omega,roundtrip_h0,max_profile_gap"
        h0, xi, b0, omega, h0_back, gap = map(float, lines[1].split(","))
        assert h0 == 0.05
        assert abs(omega - xi) <= 1e-10
        assert abs(h0_back - h0) <= 1e-8 * h0
        assert gap <= 1e-9
        assert 0.0 < b0 < 10.0

    def test_no_numpy_random(self, tmp_path):
        # numpy.random brings libcrypto: about 13 ms and 6 MB per process
        code = ("import sys; from stefan_thaw.cli import main; "
                f"main(['equiv', {CONVECTIVE!r}, '--out', {str(tmp_path / 'e.csv')!r}]); "
                "print('numpy.random' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"


class TestVerify:
    def test_pass(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", CONVECTIVE, "--out", str(out)]) == 0
        assert "verification: PASS" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["ok"] is True

    def test_perturbed_exit_3(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", CONVECTIVE, "--perturb-front", "1.01",
                     "--out", str(out)]) == 3
        assert "verification: FAIL" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["ok"] is False
        assert payload["stefan_balance_gap"] > 1e-3

    def test_temperature_mode_pass(self, capsys):
        assert main(["verify", CONVECTIVE, "--mode", "temperature"]) == 0
        assert "verification: PASS" in capsys.readouterr().out

    def test_temperature_mode_perturbed_exit_3(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", CONVECTIVE, "--mode", "temperature",
                     "--perturb-front", "1.01", "--out", str(out)]) == 3
        assert "verification: FAIL" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["ok"] is False
        assert payload["stefan_balance_gap"] > 1e-3
