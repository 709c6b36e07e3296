"""Command-line surface: subcommands, config files, exit codes, CSV shape."""

import numpy as np
import pytest

import evohom.cli as cli
import evohom.solver as solver
from evohom.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQuadrature:
    def test_rule_dump(self, capsys):
        code, out, _ = run_cli(capsys, "quadrature", "--h", "0.5", "--rho", "0.0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "kind,index,value"
        rows = {
            (k, int(i)): float(v)
            for k, i, v in (line.split(",") for line in lines[1:])
        }
        # unweighted right-sided 2-point Radau on (0, h): nodes h/3, h
        assert rows[("node", 0)] == pytest.approx(0.5 / 3.0)
        assert rows[("node", 1)] == pytest.approx(0.5)
        assert rows[("weight", 0)] == pytest.approx(0.375)
        assert rows[("weight", 1)] == pytest.approx(0.125)
        assert rows[("moment", 0)] == pytest.approx(0.5)

    @pytest.mark.parametrize("h, rho", [("0.5", "0.0"), ("0.25", "2.0")])
    def test_text(self, capsys, h, rho, golden_text):
        code, out, _ = run_cli(capsys, "quadrature", "--h", h, "--rho", rho)
        assert code == 0
        assert out == golden_text(f"quadrature_h{h}_rho{rho}")

    def test_bad_slab(self, capsys):
        code, _, err = run_cli(capsys, "quadrature", "--h", "-1.0")
        assert code == 3
        assert "positive" in err


class TestOracle:
    def test_ode_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--which", "ode", "--n", "1", "--t", "1.0", "--x", "0.25"
        )
        assert code == 0
        # sin(2 pi /4) = 1: u(1, 0.25) = 1 - exp(-1)
        value = float(out.splitlines()[1].split(",")[1])
        assert value == pytest.approx(1.0 - np.exp(-1.0), rel=1e-12)

    def test_series_consistency(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--which", "series", "--z", "3.0")
        assert code == 0
        vals = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert vals[0] == pytest.approx(vals[1], abs=1e-9)
        assert vals[1] == pytest.approx(np.sqrt(1.0 - 3.0**-2), rel=1e-12)

    ARGS = {
        "ode": ("--n", "1", "--t", "1.0", "--x", "0.25"),
        "hom": ("--t", "0.5"),
        "i0": ("--t", "0.5"),
        "series": ("--z", "3.0"),
    }

    @pytest.mark.parametrize("which", ARGS)
    def test_text(self, capsys, which, golden_text):
        code, out, _ = run_cli(capsys, "oracle", "--which", which, *self.ARGS[which])
        assert code == 0
        assert out == golden_text(f"oracle_{which}")

    @pytest.mark.filterwarnings("error")
    def test_hom_beyond_range_fails(self, capsys):
        # the series of int_0^t I_0 overflows near t = 712: no inf, exit 3
        code, out, err = run_cli(capsys, "oracle", "--which", "hom", "--t", "1000")
        assert code == 3
        assert "supported range" in err
        assert "inf" not in out

    def test_missing_argument(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--which", "ode", "--t", "1.0")
        assert code == 3
        assert "--n" in err


class TestRun:
    def test_norm_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--example", "EX3", "--n", "2", "--slabs", "4"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "example,n,quantity,value"
        quantities = {line.split(",")[2] for line in lines[1:]}
        assert quantities == {"norm_u", "norm_v"}
        assert all(line.startswith("EX3,2,") for line in lines[1:])

    def test_collocated_family_names_its_component(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--example", "EX1", "--n", "2", "--slabs", "4"
        )
        assert code == 0
        (row,) = out.splitlines()[1:]
        assert row.startswith("EX1,2,norm_u,")

    def test_solver_failure_maps_to_2(self, capsys, monkeypatch):
        def explode(problem):
            raise RuntimeError("factorisation blew up")

        monkeypatch.setattr(cli, "solve_evolution", explode)
        code, _, err = run_cli(
            capsys, "run", "--example", "EX1", "--n", "1", "--slabs", "2"
        )
        assert code == 2
        assert "solver failure" in err

    def test_coalescing_time_pencil_maps_to_2(self, capsys):
        # slabs of length 4 at rho = 4: rho*h = 16 is refused by the solver
        code, _, err = run_cli(
            capsys,
            "run", "--example", "EX1", "--n", "2", "--slabs", "2", "--T", "8",
            "--rho", "4",
        )
        assert code == 2
        assert "rho*h = 16" in err

    def test_unknown_example(self, capsys):
        code, _, err = run_cli(capsys, "run", "--example", "EX9", "--n", "1")
        assert code == 3
        assert "unknown example id" in err

    def test_formula_level_family_rejected(self, capsys):
        code, _, err = run_cli(capsys, "run", "--example", "MAXWELL", "--n", "1")
        assert code == 3
        assert "no desk-scale sweep" in err


class TestSweep:
    def test_csv_stdout_and_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--example",
            "EX1",
            "--n-list",
            "1,2,4",
            "--slabs",
            "8",
            "--out",
            str(out_file),
        )
        assert code == 0
        stdout_lines = out.splitlines()
        file_lines = out_file.read_text().splitlines()
        assert stdout_lines[0] == "example,n,quantity,value"
        assert stdout_lines == file_lines
        assert any(",slope_pair_u_x," in line for line in stdout_lines)

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "# EX1 coarse study\nexample = EX1\nn_list = 1,2\nslabs = 4\n"
        )
        code, out, _ = run_cli(
            capsys, "sweep", "--config", str(cfg), "--n-list", "1"
        )
        assert code == 0
        data = [line for line in out.splitlines()[1:] if not ",slope_" in line]
        assert {line.split(",")[1] for line in data} == {"1"}

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("example EX1\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 3
        assert "expected 'key = value'" in err

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("colour = red\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 3
        assert "unknown key 'colour'" in err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, capsys, tmp_path, jobs):
        out_file = tmp_path / "report.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--example", "EX1", "--jobs", jobs, "--out", str(out_file)
        )
        assert code == 3
        assert "jobs must be at least 1" in err
        assert out == "" and not out_file.exists()

    def test_unwritable_out_fails_before_solving(self, capsys, tmp_path, monkeypatch):
        factorised = []
        monkeypatch.setattr(
            solver, "splu", lambda matrix, **options: factorised.append(matrix)
        )
        out_file = tmp_path / "missing" / "report.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--example", "EX1", "--slabs", "4", "--out", str(out_file)
        )
        assert code == 3
        assert err.startswith("evohom: error:") and "report.csv" in err
        assert out == "" and factorised == []

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--config", "/nonexistent.cfg")
        assert code == 3
        assert "cannot read config file" in err


class TestLimits:
    def test_instant_family(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--example", "EX2")
        assert code == 0
        assert "law EX2-limit" in out
        assert "M0[u,u] = 0.5" in out
        rows = {
            tuple(line.split(",")[:4]): float(line.split(",")[4])
            for line in out.splitlines()
            if line.startswith(("M0", "M1", "M(z"))
        }
        assert rows[("M0", "cell", "0", "0")] == 0.5
        assert rows[("M1", "cell", "0", "0")] == 0.5
        # M(3) = M0 + M1/3
        assert rows[("M(z=3.0)", "cell", "0", "0")] == pytest.approx(
            0.5 + 0.5 / 3.0
        )

    def test_two_dimensional_family_rows(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--example", "EX4")
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("M0,")]
        assert rows == [
            "M0,inside,0,0,5.000000000000e-01",
            "M0,inside,1,1,1.500000000000e+00",
            "M0,inside,2,2,1.333333333333e+00",
            "M0,outside,0,0,1.000000000000e+00",
            "M0,outside,1,1,1.000000000000e+00",
            "M0,outside,2,2,1.000000000000e+00",
        ]

    def test_memory_family_reports_augmentation(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--example", "EX5")
        assert code == 0
        assert "intrinsic elimination: 3 -> 4 components" in out
        assert "rat(1, 1)" in out

    def test_formula_level_family_allowed(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--example", "MAXWELL")
        assert code == 0
        assert "law MAXWELL-limit" in out
        assert "intrinsic elimination: 6 -> 7 components" in out

    def test_series_family_rejected(self, capsys):
        code, _, err = run_cli(capsys, "limits", "--example", "EX1")
        assert code == 3
        assert "Bessel-series" in err

    def test_z_must_exceed_nu0(self, capsys):
        code, out, err = run_cli(capsys, "limits", "--example", "EX3", "--z", "0.5")
        assert code == 3
        assert out == ""  # nothing printed before the failure
        assert "must exceed nu0" in err


    @pytest.mark.parametrize("z", ["3.0", "2.5+1j"])
    @pytest.mark.parametrize("example", ["EX2", "EX3", "EX4", "EX5", "MAXWELL"])
    def test_text(self, capsys, example, z, golden_text):
        code, out, _ = run_cli(capsys, "limits", "--example", example, "--z", z)
        assert code == 0
        assert out == golden_text(f"limits_{example}_z{z}")


class TestDescribe:
    def test_summary(self, capsys):
        code, out, _ = run_cli(capsys, "describe", "--example", "EX3", "--n", "2")
        assert code == 0
        assert "example   EX3" in out
        assert "component u: 80 dof" in out
        assert "component v: 80 dof" in out
        assert "320 per slab" in out

    def test_default_n(self, capsys):
        code, out, _ = run_cli(capsys, "describe", "--example", "EX1")
        assert code == 0
        assert "n         1" in out
        assert "law       EX1(n=1)" in out
        assert "component u: 10 dof" in out

    @pytest.mark.parametrize("n", [None, 4])
    @pytest.mark.parametrize("example", ["EX1", "EX2", "EX3", "EX4", "EX5"])
    def test_text(self, capsys, example, n, golden_text):
        argv = ("describe", "--example", example) + (("--n", str(n)) if n else ())
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == golden_text(f"describe_{example}" + (f"_n{n}" if n else ""))


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--example", "EX1", "--n", "1", "--slabs", "2", "--rho", "nan"),
        ("run", "--example", "EX1", "--n", "1", "--slabs", "2", "--rho", "inf"),
        ("run", "--example", "EX1", "--n", "1", "--slabs", "2", "--T", "inf"),
        ("quadrature", "--h", "nan"),
        ("quadrature", "--h", "inf"),
        ("quadrature", "--h", "0.5", "--rho", "nan"),
        ("limits", "--example", "EX2", "--z", "nan"),
        ("oracle", "--which", "hom", "--t", "nan"),
        ("oracle", "--which", "series", "--z", "nan"),
        ("oracle", "--which", "ode", "--n", "1", "--t", "nan", "--x", "0.25"),
        ("oracle", "--which", "ode", "--n", "1", "--t", "1.0", "--x", "nan"),
        ("oracle", "--which", "i0", "--t", "nan"),
    ],
    ids=[
        "run-rho-nan",
        "run-rho-inf",
        "run-T-inf",
        "quadrature-h-nan",
        "quadrature-h-inf",
        "quadrature-rho-nan",
        "limits-z-nan",
        "oracle-hom-t-nan",
        "oracle-series-z-nan",
        "oracle-ode-t-nan",
        "oracle-ode-x-nan",
        "oracle-i0-t-nan",
    ],
)
def test_non_finite_number_is_validation_failure(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3, err
    # at most a header: no value row, so no nan or inf printed
    assert len(out.splitlines()) <= 1
    assert "nan" not in out and "inf" not in out

def test_usage_error_is_validation_failure(capsys):
    code, _, err = run_cli(capsys, "sweep", "--example", "EX1", "--bogus")
    assert code == 3
    assert "unrecognized arguments" in err
