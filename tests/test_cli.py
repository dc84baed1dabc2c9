import numpy as np
import pytest

from birkhoff import (
    attach_residuals,
    exact_solution,
    integrate,
    make_scheme,
    oscillator_alpha,
    oscillator_system,
)
from birkhoff.cli import main

NU = 0.5


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""  # trailing LF
    return lines[0].split(","), [line.split(",") for line in lines[1:-1]]


class TestIntegrate:
    def test_writes_full_precision_trajectory(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "integrate",
                "--nu", "0.5",
                "--scheme", "generating-2",
                "--z0", "1,0",
                "--t0", "0",
                "--tau", "0.01",
                "--steps", "100",
                "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["step", "t", "z1", "z2", "residual"]
        assert len(rows) == 101
        assert rows[0][4] == ""  # no residual before the first step
        assert all(row[4] != "" for row in rows[1:])
        final = np.array([float(rows[-1][2]), float(rows[-1][3])])
        np.testing.assert_allclose(final, exact_solution(NU, 1.0, 0.0, 1.0), atol=1e-4)
        # repr round trip at 17 significant digits
        assert float(rows[-1][2]) == final[0]

    def test_line_endings_are_lf(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["integrate", "--tau", "0.1", "--steps", "2", "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_zero_step_size_rejected(self, tmp_path):
        code = main(["integrate", "--tau", "0", "--steps", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_unknown_scheme_rejected(self, tmp_path):
        code = main(["integrate", "--scheme", "nope", "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_malformed_state_vector_rejected(self, capsys):
        assert main(["integrate", "--z0", "one,zero"]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_center_difference_run_reports_growing_residuals(self, tmp_path):
        out = tmp_path / "euler.csv"
        code = main(
            [
                "integrate",
                "--nu", "0.5",
                "--scheme", "euler-center",
                "--z0", "1,0",
                "--tau", "0.1",
                "--steps", "100",
                "--out", str(out),
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        residuals = np.array([float(row[4]) for row in rows[1:]])
        assert residuals.max() > 1e-3
        assert residuals.min() > 0

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp")
    def test_numerical_blowup_writes_partial_csv_and_exits_2(self, tmp_path, capsys):
        # tau so large the time scaling overflows on the first step
        out = tmp_path / "partial.csv"
        code = main(
            [
                "integrate",
                "--nu", "0.5",
                "--scheme", "generating-1",
                "--z0", "1,0",
                "--tau", "2000",
                "--steps", "3",
                "--out", str(out),
            ]
        )
        assert code == 2
        header, rows = read_csv(out)
        assert len(rows) == 1  # only the initial state was accepted
        assert "step 0 failed" in capsys.readouterr().err

    def test_rows_equal_the_library_trajectory_bit_for_bit(self, tmp_path):
        out = tmp_path / "g2.csv"
        code = main(
            [
                "integrate",
                "--scheme", "generating-2",
                "--z0", "0.7,-1.3",
                "--t0", "0.3",
                "--tau", "0.1",
                "--steps", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        system = oscillator_system(NU)
        scheme = make_scheme(system, oscillator_alpha(NU), 0.3, 2)
        traj = integrate(system, scheme, np.array([0.7, -1.3]), 0.3, 0.1, 3)
        certified = attach_residuals(system, scheme, traj)
        assert len(rows) == 4
        for row, state in zip(rows, traj.states):
            np.testing.assert_array_equal([float(v) for v in row[2:4]], state)
        assert tuple(float(row[4]) for row in rows[1:]) == certified.residuals

    def test_closed_form_schemes_report_tiny_residuals(self, tmp_path):
        for scheme in ("closed-first", "closed-second"):
            out = tmp_path / f"{scheme}.csv"
            code = main(
                [
                    "integrate",
                    "--nu", "0.5",
                    "--scheme", scheme,
                    "--z0", "1,0",
                    "--tau", "0.1",
                    "--steps", "50",
                    "--out", str(out),
                ]
            )
            assert code == 0
            _, rows = read_csv(out)
            assert max(float(row[4]) for row in rows[1:]) <= 1e-10


class TestCheck:
    def test_oscillator_passes(self, capsys):
        assert main(["check", "--nu", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out

    def test_perturbed_system_fails_with_the_curl_magnitude(self, capsys):
        assert main(["check", "--nu", "0.5", "--perturb", "0.1"]) == 3
        out = capsys.readouterr().out
        curl_line = next(line for line in out.splitlines() if "time-curl" in line)
        value = float(curl_line.split(":")[1])
        assert value == pytest.approx(0.1, rel=0.1)

    def test_large_tolerance_accepts_the_perturbation(self):
        assert main(["check", "--nu", "0.5", "--perturb", "0.1", "--tol", "10"]) == 0

    def test_unknown_system_rejected(self):
        assert main(["check", "--system", "pendulum"]) == 1


class TestConvergence:
    def test_first_order_slope(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        code = main(
            [
                "convergence",
                "--nu", "0.5",
                "--scheme", "generating-1",
                "--z0", "1,0",
                "--tau-list", "0.1,0.05,0.025,0.0125",
                "--horizon", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        slope = float(printed.split("slope =")[1])
        assert 0.8 <= slope <= 1.2
        header, rows = read_csv(out)
        assert header == ["tau", "error"]
        assert len(rows) == 4

    def test_second_order_slope(self, capsys):
        code = main(
            [
                "convergence",
                "--nu", "0.5",
                "--scheme", "closed-second",
                "--z0", "1,0",
                "--tau-list", "0.1,0.05,0.025,0.0125",
                "--horizon", "1",
            ]
        )
        assert code == 0
        slope = float(capsys.readouterr().out.split("slope =")[1].splitlines()[0])
        assert 1.8 <= slope <= 2.2

    def test_too_few_step_sizes_rejected(self):
        assert main(["convergence", "--tau-list", "0.1,0.05"]) == 1


class TestReconstruct:
    def test_unit_damping_point(self, capsys):
        assert main(["reconstruct", "--nu", "1", "--z0", "1,1", "--t0", "0"]) == 0
        out = capsys.readouterr().out
        f_line = next(line for line in out.splitlines() if line.startswith("F ="))
        b_line = next(line for line in out.splitlines() if line.startswith("B ="))
        f_vals = [float(v) for v in f_line.strip("F = ()").split(",")]
        np.testing.assert_allclose(f_vals, [0.5, -0.5], atol=1e-9)
        assert float(b_line.split("=")[1]) == pytest.approx(1.5, abs=1e-8)

    def test_origin_gives_zeros(self, capsys):
        assert main(["reconstruct", "--nu", "0.5", "--z0", "0,0"]) == 0
        out = capsys.readouterr().out
        assert float(out.splitlines()[1].split("=")[1]) == pytest.approx(0.0, abs=1e-12)

    def test_half_damping_scalar_value(self, capsys):
        assert main(["reconstruct", "--nu", "0.5", "--z0", "1,1", "--t0", "0"]) == 0
        b_line = capsys.readouterr().out.splitlines()[1]
        assert float(b_line.split("=")[1]) == pytest.approx(1.25, abs=1e-8)

    def test_perturbed_system_fails_consistency(self, capsys):
        assert main(["reconstruct", "--nu", "0.5", "--z0", "1,1", "--perturb", "0.1"]) == 3

    @pytest.mark.parametrize("z0", ["1,1,1", "1,nan"])
    def test_bad_phase_point_is_a_configuration_error(self, z0, capsys):
        assert main(["reconstruct", "--nu", "0.5", "--z0", z0]) == 1
        assert capsys.readouterr().err.startswith("configuration error: z0 ")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_point_fails_consistency(self, capsys):
        # B overflows to inf here; the check must not accept its NaN residual
        assert main(["reconstruct", "--nu", "0.5", "--z0", "1e200,1e200", "--t0", "0"]) == 3
        assert "B =" not in capsys.readouterr().out


class TestConfigMerging:
    def test_config_file_fills_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nu = 1.0\nz0 = 1,1\nt0 = 0\n# comment line\n")
        assert main(["reconstruct", "--config", str(cfg)]) == 0
        b_value = float(capsys.readouterr().out.splitlines()[1].split("=")[1])
        assert b_value == pytest.approx(1.5, abs=1e-8)  # nu from file

        assert main(["reconstruct", "--config", str(cfg), "--nu", "0.5"]) == 0
        b_value = float(capsys.readouterr().out.splitlines()[1].split("=")[1])
        assert b_value == pytest.approx(1.25, abs=1e-8)  # flag beats file

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("paris = 1\n")
        assert main(["reconstruct", "--config", str(cfg)]) == 1

    def test_missing_config_file_rejected(self, tmp_path):
        assert main(["reconstruct", "--config", str(tmp_path / "absent.cfg")]) == 1

    def test_help_exits_cleanly(self):
        assert main(["--help"]) == 0
        assert main([]) == 1
