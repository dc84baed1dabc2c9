import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoff import (
    exact_solution,
    make_scheme,
    oscillator_alpha,
    oscillator_system,
    run,
    step,
    step_jacobian,
    symplectic_residual,
)
from birkhoff.cli import OPTIONS, console_main, main

NU = 0.5
ROOT = Path(__file__).resolve().parents[1]


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""  # trailing LF
    return lines[0].split(","), [line.split(",") for line in lines[1:-1]]


@pytest.fixture(scope="module")
def readme_trajectory(tmp_path_factory):
    """Exit code and CSV of the README ``integrate`` example."""
    out = tmp_path_factory.mktemp("readme") / "traj.csv"
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
    return code, out


class TestIntegrate:
    def test_writes_full_precision_trajectory(self, readme_trajectory):
        code, out = readme_trajectory
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

    def test_residual_column_is_the_compare_certificate(self, readme_trajectory):
        # a library run certified by the exact step Jacobian reproduces the
        # column: its worst residual is the column's maximum
        code, out = readme_trajectory
        assert code == 0
        _, rows = read_csv(out)
        system = oscillator_system(NU)
        scheme = make_scheme(system, oscillator_alpha(NU), 0.0, 2)

        def certify(z, t_k, z_next):
            jacobian = step_jacobian(system, scheme, z, t_k, 0.01)
            return symplectic_residual(system, jacobian, z, t_k, z_next, t_k + 0.01)

        traj = run(
            lambda z, t_k: step(system, scheme, z, t_k, 0.01),
            np.array([1.0, 0.0]), 0.0, 0.01, 100, certify=certify,
        )
        assert max(traj.residuals) == max(float(row[4]) for row in rows[1:])

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
        certified = run(
            lambda z, t: step(system, scheme, z, t, 0.1),
            np.array([0.7, -1.3]),
            0.3,
            0.1,
            3,
            certify=lambda z, t, z_next: symplectic_residual(
                system, step_jacobian(system, scheme, z, t, 0.1), z, t, z_next, t + 0.1
            ),
        )
        assert len(rows) == 4
        for row, state in zip(rows, certified.states):
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
        assert "worst" not in out

    def test_failed_check_names_where_the_violation_sits(self, capsys):
        assert main(["check", "--nu", "0.5", "--perturb", "0.1"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert lines[4].startswith("worst time-curl violation: entry (0, 1) at sample ")

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "start",
        [["--z0", "nan,0"], ["--z0", "inf,0"], ["--t0", "nan"], ["--t0", "inf"]],
        ids=["z0-nan", "z0-inf", "t0-nan", "t0-inf"],
    )
    def test_non_finite_start_is_named_before_the_reference(self, start, capsys):
        # the reference used to be evaluated first: it was blamed for the
        # start, and an infinite z0 leaked numpy's RuntimeWarning
        argv = ["convergence", "--nu", "0.5", "--scheme", "closed-first", "--horizon", "1"]
        assert main(argv + start) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("configuration error: need finite t0 and z0 and a finite positive")
        assert err.count("\n") == 1

    def test_too_few_step_sizes_rejected(self):
        assert main(["convergence", "--tau-list", "0.1,0.05"]) == 1

    def test_empty_tau_list_is_the_default_ladder(self, tmp_path, capsys):
        runs = []
        for extra in ([], ["--tau-list", ""]):
            out = tmp_path / f"conv{len(extra)}.csv"
            assert main(["convergence", "--scheme", "closed-first", "--out", str(out)] + extra) == 0
            runs.append((capsys.readouterr(), out.read_bytes()))
        assert runs[0] == runs[1]


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

    @pytest.mark.parametrize(
        "z0, message",
        [
            pytest.param("1,1,1", "phase vector must have even positive length, got shape (3,)",
                         id="1,1,1"),
            pytest.param("1,nan", "phase point entries must be finite", id="1,nan"),
        ],
    )
    def test_bad_phase_point_is_a_configuration_error(self, z0, message, capsys):
        # PhasePoint, which reads z0, checks it
        assert main(["reconstruct", "--nu", "0.5", "--z0", z0]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"

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

    def test_readme_documents_exactly_the_option_table(self):
        # every flag in README's "Command line" section, and no other
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        flags = {"--" + opt.name.replace("_", "-") for opt in OPTIONS} | {"--help"}
        assert set(re.findall(r"--[a-z0-9][a-z0-9-]*", section)) == flags

    def test_help_exits_cleanly(self):
        assert main(["--help"]) == 0
        assert main([]) == 1

    def test_config_may_name_another_subcommands_option(self, tmp_path, capsys):
        cfg = tmp_path / "check.cfg"
        cfg.write_text("tol = 1e-3\nsamples = 7\nperturb = inf\n")
        argv = ["integrate", "--tau", "0.1", "--steps", "2"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main(argv + ["--config", str(cfg)]) == 0
        assert capsys.readouterr() == plain

    @pytest.mark.parametrize("argv", [["check", "--samples", "5"], ["reconstruct"]])
    def test_scheme_key_is_ignored_where_no_scheme_runs(self, argv, tmp_path, capsys):
        cfg = tmp_path / "scheme.cfg"
        cfg.write_text("scheme = bogus\n")
        code = main(argv)
        plain = capsys.readouterr()
        assert main(argv + ["--config", str(cfg)]) == code
        assert capsys.readouterr() == plain


class TestConsoleMain:
    @pytest.mark.parametrize(
        "argv, code",
        [(["integrate", "--scheme", "closed-first", "--steps", "2"], 0),
         (["integrate", "--steps", "0"], 1)],
        ids=["valid", "invalid"],
    )
    def test_exits_with_the_code_of_main(self, argv, code, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["birkhoff"] + argv)
        with pytest.raises(SystemExit) as info:
            console_main()
        assert info.value.code == code
        assert main(argv) == code


class TestErrorBoundary:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv, config, code",
        [
            pytest.param(["integrate"], "nu = abc\n", 1, id="config-float"),
            pytest.param(["integrate"], "steps = 1.5\n", 1, id="config-int"),
            pytest.param(["integrate"], "scheme = bogus\n", 1, id="config-scheme"),
            pytest.param(["convergence"], "scheme = bogus\n", 1, id="convergence-scheme"),
            pytest.param(
                ["convergence", "--horizon", "1e300", "--tau-list", "1e-10,1e-20,1e-30"],
                None,
                1,
                id="convergence-step-count",
            ),
            pytest.param(["integrate", "--nu", "-1"], None, 1, id="negative-nu"),
            pytest.param(["check", "--seed", "-1"], None, 1, id="negative-seed"),
            pytest.param(
                ["check", "--tol", "-1", "--samples", "3"], None, 1, id="negative-tol"
            ),
            pytest.param(["check", "--nu", "1000"], None, 2, id="check-overflow"),
            pytest.param(
                ["reconstruct", "--nu", "1000", "--t0", "1"], None, 2, id="reconstruct-overflow"
            ),
            pytest.param(
                ["convergence", "--nu", "0.5", "--tau-list", "2000,1000,500", "--horizon", "2000"],
                None,
                2,
                id="convergence-overflow",
            ),
        ],
    )
    def test_failure_is_one_line_and_an_exit_code(self, argv, config, code, tmp_path, capsys):
        if config is not None:
            path = tmp_path / "run.cfg"
            path.write_text(config)
            argv = argv + ["--config", str(path)]
        assert main(argv) == code
        prefix = "configuration error: " if code == 1 else "numerical failure: "
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize(
        "argv",
        [["integrate", "--steps", "2"], ["convergence", "--scheme", "closed-first"]],
        ids=["integrate", "convergence"],
    )
    def test_unwritable_output_file_is_a_configuration_error(self, argv, tmp_path, capsys):
        path = tmp_path / "absent" / "x.csv"
        assert main(argv + ["--out", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"configuration error: cannot write output file {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, config",
        [
            pytest.param(["integrate", "--steps", "2", "--tau", "nan"], None, id="tau-nan"),
            pytest.param(["integrate", "--steps", "2", "--t0", "inf"], None, id="t0-inf"),
            pytest.param(["check", "--nu", "nan"], None, id="nu-nan"),
            pytest.param(["check", "--perturb", "inf"], None, id="perturb-inf"),
            pytest.param(["check", "--tol", "nan"], None, id="tol-nan"),
            pytest.param(["convergence", "--horizon", "nan"], None, id="horizon-nan"),
            pytest.param(["integrate", "--steps", "2"], "tau = inf\n", id="config-tau-inf"),
        ],
    )
    def test_non_finite_scalar_is_a_configuration_error(self, argv, config, tmp_path, capsys):
        if config is not None:
            path = tmp_path / "run.cfg"
            path.write_text(config)
            argv = argv + ["--config", str(path)]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["integrate", "--steps", "0"], "n_steps must be a positive integer, got 0"),
            (["integrate", "--tau", "0"], "finite positive tau"),
            (["check", "--samples", "0"], "sample set must be non-empty"),
            (["convergence", "--horizon", "0"], "horizon must be finite"),
            (["convergence", "--horizon", "-1"], "horizon must be finite"),
            (["convergence", "--tau-list", "0.1,0.05"], "at least 3 step sizes"),
            (["convergence", "--z0", "0,0"], "error at tau = 0.1 must be positive and finite"),
            (
                ["integrate", "--z0", "1,2,3", "--scheme", "closed-first"],
                "state of shape (3,) does not match system dimension 2",
            ),
        ],
        ids=[
            "steps-0", "tau-0", "samples-0", "horizon-0", "horizon-neg", "two-taus", "zero-error",
            "z0-length",
        ],
    )
    def test_out_of_range_input_fails_the_library_check(self, argv, message, capsys):
        # the library call that reads each input is the one place that checks it
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("configuration error: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["reconstruct", "--nu", "1", "--z0", "1,,1"], id="z0"),
            pytest.param(["convergence", "--tau-list", "0.1,,0.05,0.025"], id="tau-list"),
        ],
    )
    def test_empty_vector_field_is_a_configuration_error(self, argv, capsys):
        # empty fields used to be dropped, so 1,,1 read as (1, 1)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("configuration error: cannot parse vector")

    @pytest.mark.parametrize(
        "tau_list", ["0.1,0.05,0", "nan,0.05,0.025", "inf,0.1,0.05", "0.1,-0.05,0.025"]
    )
    def test_step_size_that_is_not_finite_and_positive_is_a_configuration_error(
        self, tau_list, capsys
    ):
        assert main(["convergence", f"--tau-list={tau_list}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "configuration error: tau values must be finite and positive\n"

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["check", "--out", "x.csv"], id="check-out"),
            pytest.param(
                ["integrate", "--scheme", "closed-first", "--tau", "0.1", "--steps", "2",
                 "--perturb", "0.1"],
                id="integrate-perturb",
            ),
        ],
    )
    def test_option_the_subcommand_does_not_read_is_rejected(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        lines=st.lists(
            st.tuples(
                st.one_of(st.sampled_from([opt.name for opt in OPTIONS]), st.text(max_size=8)),
                st.one_of(
                    st.text(max_size=12),
                    st.floats().map(repr),
                    st.integers(-(10**6), 10**6).map(str),
                    st.lists(st.floats(), max_size=3).map(lambda v: ",".join(map(repr, v))),
                ),
            ),
            max_size=4,
        )
    )
    def test_any_reconstruct_config_maps_to_an_exit_code(self, lines, tmp_path_factory):
        path = tmp_path_factory.mktemp("cfg") / "run.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in lines))
        assert main(["reconstruct", "--config", str(path)]) in (0, 1, 2, 3)


def test_module_entry_point_prints_what_main_prints(capsys):
    argv = ["reconstruct", "--nu", "1", "--z0", "1,1"]
    assert main(argv) == 0
    expected = capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "birkhoff.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected.out, expected.err)
