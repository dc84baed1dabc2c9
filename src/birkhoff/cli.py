"""Command-line front end.

Subcommands: ``integrate``, ``check``, ``convergence``, ``reconstruct``.
The CLI runs the built-in damped oscillator; arbitrary systems enter
through the library API.  Each option is declared once, in
:data:`OPTIONS`, which feeds the parser's flags, the defaults and the
conversion of config-file values; a config key the running subcommand
does not take (``perturb`` for ``integrate``) is ignored.  Exit codes,
all assigned in :func:`main` except where noted: 0 success, 1 usage or
configuration error, 2 numerical failure (``integrate`` still writes the
steps accepted before it), 3 check failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import stepper
from .core import BirkhoffSystem, PhasePoint, _require_dim
from .diagnostics import convergence_order, symplectic_residual
from .errors import BirkhoffError, InconsistencyError
from .genscheme import make_scheme
from .oscillator import (
    euler_center,
    exact_solution,
    oscillator_alpha,
    oscillator_system,
    scheme_first_order,
    scheme_second_order,
)
from .selfadjoint import RawFirstOrderSystem, check_self_adjointness, reconstruct_b, reconstruct_f

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL_FAILURE = 2
EXIT_CHECK_FAILURE = 3

GENERATING_SCHEMES = ("generating-1", "generating-2")
MATRIX_SCHEMES = {
    "closed-first": scheme_first_order,
    "closed-second": scheme_second_order,
    "euler-center": euler_center,
}
SCHEME_CHOICES = GENERATING_SCHEMES + tuple(MATRIX_SCHEMES)


class ConfigError(Exception):
    pass


def _raw_system(nu: float, perturb: float) -> RawFirstOrderSystem:
    """The oscillator's K and D, with D_2 perturbed by ``perturb`` times z_1."""
    # perturb is the one input no library call reads
    if not np.isfinite(perturb):
        raise ConfigError(f"perturb must be finite, got {perturb!r}")
    system = oscillator_system(nu)

    def d_perturbed(z, t):
        d = np.array(system.D(z, t), dtype=float)
        d[1] += perturb * z[0]
        return d

    return RawFirstOrderSystem(1, system.K, d_perturbed if perturb else system.D)


def _parse_vector(text: str) -> Tuple[float, ...]:
    """Comma-separated floats; an empty string is the empty vector, an empty field an error."""
    if not text.strip():
        return ()
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse vector {text!r}; expected comma-separated floats")


class Option(NamedTuple):
    """One option: flag ``--name`` (underscores as dashes) and config key ``name``."""

    name: str
    type: Callable[[str], object]
    default: object
    help: str
    commands: Tuple[str, ...] = ("integrate", "check", "convergence", "reconstruct")


STATE_COMMANDS = ("integrate", "convergence", "reconstruct")

# the subcommand flags in --help order; a config file may set any of them
OPTIONS = (
    Option("nu", float, 0.5, "damping coefficient of the built-in system"),
    Option("config", str, None, "optional key=value config file; flags win"),
    Option("perturb", float, 0.0, "perturb D_2 by this factor times z_1",
           ("check", "reconstruct")),
    Option("out", str, None, "output file path (default: stdout)", ("integrate", "convergence")),
    Option("scheme", str, "generating-2", "|".join(SCHEME_CHOICES), ("integrate", "convergence")),
    Option("z0", _parse_vector, (1.0, 0.0), "initial state or phase point, comma separated",
           STATE_COMMANDS),
    Option("t0", float, 0.0, "initial time or time of the phase point", STATE_COMMANDS),
    Option("tau", float, 0.01, "step size", ("integrate",)),
    Option("steps", int, 100, "number of steps", ("integrate",)),
    Option("tol", float, 1e-7, "violation tolerance", ("check",)),
    Option("samples", int, 50, "number of random sample points", ("check",)),
    Option("seed", int, 0, "sampling seed", ("check",)),
    Option("tau_list", _parse_vector, (), "decreasing step sizes", ("convergence",)),
    Option("horizon", float, 1.0, "integration horizon from t0", ("convergence",)),
)
# the keys a config file may set: every option but the config file itself
OPTION_TYPES = {opt.name: opt.type for opt in OPTIONS if opt.name != "config"}


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    return values


def _resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Merge flag values over config-file values over the table's defaults."""
    values = {opt.name: opt.default for opt in OPTIONS}
    for key, raw in (_read_config_file(args.config) if args.config else {}).items():
        if key not in OPTION_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = OPTION_TYPES[key](raw)
    values.update((k, v) for k, v in vars(args).items() if k in values and v is not None)
    return argparse.Namespace(**values)


def _build_step_maps(system: BirkhoffSystem, cfg: argparse.Namespace, tau: float):
    """(advance, jacobian) callables of signature (z, t_k) for the selected scheme."""
    if cfg.scheme not in SCHEME_CHOICES:
        raise ConfigError(
            f"unknown scheme {cfg.scheme!r}; available: {', '.join(SCHEME_CHOICES)}"
        )
    if cfg.scheme in GENERATING_SCHEMES:
        order = int(cfg.scheme[-1])
        scheme = make_scheme(system, oscillator_alpha(cfg.nu), cfg.t0, order)
        return (
            lambda z, t: stepper.step(system, scheme, z, t, tau),
            lambda z, t: stepper.step_jacobian(system, scheme, z, t, tau),
        )
    matrix = MATRIX_SCHEMES[cfg.scheme](cfg.nu, tau)
    return (lambda z, t: matrix @ z), (lambda z, t: matrix)


def _fmt(value: float) -> str:
    """``value`` to 17 significant digits, which round-trip a float."""
    return format(float(value), ".17g")


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}")


def cmd_integrate(cfg: argparse.Namespace) -> int:
    system = oscillator_system(cfg.nu)
    z0 = _require_dim(system, cfg.z0)
    advance, jacobian = _build_step_maps(system, cfg, cfg.tau)

    def certify(z, t_k, z_next):
        return symplectic_residual(system, jacobian(z, t_k), z, t_k, z_next, t_k + cfg.tau)

    failure = None
    try:
        traj = stepper.run(advance, z0, cfg.t0, cfg.tau, cfg.steps, certify=certify)
    except BirkhoffError as exc:
        failure, traj = exc, exc.trajectory

    header = "step,t," + ",".join(f"z{i + 1}" for i in range(system.dim)) + ",residual"
    lines = [header, f"0,{_fmt(cfg.t0)}," + ",".join(_fmt(v) for v in z0) + ","]
    for k, (z, residual) in enumerate(zip(traj.states[1:], traj.residuals)):
        # the step's own end time t_k + tau, which can differ in the last bit
        # from the grid formula t0 + (k + 1) * tau
        t = cfg.t0 + k * cfg.tau + cfg.tau
        lines.append(f"{k + 1},{_fmt(t)}," + ",".join(_fmt(v) for v in z) + f",{_fmt(residual)}")
    _write_text(cfg.out, "\n".join(lines) + "\n")
    if failure is not None:
        k = failure.step_index
        print(f"step {k} failed at t={cfg.t0 + k * cfg.tau}: {failure}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    return EXIT_OK


def _sample_points(dim: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    return [
        PhasePoint(rng.uniform(-2.0, 2.0, dim), float(rng.uniform(0.0, 1.0)))
        for _ in range(count)
    ]


def cmd_check(cfg: argparse.Namespace) -> int:
    raw = _raw_system(cfg.nu, cfg.perturb)
    points = _sample_points(raw.dim, cfg.samples, cfg.seed)
    report = check_self_adjointness(raw, points, tol=cfg.tol)
    print(f"antisymmetry violation: {report.antisymmetry_violation:.6g}")
    print(f"closure violation:      {report.closure_violation:.6g}")
    print(f"time-curl violation:    {report.time_curl_violation:.6g}")
    verdict = "PASSED" if report.passed else "FAILED"
    print(f"self-adjointness check: {verdict} (tol {cfg.tol:.6g}, {cfg.samples} samples)")
    for name, value, at in (
        ("antisymmetry", report.antisymmetry_violation, report.antisymmetry_at),
        ("closure", report.closure_violation, report.closure_at),
        ("time-curl", report.time_curl_violation, report.time_curl_at),
    ):
        # written so that a NaN violation is located too
        if not value <= cfg.tol and at is not None:
            k, entry = at
            p = points[k]
            z = ", ".join(f"{x:.6g}" for x in p.z)
            print(f"worst {name} violation: entry {entry} at sample {k} (z = ({z}), t = {p.t:.6g})")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILURE


def cmd_convergence(cfg: argparse.Namespace) -> int:
    taus = tuple(cfg.tau_list) or (0.1, 0.05, 0.025, 0.0125)
    system = oscillator_system(cfg.nu)

    def factory(tau: float):
        advance, _ = _build_step_maps(system, cfg, tau)
        return advance

    def reference(t: float):
        return exact_solution(cfg.nu, cfg.z0[0], cfg.z0[1], t - cfg.t0)

    report = convergence_order(system, factory, reference, cfg.z0, cfg.t0, cfg.horizon, taus)
    lines = ["tau,error"]
    for tau, err in zip(taus, report.errors):
        lines.append(f"{_fmt(tau)},{_fmt(err)}")
    _write_text(cfg.out, "\n".join(lines) + "\n")
    print(f"slope = {report.slope:.3f}")
    return EXIT_OK


def cmd_reconstruct(cfg: argparse.Namespace) -> int:
    raw = _raw_system(cfg.nu, cfg.perturb)
    point = PhasePoint(cfg.z0, cfg.t0)
    f_vec = reconstruct_f(raw, point)
    print("F = (" + ", ".join(f"{v:.12g}" for v in f_vec) + ")")
    try:
        b_val = reconstruct_b(raw, point)
    except InconsistencyError as exc:
        print(f"B reconstruction failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    print(f"B = {b_val:.12g}")
    return EXIT_OK


COMMANDS = {
    "integrate": (cmd_integrate, "integrate a trajectory and emit CSV"),
    "check": (cmd_check, "verify the self-adjointness conditions"),
    "convergence": (cmd_convergence, "estimate a scheme's convergence order"),
    "reconstruct": (cmd_reconstruct, "rebuild F and B from the raw system"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="birkhoff",
        description="Structure-preserving one-step schemes for Birkhoffian systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, text) in COMMANDS.items():
        p_cmd = sub.add_parser(command, help=text)
        for opt in OPTIONS:
            if command in opt.commands:
                flag = "--" + opt.name.replace("_", "-")
                p_cmd.add_argument(flag, type=opt.type, help=opt.help)
        p_cmd.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; failures that leave it get their exit code here."""
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"):  # a failure reports itself in one line
            return args.func(_resolve_config(args))
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    except (ConfigError, ValueError) as exc:
        # ConfigError also comes from flag-value parsers; argparse passes it through
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BirkhoffError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
