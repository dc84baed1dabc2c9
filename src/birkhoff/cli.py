"""Command-line front end.

Subcommands: ``integrate``, ``check``, ``convergence``, ``reconstruct``.
Only built-in systems are selectable here; arbitrary systems enter through
the library API.  Each option is declared once, in :data:`OPTIONS`, which
feeds the parser's flags, the defaults and the conversion of config-file
values.  Exit codes, all assigned in :func:`main` except where noted: 0
success, 1 usage or configuration error, 2 numerical failure (``integrate``
still writes the steps accepted before it), 3 check failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import stepper
from .core import BirkhoffSystem, PhasePoint
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
from .transform import AlphaTransform

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


@dataclass
class SystemBundle:
    system: BirkhoffSystem
    alpha: AlphaTransform
    raw: RawFirstOrderSystem
    reference: Callable


def _damped_oscillator(nu: float, perturb: float) -> SystemBundle:
    system = oscillator_system(nu)
    alpha = oscillator_alpha(nu)
    if perturb:
        base_d = system.D

        def d_perturbed(z, t):
            d = np.array(base_d(z, t), dtype=float)
            d[1] += perturb * z[0]
            return d

        raw = RawFirstOrderSystem(1, system.K, d_perturbed)
    else:
        raw = RawFirstOrderSystem(1, system.K, system.D)

    def reference(z0, t0):
        return lambda t: exact_solution(nu, z0[0], z0[1], t - t0)

    return SystemBundle(system, alpha, raw, reference)


SYSTEMS = {"damped-oscillator": _damped_oscillator}


def _parse_vector(text: str) -> Tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
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
    Option("system", str, "damped-oscillator", "built-in system selector (damped-oscillator)"),
    Option("nu", float, 0.5, "damping coefficient of the built-in system"),
    Option("config", str, None, "optional key=value config file; flags win"),
    Option("perturb", float, 0.0, "perturb D_2 by this factor times z_1"),
    Option("out", str, None, "output file path (default: stdout)"),
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
    cfg = argparse.Namespace(**values)
    if cfg.system not in SYSTEMS:
        raise ConfigError(
            f"unknown system {cfg.system!r}; available: {', '.join(sorted(SYSTEMS))}"
        )
    if cfg.scheme not in SCHEME_CHOICES:
        raise ConfigError(
            f"unknown scheme {cfg.scheme!r}; available: {', '.join(SCHEME_CHOICES)}"
        )
    return cfg


def _build_step_maps(bundle: SystemBundle, cfg: argparse.Namespace, tau: float):
    """(advance, jacobian) callables of signature (z, t_k) for the selected scheme."""
    if cfg.scheme in GENERATING_SCHEMES:
        order = int(cfg.scheme[-1])
        scheme = make_scheme(bundle.system, bundle.alpha, cfg.t0, order)
        return (
            lambda z, t: stepper.step(bundle.system, scheme, z, t, tau),
            lambda z, t: stepper.step_jacobian(bundle.system, scheme, z, t, tau),
        )
    matrix = MATRIX_SCHEMES[cfg.scheme](cfg.nu, tau)
    return (lambda z, t: matrix @ z), (lambda z, t: matrix)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _phase_vector(cfg: argparse.Namespace, dim: int) -> np.ndarray:
    """``cfg.z0`` as an array, which must have length ``dim`` and finite entries."""
    z0 = np.asarray(cfg.z0, dtype=float)
    if z0.shape != (dim,):
        raise ConfigError(f"z0 must have length {dim} for system {cfg.system!r}")
    if not np.isfinite(z0).all():
        raise ConfigError(f"z0 entries must be finite, got {','.join(map(str, cfg.z0))}")
    return z0


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def cmd_integrate(cfg: argparse.Namespace) -> int:
    if cfg.tau <= 0:
        raise ConfigError("tau must be positive")
    if cfg.steps < 1:
        raise ConfigError("steps must be at least 1")
    bundle = SYSTEMS[cfg.system](cfg.nu, cfg.perturb)
    dim = bundle.system.dim
    z0 = _phase_vector(cfg, dim)
    advance, jacobian = _build_step_maps(bundle, cfg, cfg.tau)

    def certify(z, t_k, z_next):
        return symplectic_residual(
            bundle.system, jacobian(z, t_k), z, t_k, z_next, t_k + cfg.tau
        )

    failure = None
    try:
        traj = stepper.run(advance, z0, cfg.t0, cfg.tau, cfg.steps, certify=certify)
    except BirkhoffError as exc:
        failure, traj = exc, exc.trajectory

    header = "step,t," + ",".join(f"z{i + 1}" for i in range(dim)) + ",residual"
    lines = [header, f"0,{_fmt(cfg.t0)}," + ",".join(_fmt(v) for v in z0) + ","]
    for k, (z, residual) in enumerate(zip(traj.states[1:], traj.residuals)):
        # the row time stays t_k + tau, which can differ from traj.time(k + 1)
        # in the last bit
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
    if cfg.samples < 1:
        raise ConfigError("samples must be at least 1")
    bundle = SYSTEMS[cfg.system](cfg.nu, cfg.perturb)
    points = _sample_points(bundle.raw.dim, cfg.samples, cfg.seed)
    report = check_self_adjointness(bundle.raw, points, tol=cfg.tol)
    print(f"antisymmetry violation: {report.antisymmetry_violation:.6g}")
    print(f"closure violation:      {report.closure_violation:.6g}")
    print(f"time-curl violation:    {report.time_curl_violation:.6g}")
    verdict = "PASSED" if report.passed else "FAILED"
    print(f"self-adjointness check: {verdict} (tol {cfg.tol:.6g}, {cfg.samples} samples)")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILURE


def cmd_convergence(cfg: argparse.Namespace) -> int:
    taus = tuple(cfg.tau_list) or (0.1, 0.05, 0.025, 0.0125)
    if len(taus) < 3:
        raise ConfigError("need at least 3 tau values")
    if cfg.horizon <= 0:
        raise ConfigError("horizon must be positive")
    bundle = SYSTEMS[cfg.system](cfg.nu, cfg.perturb)
    z0 = _phase_vector(cfg, bundle.system.dim)

    def factory(tau: float):
        advance, _ = _build_step_maps(bundle, cfg, tau)
        return advance

    report = convergence_order(
        bundle.system, factory, bundle.reference(z0, cfg.t0), z0, cfg.t0, cfg.horizon, taus
    )
    lines = ["tau,error"]
    for tau, err in zip(report.tau_values, report.errors):
        lines.append(f"{_fmt(tau)},{_fmt(err)}")
    _write_text(cfg.out, "\n".join(lines) + "\n")
    print(f"slope = {report.slope:.3f}")
    return EXIT_OK


def cmd_reconstruct(cfg: argparse.Namespace) -> int:
    bundle = SYSTEMS[cfg.system](cfg.nu, cfg.perturb)
    point = PhasePoint(_phase_vector(cfg, bundle.raw.dim), cfg.t0)
    f_vec = reconstruct_f(bundle.raw, point)
    print("F = (" + ", ".join(f"{v:.12g}" for v in f_vec) + ")")
    try:
        b_val = reconstruct_b(bundle.raw, point)
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
