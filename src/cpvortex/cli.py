"""Command line interface: simulate, verify, tabulate.

Exit codes: 0 success, 1 failed verification, 2 unreadable or invalid
configuration, 3 collision during integration (the step index is
reported), 4 numeric or domain failure, including a run whose state,
energy or momentum norm stops being finite.

Each verification check has a fixed tolerance, set in cpvortex.verify; no
option or environment variable changes it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import dynamics, greens, momentum, verify
from .errors import CollisionError, ConfigurationError, CpvortexError, DomainError
from .geom import ProjectivePoint
from .su3flag import FlagCoords

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_COLLISION = 3
EXIT_NUMERIC = 4


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


# ---------------------------------------------------------------------------
# configuration parsing


def _integer(value, name: str) -> int:
    """A JSON integer field; floats, bools and strings are rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return value


def _number(value, name: str) -> float:
    """A JSON number field; bools and strings are rejected, not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    return float(value)


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{name} must be a JSON object, got {value!r}")
    return value


def _output_path(value, name: str):
    """An output file name: null (no file) or a nonempty string, never a file descriptor."""
    if value is not None and not (isinstance(value, str) and value):
        raise ConfigurationError(f"{name} must be a nonempty string or null, got {value!r}")
    return value


def _complex(pair, name: str) -> complex:
    return complex(_number(pair[0], f"{name} re"), _number(pair[1], f"{name} im"))


def _parse_position(manifold: str, n: int, raw, index: int):
    if manifold == "plane":
        if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
            raise ConfigurationError(f"vortex {index}: planar position must be [re, im], got {raw!r}")
        return _complex(raw, f"vortex {index}: position")
    if not (isinstance(raw, (list, tuple)) and len(raw) == n + 1):
        raise ConfigurationError(
            f"vortex {index}: CP^{n} position needs {n + 1} homogeneous [re, im] pairs, got {raw!r}"
        )
    coords = []
    for pair in raw:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ConfigurationError(f"vortex {index}: each coordinate must be [re, im], got {pair!r}")
        coords.append(_complex(pair, f"vortex {index}: coordinate"))
    return ProjectivePoint(np.array(coords))


def load_config(path: str):
    """Read a JSON run configuration; raises ConfigurationError on any defect."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path!r} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc

    try:
        manifold = doc["manifold"]
        if manifold not in ("plane", "cpn"):
            raise ConfigurationError(f"manifold must be 'plane' or 'cpn', got {manifold!r}")
        n = _integer(doc.get("n", 0), "n")
        if manifold == "cpn" and n < 1:
            raise ConfigurationError("cpn runs need a field 'n' >= 1")
        vortices = doc["vortices"]
        if not isinstance(vortices, list) or not vortices:
            raise ConfigurationError("'vortices' must be a nonempty list")
        positions, strengths = [], []
        # only a planar separation can overflow here: it reads inf, and the run then stops
        # at its non-finite energy; NumPy's warning would only repeat that
        with np.errstate(over="ignore"):
            for i, entry in enumerate(vortices):
                positions.append(_parse_position(manifold, n, entry["position"], i))
                strengths.append(_number(entry["strength"], f"vortex {i}: strength"))
            if manifold == "plane":
                system = dynamics.VortexSystem.plane(positions, strengths)
            else:
                system = dynamics.VortexSystem.cpn(positions, strengths)

        integ = _object(doc["integrator"], "integrator")
        method = integ.get("method", "rk4")
        if method not in dynamics.METHODS:
            raise ConfigurationError(f"integrator.method must be one of {list(dynamics.METHODS)}, got {method!r}")
        dt = _number(integ["dt"], "integrator.dt")
        if not (math.isfinite(dt) and dt > 0.0):
            raise ConfigurationError(f"integrator.dt must be finite and positive, got {dt!r}")
        if "steps" in integ:
            steps = _integer(integ["steps"], "integrator.steps")
        elif "t_end" in integ:
            t_end = _number(integ["t_end"], "integrator.t_end")
            steps = round(t_end / dt)
            if not abs(t_end - steps * dt) <= 1e-9 * abs(t_end):
                raise ConfigurationError(f"integrator.t_end {t_end!r} is not an integer multiple of dt {dt!r}")
        else:
            raise ConfigurationError("integrator needs 'steps' or 't_end'")
        if steps < 0:
            raise ConfigurationError(f"integrator needs a nonnegative number of steps, got {steps}")
        if method == "rk4" and steps > dynamics.MAX_RECORDED_STEPS:
            raise ConfigurationError(f"rk4 run of {steps} steps exceeds the cap of {dynamics.MAX_RECORDED_STEPS} recorded steps")
        if not math.isfinite(dt * steps):
            raise ConfigurationError(f"integrator horizon dt * steps = {dt!r} * {steps} is not finite")
        outputs = _object(doc.get("outputs", {}), "outputs")
        paths = [_output_path(outputs.get(key), f"outputs.{key}") for key in ("trajectory_path", "monitor_path")]
        if None not in paths and os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
            raise ConfigurationError(f"outputs.trajectory_path and outputs.monitor_path name the same file {paths[0]!r}")
        return {
            "system": system,
            "method": method,
            "dt": dt,
            "steps": steps,
            "trajectory_path": paths[0],
            "monitor_path": paths[1],
            "seed": _integer(doc.get("seed", 0), "seed"),
        }
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"config field error: {exc!r}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    try:
        cfg = load_config(args.config)
    except CpvortexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    with contextlib.ExitStack() as outputs:
        # open the outputs first, so that a bad path fails before the run
        try:
            traj_fh, mon_fh = (
                outputs.enter_context(open(cfg[key], "w", encoding="utf-8")) if cfg[key] else None
                for key in ("trajectory_path", "monitor_path")
            )
        except OSError as exc:
            print(f"error: cannot open output file: {exc}", file=sys.stderr)
            return EXIT_PARSE

        t0 = time.perf_counter()
        try:
            traj = dynamics.integrate(cfg["system"], cfg["dt"], cfg["steps"], method=cfg["method"])
        except CollisionError as exc:
            print(f"error: collision at step {exc.step_index}: {exc}", file=sys.stderr)
            return EXIT_COLLISION
        wall = time.perf_counter() - t0

        if traj_fh:
            dynamics.write_trajectory_csv(traj, traj_fh)
        if mon_fh:
            dynamics.write_monitor_csv(traj, mon_fh)

    h = traj.monitors[:, 0]
    mom = traj.monitors[:, 1]
    print("summary:")
    print(f"  steps_recorded: {traj.times.size - 1}")
    print(f"  final_time: {_fmt(traj.times[-1])}")
    print(f"  energy_drift: {_fmt(np.max(np.abs(h - h[0])))}")
    print(f"  momentum_norm_drift: {_fmt(np.max(np.abs(mom - mom[0])))}")
    print(f"  min_separation: {_fmt(np.min(traj.monitors[:, 2]))}")
    period = dynamics.planar_pair_period(traj)
    if period is not None:
        print(f"  estimated_period: {_fmt(period)}")
    print(f"  wall_time_s: {wall:.3f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        results = verify.run_suite(args.suite, seed=args.seed)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    failed = False
    for res in results:
        print(res.line())
        if res.gating and not res.passed:
            failed = True
    print(f"{'FAILED' if failed else 'OK'}: {sum(r.passed for r in results)}/{len(results)} checks passed")
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def cmd_tabulate_greens(args) -> int:
    if args.samples < 1:
        raise DomainError("need at least one sample")
    rs = np.linspace(args.rmin, args.rmax, args.samples)
    rows = zip(rs, greens.greens_cpn(args.n, rs), greens.greens_cpn_derivative(args.n, rs))
    print("r,G,phi_prime")
    for r, g, dg in rows:
        print(",".join(_fmt(v) for v in (r, g, dg)))
    return EXIT_OK


def cmd_tabulate_momentum(args) -> int:
    try:
        z = FlagCoords(complex(args.z1), complex(args.z2), complex(args.z3))
        m = momentum.momentum_flag(z).matrix
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"momentum value at z1={z.z1}, z2={z.z2}, z3={z.z3}:")
    for row in m:
        print("  [" + "  ".join(f"{v.real:+.12f}{v.imag:+.12f}j" for v in row) + "]")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Each subcommand stores the name of its handler, not the function, and
    main looks that name up in this module on every call, so a wrapped or
    patched cmd_* is the one that runs.
    """
    parser = argparse.ArgumentParser(prog="cpvortex", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a vortex simulation from a JSON config")
    p_sim.add_argument("config", help="path to the JSON run configuration")
    p_sim.set_defaults(handler="cmd_simulate")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(handler="cmd_verify")

    p_tab = sub.add_parser("tabulate", help="emit tabulated values as CSV / text")
    tab_sub = p_tab.add_subparsers(dest="what", required=True)

    p_g = tab_sub.add_parser("greens", help="CSV of r, G(r), phi'(r) on CP^n")
    p_g.add_argument("--n", type=int, required=True)
    p_g.add_argument("--samples", type=int, default=10)
    p_g.add_argument("--rmin", type=float, default=0.1)
    p_g.add_argument("--rmax", type=float, default=math.pi / 2)
    p_g.set_defaults(handler="cmd_tabulate_greens")

    p_m = tab_sub.add_parser("momentum", help="flag momentum matrix at (z1, z2, z3)")
    p_m.add_argument("--z1", default="0", help="complex literal, e.g. '0.5+0.3j'")
    p_m.add_argument("--z2", default="0")
    p_m.add_argument("--z3", default="0")
    p_m.set_defaults(handler="cmd_tabulate_momentum")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.handler](args)
    except CpvortexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
