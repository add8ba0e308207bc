"""Command line interface: simulate, verify, tabulate.

Exit codes: 0 success, 1 failed verification, 2 unreadable or invalid
configuration, or an output file that cannot be opened, written or closed,
3 collision during integration (the step index is reported), 4 numeric or
domain failure, including a run whose state, energy or momentum norm stops
being finite.

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
from .errors import CollisionError, ConfigurationError, CpvortexError, DomainError, NumericError
from .su3flag import FlagCoords

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_COLLISION = 3
EXIT_NUMERIC = 4

# most rows `tabulate greens` writes; a larger --samples is rejected before anything is allocated
MAX_SAMPLES = 1_000_000

# the keys of each object of a run configuration; any other key is rejected
_CONFIG_KEYS = ("manifold", "n", "vortices", "integrator", "outputs", "seed")
_VORTEX_KEYS = ("position", "strength")
_INTEGRATOR_KEYS = ("method", "dt", "steps", "t_end")
_OUTPUT_KEYS = ("trajectory_path", "monitor_path")


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
    """A JSON number field as a float; bools and strings are rejected, not converted, and so is an integer that no
    float holds."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # the decoder reads an integer exactly, whatever its size
        digits = len(str(abs(value)))
        raise ConfigurationError(f"{name} is out of the float range: an integer of {digits} digits") from None


def _key(obj: dict, key: str, name: str):
    """The value of a required key of the JSON object called ``name``; a missing key names the object and the key."""
    if key not in obj:
        raise ConfigurationError(f"{name} has no key {key!r}")
    return obj[key]


def _object(value, name: str, keys: tuple) -> dict:
    """A JSON object whose keys are all among ``keys``; a misspelled key is an error, not a default."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{name} must be a JSON object, got {value!r}")
    for key in value:
        if key not in keys:
            raise ConfigurationError(f"{name} has an unknown key {key!r}; its keys are {', '.join(keys)}")
    return value


def _output_path(value, name: str):
    """An output file name: null (no file) or a nonempty string that open() takes, never a file descriptor."""
    if value is None:
        return None
    if not (isinstance(value, str) and value):
        raise ConfigurationError(f"{name} must be a nonempty string or null, got {value!r}")
    try:
        if b"\0" not in os.fsencode(value):
            return value
    except UnicodeEncodeError:  # a lone surrogate, which no file name holds
        pass
    raise ConfigurationError(f"{name} must hold no NUL byte and no lone surrogate, got {value!r}")


def _complex(pair, name: str) -> complex:
    """A JSON [re, im] pair of numbers as a complex number."""
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ConfigurationError(f"{name} must be [re, im], got {pair!r}")
    return complex(_number(pair[0], f"{name} re"), _number(pair[1], f"{name} im"))


def _parse_position(manifold: str, raw, index: int):
    """A planar position [re, im] as a complex number, or a CP^n position, a list of [re, im] pairs, as a list of them."""
    if manifold == "plane":
        return _complex(raw, f"vortex {index}: position")
    if not isinstance(raw, (list, tuple)):
        raise ConfigurationError(f"vortex {index}: CP^n position must be a list of [re, im] pairs, got {raw!r}")
    return [_complex(pair, f"vortex {index}: coordinate") for pair in raw]


def load_config(path: str):
    """Read a JSON run configuration; raises ConfigurationError on any defect."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path!r} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    # the rest the decoder raises: bytes that are not UTF-8, an integer of more digits than int() converts,
    # or nesting deeper than the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"config {path!r} cannot be decoded: {exc}") from exc

    try:
        doc = _object(doc, "config", _CONFIG_KEYS)
        manifold = _key(doc, "manifold", "config")
        dynamics._check_manifold(manifold)  # the positions are parsed by manifold
        n = _integer(_key(doc, "n", "config") if manifold == "cpn" else doc.get("n", 0), "n")
        vortices = _key(doc, "vortices", "config")
        if not isinstance(vortices, list):
            raise ConfigurationError(f"'vortices' must be a list, got {vortices!r}")
        positions, strengths = [], []
        # only a planar separation can overflow here: it reads inf, and the run then stops
        # at its non-finite energy; NumPy's warning would only repeat that
        with np.errstate(over="ignore"):
            for i, entry in enumerate(vortices):
                entry = _object(entry, f"vortex {i}", _VORTEX_KEYS)
                positions.append(_parse_position(manifold, _key(entry, "position", f"vortex {i}"), i))
                strengths.append(_number(_key(entry, "strength", f"vortex {i}"), f"vortex {i}: strength"))
            # the constructor's rules on N, n and the shape, in that order, and then one normalizer call
            x, g = dynamics._system_arrays(manifold, positions, strengths, n, normalize=True)
            system = dynamics.VortexSystem(manifold, x, g, n)

        integ = _object(_key(doc, "integrator", "config"), "integrator", _INTEGRATOR_KEYS)
        method = integ.get("method", "rk4")
        dt = _number(_key(integ, "dt", "integrator"), "integrator.dt")
        if ("steps" in integ) == ("t_end" in integ):
            raise ConfigurationError("integrator needs 'steps' or 't_end'" + (", not both" if "steps" in integ else ""))
        if "steps" in integ:
            steps = _integer(integ["steps"], "integrator.steps")
        else:
            t_end = _number(integ["t_end"], "integrator.t_end")
            dynamics._check_run(dt, 0, method)  # the division below needs a positive, finite dt
            if not math.isfinite(t_end / dt):
                raise ConfigurationError(f"the step count t_end / dt = {t_end} / {dt} is not finite")
            if t_end < 0.0:
                raise ConfigurationError(f"integrator.t_end must be nonnegative, got {t_end}")
            steps = round(t_end / dt)
            if not abs(t_end - steps * dt) <= 1e-9 * abs(t_end):
                raise ConfigurationError(f"integrator.t_end {t_end!r} is not an integer multiple of dt {dt!r}")
        dynamics._check_run(dt, steps, method)  # integrate's run rules, before any output file is opened
        outputs = _object(doc.get("outputs", {}), "outputs", _OUTPUT_KEYS)
        paths = [_output_path(outputs.get(key), f"outputs.{key}") for key in _OUTPUT_KEYS]
        if None not in paths and os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
            raise ConfigurationError(f"outputs.trajectory_path and outputs.monitor_path name the same file {paths[0]!r}")
        _integer(doc.get("seed", 0), "seed")  # validated, otherwise unused
        return {
            "system": system,
            "method": method,
            "dt": dt,
            "steps": steps,
            "trajectory_path": paths[0],
            "monitor_path": paths[1],
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

    try:
        with contextlib.ExitStack() as outputs:
            # open the outputs first, so that a bad path fails before the run
            traj_fh, mon_fh = (
                outputs.enter_context(open(cfg[key], "w", encoding="utf-8")) if cfg[key] else None
                for key in ("trajectory_path", "monitor_path")
            )
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
    except OSError as exc:  # opening, writing, or the flush when a small output is closed
        print(f"error: cannot write output file: {exc}", file=sys.stderr)
        return EXIT_PARSE

    h, mom, dmin = traj.monitors.T
    print("summary:")
    print(f"  steps_recorded: {traj.times.size - 1}")
    print(f"  final_time: {_fmt(traj.times[-1])}")
    print(f"  energy_drift: {_fmt(np.max(np.abs(h - h[0])))}")
    print(f"  momentum_norm_drift: {_fmt(np.max(np.abs(mom - mom[0])))}")
    print(f"  min_separation: {_fmt(np.min(dmin))}")
    period = dynamics.planar_pair_period(traj)
    if period is not None:
        print(f"  estimated_period: {_fmt(period)}")
    print(f"  wall_time_s: {wall:.3f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run_suite(args.suite, seed=args.seed)
    for res in results:
        print(res.line())
    passed = sum(r.passed for r in results)
    failed = passed < len(results)
    print(f"{'FAILED' if failed else 'OK'}: {passed}/{len(results)} checks passed")
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def cmd_tabulate_greens(args) -> int:
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise DomainError(f"--samples must lie in 1..{MAX_SAMPLES}, got {args.samples}")
    # G and phi' overflow near r = 0 and for large n; the finiteness check below reports that
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rs = np.linspace(args.rmin, args.rmax, args.samples)
        gs, dgs = greens.greens_cpn(args.n, rs), greens.greens_cpn_derivative(args.n, rs)
    bad = ~(np.isfinite(gs) & np.isfinite(dgs))
    if bad.any():
        raise NumericError(f"G or phi' is not finite at r = {float(rs[bad][0])!r}")
    dynamics._write_table(sys.stdout, "r,G,phi_prime", np.column_stack([rs, gs, dgs]), "%.17g,%.17g,%.17g")
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


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer, as np.random.default_rng takes."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


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
    p_ver.add_argument("--seed", type=_seed, default=0)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse of some Python versions (3.11 among them) parses `--n=--` to an empty list, not to an error
    if [] in vars(args).values():
        parser.error("an option value cannot be '--'")
    try:
        return globals()[args.handler](args)
    except CpvortexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
