import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cpvortex
from cpvortex import cli, dynamics, geom, greens, momentum, su3flag, verify
from cpvortex.errors import ConfigurationError, CpvortexError


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


CP1_PAIR = {
    "manifold": "cpn",
    "n": 1,
    "vortices": [
        {"position": [[1.0, 0.0], [0.0, 0.0]], "strength": 1.0},
        {"position": [[0.70710678, 0.0], [0.70710678, 0.0]], "strength": 1.0},
    ],
    "integrator": {"method": "rk4", "dt": 0.001, "steps": 100},
}

PLANE_PAIR = {
    "manifold": "plane",
    "vortices": [{"position": [0.5, 0.0], "strength": 1.0}, {"position": [-0.5, 0.0], "strength": 1.0}],
    "integrator": {"method": "rk4", "dt": 0.01, "steps": 10},
}


class TestSimulate:
    def test_cp1_pair_constant_separation(self, tmp_path, capsys):
        doc = dict(CP1_PAIR)
        doc["outputs"] = {"trajectory_path": str(tmp_path / "traj.csv")}
        code = cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)])
        assert code == 0
        out = capsys.readouterr().out
        assert "energy_drift" in out
        lines = (tmp_path / "traj.csv").read_text().strip().split("\n")
        assert len(lines) == 102  # header + initial + 100 steps
        # separation column (last) stays put
        seps = [float(line.split(",")[-1]) for line in lines[1:]]
        assert max(seps) - min(seps) < 1e-8

    def test_t_end_instead_of_steps(self, tmp_path):
        doc = dict(CP1_PAIR)
        doc["integrator"] = {"method": "rk4", "dt": 0.001, "t_end": 0.05}
        code = cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)])
        assert code == 0

    def test_adaptive_method(self, tmp_path, capsys):
        doc = dict(CP1_PAIR)
        doc["integrator"] = {"method": "rk45_adaptive", "dt": 0.01, "steps": 20}
        assert cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)]) == 0
        out = capsys.readouterr().out
        drift = float([ln for ln in out.splitlines() if "energy_drift" in ln][0].split(":")[1])
        assert drift < 1e-8

    def test_missing_file(self, capsys):
        assert cli.main(["simulate", "/nonexistent/cfg.json"]) == 2

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert cli.main(["simulate", str(p)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_field(self, tmp_path, capsys):
        doc = {"manifold": "cpn", "n": 1, "vortices": []}
        assert cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)]) == 2

    def test_zero_strength(self, tmp_path):
        doc = json.loads(json.dumps(CP1_PAIR))
        doc["vortices"][0]["strength"] = 0.0
        assert cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)]) == 2

    def test_collision_exit_code(self, tmp_path, capsys):
        d = 1.8e-4
        doc = {
            "manifold": "plane",
            "vortices": [
                {"position": [-0.005, d / 2], "strength": 1.0},
                {"position": [-0.005, -d / 2], "strength": -1.0},
                {"position": [0.0, 0.0], "strength": 1e-6},
            ],
            "integrator": {"method": "rk4", "dt": 2e-8, "steps": 600},
        }
        assert cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)]) == 3
        assert "collision at step" in capsys.readouterr().err

    def test_colliding_start_names_the_pair(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CP1_PAIR))
        doc["vortices"].append({"position": [[1.0, 0.0], [1e-5, 0.0]], "strength": 1.0})
        assert cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)]) == 2
        assert_one_error_line(capsys, "error: vortices 0 and 2 at separation 1.000e-05")

    def test_unwritable_output_path_fails_before_run(self, tmp_path, capsys):
        doc = dict(CP1_PAIR)
        doc["outputs"] = {"trajectory_path": str(tmp_path / "missing" / "traj.csv")}
        assert cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no summary: the run never started
        assert [ln.split(":")[0] for ln in captured.err.splitlines()] == ["error"]

    def test_deterministic_output(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            doc = dict(CP1_PAIR)
            doc["outputs"] = {"trajectory_path": str(tmp_path / f"{tag}.csv")}
            assert cli.main(["simulate", write_config(tmp_path / f"{tag}.json", doc)]) == 0
            blobs.append((tmp_path / f"{tag}.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_monitor_file(self, tmp_path):
        doc = dict(CP1_PAIR)
        doc["outputs"] = {"monitor_path": str(tmp_path / "mon.csv")}
        assert cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)]) == 0
        header = (tmp_path / "mon.csv").read_text().splitlines()[0]
        assert header == "t,H,momentum_norm,min_dist"

    def test_planar_pair_period_in_summary(self, tmp_path, capsys):
        period = 2.0 * math.pi**2  # d = 1, Gamma = 1
        doc = {
            "manifold": "plane",
            "vortices": [
                {"position": [0.5, 0.0], "strength": 1.0},
                {"position": [-0.5, 0.0], "strength": 1.0},
            ],
            "integrator": {"method": "rk4", "dt": period / 2000, "steps": 2000},
        }
        assert cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)]) == 0
        out = capsys.readouterr().out
        line = [ln for ln in out.splitlines() if "estimated_period" in ln][0]
        measured = float(line.split(":")[1])
        assert abs(measured - period) / period < 1e-3


CP2_TRIO = {
    "manifold": "cpn",
    "n": 2,
    "vortices": [
        {"position": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "strength": 1.0},
        {"position": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], "strength": -0.5},
        {"position": [[0.6, 0.0], [0.0, 0.6], [0.53, 0.0]], "strength": 1.5},
    ],
    "integrator": {"method": "rk4", "dt": 0.001, "steps": 20},
}

SIMULATE_AND_LIST_MODULES = """
import json, sys
import cpvortex, cpvortex.cli
code = cpvortex.cli.main(["simulate", sys.argv[1]])
print(json.dumps(sorted(name for name in sys.modules if name.startswith(sys.argv[2]))))
sys.exit(code)
"""

VERIFY_AND_LIST_SCIPY = """
import json, sys
import cpvortex.cli
code = cpvortex.cli.main(["verify", sys.argv[1]])
print(json.dumps(sorted(name for name in sys.modules if name.startswith("scipy"))))
sys.exit(code)
"""


def run_python(*args, timeout=120, env=None):
    """Run a fresh interpreter on ``args`` with this package's source on PYTHONPATH and the given extra environment."""
    src = os.path.dirname(os.path.dirname(cpvortex.__file__))
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout)


def test_verify_greens_loads_no_scipy():
    # the Green's quadrature oracle runs on NumPy alone
    proc = run_python("-c", VERIFY_AND_LIST_SCIPY, "greens")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_verify_vectorfields_loads_no_scipy():
    # the exponential oracle is a NumPy eigendecomposition, not scipy.linalg.expm
    proc = run_python("-c", VERIFY_AND_LIST_SCIPY, "vectorfields")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_simulate_loads_no_scipy(tmp_path):
    # the package imports no SciPy; start-up and runs must not pay for it
    doc = dict(CP2_TRIO, outputs={"trajectory_path": str(tmp_path / "t.csv"), "monitor_path": str(tmp_path / "m.csv")})
    proc = run_python("-c", SIMULATE_AND_LIST_MODULES, write_config(tmp_path / "cfg.json", doc), "scipy")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_simulate_loads_no_numpy_polynomial(tmp_path):
    # the Gauss-Legendre rules of the Green's quadrature oracle are built on its first call, not at import
    doc = dict(CP2_TRIO, outputs={"trajectory_path": str(tmp_path / "t.csv"), "monitor_path": str(tmp_path / "m.csv")})
    proc = run_python("-c", SIMULATE_AND_LIST_MODULES, write_config(tmp_path / "cfg.json", doc), "numpy.polynomial")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_csv_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the byte-identity promise of the README holds for one NumPy and BLAS build; the thread count must not move it
    system = verify._random_cpn_system(np.random.default_rng(0), 2, 30, min_sep=0.1)
    doc = {
        "manifold": "cpn",
        "n": 2,
        "vortices": [
            {"position": [[z.real, z.imag] for z in lift], "strength": g}
            for lift, g in zip(system.positions.tolist(), system.strengths.tolist())
        ],
        "integrator": {"method": "rk4", "dt": 1e-4, "steps": 50},
    }
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.csv"
        doc["outputs"] = {"trajectory_path": str(out), "monitor_path": str(tmp_path / f"m{threads}.csv")}
        cfg = write_config(tmp_path / f"cfg{threads}.json", doc)
        proc = run_python("-m", "cpvortex.cli", "simulate", cfg, env={"OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        csvs.append((out.read_bytes(), (tmp_path / f"m{threads}.csv").read_bytes()))
    assert len(csvs[0][0].splitlines()) == 52
    assert csvs[0] == csvs[1]


def test_parser_built_once_handlers_looked_up_per_call(monkeypatch):
    # the cached parser names its handlers, so a cmd_* patched (or traced) after it was built still runs
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "cmd_verify", lambda args: 7)
    assert cli.main(["verify", "greens"]) == 7


ADAPTIVE_OVERFLOW = """
from cpvortex import dynamics, errors, geom
cases = [
    dynamics.VortexSystem.plane([0, 0.5], [1e308, 1e308]),
    # H stays finite here, so the stop comes from the error estimate itself
    dynamics.VortexSystem.cpn([geom.ProjectivePoint([1, 0]), geom.ProjectivePoint([1, 1])], [1e150, 1e150]),
]
for system in cases:
    try:
        dynamics.integrate(system, 1e-3, 5, method="rk45_adaptive")
    except errors.NumericError as exc:
        print(exc)
"""


def test_adaptive_stops_on_non_finite_error_estimate():
    # a NaN error estimate used to grow the step and retry it forever
    proc = run_python("-c", ADAPTIVE_OVERFLOW, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    messages = proc.stdout.splitlines()
    assert len(messages) == 2
    assert "non-finite error estimate at step 1" in messages[1]


def simulate_in_subprocess(tmp_path, strength, dt, steps, method):
    doc = json.loads(json.dumps(CP1_PAIR))
    for vortex in doc["vortices"]:
        vortex["strength"] = strength
    doc["integrator"] = {"method": method, "dt": dt, "steps": steps}
    doc["outputs"] = {"trajectory_path": str(tmp_path / "t.csv"), "monitor_path": str(tmp_path / "m.csv")}
    return run_python("-m", "cpvortex.cli", "simulate", write_config(tmp_path / "cfg.json", doc))


class TestNonFiniteRuns:
    """Overflow exits 4 with one error line: no NumPy warnings, no summary of inf and nan."""

    def test_overflowing_state(self, tmp_path):
        proc = simulate_in_subprocess(tmp_path, 1e308, 1e-3, 5, "rk4")
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: non-finite") and proc.stderr.count("\n") == 1, proc.stderr

    def test_overflowing_step(self, tmp_path):
        # H ~ Gamma^2 = 1e300 stays finite at step 0; the first step overflows the lifts
        proc = simulate_in_subprocess(tmp_path, 1e150, 1e160, 3, "rk4")
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr == "error: non-finite state at step 1 (t = 1e+160)\n"

    @pytest.mark.parametrize("method", ["rk4", "rk45_adaptive"])
    def test_finite_state_overflowing_monitors(self, tmp_path, method):
        # the lifts stay finite, but H ~ Gamma^2 = 1e310 and the momentum norm overflow
        proc = simulate_in_subprocess(tmp_path, 1e155, 1e-160, 3, method)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr == "error: non-finite energy or momentum norm at step 0\n"


PLANE_PAIR_AT_THE_RANGE = {
    "manifold": "plane",
    "vortices": [{"position": [1e308, 0.0], "strength": 1.0}, {"position": [-1e308, 0.0], "strength": 1.0}],
    "integrator": {"method": "rk4", "dt": 0.001, "steps": 10},
}


@pytest.mark.parametrize(
    "doc, code",
    [
        # a coordinate written as JSON Infinity is not finite, and the normalizer of the lifts rejects the position
        (dict(CP1_PAIR, vortices=[{"position": [[math.inf, 0.0], [1.0, 0.0]], "strength": 1.0}] + CP1_PAIR["vortices"][1:]), 2),
        # the separation overflows to inf, and then the energy of the initial state
        (PLANE_PAIR_AT_THE_RANGE, 4),
    ],
)
def test_overflowing_position_prints_one_error_line(tmp_path, doc, code):
    # NumPy's overflow warnings used to precede the error line
    proc = run_python("-m", "cpvortex.cli", "simulate", write_config(tmp_path / "cfg.json", doc))
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr


def test_config_lifts_are_normalized_in_one_call(tmp_path, monkeypatch):
    # the CP^n positions of a config become unit lifts in one normalizer call, with no ProjectivePoint per vortex
    coords = np.random.default_rng(26).standard_normal((30, 3, 2))
    doc = {
        "manifold": "cpn",
        "n": 2,
        "vortices": [{"position": c.tolist(), "strength": 1.0} for c in coords],
        "integrator": {"method": "rk4", "dt": 0.001, "steps": 1},
    }
    expected = np.array([geom.ProjectivePoint(c).coords for c in coords.view(complex)[..., 0]])
    built, post_init = [], geom.ProjectivePoint.__post_init__
    monkeypatch.setattr(geom.ProjectivePoint, "__post_init__", lambda self: built.append(self) or post_init(self))
    positions = cli.load_config(write_config(tmp_path / "cfg.json", doc))["system"].positions
    assert not built
    assert np.array_equal(positions, expected)


# CP^n configs that the constructor rejects with its own message: the first five as the public
# constructor states them too, the last two from the one normalizer call of the config's coordinates
BAD_CPN_CONFIGS = {
    "n=-2": (dict(CP1_PAIR, n=-2), "n must be an integer >= 1, got -2"),
    "n=0": (dict(CP1_PAIR, n=0), "n must be an integer >= 1, got 0"),
    "n=200": (dict(CP1_PAIR, n=200),
              "n must be at most 170: above it, n! in vol(CP^n) = pi^n/n! overflows a double; got 200"),
    "ragged": (dict(CP1_PAIR, vortices=[CP1_PAIR["vortices"][0], {"position": [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]],
                                                                   "strength": 1.0}]),
               "all positions must lie on one CP^n, got coordinate shapes [(2,), (3,)]"),
    "no-vortices": (dict(CP1_PAIR, vortices=[]), "need N >= 1 positions with matching strengths"),
    "all-zero": (dict(CP1_PAIR, vortices=[{"position": [[0.0, 0.0], [0.0, 0.0]], "strength": 1.0}] + CP1_PAIR["vortices"][1:]),
                 "homogeneous coordinates must be finite and nonzero"),
    "infinity": (dict(CP1_PAIR, vortices=[{"position": [[math.inf, 0.0], [1.0, 0.0]], "strength": 1.0}] + CP1_PAIR["vortices"][1:]),
                 "homogeneous coordinates must be finite and nonzero"),
}


def assert_one_error_line(capsys, *fragments):
    captured = capsys.readouterr()
    assert captured.out == ""  # no summary: the run never started
    err = captured.err
    assert err.startswith("error:") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err


def run_cli(argv):
    """(exit code, stdout, stderr) of cli.main(argv), with warnings as errors.

    An argparse rejection must raise SystemExit(2) after its usage and one
    error line; it is returned as exit code 2.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            return cli.main(argv), out.getvalue(), err.getvalue()
        except SystemExit as exc:
            lines = err.getvalue().splitlines()
            assert exc.code == 2 and out.getvalue() == "" and lines[0].startswith("usage: cpvortex"), lines
            assert [ln for ln in lines if "error:" in ln] == lines[-1:], lines
            return exc.code, "", err.getvalue()


class TestConfigValidation:
    def run(self, tmp_path, integrator):
        doc = dict(CP1_PAIR)
        doc["integrator"] = integrator
        return cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)])

    def test_unknown_method(self, tmp_path, capsys):
        assert self.run(tmp_path, {"method": "euler", "dt": 0.001, "steps": 10}) == 2
        assert "method" in capsys.readouterr().err

    def test_zero_dt(self, tmp_path, capsys):
        assert self.run(tmp_path, {"method": "rk4", "dt": 0.0, "steps": 10}) == 2

    def test_negative_dt(self, tmp_path, capsys):
        assert self.run(tmp_path, {"method": "rk4", "dt": -0.001, "steps": 10}) == 2

    def test_non_finite_dt(self, tmp_path, capsys):
        assert self.run(tmp_path, {"method": "rk4", "dt": math.inf, "steps": 10}) == 2

    def test_zero_dt_with_t_end(self, tmp_path, capsys):
        assert self.run(tmp_path, {"method": "rk4", "dt": 0, "t_end": 0.05}) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "integrator, message",
        [
            # the run used to take the 10 steps and end at t = 1, ignoring t_end
            ({"method": "rk4", "dt": 0.1, "steps": 10, "t_end": 5}, "integrator needs 'steps' or 't_end', not both"),
            ({"method": "rk4", "dt": 0.1}, "integrator needs 'steps' or 't_end'"),
        ],
        ids=["both", "neither"],
    )
    def test_steps_or_t_end(self, tmp_path, integrator, message):
        out = tmp_path / "t.csv"
        doc = {
            "manifold": "plane",
            "vortices": [{"position": [0.5, 0.0], "strength": 1.0}, {"position": [-0.5, 0.0], "strength": 1.0}],
            "integrator": integrator,
            "outputs": {"trajectory_path": str(out)},
        }
        assert run_cli(["simulate", write_config(tmp_path / "cfg.json", doc)]) == (2, "", f"error: {message}\n")
        assert not out.exists()  # rejected before any output is opened

    @pytest.mark.parametrize("n", [3, 1, -1])
    def test_planar_n_must_be_zero(self, tmp_path, n):
        # a plane config with "n": 3 used to run: the constructor's rule was never asked
        out = tmp_path / "t.csv"
        doc = dict(PLANE_PAIR, n=n, outputs={"trajectory_path": str(out)})
        code = run_cli(["simulate", write_config(tmp_path / "cfg.json", doc)])
        assert code == (2, "", "error: planar systems have no projective dimension\n")
        assert not out.exists()  # rejected before any output is opened

    def test_unknown_manifold(self, tmp_path):
        # the words of the constructor, which states the same rule
        out = tmp_path / "t.csv"
        doc = dict(PLANE_PAIR, manifold="torus", outputs={"trajectory_path": str(out)})
        code = run_cli(["simulate", write_config(tmp_path / "cfg.json", doc)])
        assert code == (2, "", "error: manifold must be 'plane' or 'cpn', got 'torus'\n")
        assert not out.exists()  # rejected before any output is opened

    def test_planar_n_zero_is_accepted(self, tmp_path):
        doc = dict(PLANE_PAIR, n=0)
        assert run_cli(["simulate", write_config(tmp_path / "cfg.json", doc)])[0] == 0

    @pytest.mark.parametrize(
        "path, key, name",
        [
            ((), "sead", "config"),
            (("integrator",), "step", "integrator"),
            (("outputs",), "monitor_pth", "outputs"),
            (("vortices", 1), "strenght", "vortex 1"),
        ],
        ids=["top-level", "integrator", "outputs", "vortex"],
    )
    def test_unknown_keys_rejected(self, tmp_path, path, key, name):
        # a misspelled key used to be ignored: "monitor_pth" ran and wrote no monitor CSV
        out = tmp_path / "t.csv"
        doc = json.loads(json.dumps(dict(CP1_PAIR, outputs={"trajectory_path": str(out)})))
        node_at(doc, path)[key] = str(tmp_path / "m.csv")
        code, stdout, err = run_cli(["simulate", write_config(tmp_path / "cfg.json", doc)])
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: {name} has an unknown key {key!r}; its keys are ") and err.count("\n") == 1, err
        assert not out.exists() and not (tmp_path / "m.csv").exists()  # rejected before any output is opened

    def test_every_known_key_is_accepted(self, tmp_path):
        doc = dict(CP1_PAIR, seed=3, integrator={"method": "rk4", "dt": 0.001, "steps": 2},
                   outputs={"trajectory_path": str(tmp_path / "t.csv"), "monitor_path": str(tmp_path / "m.csv")})
        assert run_cli(["simulate", write_config(tmp_path / "cfg.json", doc)])[0] == 0
        assert (tmp_path / "t.csv").exists() and (tmp_path / "m.csv").exists()

    def test_t_end_not_a_multiple_of_dt(self, tmp_path, capsys):
        assert self.run(tmp_path, {"method": "rk4", "dt": 0.001, "t_end": 0.0505}) == 2
        assert "multiple" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [2.9, 10.0, True, "10", None])
    def test_steps_must_be_an_integer(self, tmp_path, capsys, steps):
        assert self.run(tmp_path, {"method": "rk4", "dt": 0.001, "steps": steps}) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "integrator.steps" in err

    @pytest.mark.parametrize("field, value", [("n", 1.0), ("n", True), ("n", "1"), ("seed", 0.5), ("seed", False)])
    def test_n_and_seed_must_be_integers(self, tmp_path, capsys, field, value):
        doc = dict(CP1_PAIR, **{field: value})
        assert cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and f"{field} must be an integer" in err

    @pytest.mark.parametrize(
        "keys, value, name",
        [
            (("vortices", 0, "position", 0, 0), "1.0", "vortex 0: coordinate re"),
            (("vortices", 1, "position", 1, 1), True, "vortex 1: coordinate im"),
            (("vortices", 0, "strength"), True, "vortex 0: strength"),
            (("vortices", 0, "strength"), "1e0", "vortex 0: strength"),
            (("vortices", 1, "strength"), None, "vortex 1: strength"),
            (("integrator", "dt"), "0.001", "integrator.dt"),
            (("integrator", "dt"), False, "integrator.dt"),
        ],
    )
    def test_float_fields_must_be_numbers(self, tmp_path, capsys, keys, value, name):
        doc = json.loads(json.dumps(CP1_PAIR))
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        assert cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)]) == 2
        assert_one_error_line(capsys, f"{name} must be a number")

    @pytest.mark.parametrize(
        "keys, message",
        [
            (("manifold",), "config has no key 'manifold'"),
            (("n",), "config has no key 'n'"),
            (("vortices",), "config has no key 'vortices'"),
            (("vortices", 0, "position"), "vortex 0 has no key 'position'"),
            (("vortices", 1, "strength"), "vortex 1 has no key 'strength'"),
            (("integrator",), "config has no key 'integrator'"),
            (("integrator", "dt"), "integrator has no key 'dt'"),
        ],
        ids=["manifold", "n", "vortices", "position", "strength", "integrator", "dt"],
    )
    def test_missing_key_names_its_object(self, tmp_path, keys, message):
        out = tmp_path / "t.csv"
        doc = json.loads(json.dumps(dict(CP1_PAIR, outputs={"trajectory_path": str(out)})))
        del node_at(doc, keys[:-1])[keys[-1]]
        assert run_cli(["simulate", write_config(tmp_path / "cfg.json", doc)]) == (2, "", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "keys, value, name",
        [
            (("vortices", 1, "strength"), 10**400, "vortex 1: strength"),
            (("vortices", 0, "position", 1, 0), -(10**309), "vortex 0: coordinate re"),
            (("integrator", "dt"), 2**1024, "integrator.dt"),
            (("integrator", "t_end"), 10**400, "integrator.t_end"),
        ],
        ids=["strength", "coordinate", "dt", "t_end"],
    )
    def test_number_beyond_the_float_range(self, tmp_path, keys, value, name):
        doc = json.loads(json.dumps(dict(CP1_PAIR, integrator={"method": "rk4", "dt": 0.001, "t_end": 0.1})))
        node_at(doc, keys[:-1])[keys[-1]] = value
        message = f"error: {name} is out of the float range: an integer of {len(str(abs(value)))} digits\n"
        assert run_cli(["simulate", write_config(tmp_path / "cfg.json", doc)]) == (2, "", message)

    @pytest.mark.parametrize("t_end", ["0.05", True])
    def test_t_end_must_be_a_number(self, tmp_path, capsys, t_end):
        assert self.run(tmp_path, {"method": "rk4", "dt": 0.001, "t_end": t_end}) == 2
        assert_one_error_line(capsys, "integrator.t_end must be a number")

    @pytest.mark.parametrize("position", [["0.5", True], [0.5, "0"]])
    def test_planar_position_must_be_numbers(self, tmp_path, capsys, position):
        doc = {
            "manifold": "plane",
            "vortices": [{"position": position, "strength": 1.0}, {"position": [-0.5, 0.0], "strength": 1.0}],
            "integrator": {"method": "rk4", "dt": 0.01, "steps": 10},
        }
        assert cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)]) == 2
        assert_one_error_line(capsys, "vortex 0: position", "must be a number")

    @pytest.mark.parametrize("key", ["trajectory_path", "monitor_path"])
    @pytest.mark.parametrize("value", [2, True, "", ["out.csv"]])
    def test_output_paths_must_be_strings(self, tmp_path, capsys, key, value):
        # an integer would be taken as a file descriptor: 2 wrote the CSV to stderr and closed it
        doc = dict(CP1_PAIR, outputs={key: value})
        assert cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)]) == 2
        assert_one_error_line(capsys, f"outputs.{key} must be a nonempty string or null")

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"\xff\xfe" + json.dumps(PLANE_PAIR).encode(), "'utf-8' codec can't decode byte 0xff in position 0"),
            (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded while decoding a JSON array"),
            (b'{"seed": 1' + b"0" * sys.get_int_max_str_digits() + b"}", "Exceeds the limit ("),
        ],
        ids=["not-utf-8", "nested-100000-deep", "too-many-digits"],
    )
    def test_config_the_decoder_cannot_read(self, tmp_path, raw, message):
        # each used to print a traceback and exit 1, the exit code of a failed verification
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(raw)
        code, out, err = run_cli(["simulate", str(cfg)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config {str(cfg)!r} cannot be decoded: {message}") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "outputs, key",
        [
            ({"trajectory_path": "a\0b"}, "trajectory_path"),
            ({"trajectory_path": "a\0b", "monitor_path": "m.csv"}, "trajectory_path"),
            ({"trajectory_path": "t.csv", "monitor_path": "\ud800.csv"}, "monitor_path"),
        ],
        ids=["nul-alone", "nul-with-monitor", "lone-surrogate"],
    )
    def test_output_path_that_open_refuses(self, tmp_path, monkeypatch, outputs, key):
        # open() raised ValueError or UnicodeEncodeError: a traceback and exit 1, or the field-error wrapper
        monkeypatch.chdir(tmp_path)
        doc = dict(PLANE_PAIR, outputs=outputs)
        code = run_cli(["simulate", write_config(tmp_path / "cfg.json", doc)])
        message = f"outputs.{key} must hold no NUL byte and no lone surrogate, got {outputs[key]!r}"
        assert code == (2, "", f"error: {message}\n")
        assert os.listdir(tmp_path) == ["cfg.json"]  # rejected before any output is opened

    @pytest.mark.parametrize(
        "dt, t_end, shown",
        [(1e-300, 1e300, "1e+300 / 1e-300"), (0.1, math.inf, "inf / 0.1"), (0.1, math.nan, "nan / 0.1")],
        ids=["overflow", "infinite", "nan"],
    )
    def test_step_count_that_is_not_finite(self, tmp_path, dt, t_end, shown):
        # round(t_end / dt) raised, and the field-error wrapper printed OverflowError or ValueError
        out = tmp_path / "t.csv"
        doc = dict(CP1_PAIR, integrator={"method": "rk4", "dt": dt, "t_end": t_end}, outputs={"trajectory_path": str(out)})
        code = run_cli(["simulate", write_config(tmp_path / "cfg.json", doc)])
        assert code == (2, "", f"error: the step count t_end / dt = {shown} is not finite\n")
        assert not out.exists()  # rejected before any output is opened

    @pytest.mark.parametrize("t_end", [-1.0, -0.05, -1e-20])
    def test_negative_t_end(self, tmp_path, t_end):
        # {"dt": 0.01, "t_end": -1.0} used to report "steps must be nonnegative, got -100", a field the config never set
        out = tmp_path / "t.csv"
        doc = dict(CP1_PAIR, integrator={"method": "rk4", "dt": 0.01, "t_end": t_end}, outputs={"trajectory_path": str(out)})
        code = run_cli(["simulate", write_config(tmp_path / "cfg.json", doc)])
        assert code == (2, "", f"error: integrator.t_end must be nonnegative, got {t_end}\n")
        assert not out.exists()  # rejected before any output is opened

    @pytest.mark.parametrize("t_end", [0, 0.0, -0.0])
    def test_zero_t_end_is_a_zero_step_run(self, tmp_path, t_end):
        out = tmp_path / "t.csv"
        doc = dict(CP1_PAIR, integrator={"method": "rk4", "dt": 0.01, "t_end": t_end}, outputs={"trajectory_path": str(out)})
        code, stdout, err = run_cli(["simulate", write_config(tmp_path / "cfg.json", doc)])
        assert (code, err) == (0, "") and "steps_recorded: 0\n" in stdout
        assert len(out.read_text().splitlines()) == 2  # header and initial state

    def test_non_finite_horizon(self, tmp_path, capsys):
        # a config defect (exit 2), not a numeric failure of the run (exit 4)
        assert self.run(tmp_path, {"method": "rk4", "dt": 1e308, "steps": 2}) == 2
        assert_one_error_line(capsys, "horizon dt * steps = 1e+308 * 2 is not finite")

    @pytest.mark.parametrize("monitor_path", ["out.csv", "./sub/../out.csv", "link.csv"])
    def test_outputs_must_name_two_files(self, tmp_path, capsys, monkeypatch, monitor_path):
        # one file for both outputs kept only the trajectory: the monitor CSV was lost
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.csv").symlink_to(tmp_path / "out.csv")
        doc = dict(CP1_PAIR, outputs={"trajectory_path": "out.csv", "monitor_path": monitor_path})
        assert cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)]) == 2
        assert_one_error_line(capsys, "name the same file")
        assert not (tmp_path / "out.csv").exists()  # rejected before any output is opened

    def test_rk4_steps_over_the_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_RECORDED_STEPS", 10)
        out = tmp_path / "t.csv"
        doc = dict(CP1_PAIR, integrator={"method": "rk4", "dt": 0.001, "steps": 11}, outputs={"trajectory_path": str(out)})
        assert cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)]) == 2
        assert_one_error_line(capsys, "11 rk4 steps exceed the cap of 10 recorded steps")
        assert not out.exists()  # rejected before any output is opened
        doc["integrator"]["steps"] = 10
        assert cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)]) == 0
        assert len(out.read_text().splitlines()) == 12  # header, initial state and 10 steps

    @pytest.mark.parametrize(
        "integrator, run",
        [
            ({"method": "euler", "dt": 0.001, "steps": 10}, (0.001, 10, "euler")),
            ({"method": "rk4", "dt": 0.0, "steps": 10}, (0.0, 10, "rk4")),
            ({"method": "rk4", "dt": -0.001, "t_end": 0.05}, (-0.001, 10, "rk4")),
            ({"method": "rk4", "dt": 0.001, "steps": -1}, (0.001, -1, "rk4")),
            ({"method": "rk4", "dt": 1e308, "steps": 2}, (1e308, 2, "rk4")),
            ({"method": "rk4", "dt": 0.001, "steps": 11}, (0.001, 11, "rk4")),  # over the patched cap of 10
            # an integer steps beyond the float range, where dt * steps cannot be formed
            ({"method": "rk45_adaptive", "dt": 0.001, "steps": 10**400}, (0.001, 10**400, "rk45_adaptive")),
        ],
        ids=["method", "dt", "dt-with-t_end", "steps", "horizon", "rk4-cap", "steps-beyond-float"],
    )
    def test_one_rule_one_message(self, tmp_path, monkeypatch, integrator, run):
        # integrate and simulate state each run rule in the same words
        system = cli.load_config(write_config(tmp_path / "ok.json", CP1_PAIR))["system"]
        monkeypatch.setattr(dynamics, "MAX_RECORDED_STEPS", 10)
        dt, steps, method = run
        with pytest.raises(ConfigurationError) as err:
            dynamics.integrate(system, dt, steps, method=method)
        out = tmp_path / "t.csv"
        doc = dict(CP1_PAIR, integrator=integrator, outputs={"trajectory_path": str(out)})
        assert run_cli(["simulate", write_config(tmp_path / "cfg.json", doc)]) == (2, "", f"error: {err.value}\n")
        assert not out.exists()  # rejected before any output is opened

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("key", ["trajectory_path", "monitor_path"])
    @pytest.mark.parametrize("steps", [1, 2000])  # a small output fails when it is closed, a large one in a write
    def test_output_that_cannot_be_written(self, tmp_path, key, steps):
        doc = dict(CP1_PAIR, integrator={"method": "rk4", "dt": 1e-4, "steps": steps}, outputs={key: "/dev/full"})
        code, out, err = run_cli(["simulate", write_config(tmp_path / "cfg.json", doc)])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write output file: ") and err.count("\n") == 1, err
        assert "No space left on device" in err

    def test_adaptive_run_stops_at_the_cap(self, tmp_path, capsys, monkeypatch):
        # dt 1e10 and steps 1 ran for over a minute with a growing trajectory before the cap
        monkeypatch.setattr(dynamics, "MAX_RECORDED_STEPS", 50)
        doc = dict(CP1_PAIR, integrator={"method": "rk45_adaptive", "dt": 1e10, "steps": 1})
        assert cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)]) == 4
        assert_one_error_line(capsys, "adaptive run reached the cap of 50 recorded steps")

    def test_cpn_dimension_over_the_bound(self, tmp_path, capsys):
        # C_n of CP^200 is no double; the config is rejected before an output file is opened
        point = [[1.0, 0.0]] + [[0.0, 0.0]] * 200
        doc = dict(CP1_PAIR, n=200, vortices=[{"position": point, "strength": 1.0}, {"position": point[::-1], "strength": 1.0}])
        doc["outputs"] = {"trajectory_path": str(tmp_path / "t.csv"), "monitor_path": None}
        assert cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)]) == 2
        assert_one_error_line(capsys, "n must be at most 170", "got 200")
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("n", [170, 171])
    def test_cpn_dimension_at_the_bound(self, tmp_path, n):
        # the constructor asks greens' one rule of n; the config restates no bound
        out = tmp_path / "t.csv"
        basis = [{"position": [[float(j == k), 0.0] for j in range(n + 1)], "strength": 1.0} for k in (0, 1)]
        doc = dict(CP1_PAIR, n=n, vortices=basis, outputs={"trajectory_path": str(out)})
        code, stdout, err = run_cli(["simulate", write_config(tmp_path / "cfg.json", doc)])
        if n == 170:
            assert (code, err) == (0, "") and out.exists()
        else:
            assert (code, stdout) == (2, "") and not out.exists()  # rejected before any output is opened
            assert err == "error: n must be at most 170: above it, n! in vol(CP^n) = pi^n/n! overflows a double; got 171\n"

    @pytest.mark.parametrize("doc, message", [
        (dict(CP1_PAIR, n=0, vortices=[{"position": [[1.0, 0.0]], "strength": 1.0}]), "n must be an integer >= 1, got 0"),
        ({k: v for k, v in CP1_PAIR.items() if k != "n"}, "config has no key 'n'"),
    ], ids=["zero", "missing"])
    def test_cpn_config_needs_a_dimension(self, tmp_path, doc, message):
        assert run_cli(["simulate", write_config(tmp_path / "cfg.json", doc)]) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("doc, message", list(BAD_CPN_CONFIGS.values()), ids=list(BAD_CPN_CONFIGS))
    def test_malformed_cpn_config_gets_the_constructors_message(self, tmp_path, doc, message):
        # the CLI parses [re, im] pairs only: N, n and the shape are the constructor's rules, in that order,
        # and a position that is not finite, or all zero, is the normalizer's; no field-error wrapper and no traceback
        out = tmp_path / "t.csv"
        doc = dict(doc, outputs={"trajectory_path": str(out)})
        assert run_cli(["simulate", write_config(tmp_path / "cfg.json", doc)]) == (2, "", f"error: {message}\n")
        assert not out.exists()  # rejected before any output is opened

    @pytest.mark.parametrize("doc, message", list(BAD_CPN_CONFIGS.values())[:5], ids=list(BAD_CPN_CONFIGS)[:5])
    def test_constructor_states_the_same_rule(self, doc, message):
        positions = [[complex(*pair) for pair in v["position"]] for v in doc["vortices"]]
        with pytest.raises(CpvortexError, match=f"^{re.escape(message)}$"):
            dynamics.VortexSystem("cpn", positions, [v["strength"] for v in doc["vortices"]], doc["n"])

    def test_seed_is_validated_and_not_returned(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path / "cfg.json", dict(CP1_PAIR, seed=3)))
        assert sorted(cfg) == ["dt", "method", "monitor_path", "steps", "system", "trajectory_path"]

    @pytest.mark.parametrize("field", ["integrator", "outputs"])
    def test_sections_must_be_objects(self, tmp_path, capsys, field):
        doc = dict(CP1_PAIR, **{field: []})
        assert cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)]) == 2
        assert_one_error_line(capsys, f"{field} must be a JSON object")


class TestTabulate:
    def test_greens_rows(self, capsys):
        code = cli.main(
            ["tabulate", "greens", "--n", "2", "--samples", "5", "--rmin", "0.1", "--rmax", str(math.pi / 2)]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "r,G,phi_prime"
        assert len(lines) == 6

    def test_greens_deterministic(self, capsys):
        args = ["tabulate", "greens", "--n", "3", "--samples", "7"]
        cli.main(args)
        first = capsys.readouterr().out
        cli.main(args)
        assert capsys.readouterr().out == first

    def test_greens_invalid_n(self, capsys):
        assert cli.main(["tabulate", "greens", "--n", "0", "--samples", "3"]) == 4

    def test_greens_invalid_range(self, capsys):
        assert cli.main(["tabulate", "greens", "--n", "2", "--rmin", "-1.0", "--samples", "3"]) == 4

    def test_momentum_origin(self, capsys):
        code = cli.main(["tabulate", "momentum"])
        assert code == 0
        out = capsys.readouterr().out
        assert "+0.500000000000j" in out
        assert "-0.500000000000j" in out

    def test_momentum_complex_argument(self, capsys):
        assert cli.main(["tabulate", "momentum", "--z1", "0.5+0.3j"]) == 0

    def test_momentum_bad_argument(self, capsys):
        assert cli.main(["tabulate", "momentum", "--z1", "spam"]) == 4

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["momentum", "--z1", "1e308"], "flag coordinates too large"),
            (["momentum", "--z2", "1e155"], "flag coordinates too large"),
            (["momentum", "--z1", "1e200", "--z3", "1e200"], "flag coordinates too large"),
            (["greens", "--n", "200", "--samples", "2"], "n must be at most 170"),
            (["greens", "--n", "170", "--samples", "2"], "not finite at r = 0.1"),
            (["greens", "--n", "2", "--rmin", "1e-300", "--rmax", "0.5", "--samples", "2"], "not finite at r = 1e-300"),
            (["greens", "--n", "2", "--samples", str(cli.MAX_SAMPLES + 1)], f"--samples must lie in 1..{cli.MAX_SAMPLES}"),
            (["greens", "--n", "2", "--samples", "100000000000"], "--samples must lie in"),
        ],
    )
    def test_overflow_and_size_exit_4_with_one_error_line(self, argv, message):
        code, out, err = run_cli(["tabulate", *argv])
        assert (code, out) == (4, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err


class TestVerify:
    def test_greens_suite_passes(self, capsys):
        assert cli.main(["verify", "greens", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_vectorfields_suite_passes(self, capsys):
        assert cli.main(["verify", "vectorfields"]) == 0

    def test_metric_suite_prints_reports(self, capsys):
        assert cli.main(["verify", "metric"]) == 0
        out = capsys.readouterr().out
        assert "inverse-metric table proportionality factor" in out
        assert "Laplacian coefficient table" in out
        assert "report only" in out

    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        code, out, err = run_cli(["verify", "all", f"--seed={seed}"])
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --seed: must be a non-negative integer, got {seed!r}\n")

    @pytest.mark.parametrize("argv", [["verify", "all", "--seed=--"], ["tabulate", "greens", "--n=--"]])
    def test_double_dash_option_value_is_a_usage_error(self, argv):
        # argparse gives such an option the value [], which no handler expects
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err.endswith("error: an option value cannot be '--'\n")

    def test_reports_never_fail_a_suite(self, monkeypatch):
        # a report prints INFO whatever its defect; only a gating row that fails sets exit 1
        rows = [verify.CheckResult("table", math.nan, note="report only"), verify.CheckResult("gate", 0.5, 1.0)]
        monkeypatch.setattr(verify, "run_suite", lambda suite, seed: rows)
        lines = ["INFO  table: defect nan  [report only]", "PASS  gate: defect 5.000e-01 (tolerance 1.0e+00)"]
        assert run_cli(["verify", "metric"]) == (0, "\n".join(lines + ["OK: 2/2 checks passed\n"]), "")
        rows.append(verify.CheckResult("gate", math.nan, 1.0, worst_at="k=2"))
        lines.append("FAIL  gate: defect nan (tolerance 1.0e+00)  at k=2")
        assert run_cli(["verify", "metric"]) == (1, "\n".join(lines + ["FAILED: 2/3 checks passed\n"]), "")

    def test_failure_exit_code_and_diagnostics(self, capsys, monkeypatch):
        # a generator field off by 0.1 must fail its gate and name the worst
        # point and the defect; no environment setting can switch the gate off
        monkeypatch.setenv("CPVORTEX_TOL_SCALE", "1e300")
        field = su3flag.infinitesimal_vf
        monkeypatch.setattr(su3flag, "infinitesimal_vf", lambda k, z: field(k, z) + 0.1)
        assert cli.main(["verify", "vectorfields"]) == 1
        out = capsys.readouterr().out
        fail_line = [ln for ln in out.splitlines() if ln.startswith("FAIL") and "LU" in ln][0]
        assert "defect" in fail_line and "at k=" in fail_line

    def test_exponential_gate_bites(self, capsys, monkeypatch):
        # exp(1.001 t lambda_5) still obeys the subgroup law; the spectral oracle must catch it
        closed = su3flag.exp_su3
        monkeypatch.setattr(su3flag, "exp_su3", lambda k, t: closed(k, np.where(np.equal(k, 5), 1.001, 1.0) * t))
        assert cli.main(["verify", "vectorfields"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.startswith("FAIL") and "closed-form exponentials" in ln]
        assert [ln for ln in lines if ln.startswith("PASS") and "one-parameter subgroup law" in ln]

    def test_generator_table_gate_bites(self, capsys, monkeypatch):
        # tilde_5 negated is still Hermitian and traceless, and exp_su3 and the spectral oracle both read
        # the table, so they agree; the transcribed generator fields must catch it
        table = su3flag._TILDE.copy()
        table[4] *= -1
        monkeypatch.setattr(su3flag, "_TILDE", table)
        assert cli.main(["verify", "vectorfields"]) == 1
        lines = capsys.readouterr().out.splitlines()
        fail_line = [ln for ln in lines if ln.startswith("FAIL") and "generator fields vs LU finite differences" in ln][0]
        assert "at k=5," in fail_line
        assert [ln for ln in lines if ln.startswith("PASS") and "closed-form exponentials vs spectral" in ln]

    def test_greens_constant_gate_bites(self, capsys, monkeypatch):
        # a doubled C_n scales G and its quadrature oracle alike and keeps G decreasing: only Gauss's law sees it
        constant = greens.greens_constant
        monkeypatch.setattr(greens, "greens_constant", lambda n: 2.0 * constant(n))
        assert cli.main(["verify", "greens"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [ln[:4] for ln in lines[:-1]] == ["PASS", "PASS", "PASS", "FAIL"]
        assert "Gauss's law" in lines[3]

    def test_momentum_gate_bites(self, capsys, monkeypatch):
        # mu shifted by a small anti-Hermitian term along Re z1 breaks
        # d<mu, lambda_k> = iota_{X_k} omega (a constant shift would not:
        # the defining equation fixes mu only up to a constant)
        flag_map = momentum.momentum_flag
        shift = 1e-3j * np.diag([1.0, -1.0, 0.0])

        def shifted(z):
            return flag_map(z) + np.real(z.z1)[..., None, None] * shift

        monkeypatch.setattr(momentum, "momentum_flag", shifted)
        assert cli.main(["verify", "momentum"]) == 1
        out = capsys.readouterr().out
        fail_line = [ln for ln in out.splitlines() if ln.startswith("FAIL") and "defining equation" in ln][0]
        assert "at k=" in fail_line

    def test_momentum_constant_gate_bites(self, capsys, monkeypatch):
        # a constant shift of mu leaves the defining equation intact; equivariance pins it
        flag_map = momentum.momentum_flag
        shift = 1e-3j * np.diag([1.0, -1.0, 0.0])
        monkeypatch.setattr(momentum, "momentum_flag", lambda z: flag_map(z) + shift)
        assert cli.main(["verify", "momentum"]) == 1
        out = capsys.readouterr().out
        fail_line = [ln for ln in out.splitlines() if ln.startswith("FAIL") and "flag momentum equivariance" in ln][0]
        assert "at k=" in fail_line

    def test_twistor_gate_bites(self, capsys, monkeypatch):
        # a sign-flipped flag map is still anti-Hermitian, traceless and equivariant; the QR identity sees the sign
        flag_map = momentum.momentum_flag
        monkeypatch.setattr(momentum, "momentum_flag", lambda z: -flag_map(z))
        assert cli.main(["verify", "momentum"]) == 1
        lines = capsys.readouterr().out.splitlines()
        (fail_line,) = [ln for ln in lines if "(i/2)(mu_cpn(u1) - mu_cpn(u3))" in ln]
        assert fail_line.startswith("FAIL") and "defect 1.414e+00" in fail_line and "at z=(" in fail_line

    def test_metric_gate_bites(self, capsys, monkeypatch):
        metric = su3flag.flag_metric
        monkeypatch.setattr(su3flag, "flag_metric", lambda z: metric(z) + 1e-3)
        assert cli.main(["verify", "metric"]) == 1
        out = capsys.readouterr().out
        assert [ln for ln in out.splitlines() if ln.startswith("FAIL") and "flag metric vs potential Hessian" in ln]

    def test_pullback_gate_bites(self, capsys, monkeypatch):
        # h13 and its conjugate off by 1e-11 relative pass every other metric check; the twistor pullback sees them
        metric = su3flag.flag_metric

        def skewed(z):
            h = metric(z)
            h[..., 0, 2] *= 1.0 + 1e-11
            h[..., 2, 0] *= 1.0 + 1e-11
            return h

        monkeypatch.setattr(su3flag, "flag_metric", skewed)
        assert cli.main(["verify", "metric"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [ln[:4] for ln in lines[:-1]] == ["PASS"] * 7 + ["INFO"] * 2 + ["FAIL"]
        assert "twistor pullback" in lines[-2] and "at z=(" in lines[-2]



# ---------------------------------------------------------------------------
# fuzz of the exit-code contract: a mutated config exits 0, 2, 3 or 4, a failure prints one
# error line and nothing else, and no exception or NumPy warning escapes cli.main

FUZZ_BASES = [
    dict(CP1_PAIR, integrator={"method": "rk4", "dt": 0.01, "steps": 3}),
    {
        "manifold": "cpn",
        "n": 2,
        "vortices": [
            {"position": [[1.0, 0.0], [0.0, 0.5], [0.0, 0.0]], "strength": 1.0},
            {"position": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]], "strength": -0.5},
        ],
        "integrator": {"method": "rk45_adaptive", "dt": 0.01, "t_end": 0.03},
        "seed": 1,
    },
    {
        "manifold": "plane",
        "vortices": [{"position": [0.5, 0.0], "strength": 1.0}, {"position": [-0.5, 0.0], "strength": 1.0}],
        "integrator": {"method": "rk4", "dt": 0.01, "steps": 2},
    },
]
FUZZ_KEYS = ["manifold", "n", "vortices", "position", "strength", "integrator", "method", "dt", "steps", "t_end",
             "outputs", "trajectory_path", "monitor_path", "seed"]
# drawn strings hold no path separator, so every output path stays inside the test's directory
FUZZ_STRINGS = st.sampled_from(["", "cpn", "plane", "rk4", "rk45_adaptive", ".", "..", "t.csv", "cfg.json", "outdir"])
FUZZ_NUMBERS = st.one_of(
    st.integers(-3, 5),  # no run is asked for more than 5 steps; 10**400 steps are rejected before a run
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-300, 1e-160, 1e155, 1e160, 1e308, -1e308, 10**400]),
)
FUZZ_LEAVES = st.one_of(st.none(), st.booleans(), FUZZ_NUMBERS, FUZZ_STRINGS | st.text(alphabet="abxyz.-_ ", max_size=4))
FUZZ_VALUES = st.recursive(
    FUZZ_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(FUZZ_KEYS), inner, max_size=3),
    max_leaves=6,
)


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def node_paths(node, prefix=()):
    """The key paths of every dict entry and list item of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from node_paths(value, prefix + (key,))


def mutate(data, doc):
    """One mutation of the document: delete, replace or nest a node, or point an output path elsewhere."""
    kind = data.draw(st.sampled_from(["delete", "replace", "number", "number", "nest", "output", "root"]))
    if kind == "root":
        return data.draw(FUZZ_VALUES)
    if kind == "output":
        outputs = doc.setdefault("outputs", {}) if isinstance(doc, dict) else {}
        if isinstance(outputs, dict):
            key = data.draw(st.sampled_from(["trajectory_path", "monitor_path"]))
            outputs[key] = data.draw(st.sampled_from(["t.csv", "m.csv", "./t.csv", "outdir", ".", "cfg.json", "nodir/t.csv", None]))
        return doc
    paths = list(node_paths(doc))
    if kind == "number":  # a number stays a number, mostly out of its range
        paths = [p for p in paths if type(node_at(doc, p)) in (int, float)]
    if not paths:
        return doc
    *parents, key = data.draw(st.sampled_from(paths))
    parent = node_at(doc, parents)
    if kind == "delete":
        del parent[key]
    elif kind == "replace":
        parent[key] = data.draw(FUZZ_VALUES)
    elif kind == "number":
        parent[key] = data.draw(FUZZ_NUMBERS)
    else:
        parent[key] = data.draw(st.sampled_from([[parent[key]], {"value": parent[key]}]))
    return doc


@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_configs_keep_the_exit_contract(tmp_path, monkeypatch, data):
    monkeypatch.chdir(tmp_path)  # relative output paths land in the test's directory
    monkeypatch.setattr(dynamics, "MAX_RECORDED_STEPS", 50)  # caps the adaptive runs too
    (tmp_path / "outdir").mkdir(exist_ok=True)
    doc = json.loads(json.dumps(data.draw(st.sampled_from(FUZZ_BASES))))
    doc["outputs"] = {"trajectory_path": "t.csv", "monitor_path": "m.csv"}
    for _ in range(data.draw(st.integers(1, 3))):
        doc = mutate(data, doc)
    code, out, err = run_cli(["simulate", write_config(tmp_path / "cfg.json", doc)])
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err == "" and out.startswith("summary:")
    else:
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err


# byte-level faults that no JSON value of a mutated config expresses: text that is not UTF-8, nesting deeper than
# the decoder's recursion, an integer longer than int() converts, and output paths that open() refuses; each is a
# config defect, rejected before any output
FUZZ_NOT_UTF8 = [b"\xff\xfe", b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]
FUZZ_DEPTHS = [1, 50, 900, 2000, 100_000]
FUZZ_PATH_FAULTS = ["\0", "\ud800", "\udfff"]


def fault_bytes(data, doc) -> bytes:
    """The JSON text of doc with one byte-level fault."""
    kind = data.draw(st.sampled_from(["utf-8", "nest", "digits", "path", "raw-nul"]))
    if kind == "path" or kind == "raw-nul":
        key = data.draw(st.sampled_from(["trajectory_path", "monitor_path"]))
        name = doc["outputs"][key]
        i = data.draw(st.integers(0, len(name)))
        doc["outputs"][key] = name[:i] + data.draw(st.sampled_from(FUZZ_PATH_FAULTS)) + name[i:]
        raw = json.dumps(doc).encode()
        # a NUL byte itself, not its escape, is a control character inside a JSON string
        return raw.replace(b"\\u0000", b"\0") if kind == "raw-nul" else raw
    if kind == "nest":
        path = data.draw(st.sampled_from([()] + list(node_paths(doc))))
        node, placeholder = node_at(doc, path), "\x01nest"
        if path:
            node_at(doc, path[:-1])[path[-1]] = placeholder
        else:
            doc = placeholder
        depth = data.draw(st.sampled_from(FUZZ_DEPTHS))
        text = json.dumps(doc).replace(json.dumps(placeholder), "[" * depth + json.dumps(node) + "]" * depth)
        return text.encode()
    raw = json.dumps(doc).encode()
    if kind == "digits":  # a seed of more digits than int() converts opens the object
        limit = sys.get_int_max_str_digits()
        return b'{"seed": 1' + b"0" * data.draw(st.integers(limit, limit + 700)) + b", " + raw[1:]
    i = data.draw(st.integers(0, len(raw)))
    return raw[:i] + data.draw(st.sampled_from(FUZZ_NOT_UTF8)) + raw[i:]


@settings(max_examples=80, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_bytes_keep_the_exit_contract(tmp_path, monkeypatch, data):
    monkeypatch.chdir(tmp_path)  # relative output paths land in the test's directory
    doc = json.loads(json.dumps(data.draw(st.sampled_from(FUZZ_BASES))))
    doc["outputs"] = {"trajectory_path": "t.csv", "monitor_path": "m.csv"}
    (tmp_path / "cfg.json").write_bytes(fault_bytes(data, doc))
    code, out, err = run_cli(["simulate", "cfg.json"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not (tmp_path / "t.csv").exists() and not (tmp_path / "m.csv").exists()


# ---------------------------------------------------------------------------
# fuzz of the exit-code contract of `tabulate` and `verify` argv: exit 0, 2 or 4, no traceback
# and no NumPy warning; a failure prints nothing on stdout and one error line (after the usage,
# for an argparse rejection)

ARGV_JUNK = st.sampled_from(["", "x", "spam", "1+", "0x10", "1_0", "+3", " 7", "1.5", "(1+2j)", "j", "--"])
ARGV_INTEGERS = st.one_of(st.integers(), st.integers(-2, 200)).map(str) | ARGV_JUNK
ARGV_FLOATS = st.floats().map(repr) | st.sampled_from(["nan", "-inf", "1e999", "1e-320", "1e-300", "0.1", "1.5"]) | ARGV_JUNK
# decimal literals of magnitude 1e-320 to 9e308 (the last overflow to inf), or zero
ARGV_REALS = st.builds("{}e{}".format, st.integers(0, 9), st.integers(-320, 308))
ARGV_COMPLEX = st.one_of(
    st.builds("{}{}".format, st.sampled_from(["", "-"]), ARGV_REALS),
    st.builds("{}{}j".format, st.sampled_from(["", "-"]), ARGV_REALS),
    st.builds("{}{}{}{}j".format, st.sampled_from(["", "-"]), ARGV_REALS, st.sampled_from(["+", "-"]), ARGV_REALS),
    st.sampled_from(["nan", "inf", "-inf", "nanj", "infj", "1e308+1e308j"]),
    ARGV_JUNK,
)


def greens_argv(data):
    argv = ["tabulate", "greens", f"--n={data.draw(ARGV_INTEGERS)}", f"--samples={data.draw(ARGV_INTEGERS)}"]
    for option in ("--rmin", "--rmax"):
        if data.draw(st.booleans()):
            argv.append(f"{option}={data.draw(ARGV_FLOATS)}")
    return argv, "r,G,phi_prime\n"


def momentum_argv(data):
    coords = [z for z in ("z1", "z2", "z3") if data.draw(st.booleans())]
    return ["tabulate", "momentum"] + [f"--{z}={data.draw(ARGV_COMPLEX)}" for z in coords], "momentum value at "


def verify_argv(data):
    suite = data.draw(st.sampled_from(sorted(verify.SUITES) + ["all", "bogus"]))
    return ["verify", suite, f"--seed={data.draw(ARGV_INTEGERS)}"], "OK: 0/0 checks passed\n"


def seeded_stub(seed):
    """A suite that checks nothing but seeds its generator, as every suite does first."""
    np.random.default_rng(seed)
    return []


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_tabulate_and_verify_argv_keep_the_exit_contract(monkeypatch, data):
    monkeypatch.setattr(cli, "MAX_SAMPLES", 20)
    monkeypatch.setattr(verify, "SUITES", dict.fromkeys(verify.SUITES, seeded_stub))
    argv, header = data.draw(st.sampled_from([greens_argv, momentum_argv, verify_argv]))(data)
    code, out, err = run_cli(argv)
    assert code in (0, 2, 4)
    if code == 0:
        assert err == "" and out.startswith(header)
    elif not err.startswith("usage:"):
        assert out == "" and err.startswith("error:") and err.count("\n") == 1, err
