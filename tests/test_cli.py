import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cpvortex
from cpvortex import cli, dynamics, momentum, su3flag


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

SIMULATE_AND_LIST_SCIPY = """
import json, sys
import cpvortex, cpvortex.cli
code = cpvortex.cli.main(["simulate", sys.argv[1]])
print(json.dumps(sorted(name for name in sys.modules if name.startswith("scipy"))))
sys.exit(code)
"""

VERIFY_AND_LIST_SCIPY = """
import json, sys
import cpvortex.cli
code = cpvortex.cli.main(["verify", sys.argv[1]])
print(json.dumps(sorted(name for name in sys.modules if name.startswith("scipy"))))
sys.exit(code)
"""


def run_python(*args, timeout=120):
    """Run a fresh interpreter on ``args`` with this package's source on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(cpvortex.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
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
    proc = run_python("-c", SIMULATE_AND_LIST_SCIPY, write_config(tmp_path / "cfg.json", doc))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


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
        # the norm of [1e200, 1] overflows and ProjectivePoint rejects the position
        (dict(CP1_PAIR, vortices=[{"position": [[1e200, 0.0], [1.0, 0.0]], "strength": 1.0}] + CP1_PAIR["vortices"][1:]), 2),
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


def assert_one_error_line(capsys, *fragments):
    captured = capsys.readouterr()
    assert captured.out == ""  # no summary: the run never started
    err = captured.err
    assert err.startswith("error:") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err


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

    def test_non_finite_horizon(self, tmp_path, capsys):
        # a config defect (exit 2), not a numeric failure of the run (exit 4)
        assert self.run(tmp_path, {"method": "rk4", "dt": 1e308, "steps": 2}) == 2
        assert_one_error_line(capsys, "integrator horizon", "is not finite")

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
        assert_one_error_line(capsys, "11 steps exceeds the cap of 10 recorded steps")
        assert not out.exists()  # rejected before any output is opened
        doc["integrator"]["steps"] = 10
        assert cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)]) == 0
        assert len(out.read_text().splitlines()) == 12  # header, initial state and 10 steps

    def test_adaptive_run_stops_at_the_cap(self, tmp_path, capsys, monkeypatch):
        # dt 1e10 and steps 1 ran for over a minute with a growing trajectory before the cap
        monkeypatch.setattr(dynamics, "MAX_RECORDED_STEPS", 50)
        doc = dict(CP1_PAIR, integrator={"method": "rk45_adaptive", "dt": 1e10, "steps": 1})
        assert cli.main(["simulate", write_config(tmp_path / "cfg.json", doc)]) == 4
        assert_one_error_line(capsys, "adaptive run reached the cap of 50 recorded steps")

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
        monkeypatch.setattr(su3flag, "exp_su3", lambda k, t: closed(k, 1.001 * np.asarray(t) if k == 5 else t))
        assert cli.main(["verify", "vectorfields"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.startswith("FAIL") and "closed-form exponentials" in ln]
        assert [ln for ln in lines if ln.startswith("PASS") and "one-parameter subgroup law" in ln]

    def test_momentum_gate_bites(self, capsys, monkeypatch):
        # mu shifted by a small anti-Hermitian term along Re z1 breaks
        # d<mu, lambda_k> = iota_{X_k} omega (a constant shift would not:
        # the defining equation fixes mu only up to a constant)
        flag_map = momentum.momentum_flag
        shift = 1e-3j * np.diag([1.0, -1.0, 0.0])

        def shifted(z):
            return momentum.MomentumValue(flag_map(z).matrix + np.real(z.z1)[..., None, None] * shift, "antihermitian_flag")

        monkeypatch.setattr(momentum, "momentum_flag", shifted)
        assert cli.main(["verify", "momentum"]) == 1
        out = capsys.readouterr().out
        fail_line = [ln for ln in out.splitlines() if ln.startswith("FAIL") and "defining equation" in ln][0]
        assert "at k=" in fail_line

    def test_momentum_constant_gate_bites(self, capsys, monkeypatch):
        # a constant shift of mu leaves the defining equation intact; equivariance pins it
        flag_map = momentum.momentum_flag
        shift = 1e-3j * np.diag([1.0, -1.0, 0.0])
        monkeypatch.setattr(
            momentum, "momentum_flag", lambda z: momentum.MomentumValue(flag_map(z).matrix + shift, "antihermitian_flag")
        )
        assert cli.main(["verify", "momentum"]) == 1
        out = capsys.readouterr().out
        fail_line = [ln for ln in out.splitlines() if ln.startswith("FAIL") and "flag momentum equivariance" in ln][0]
        assert "at k=" in fail_line

    def test_metric_gate_bites(self, capsys, monkeypatch):
        metric = su3flag.flag_metric
        monkeypatch.setattr(su3flag, "flag_metric", lambda z: metric(z) + 1e-3)
        assert cli.main(["verify", "metric"]) == 1
        out = capsys.readouterr().out
        assert [ln for ln in out.splitlines() if ln.startswith("FAIL") and "flag metric vs potential Hessian" in ln]

