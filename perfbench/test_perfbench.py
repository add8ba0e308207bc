"""Tests of the benchmark's own parts.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gate
import gen
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


# ---------------------------------------------------------------------------
# spans and self time


def test_layer_times_on_nested_spans():
    # a(0..10) encloses b(1..4) -> c(2..3), b(5..7) and a recursive a(8..9)
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 7.0, 0],
        ["a", 8.0, 9.0, 0],
    ]
    out = tracing.layer_times(spans)
    assert out["a"] == {"calls": 2, "self_s": (10.0 - 3.0 - 2.0 - 1.0) + 1.0, "total_s": 10.0}
    assert out["b"] == {"calls": 2, "self_s": (3.0 - 1.0) + 2.0, "total_s": 5.0}
    assert out["c"] == {"calls": 1, "self_s": 1.0, "total_s": 1.0}
    assert sum(rec["self_s"] for rec in out.values()) == 10.0  # self times partition the root span


def test_tracer_records_parents_in_call_order():
    ticks = iter(range(100))
    tracer = tracing.Tracer("run-1", clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    assert tracer.dump() == {
        "run_id": "run-1",
        "spans": [["outer", 0.0, 5.0, -1], ["inner", 1.0, 2.0, 0], ["inner", 3.0, 4.0, 0]],
    }


def test_traced_child_wraps_every_binding(tmp_path):
    """A traced simulate run: spans of the last repetition nest under the CLI and sweep pairs 3 times per state."""
    spec = gen.SimSpec("plane_n3", "plane", 0, 3, 0.3, 1e-3, 5, True)
    doc = gen.make_config(spec, np.random.default_rng(0), 0, str(tmp_path))
    config = tmp_path / "plane.json"
    config.write_text(json.dumps(doc))
    op = {
        "kind": "simulate", "label": "plane", "config": str(config), "manifold": "plane", "n": 0, "steps": 5, "trajectory_path": doc["outputs"]["trajectory_path"], "monitor_path": doc["outputs"]["monitor_path"],
    }
    ops = tmp_path / "ops.json"
    ops.write_text(json.dumps([op]))
    env = dict(os.environ, PYTHONPATH=SRC)
    child = os.path.join(HERE, "child.py")
    argv = [sys.executable, child, str(ops), str(tmp_path / "result.json"), "60", str(tmp_path / "spans.json")]
    subprocess.run(argv, env=env, check=True, timeout=120)
    result = json.loads((tmp_path / "result.json").read_text())
    assert len(result["reps"]) == 2  # a traced child ignores its budget
    for rep in result["reps"]:
        assert rep["ops"][0]["gate"]["problems"] == []
        assert rep["ops"][0]["calls"][0]["steps"] == 5
    dump = json.loads((tmp_path / "spans.json").read_text())
    assert dump["run_id"] == "spans"
    spans = dump["spans"]
    parent_of = {s[0]: spans[s[3]][0] for s in spans if s[3] >= 0}
    assert parent_of["cli.cmd_simulate"] == "cli.main"
    assert parent_of["dynamics.integrate"] == "cli.cmd_simulate"
    assert parent_of["dynamics.planar_hamiltonian"] == "dynamics.integrate"
    layers = tracing.layer_times(spans)
    assert layers["cli.main"]["calls"] == 1  # the warm-up repetition's spans were dropped
    sweeps = sum(layers[f]["calls"] for f in ("dynamics.min_pairwise_distance", "dynamics.planar_hamiltonian"))
    assert sweeps == 3 * (5 + 1)
    assert layers["dynamics.VortexSystem"]["calls"] == 5 + 1


# ---------------------------------------------------------------------------
# generator


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    first, second, other = (tmp_path / name for name in ("a", "b", "c"))
    for d in (first, second, other):
        d.mkdir()
    ops_a = gen.write_inputs(workload, 7, str(first))
    ops_b = gen.write_inputs(workload, 7, str(second))
    ops_c = gen.write_inputs(workload, 8, str(other))
    assert [op["label"] for op in ops_a] == [op["label"] for op in ops_b]
    for a, b, c in zip(ops_a, ops_b, ops_c):
        if a["kind"] == "verify":
            assert (a["seed"], b["seed"], c["seed"]) == (7, 7, 8)
            continue
        doc_a = json.loads(open(a["config"]).read())
        doc_b = json.loads(open(b["config"]).read())
        doc_c = json.loads(open(c["config"]).read())
        assert doc_a["vortices"] == doc_b["vortices"]
        assert doc_a["vortices"] != doc_c["vortices"]


@pytest.mark.parametrize("spec", [s for specs in gen.SIMULATE_WORKLOADS.values() for s in specs], ids=lambda s: s.label)
def test_generator_keeps_separation(tmp_path, spec):
    rng = np.random.default_rng(3)
    doc = gen.make_config(spec, rng, 3, str(tmp_path))
    raw = [v["position"] for v in doc["vortices"]]
    if spec.manifold == "plane":
        pts = [complex(*p) for p in raw]
        dists = [abs(p - q) for i, p in enumerate(pts) for q in pts[i + 1 :]]
    else:
        pts = [np.array([complex(*c) for c in p]) for p in raw]
        dists = [gen._cpn_distance(p, q) for i, p in enumerate(pts) for q in pts[i + 1 :]]
    assert len(pts) == spec.count
    assert min(dists) >= spec.min_sep - 1e-12


# ---------------------------------------------------------------------------
# correctness gate


def _plane_run(tmp_path, steps=4, energy=None):
    """A static two-vortex planar run with its config, CSVs and CLI record."""
    config = {
        "manifold": "plane",
        "vortices": [{"position": [0.0, 0.0], "strength": 1.0}, {"position": [1.0, 0.0], "strength": -0.5}],
        "integrator": {"method": "rk4", "dt": 1e-3, "steps": steps},
    }
    (tmp_path / "c.json").write_text(json.dumps(config))
    h = np.full(steps + 1, 0.25) if energy is None else energy
    traj = ["t,chart0,x0,y0,chart1,x1,y1,H,momentum_norm,min_dist"]
    mon = [gate.MONITOR_HEADER]
    for k in range(steps + 1):
        traj.append(f"{k * 1e-3},0,0.0,0.0,0,1.0,0.0,{float(h[k])!r},0.5,1.0")
        mon.append(f"{k * 1e-3},{float(h[k])!r},0.5,1.0")
    (tmp_path / "t.csv").write_text("\n".join(traj) + "\n")
    (tmp_path / "m.csv").write_text("\n".join(mon) + "\n")
    op = {
        "kind": "simulate", "label": "plane", "config": str(tmp_path / "c.json"), "manifold": "plane", "n": 0,
        "steps": steps, "trajectory_path": str(tmp_path / "t.csv"),
        "monitor_path": str(tmp_path / "m.csv"),
    }
    record = {"rc": 0, "error": "", "stdout": f"summary:\n  steps_recorded: {steps}\n", "calls": []}
    return op, record


def test_gate_accepts_a_conserving_run(tmp_path):
    op, record = _plane_run(tmp_path)
    out = gate.check(op, record)
    assert out["problems"] == []
    assert out["rows"] == 5 and out["energy_drift"] == 0.0 and out["impulse_drift"] == 0.0


def test_gate_rejects_truncated_csv(tmp_path):
    op, record = _plane_run(tmp_path)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    (tmp_path / "t.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert "4 rows" in gate.check(op, record)["problems"][0]
    (tmp_path / "t.csv").write_text("\n".join(lines[:-1] + [lines[-1][:-9]]) + "\n")  # a row cut mid-line
    assert gate.check(op, record)["problems"]


@pytest.mark.parametrize("cell", ["nan", "0.5x"])
def test_gate_rejects_unparsable_cells(tmp_path, cell):
    op, record = _plane_run(tmp_path)
    text = (tmp_path / "m.csv").read_text().replace("0.5", cell, 1)
    (tmp_path / "m.csv").write_text(text)
    assert gate.check(op, record)["problems"]


def test_gate_rejects_energy_drift(tmp_path):
    h = np.full(5, 0.25)
    h[3] += 0.25 * 2e-8  # relative drift 2e-8 > 1e-8
    op, record = _plane_run(tmp_path, energy=h)
    assert "energy drift" in gate.check(op, record)["problems"][0]
    h[3] = 0.25 * (1 + 0.5e-8)
    op, record = _plane_run(tmp_path, energy=h)
    assert gate.check(op, record)["problems"] == []


def test_gate_rejects_impulse_drift_and_bad_exit(tmp_path):
    op, record = _plane_run(tmp_path)
    text = (tmp_path / "t.csv").read_text().splitlines()
    text[2] = text[2].replace(",1.0,0.0,", ",1.0,1e-8,", 1)  # y1 moves: p_y drifts by 5e-9
    (tmp_path / "t.csv").write_text("\n".join(text) + "\n")
    assert "impulse drift" in gate.check(op, record)["problems"][0]
    op, record = _plane_run(tmp_path)
    record["rc"] = 3
    assert "exit code 3" in gate.check(op, record)["problems"][0]


def test_gate_verify_op():
    op = {"kind": "verify", "label": "greens"}
    ok = {"rc": 0, "error": "", "calls": [{"gating_failures": 0}]}
    assert gate.check(op, ok)["problems"] == []
    assert gate.check(op, dict(ok, rc=1, calls=[{"gating_failures": 1}]))["problems"]


def test_momentum_drift_is_chart_independent():
    # one CP^1 vortex recorded in chart 0, then the same point in chart 1
    w = 0.5 + 0.25j
    row0 = [0.0, 0, w.real, w.imag, 0.0, 0.0, 0.0]
    inv = 1 / w
    row1 = [1e-3, 1, inv.real, inv.imag, 0.0, 0.0, 0.0]
    assert gate.momentum_drift(np.array([row0, row1]), 1, np.array([1.5])) < 1e-15
