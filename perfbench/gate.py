"""Per-op correctness gate: an op that fails here counts in ``failed``.

A simulate op passes when the CLI exits 0, its summary reports the
expected number of steps, every CSV it wrote has ``steps + 1`` rows of
floats, and the drifts recomputed from those CSVs stay within the
criterion-8 tolerances.  A verify op passes when the CLI exits 0 and none
of the suite's gating checks failed.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Acceptance criterion 8 of the test suite.
ENERGY_TOL = 1e-8  # relative: max |H - H0| / max(|H0|, 1e-3)
MOMENTUM_TOL = 1e-7  # Frobenius drift of the weighted CP^n momentum matrix
IMPULSE_TOL = 1e-9  # planar (p_x, p_y, m), each component

MONITOR_HEADER = "t,H,momentum_norm,min_dist"


class GateError(Exception):
    """An output that is missing or malformed."""


def read_csv(path: str) -> tuple:
    """(header, float rows) of a CSV; raises GateError unless every cell is a finite float."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise GateError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise GateError(f"{path} is empty")
    header = lines[0].split(",")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise GateError(f"{path}:{number}: {len(cells)} cells, header has {len(header)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise GateError(f"{path}:{number}: {exc}") from exc
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    if not np.all(np.isfinite(data)):
        raise GateError(f"{path}: non-finite value")
    return header, data


def summary_value(stdout: str, key: str) -> str:
    for line in stdout.splitlines():
        name, _, value = line.strip().partition(": ")
        if name == key:
            return value
    raise GateError(f"summary has no {key!r}")


def energy_drift(h: np.ndarray) -> float:
    return float(np.max(np.abs(h - h[0]))) / max(abs(h[0]), 1e-3)


def momentum_drift(traj: np.ndarray, n: int, strengths: np.ndarray) -> float:
    """Frobenius drift of sum_a Gamma_a (v_a v_a* - I/(n+1)), lifts rebuilt from the chart columns."""
    count = strengths.size
    per_vortex = traj[:, 1 : 1 + count * (2 * n + 1)].reshape(len(traj), count, 2 * n + 1)
    charts = per_vortex[:, :, 0].astype(int)
    w = per_vortex[:, :, 1::2] + 1j * per_vortex[:, :, 2::2]
    lifts = np.empty((len(traj), count, n + 1), dtype=complex)
    for row in range(len(traj)):
        for a in range(count):
            lifts[row, a] = np.insert(w[row, a], charts[row, a], 1.0)
    lifts /= np.linalg.norm(lifts, axis=2, keepdims=True)
    mu = np.einsum("a,tai,taj->tij", strengths, lifts, lifts.conj())  # the trace part is constant
    return float(np.max(np.linalg.norm(mu - mu[0], axis=(1, 2))))


def impulse_drift(traj: np.ndarray, strengths: np.ndarray) -> float:
    count = strengths.size
    xy = traj[:, 1 : 1 + 3 * count].reshape(len(traj), count, 3)
    x, y = xy[:, :, 1], xy[:, :, 2]
    inv = np.stack([x @ strengths, y @ strengths, 0.5 * (x**2 + y**2) @ strengths], axis=1)
    return float(np.max(np.abs(inv - inv[0])))


def check_simulate(op: dict, record: dict) -> dict:
    """Gate one simulate op; returns ``{"problems": [...], <drifts>, <csv sizes>}``."""
    out = {"problems": []}
    try:
        if record["rc"] != 0:
            raise GateError(f"exit code {record['rc']}: {record['error'] or record['stdout'][-500:]}")
        steps = int(summary_value(record["stdout"], "steps_recorded"))
        if steps != op["steps"]:
            raise GateError(f"{steps} steps recorded, config asks for {op['steps']}")
        with open(op["config"], encoding="utf-8") as fh:
            config = json.load(fh)
        header, traj = read_csv(op["trajectory_path"])
        if len(traj) != steps + 1:
            raise GateError(f"trajectory CSV has {len(traj)} rows, expected {steps + 1}")
        out["rows"] = len(traj)
        out["bytes"] = os.path.getsize(op["trajectory_path"])
        h = traj[:, header.index("H")]
        if op["monitor_path"]:
            mon_header, mon = read_csv(op["monitor_path"])
            if ",".join(mon_header) != MONITOR_HEADER or len(mon) != steps + 1:
                raise GateError(f"monitor CSV has header {mon_header} and {len(mon)} rows, expected {steps + 1}")
            h = mon[:, 1]
        strengths = np.array([v["strength"] for v in config["vortices"]])
        out["energy_drift"] = energy_drift(h)
        if out["energy_drift"] > ENERGY_TOL:
            raise GateError(f"relative energy drift {out['energy_drift']:.3e} > {ENERGY_TOL:g}")
        if op["manifold"] == "plane":
            out["impulse_drift"] = impulse_drift(traj, strengths)
            if out["impulse_drift"] > IMPULSE_TOL:
                raise GateError(f"planar impulse drift {out['impulse_drift']:.3e} > {IMPULSE_TOL:g}")
        else:
            out["momentum_drift"] = momentum_drift(traj, op["n"], strengths)
            if out["momentum_drift"] > MOMENTUM_TOL:
                raise GateError(f"momentum drift {out['momentum_drift']:.3e} > {MOMENTUM_TOL:g}")
    except (GateError, OSError, ValueError, KeyError) as exc:
        out["problems"].append(f"{op['label']}: {exc}")
    return out


def check_verify(op: dict, record: dict) -> dict:
    problems = []
    if record["rc"] != 0:
        problems.append(f"{op['label']}: exit code {record['rc']} {record['error']}")
    failures = [c.get("gating_failures", 0) for c in record["calls"]]
    if len(failures) != 1 or failures[0]:
        problems.append(f"{op['label']}: gating failures {failures}")
    return {"problems": problems}


def check(op: dict, record: dict) -> dict:
    return (check_simulate if op["kind"] == "simulate" else check_verify)(op, record)
