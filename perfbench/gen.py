"""Seeded inputs for the benchmark workloads.

The program under test only ever sees the JSON configs written here; the
seed stays with the benchmark.  Initial positions are rejection-sampled one
vortex at a time against a minimum pairwise separation, with a capped
number of draws, so a seed either yields a valid config or fails loudly.

The generator is self-contained NumPy: it does not import ``cpvortex``, so
a change to the library cannot change the inputs it is measured on.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

MAX_DRAWS = 10_000  # per vortex


@dataclass(frozen=True)
class SimSpec:
    """One `cpvortex simulate` op (RK4): system shape, step and outputs."""

    label: str
    manifold: str  # "cpn" or "plane"
    n: int  # projective dimension; 0 on the plane
    count: int  # number of vortices N
    min_sep: float
    dt: float
    steps: int
    monitor_csv: bool


# The suites of the `oracles` workload.  `dynamics` is left out: it takes a
# minute, and its integrations are the code `swarm` and `trio` already run.
ORACLE_SUITES = ("greens", "momentum", "vectorfields", "metric")

# Why each workload exists and which layer it stresses is recorded in the
# "why" fields of BENCHMARK.json.  Ops are short (a few tenths of a second)
# so that a run times each of them many times.
#
# Step sizes: dt = 1e-3 keeps the criterion-8 shapes inside the 1e-8 energy
# gate (at 1e-2 a CP^1 N=3 run drifts by 3.5e-8).  The swarm's closest pairs
# at separation 0.1 rotate far faster: at dt = 1e-3 RK4 drifted by up to
# 4.7e-6 in 40 steps, and 7.3e-9 at 5e-5 on one of 30 draws, so the swarm
# steps at 1e-5.  The per-step cost does not depend on dt.
SIMULATE_WORKLOADS = {
    "simulate": (
        # O(N^2) pair sweeps dominate: gradient, Hamiltonian and separation.
        SimSpec("cp2_n30", "cpn", 2, 30, 0.1, 1e-5, 4, False),
        # The criterion-8 shapes; per-step fixed cost dominates.
        SimSpec("cp1_n3", "cpn", 1, 3, 0.3, 1e-3, 60, True),
        SimSpec("cp2_n3", "cpn", 2, 3, 0.3, 1e-3, 60, True),
        SimSpec("plane_n3", "plane", 0, 3, 0.3, 1e-3, 60, True),
    ),
}
WORKLOADS = tuple(SIMULATE_WORKLOADS) + ("oracles",)


def _cpn_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Fubini-Study distance of unit lifts, arccos|<u, v>| in atan2 form."""
    overlap = np.vdot(u, v)
    return math.atan2(float(np.linalg.norm(v - overlap * u)), abs(overlap))


def _draw_positions(rng: np.random.Generator, spec: SimSpec) -> list:
    accepted = []
    for index in range(spec.count):
        for _ in range(MAX_DRAWS):
            if spec.manifold == "plane":
                cand = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                dists = [abs(cand - p) for p in accepted]
            else:
                v = rng.standard_normal(spec.n + 1) + 1j * rng.standard_normal(spec.n + 1)
                cand = v / np.linalg.norm(v)
                dists = [_cpn_distance(p, cand) for p in accepted]
            if not dists or min(dists) >= spec.min_sep:
                accepted.append(cand)
                break
        else:
            raise RuntimeError(
                f"{spec.label}: no position for vortex {index} at separation >= {spec.min_sep} "
                f"after {MAX_DRAWS} draws"
            )
    return accepted


def make_config(spec: SimSpec, rng: np.random.Generator, seed: int, out_dir: str) -> dict:
    """The simulate config of ``spec``, drawn from ``rng``; output paths go to ``out_dir``."""
    positions = _draw_positions(rng, spec)
    # criterion-8 strengths: |Gamma| in [0.5, 2) on CP^n, [0.5, 1.5) on the plane, random signs
    high = 1.5 if spec.manifold == "plane" else 2.0
    strengths = rng.uniform(0.5, high, spec.count) * rng.choice([-1.0, 1.0], spec.count)
    if spec.manifold == "plane":
        raw = [[p.real, p.imag] for p in positions]
    else:
        raw = [[[c.real, c.imag] for c in p] for p in positions]
    integrator = {"method": "rk4", "dt": spec.dt, "steps": spec.steps}
    outputs = {"trajectory_path": os.path.join(out_dir, f"{spec.label}.traj.csv")}
    if spec.monitor_csv:
        outputs["monitor_path"] = os.path.join(out_dir, f"{spec.label}.mon.csv")
    doc = {
        "manifold": spec.manifold,
        "vortices": [{"position": pos, "strength": float(g)} for pos, g in zip(raw, strengths)],
        "integrator": integrator,
        "outputs": outputs,
        "seed": seed,
    }
    if spec.manifold == "cpn":
        doc["n"] = spec.n
    return doc


def write_inputs(workload: str, seed: int, out_dir: str) -> list:
    """Write the inputs of one workload repetition into ``out_dir``.

    Returns the ops as dicts: ``{"kind": "simulate", "config": path, ...}``
    or ``{"kind": "verify", "suite": name, "seed": seed}``.
    """
    if workload == "oracles":
        return [{"kind": "verify", "suite": s, "seed": seed, "label": s} for s in ORACLE_SUITES]
    ops = []
    key = WORKLOADS.index(workload)
    for index, spec in enumerate(SIMULATE_WORKLOADS[workload]):
        rng = np.random.default_rng([seed, key, index])
        doc = make_config(spec, rng, seed, out_dir)
        path = os.path.join(out_dir, f"{spec.label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        ops.append(
            {
                "kind": "simulate",
                "label": spec.label,
                "config": path,
                "manifold": spec.manifold,
                "n": spec.n,
                "steps": spec.steps,
                "trajectory_path": doc["outputs"]["trajectory_path"],
                "monitor_path": doc["outputs"].get("monitor_path"),
            }
        )
    return ops
