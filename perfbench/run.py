"""Benchmark of the cpvortex command line: `simulate` and `verify` on seeded inputs.

Run from the repository root:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 60 --trace 0

Workloads (see ``gen.py`` and the "why" fields of BENCHMARK.json):
``simulate`` and ``oracles``.  A run writes the seeded inputs, then starts
``PROCESSES`` fresh processes, one at a time, and gives each an equal share
of ``--seconds``.  Each process imports the program from ``src/`` and runs
the workload's ops through ``cpvortex.cli.main`` again and again (closed
loop, see ``child.py``); every op of every repetition goes through the
correctness gate of ``gate.py``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

* ``setup_s``: process spawn to the first ``integrate`` call (for
  ``oracles``, the first suite call): interpreter start, importing
  cpvortex with NumPy and SciPy, ``cli.load_config`` and the first
  ``VortexSystem``.  The median over the run's processes.
* ``wall_s``: the time of one pass over the workload's ops after warm-up,
  each op with its CSV writes and printed summary: the sum over the ops of
  each op's median time in the run's warm repetitions (every repetition
  but the first of each process).
* ``steps_per_s``: accepted integrator steps per second of
  ``dynamics.integrate`` time, from each op's median ``integrate`` time.
  On ``oracles``, where nothing is integrated, the steps are the verify
  suites, per second of suite time.
* ``peak_rss_mb``: the processes' peak resident memory (``getrusage``),
  the median over the run's processes.

Failed ops over attempted ops (``failed_frac``) is carried by the
``failed`` and ``attempted`` fields, since it is 0 on a correct program.

With ``--trace 1`` the run alternates untraced and traced processes and
reports the per-layer metrics: ``calls``, ``self_s`` and ``total_s`` of the
functions in ``LAYER_FUNCTIONS`` in one warm repetition (medians over the
traced processes), the derived counts, ``setup.import_s`` and
``trace.overhead_s`` (median warm repetition, traced minus untraced).

Child processes get ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1.  The environment (CPU, versions, source
digest) is printed with every result set and saved with it in
``.perfbench_out/``, next to the spans of the last traced process.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import gen
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROCESSES = 5  # fresh processes per run, one at a time; each gets this share of --seconds
CHILD_TIMEOUT_S = 150

# The functions whose calls, self time and total time the traced run reports.
LAYER_FUNCTIONS = (
    "dynamics.integrate",
    "dynamics.VortexSystem",
    "dynamics.min_pairwise_distance",
    "dynamics.hamiltonian_cpn",
    "dynamics.planar_hamiltonian",
    "dynamics.planar_conserved",
    "dynamics.write_trajectory_csv",
    "geom.fubini_study_metric",
    "geom.to_chart",
    "greens.greens_radial_part",
    "greens.greens_ode_oracle",
    "greens.greens_cpn_derivative",
    "momentum.weighted_momentum",
    "momentum.momentum_cpn",
    "momentum.momentum_flag",
    "momentum.defining_equation_defect",
    "su3flag.flag_metric",
    "su3flag.kahler_potential_flag",
    "su3flag.infinitesimal_vf",
    "su3flag.bruhat_normalize",
    "su3flag.exp_su3",
    "su3flag.flag_symplectic_matrix",
    "verify.verify_greens",
    "verify.verify_momentum",
    "verify.verify_vectorfields",
    "verify.verify_metric",
    "verify.wirtinger_hessian",
    "cli.load_config",
    "cli.cmd_simulate",
)
# Public functions that sweep all vortex pairs once per call.
PAIR_SWEEPS = ("dynamics.min_pairwise_distance", "dynamics.hamiltonian_cpn", "dynamics.planar_hamiltonian")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    package = os.path.join(SRC, "cpvortex")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
            git_sha = git.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "child_env": {var: "1" for var in THREAD_VARS},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(workdir: str, ops_path: str, run_id: str, budget_s: float, traced: bool, env: dict) -> dict:
    """One process of workload repetitions; returns its timings and gated records."""
    result_path = os.path.join(workdir, f"{run_id}.result.json")
    spans_path = os.path.join(workdir, f"{run_id}.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), ops_path, result_path, repr(budget_s)]
    if traced:
        argv.append(spans_path)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{run_id}: no result after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{run_id}: child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if result["first_call"] is None:
        raise BenchError(f"{run_id}: the program was never called")
    result["setup_s"] = result["first_call"] - spawned
    result["traced"] = traced
    if traced:
        with open(spans_path, encoding="utf-8") as fh:
            result["layers"] = tracing.layer_times(json.load(fh)["spans"])
        result["spans_path"] = spans_path
    return result


def warm_reps(results: list) -> list:
    """The repetitions after each untraced process's warm-up."""
    return [rep for r in results if not r["traced"] for rep in r["reps"][1:]]


def op_times(reps: list) -> dict:
    """Per op label: its median wall, its median probed time and its steps.

    The probed time (``busy_s``) is ``dynamics.integrate`` time, or
    ``verify.run_suite`` time on `oracles`; ``steps`` counts accepted
    steps, or suites.
    """
    samples = {}
    for rep in reps:
        for op in rep["ops"]:
            rec = samples.setdefault(op["label"], {"wall_s": [], "busy_s": []})
            rec["wall_s"].append(op["wall_s"])
            rec["busy_s"].append(sum(c["seconds"] for c in op["calls"]))
            rec["steps"] = sum(c.get("steps", 1) for c in op["calls"])
    return {label: {"wall_s": statistics.median(rec["wall_s"]), "busy_s": statistics.median(rec["busy_s"]),
                    "steps": rec["steps"], "samples": len(rec["wall_s"])} for label, rec in samples.items()}


def end_to_end(results: list, per_op: dict) -> dict:
    steps = sum(rec["steps"] for rec in per_op.values())
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "wall_s": sum(rec["wall_s"] for rec in per_op.values()),
        "steps_per_s": steps / sum(rec["busy_s"] for rec in per_op.values()),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    for label, rec in per_op.items():
        print(f"op {label}: median {rec['wall_s']:.6g} s, {rec['steps']} steps in {rec['busy_s']:.6g} s "
              f"(n={rec['samples']} warm repetitions)")
    print(f"setup_s      median {metrics['setup_s']:.6g} s over {len(results)} processes")
    print(f"wall_s       {metrics['wall_s']:.6g} s: the sum over the ops of each op's median")
    print(f"steps_per_s  {metrics['steps_per_s']:.6g} 1/s: {steps} steps over the sum of each op's median probed time")
    print(f"peak_rss_mb  median {metrics['peak_rss_mb']:.6g} MB over {len(results)} processes")
    return {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in metrics.items()}


def per_layer(results: list, workload: str) -> dict:
    traced = [r for r in results if r["traced"]]
    first = traced[0]["reps"][-1]
    metrics = {}
    not_called = []
    for fn in LAYER_FUNCTIONS:
        recs = [r["layers"].get(fn, {"calls": 0, "self_s": 0.0, "total_s": 0.0}) for r in traced]
        calls = {rec["calls"] for rec in recs}
        if len(calls) != 1:
            raise BenchError(f"{fn}: call counts differ between identical processes: {sorted(calls)}")
        if recs[0]["calls"] == 0:
            not_called.append(fn)
        metrics[f"{fn}.calls"] = (recs[0]["calls"], "count")
        metrics[f"{fn}.self_s"] = (statistics.median(rec["self_s"] for rec in recs), "s")
        metrics[f"{fn}.total_s"] = (statistics.median(rec["total_s"] for rec in recs), "s")
    integrations = [c for op in first["ops"] for c in op["calls"] if "steps" in c]
    steps = sum(c["steps"] for c in integrations)
    states = steps + len(integrations)  # each run records its initial state too
    sweeps = sum(metrics[f"{fn}.calls"][0] for fn in PAIR_SWEEPS)
    csv = [op["gate"] for op in first["ops"] if "rows" in op["gate"]]
    metrics["dynamics.accepted_steps"] = (steps, "count")
    metrics["dynamics.chart_switches"] = (sum(c["chart_switches"] for c in integrations), "count")
    # pair sweeps per recorded state: 3 on the seed (rebuild, H monitor, separation monitor)
    metrics["dynamics.pair_sweeps_per_step"] = (sweeps / states if states else 0.0, "1/step")
    metrics["dynamics.write_trajectory_csv.rows"] = (sum(g["rows"] for g in csv), "count")
    metrics["dynamics.write_trajectory_csv.bytes"] = (sum(g["bytes"] for g in csv), "B")
    metrics["setup.import_s"] = (statistics.median(r["import_s"] for r in results), "s")
    traced_wall = statistics.median(r["reps"][-1]["wall_s"] for r in traced)
    plain_wall = statistics.median(rep["wall_s"] for rep in warm_reps(results))
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    if not_called:
        print(f"not called on {workload} (reported as 0): {', '.join(not_called)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(f"traced processes: {len(traced)}, untraced: {len(results) - len(traced)}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def describe_ops(rep: dict) -> None:
    for op in rep["ops"]:
        if not op["calls"]:
            continue
        call, g = op["calls"][0], op["gate"]
        if "steps" in call:
            per_step = 1e3 * call["seconds"] / max(call["steps"], 1)
            drifts = "  ".join(f"{k} {g[k]:.2e}" for k in ("energy_drift", "momentum_drift", "impulse_drift") if k in g)
            print(f"op {op['label']}: {call['steps']} steps, {per_step:.3f} ms/step, "
                  f"{call['chart_switches']} chart switches  {drifts}")
        else:
            print(f"op verify {op['label']}: {call.get('checks')} checks in {call['seconds']:.3f} s")


def run(args) -> dict:
    if not os.path.isfile(os.path.join(SRC, "cpvortex", "cli.py")):
        raise BenchError(f"no program source at {SRC}; run from a checkout of the repository")
    env_record = environment()
    print("env " + json.dumps(env_record, sort_keys=True))
    workdir = os.path.join(WORK_DIR, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops = gen.write_inputs(args.workload, args.seed, workdir)
        ops_path = os.path.join(workdir, "ops.json")
        with open(ops_path, "w", encoding="utf-8") as fh:
            json.dump(ops, fh)
        env = child_env()
        results = []
        for index in range(PROCESSES):
            traced = args.trace == 1 and index % 2 == 1
            run_id = f"{args.workload}-s{args.seed}-p{index}"
            results.append(run_child(workdir, ops_path, run_id, args.seconds / PROCESSES, traced, env))
        gated = [op["gate"] for r in results for rep in r["reps"] for op in rep["ops"]]
        problems = [p for g in gated for p in g["problems"]]
        attempted, failed = len(gated), sum(1 for g in gated if g["problems"])
        describe_ops(results[0]["reps"][-1])
        for problem in sorted(set(problems)):
            print(f"FAILED {problem}")
        print(f"failed_frac  {failed / attempted:.6g}  ({failed} of {attempted} ops failed)")
        per_op = op_times(warm_reps(results))
        if args.trace:
            metrics = per_layer(results, args.workload)
        else:
            metrics = end_to_end(results, per_op)
        os.makedirs(OUT_DIR, exist_ok=True)
        if args.trace:
            spans = [r["spans_path"] for r in results if r["traced"]][-1]
            shutil.copyfile(spans, os.path.join(OUT_DIR, f"spans-{args.workload}.json"))
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "env": env_record, "metrics": metrics, "failed": failed, "attempted": attempted, "per_op": per_op,
            "processes": [{k: r[k] for k in ("setup_s", "import_s", "peak_rss_mb", "traced")}
                          | {"wall_s": [rep["wall_s"] for rep in r["reps"]]} for r in results],
        }
        with open(os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary = run(args)
    except (BenchError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
