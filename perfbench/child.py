"""Workload repetitions in one fresh process, driven through ``cpvortex.cli.main``.

Usage: ``python3 child.py OPS_JSON RESULT_JSON BUDGET_S [SPANS_JSON]``

OPS_JSON lists the ops written by ``gen.write_inputs``.  The child imports
the program, wraps ``dynamics.integrate`` and ``verify.run_suite`` (the two
calls the CLI makes into the library) to time them, and runs the whole op
list through ``cli.main``, with its stdout captured, again and again while
another repetition fits in BUDGET_S seconds from the process's start (at
least twice).  Each op and each repetition is timed; after the repetition's
clock stops, every op of it goes through the correctness gate of
``gate.py``, before the next repetition overwrites the op's CSVs.  The
first repetition is the warm-up: lazy imports and caches fill there.

With a fourth argument the child wraps every public function (see
``tracing``), runs exactly two repetitions and writes the spans of the
second one there.

Times are ``time.monotonic()`` stamps, the clock the parent reads before
it starts this process, so the parent can measure set-up from spawn.
"""

from __future__ import annotations

import time

START = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import cpvortex.cli  # noqa: E402  (brings in NumPy and SciPy)

IMPORTED = time.monotonic()

from cpvortex import dynamics, verify  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402

MIN_REPS = 2  # the warm-up and at least one warm repetition


class Probe:
    """Times the calls the CLI makes into ``integrate`` and ``run_suite``."""

    def __init__(self):
        self.first_call = None
        self.calls = []  # one dict per call, in order

    def wrap(self, func, summarize):
        def probed(*args, **kwargs):
            start = time.monotonic()
            if self.first_call is None:
                self.first_call = start
            result = func(*args, **kwargs)
            self.calls.append({"seconds": time.monotonic() - start, **summarize(result)})
            return result

        return probed


def _trajectory_summary(traj) -> dict:
    charts = traj.charts
    return {"steps": int(traj.times.size - 1), "chart_switches": int((charts[1:] != charts[:-1]).sum())}


def _suite_summary(results) -> dict:
    return {"checks": len(results), "gating_failures": sum(1 for r in results if r.gating and not r.passed)}


def _argv(op: dict) -> list:
    if op["kind"] == "simulate":
        return ["simulate", op["config"]]
    return ["verify", op["suite"], "--seed", str(op["seed"])]


def run_op(op: dict, probe: Probe) -> dict:
    out = io.StringIO()
    calls_before = len(probe.calls)
    record = {"label": op["label"], "rc": None, "error": ""}
    begin = time.monotonic()
    try:
        with contextlib.redirect_stdout(out):
            record["rc"] = cpvortex.cli.main(_argv(op))
    except SystemExit as exc:  # argparse rejects its input this way
        record["rc"] = exc.code
    except Exception:  # an op that crashes is a failed op, not a failed benchmark
        record["error"] = traceback.format_exc()
    record["wall_s"] = time.monotonic() - begin
    record["stdout"] = out.getvalue()
    record["calls"] = probe.calls[calls_before:]
    return record


def main(ops_path: str, result_path: str, budget_s: float, spans_path: str | None) -> int:
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    tracer = None
    if spans_path:
        tracer = tracing.Tracer(run_id=os.path.splitext(os.path.basename(spans_path))[0])
        tracing.install(tracer)
    probe = Probe()
    dynamics.integrate = probe.wrap(dynamics.integrate, _trajectory_summary)
    verify.run_suite = probe.wrap(verify.run_suite, _suite_summary)

    reps = []
    while len(reps) < MIN_REPS or (tracer is None and time.monotonic() - START + reps[-1]["wall_s"] < budget_s):
        if tracer is not None:
            tracer.reset()  # keep the spans of the last repetition only
        begin = time.monotonic()
        records = [run_op(op, probe) for op in ops]
        wall = time.monotonic() - begin
        checked = [{"label": r["label"], "wall_s": r["wall_s"], "calls": r["calls"], "gate": gate.check(op, r)}
                   for op, r in zip(ops, records)]
        reps.append({"wall_s": wall, "ops": checked})

    result = {
        "start": START,
        "import_s": IMPORTED - START,
        "first_call": probe.first_call,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reps": reps,
    }
    if tracer is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4] if len(sys.argv) > 4 else None))
