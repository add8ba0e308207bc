"""Spans around the public functions of ``cpvortex``, kept in memory.

A traced child process calls :func:`install`, which replaces every public
function of every ``cpvortex`` module with a wrapper at each module
namespace (and module-level table, such as ``verify.SUITES``) that binds
it.  Each call appends one span ``[name, start, end, parent]``; ``parent``
is the index of the enclosing span, or -1.  The spans of one process share
the tracer's run id and are written out once, when the process is done.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "cpvortex"


class Tracer:
    """Collects the spans of one run in memory."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.spans = []
        self._open = []  # indices of the spans enclosing the current call
        self._clock = clock

    def wrap(self, name: str, func):
        spans, stack, clock = self.spans, self._open, self._clock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def reset(self) -> None:
        """Drop the spans recorded so far; call it only between top-level calls."""
        del self.spans[:]

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans}


def _modules() -> list:
    return sorted(
        (m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")),
        key=lambda m: m.__name__,
    )


def install(tracer: Tracer) -> list:
    """Wrap the public functions of every imported ``cpvortex`` module.

    A function is named ``<module>.<function>``; the ``cpn`` and ``plane``
    constructors of ``VortexSystem`` share the name ``dynamics.VortexSystem``.
    Returns the names wrapped.
    """
    modules = _modules()
    wrapped = {}  # id(original) -> wrapper
    names = []
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            wrapped[id(obj)] = tracer.wrap(f"{short}.{attr}", obj)
            names.append(f"{short}.{attr}")
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, attr, wrapped[id(obj)])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if id(value) in wrapped:
                        obj[key] = wrapped[id(value)]
    vortex_system = sys.modules[PACKAGE + ".dynamics"].VortexSystem
    for ctor in ("cpn", "plane"):
        func = vars(vortex_system)[ctor].__func__
        setattr(vortex_system, ctor, classmethod(tracer.wrap("dynamics.VortexSystem", func)))
    names.append("dynamics.VortexSystem")
    return names


def layer_times(spans) -> dict:
    """Per span name: ``calls``, ``self_s`` and ``total_s``.

    A span's self time is its duration minus the time its child spans
    cover.  The process is single-threaded, so children never overlap and
    the time they cover is the sum of their durations.  ``total_s`` counts
    a span only when no enclosing span has the same name, so a recursive
    call is not counted twice.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for index, (name, start, end, parent) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += (end - start) - covered[index]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            rec["total_s"] += end - start
    return out
