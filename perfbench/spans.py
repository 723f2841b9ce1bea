"""
Tracing from outside the program: wrap the public functions of every
shearlab module (and the scipy.fft transforms) in every namespace that binds
them, record spans in memory, and derive per-layer metrics from them.

A span is (name, start, end, parent, work).  ``parent`` is the index of the
enclosing span or -1; ``work`` is a size counted at the call (array elements
for transforms, sheared solves for the shear right-hand side).  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import gzip
import inspect
import pstats
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
DST_NAMES = ("dst", "idst", "dstn", "idstn")


def _layer(module_name: str) -> str:
    """shearlab.core.operators -> core, shearlab.shear -> shear."""
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def _array_size(args, kwargs) -> int:
    x = args[0] if args else kwargs.get("x")
    return int(getattr(x, "size", 0))


def _shear_systems(args, kwargs) -> int:
    marcher, states = args[0], args[2] if len(args) > 2 else kwargs["states"]
    if marcher.profile.is_couette:
        return 0
    return int(states.shape[0] * states.shape[1])


WORK = {"fft": _array_size, "shear.ShearMarcher.rhs": _shear_systems}


class Target(NamedTuple):
    """One wrapped callable: its span name, the original, the wrapper, and
    the key of the original's entry in cProfile's stats."""
    name: str
    original: Callable
    wrapper: Callable
    profile_key: tuple


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.targets: list[Target] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, work=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            amount = work(args, kwargs) if work else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent, amount)
                stack.pop()
        return traced

    def discover(self, shearlab, scipy_fft) -> None:
        """Build one wrapper per public function of every shearlab module,
        per public method of every shearlab class, and per scipy.fft
        transform."""
        by_id: dict[int, Target] = {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "shearlab" or n.startswith("shearlab.")]
        classes = []

        def add(name, fn, key, work=None):
            if id(fn) not in by_id:
                wrapper = self._wrap(name, fn, work or WORK.get(name))
                by_id[id(fn)] = Target(name, fn, wrapper, key)

        for mod in modules:
            layer = _layer(mod.__name__)
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    add(f"{layer}.{attr}", obj, _code_key(obj))
                elif inspect.isclass(obj):
                    classes.append(obj)
                    for meth, fn in vars(obj).items():
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            add(f"{layer}.{obj.__name__}.{meth}", fn,
                                _code_key(fn))
        for attr in FFT_NAMES + DST_NAMES:
            fn = getattr(scipy_fft, attr, None)
            if fn is None:
                continue
            if attr in FFT_NAMES:
                add(f"fft.{attr}", fn, ("scipy/fft/_basic_backend.py", attr),
                    WORK["fft"])
            else:
                add(f"dst.{attr}", fn,
                    ("scipy/fft/_realtransforms_backend.py", attr))
        self.targets = list(by_id.values())
        self._by_id = by_id
        self._namespaces = modules + [scipy_fft] + classes
        self._registry = shearlab.scenarios.SCENARIOS

    @contextlib.contextmanager
    def installed(self):
        """Rebind every name that holds a wrapped callable: module globals,
        class attributes and the scenario registry; restore on exit."""
        by_id = self._by_id
        bound = []                          # (namespace, attr, original)
        for ns in self._namespaces:
            for attr, obj in list(vars(ns).items()):
                tgt = by_id.get(id(obj))
                if tgt is not None and not attr.startswith("__"):
                    setattr(ns, attr, tgt.wrapper)
                    bound.append((ns, attr, obj))
        for entry in self._registry.values():
            tgt = by_id.get(id(entry["fn"]))
            if tgt is not None:
                entry["fn"] = tgt.wrapper
                bound.append((entry, "fn", tgt.original))
        try:
            yield
        finally:
            for ns, attr, obj in reversed(bound):
                if isinstance(ns, dict):
                    ns[attr] = obj
                else:
                    setattr(ns, attr, obj)

    def take(self) -> list[tuple]:
        """The spans recorded since the last call; parent indices count
        from the start of the returned list."""
        done = list(self.spans)
        self.spans.clear()
        return done


def write_spans(path: Path, rounds: list[list[tuple]]) -> int:
    """Write the spans of every traced round as gzipped CSV, times relative
    to the round's first span; returns the number of spans."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        fh.write("round,index,name,start_s,end_s,parent,work\n")
        for r, spans in enumerate(rounds):
            t0 = spans[0][1] if spans else 0.0
            for i, (name, start, end, parent, work) in enumerate(spans):
                fh.write(f"{r},{i},{name},{start - t0:.9f},{end - t0:.9f},"
                         f"{parent},{work}\n")
    return sum(len(s) for s in rounds)


def _code_key(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


# ---------------------------------------------------------------------------
# Per-layer aggregation
# ---------------------------------------------------------------------------

def layer_totals(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self time, summed work."""
    self_time = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_time[s[3]] -= s[2] - s[1]
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_time):
        agg = out.setdefault(s[0], {"calls": 0, "self_s": 0.0, "work": 0})
        agg["calls"] += 1
        agg["self_s"] += own
        agg["work"] += s[4]
    return out


# Per-layer metric -> (span name, or a layer prefix ending in ".", field).
LAYER_METRICS = {
    "fft.calls": ("fft.", "calls"),
    "fft.self_s": ("fft.", "self_s"),
    "fft.elements": ("fft.", "work"),
    "dst.calls": ("dst.", "calls"),
    "dst.self_s": ("dst.", "self_s"),
    "core.compose_shear.calls": ("core.compose_shear", "calls"),
    "core.compose_shear.self_s": ("core.compose_shear", "self_s"),
    "core.invert_laplacian.calls": ("core.invert_laplacian", "calls"),
    "core.invert_laplacian.self_s": ("core.invert_laplacian", "self_s"),
    "core.sobolev_norm.calls": ("core.sobolev_norm", "calls"),
    "core.sobolev_norm.self_s": ("core.sobolev_norm", "self_s"),
    "shear.rhs.calls": ("shear.ShearMarcher.rhs", "calls"),
    "shear.rhs.self_s": ("shear.ShearMarcher.rhs", "self_s"),
    "shear.rhs.systems": ("shear.ShearMarcher.rhs", "work"),
    "shear.step.calls": ("shear.ShearMarcher.step", "calls"),
    "shear.step.self_s": ("shear.ShearMarcher.step", "self_s"),
    "shear.backward_images.self_s": ("shear.backward_images", "self_s"),
    "shear.compose_profile_shift.calls": ("shear.compose_profile_shift",
                                          "calls"),
    "shear.compose_profile_shift.self_s": ("shear.compose_profile_shift",
                                           "self_s"),
    "consistency.integrands.calls": (
        "consistency._ConsistencyKernel.integrands", "calls"),
    "consistency.integrands.self_s": (
        "consistency._ConsistencyKernel.integrands", "self_s"),
    "consistency.integrand_total.calls": (
        "consistency._ConsistencyKernel.integrand_total", "calls"),
    "consistency.integrand_total.self_s": (
        "consistency._ConsistencyKernel.integrand_total", "self_s"),
    "couette.duhamel_quadrature.calls": ("couette.duhamel_quadrature",
                                         "calls"),
    "couette.duhamel_quadrature.self_s": ("couette.duhamel_quadrature",
                                          "self_s"),
    "viscous.multiplier_solution.self_s": ("viscous.multiplier_solution",
                                           "self_s"),
    "viscous.stationary_state_lattice.self_s": (
        "viscous.stationary_state_lattice", "self_s"),
    "viscous.b_value.calls": ("viscous.b_value", "calls"),
    "viscous.b_value.self_s": ("viscous.b_value", "self_s"),
    "viscous.heat_exponent.calls": ("viscous.heat_exponent", "calls"),
    "viscous.heat_exponent.self_s": ("viscous.heat_exponent", "self_s"),
    "nonlinear.step_ifrk4.calls": ("nonlinear.step_ifrk4", "calls"),
    "nonlinear.step_ifrk4.self_s": ("nonlinear.step_ifrk4", "self_s"),
    "nonlinear.advection.calls": ("nonlinear.advection", "calls"),
    "nonlinear.advection.self_s": ("nonlinear.advection", "self_s"),
    "nonlinear.remap.calls": ("nonlinear.remap", "calls"),
    "nonlinear.fixed_point_stationary.self_s": (
        "nonlinear.fixed_point_stationary", "self_s"),
    "diagnostics.self_s": ("diagnostics.", "self_s"),
    # every report function runs under emit_report on the CLI path
    "report.emit_report.self_s": ("report.", "self_s"),
}


def round_metrics(totals: dict) -> dict[str, float]:
    """The per-layer metrics of one traced round, from layer_totals."""
    out = {}
    for metric, (span, key) in LAYER_METRICS.items():
        if span.endswith("."):
            out[metric] = sum(v[key] for name, v in totals.items()
                              if name.startswith(span))
        else:
            out[metric] = totals.get(span, {}).get(key, 0)
    return out


def median_metrics(rounds: list[dict]) -> dict[str, float]:
    """Median over rounds; the low median keeps counts whole."""
    return {k: statistics.median_low(r[k] for r in rounds)
            for k in rounds[0]}


# ---------------------------------------------------------------------------
# Cross-check against cProfile
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def profiled():
    prof = cProfile.Profile()
    prof.enable()
    holder = {}
    try:
        yield holder
    finally:
        prof.disable()
        holder["stats"] = pstats.Stats(prof).stats


def profile_counts(stats: dict, targets: list[Target]) -> dict[str, int]:
    """cProfile's total call count (ncalls) of each target's original.  A
    scipy.fft transform is counted where uarray dispatches to the backend
    function of that name, which leaves out the backend's own internal calls
    (fft2 calls fftn)."""
    index = {}
    for (filename, line, func), row in stats.items():
        index[(filename, line, func)] = row[1]
        for backend in ("scipy/fft/_basic_backend.py",
                        "scipy/fft/_realtransforms_backend.py"):
            if filename.replace("\\", "/").endswith(backend):
                index[(backend, func)] = sum(
                    calls[1] for caller, calls in row[4].items()
                    if caller[2] == "__ua_function__")
    return {t.name: int(index.get(t.profile_key, 0)) for t in targets}


def cross_check(spans: list[tuple], stats: dict,
                targets: list[Target]) -> list[str]:
    """Names whose traced call count differs from cProfile's ncalls."""
    traced: dict[str, int] = {}
    for s in spans:
        traced[s[0]] = traced.get(s[0], 0) + 1
    counted = profile_counts(stats, targets)
    return sorted(f"{name}: traced {traced.get(name, 0)}, cProfile {n}"
                  for name, n in counted.items()
                  if traced.get(name, 0) != n)
