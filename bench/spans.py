"""Spans around the package's public entry points, for the traced benchmark run.

`Tracer.install` rebinds each traced function in the namespace of the module
that calls it (the CLI's own `spectrum`, `wavepacket`'s own
`round_trip_series`, ...) to a wrapper that records a span: name, start,
end, parent.  `uninstall` puts the original objects back, so a run that never
installs the tracer executes the package untouched.  Span names are
`<defining module>.<function>`, except that the piecewise-polynomial algebra
`pp_*` is pooled as `core.pp_algebra`.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# Names rebound in each calling module.
BINDINGS = {
    "cli": ["run", "dressed_params", "excitation_curve", "excitation_probability_exact",
            "excitation_probability_longtime", "excitation_probability_markovian",
            "solve_longtime", "ensemble_average", "spatial_profile", "spectrum"],
    "analytic": ["round_trip_series", "solve_longtime", "excitation_probability_exact",
                 "dyson_coefficient_closed", "dyson_coefficient_iterative",
                 "pp_add", "pp_integrate", "pp_scale", "pp_shift", "pp_snap"],
    "wavepacket": ["round_trip_series", "excitation_probability_exact", "field_amplitude",
                   "total_photon_norm"],
    "trajectory": ["trajectory_rng"],
}
# Spans whose arguments are kept until the pass is summarized, to count work.
_COUNTED = {"analytic.round_trip_series", "wavepacket.field_amplitude",
            "trajectory.ensemble_average"}
LAYERS = ("cli", "core", "analytic", "wavepacket", "trajectory")


def span_name(fn) -> str:
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
    return "core.pp_algebra" if fn.__name__.startswith("pp_") else name


class Tracer:
    """Records spans in memory while installed; `summarize` turns one pass into metrics."""

    def __init__(self, package: dict):
        self._package = package  # module name -> module object
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list = []
        self._stack: list[int] = []
        self.peak_alloc_bytes = 0
        self._alloc = False

    def install(self, measure_alloc: bool = False) -> None:
        """Rebind every traced name; with `measure_alloc`, tracemalloc runs
        inside each ensemble_average span (costly, so not in timed passes)."""
        self._alloc = measure_alloc
        for module_name, names in BINDINGS.items():
            module = self._package[module_name]
            for attr in names:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span_name(original)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep_args = name in _COUNTED
        alloc = self._alloc and name == "trajectory.ensemble_average"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            if alloc:
                tracemalloc.start()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                if alloc:
                    self.peak_alloc_bytes = max(self.peak_alloc_bytes,
                                                tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stack.pop()
                spans[index] = (name, start, end, parent, args if keep_args else None)

        traced.__wrapped__ = fn
        return traced

    def take(self) -> list:
        """Hand over the spans recorded so far (the wrappers keep appending to the same list)."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def _work(name: str, args) -> dict:
    if name == "analytic.round_trip_series":
        params, u = args[0], np.asarray(args[1], dtype=float)
        live = u[u >= 0]
        terms = (np.floor(live / params.tau).sum() if params.tau > 0 else 0) + live.size
        return {"points": u.size, "terms": int(terms)}
    if name == "wavepacket.field_amplitude":
        return {"points": np.size(args[1])}
    if name == "trajectory.ensemble_average":
        config = args[0]
        return {"trajectories": config.n_trajectories,
                "steps": config.n_trajectories * config.n_steps}
    return {}


def summarize(spans: list) -> dict:
    """Per-layer metrics of one pass from its spans.

    `<name>.ms` sums the spans of that name that are not nested in a span of
    the same name; `<name>.self_ms` subtracts the time covered by child spans.
    `<layer>.self_ms` sums self time over the layer's spans.
    """
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for index, (name, start, end, parent, args) in enumerate(spans):
        duration = end - start
        if parent < 0 or spans[parent][0] != name:
            total[name] += duration
            calls[name] += 1
        self_time[name] += duration - child[index]
        if args is not None:
            for key, value in _work(name, args).items():
                work[f"{name}.{key}"] += value
    ms = 1e3
    ensemble_s = total["trajectory.ensemble_average"]
    metrics = {
        "cli.run.ms": total["cli.run"] * ms,
        "cli.run.self_ms": self_time["cli.run"] * ms,
        "analytic.round_trip_series.ms": total["analytic.round_trip_series"] * ms,
        "analytic.round_trip_series.calls": calls["analytic.round_trip_series"],
        "analytic.round_trip_series.points": work["analytic.round_trip_series.points"],
        "analytic.round_trip_series.terms": work["analytic.round_trip_series.terms"],
        "analytic.solve_longtime.ms": total["analytic.solve_longtime"] * ms,
        "analytic.dyson_coefficient_iterative.ms":
            total["analytic.dyson_coefficient_iterative"] * ms,
        "core.pp_algebra.ms": total["core.pp_algebra"] * ms,
        "core.pp_algebra.calls": calls["core.pp_algebra"],
        "wavepacket.field_amplitude.ms": total["wavepacket.field_amplitude"] * ms,
        "wavepacket.field_amplitude.points": work["wavepacket.field_amplitude.points"],
        "wavepacket.spectrum.self_ms": self_time["wavepacket.spectrum"] * ms,
        "wavepacket.total_photon_norm.ms": total["wavepacket.total_photon_norm"] * ms,
        "trajectory.ensemble_average.self_ms":
            self_time["trajectory.ensemble_average"] * ms,
        "trajectory.steps": work["trajectory.ensemble_average.steps"],
        "trajectory.trajectory_rng.ms": total["trajectory.trajectory_rng"] * ms,
        "trajectory.trajectory_rng.calls": calls["trajectory.trajectory_rng"],
        "trajectory.trajectories_per_s":
            work["trajectory.ensemble_average.trajectories"] / ensemble_s
            if ensemble_s > 0 else 0.0,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = ms * math.fsum(
            value for name, value in self_time.items() if name.startswith(layer + "."))
    metrics["trace.spans"] = len(spans)
    return metrics
