"""Span tracing of symtomo's layers from outside the library.

The tracer replaces the public functions that one symtomo module imports
from another (and the entry points the benchmark calls) by timing wrappers,
in every module namespace that holds them, and restores the originals
afterwards.  Spans stay in memory: name, start, end, parent span, op id and
the grid size of the call's main argument.  A span's self time is its
duration minus the time its child spans cover; the root span of an op keeps
the time spent outside every wrapped function.

Besides timings, the tracer records counts computed from array sizes at the
same boundaries (FFT points, interpolation points, line samples, bytes).
The benchmark is single-threaded (one op at a time), so one span stack
serves the whole process.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

LAYERS = ("cli", "serialization", "radon", "metaplectic", "grids", "wigner", "gaussian")

WRAPPED = {
    "cli": ("main",),
    "serialization": ("save_tomogram_set", "load_tomogram_set", "save_wigner",
                      "load_wigner", "save_wigner_csv"),
    "radon": ("compute_tomogram_set", "radon_metaplectic", "radon_chirp_fft",
              "radon_line_integral", "inverse_radon"),
    "metaplectic": ("metaplectic_rotation", "quadratic_fourier"),
    "grids": ("hbar_fourier", "sample_uniform", "chirp_multiply"),
    "wigner": ("wigner_transform", "marginals"),
    "gaussian": ("gaussian_wavefunction", "pauli_reconstruct"),
}

ROOT = "op"


def _line_samples(args, result) -> int:
    """Bilinear samples taken by radon_line_integral: output points times
    points per line (the library's step rule, ds = step_fraction*min(dx, dp))."""
    gx, gp = args["w"].x_grid, args["w"].p_grid
    ds = args["step_fraction"] * min(gx.dx, gp.dx)
    half_diag = 0.5 * math.hypot(gx.x_max - gx.x_min, gp.x_max - gp.x_min)
    return result.values.size * (math.ceil(2 * half_diag / ds) + 1)


def _chirp_sweep(args, result) -> dict:
    if args["route"] != "chirp-fft":
        return {}
    return {"radon.chirp_sweep_angles": len(result),
            "radon.chirp_fallback_angles": sum(t.route == "metaplectic" for t in result)}


# label -> f(bound arguments, result) -> {counter: value}; all computed from sizes
COUNTERS = {
    "grids.hbar_fourier": lambda a, r: {"grids.fft_points": a["psi"].grid.n_points},
    "radon.inverse_radon": lambda a, r: {
        "radon.inverse_radon.interp_points": len(a["tomos"]) * r.values.size},
    "radon.radon_line_integral": lambda a, r: {
        "radon.radon_line_integral.samples": _line_samples(a, r)},
    "radon.compute_tomogram_set": _chirp_sweep,
    "serialization.save_tomogram_set": lambda a, r: {
        "serialization.save_tomogram_set.bytes": 8 * len(a["ts"]) * len(a["ts"].x)},
    "serialization.load_tomogram_set": lambda a, r: {
        "serialization.load_tomogram_set.bytes": 8 * len(r) * len(r.x)},
    "serialization.save_wigner": lambda a, r: {
        "serialization.save_wigner.bytes": 8 * a["w"].values.size},
    "serialization.load_wigner": lambda a, r: {
        "serialization.load_wigner.bytes": 8 * r.values.size},
    "serialization.save_wigner_csv": lambda a, r: {
        "serialization.save_wigner_csv.bytes": Path(a["path"]).stat().st_size},
}

COUNT_NAMES = ("grids.fft_points", "radon.inverse_radon.interp_points",
               "radon.radon_line_integral.samples",
               "serialization.save_tomogram_set.bytes",
               "serialization.load_tomogram_set.bytes",
               "serialization.save_wigner.bytes", "serialization.load_wigner.bytes",
               "serialization.save_wigner_csv.bytes")


def _size(value) -> int | None:
    """Grid size of a call's main argument, for per-size rows."""
    for attr in ("grid", "x_grid"):
        grid = getattr(value, attr, None)
        if grid is not None:
            return grid.n_points
    x = getattr(value, "x", None)
    return len(x) if x is not None else None


@dataclass
class Span:
    name: str
    start: float
    parent: int
    op: int
    n: int | None
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self, sym):
        self.sym = sym
        self.spans: list[Span] = []
        self.counts: dict[int, dict] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._op = -1

    # -- recording ----------------------------------------------------------

    def _begin(self, name: str, n=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, parent, self._op, n))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def _end(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; wrapped calls inside it become its children."""
        self._op = op_id
        idx = self._begin(ROOT)
        try:
            yield
        finally:
            self._end(idx)
            self._op = -1

    def _wrap(self, label: str, fn):
        sig = inspect.signature(fn)
        counter = COUNTERS.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._begin(label, _size(args[0]) if args else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            op_counts = self.counts[self._op]
            op_counts[label + ".calls"] += 1
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, result).items():
                    op_counts[key] += value
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every symtomo namespace that holds a wrapped function."""
        namespaces = [self.sym] + [getattr(self.sym, m) for m in LAYERS]
        saved = []
        for layer, names in WRAPPED.items():
            for name in names:
                original = getattr(getattr(self.sym, layer), name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for ns in namespaces:
                    if getattr(ns, name, None) is original:
                        saved.append((ns, name, original))
                        setattr(ns, name, wrapper)
        try:
            yield
        finally:
            for ns, name, original in reversed(saved):
                setattr(ns, name, original)

    # -- summaries ----------------------------------------------------------

    def op_ids(self) -> list[int]:
        return sorted({s.op for s in self.spans if s.name == ROOT})

    def op_self_times(self, op_id: int) -> dict[str, float]:
        """Self seconds by span name within one op (root = untraced remainder)."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.op == op_id:
                out[s.name] += s.self_s
        return dict(out)

    def op_wall(self, op_id: int) -> float:
        return next(s.duration for s in self.spans if s.op == op_id and s.name == ROOT)

    def per_call_rows(self) -> dict[str, dict]:
        """Mean inclusive time per call, by function and grid size."""
        rows: dict[str, list] = defaultdict(list)
        for s in self.spans:
            if s.name != ROOT:
                rows[f"{s.name}@n={s.n}"].append(s.duration)
        return {k: {"calls": len(v), "mean_s": sum(v) / len(v)} for k, v in sorted(rows.items())}

    def per_layer(self) -> dict[str, float]:
        """Per-op medians of self times and computed counts over the traced ops."""
        ops = self.op_ids()
        metrics: dict[str, float] = {}
        selfs = [self.op_self_times(o) for o in ops]

        def med(values):
            return statistics.median(values) if values else 0.0

        for layer, names in WRAPPED.items():
            for name in names:
                label = f"{layer}.{name}"
                metrics[label + ".calls"] = med([self.counts[o][label + ".calls"] for o in ops])
                metrics[label + ".self_s"] = med([s.get(label, 0.0) for s in selfs])
            metrics[layer + ".self_s"] = med(
                [sum((v for k, v in s.items() if k.startswith(layer + ".")), 0.0)
                 for s in selfs])
        metrics["op.remainder_s"] = med([s.get(ROOT, 0.0) for s in selfs])
        for key in COUNT_NAMES:
            metrics[key] = med([self.counts[o][key] for o in ops])
        angles = sum(self.counts[o]["radon.chirp_sweep_angles"] for o in ops)
        fallback = sum(self.counts[o]["radon.chirp_fallback_angles"] for o in ops)
        metrics["radon.chirp_fallback_ratio"] = fallback / angles if angles else 0.0
        return metrics

    def dump(self) -> dict:
        return {
            "spans": [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                       "op": s.op, "n": s.n, "self_s": s.self_s} for s in self.spans],
            "counts": {str(o): dict(c) for o, c in self.counts.items()},
            "per_call": self.per_call_rows(),
        }
