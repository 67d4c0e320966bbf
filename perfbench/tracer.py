"""Outside-in span tracer for the heisenflag layers the benchmark measures.

The tracer never edits the package: it replaces public functions and
methods with timing wrappers at run time, in every `heisenflag` module that
binds them (`from .symbols import kn_quantize` makes a second binding that a
wrapper installed only in `symbols` would miss). Each call records a span
(name, start, end, parent span) in memory; `aggregate` folds the spans into
per-layer call counts and self times once the run is over.

Two NumPy entry points are counted rather than timed: every SVD, whether
requested through `numpy.linalg.svd` or hidden in `numpy.linalg.norm(m, 2)`.
"""

from __future__ import annotations

import functools
import sys
import threading
import types
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _count_evaluate_symbol(counts: dict, args, kwargs) -> None:
    # computed, not measured: the first contraction of the band-limited
    # interpolant touches every coefficient once per query row
    a, xi = args[0], args[1] if len(args) > 1 else kwargs["xi"]
    rows, N, n = _rows(xi), a.grid.count, a.grid.dim
    inter = 16 * rows * N ** (2 * n - 1)
    counts["symbols.evaluate_symbol.rows"] += rows
    counts["symbols.evaluate_symbol.macs"] += rows * N ** (2 * n)
    counts["symbols.evaluate_symbol.bytes"] += 16 * N ** (2 * n) + inter
    counts["symbols.evaluate_symbol.peak_bytes"] = max(
        counts["symbols.evaluate_symbol.peak_bytes"], inter)


def _count_kn_quantize(counts: dict, args, kwargs) -> None:
    # computed: one dense (size x size) @ (size x size) phase product over
    # four size^2 complex operands (two phase matrices, table, result)
    size = (args[0] if args else kwargs["a"]).grid.size
    counts["symbols.kn_quantize.macs"] += size ** 3
    counts["symbols.kn_quantize.bytes"] += 4 * 16 * size ** 2


def _count_spectrum_rows(counts: dict, args, kwargs) -> None:
    counts["symbols.spectrum_call.rows"] += _rows(args[1] if len(args) > 1 else kwargs["W"])


def _count_eval_at_rows(counts: dict, args, kwargs) -> None:
    counts["fields.eval_at.rows"] += _rows(args[1] if len(args) > 1 else kwargs["points"])


def _count_svd(counts: dict, args, kwargs) -> None:
    a = np.asarray(args[0] if args else kwargs["a"])
    counts["inversion.svd.calls"] += int(np.prod(a.shape[:-2], dtype=int))


def _count_norm2(counts: dict, args, kwargs) -> None:
    # the matrix 2-norm is an extreme singular value: numpy runs a full SVD
    # of every matrix in the batch
    x = np.asarray(args[0] if args else kwargs["x"])
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    axis = args[2] if len(args) > 2 else kwargs.get("axis")
    if ord_ not in (2, -2):
        return
    if axis is None and x.ndim == 2:
        counts["inversion.svd.calls"] += 1
    elif isinstance(axis, tuple) and len(axis) == 2:
        counts["inversion.svd.calls"] += x.size // (x.shape[axis[0]] * x.shape[axis[1]])


@dataclass(frozen=True)
class Target:
    """One wrapped callable: `owner.attr` is its home binding."""

    name: str
    owner: str
    attr: str
    counter: "Callable | None" = None
    timed: bool = True


TARGETS = (
    Target("symbols.evaluate_symbol", "heisenflag.symbols", "evaluate_symbol",
           _count_evaluate_symbol),
    Target("symbols.kn_quantize", "heisenflag.symbols", "kn_quantize",
           _count_kn_quantize),
    Target("symbols.kn_symbol_of", "heisenflag.symbols", "kn_symbol_of"),
    Target("symbols.fiber_symbol", "heisenflag.symbols", "fiber_symbol"),
    Target("symbols.derivative", "heisenflag.symbols:SympySpectrum", "derivative"),
    Target("symbols.lambdify", "sympy", "lambdify"),
    Target("symbols.spectrum_call", "heisenflag.symbols:Spectrum", "__call__",
           _count_spectrum_rows),
    Target("symbols.flag_estimate_report", "heisenflag.symbols",
           "flag_estimate_report"),
    Target("inversion.invert_fiber", "heisenflag.inversion", "invert_fiber"),
    Target("inversion.invert_flag", "heisenflag.inversion", "invert_flag"),
    Target("inversion.uniform_invertibility_report", "heisenflag.inversion",
           "uniform_invertibility_report"),
    Target("inversion.derivative_report", "heisenflag.inversion",
           "derivative_report"),
    Target("inversion.verify_inverse", "heisenflag.inversion", "verify_inverse"),
    Target("kernels.make_spectrum", "heisenflag.kernels", "make_spectrum"),
    Target("transform.convolve", "heisenflag.transform", "convolve"),
    Target("transform.twisted_fiber_product", "heisenflag.transform",
           "twisted_fiber_product"),
    Target("transform.star_involution", "heisenflag.transform", "star_involution"),
    Target("schrodinger.pi_field", "heisenflag.schrodinger", "pi_field"),
    Target("schrodinger.pi_point", "heisenflag.schrodinger", "pi_point"),
    Target("schrodinger.c_fun", "heisenflag.schrodinger", "c_fun"),
    Target("fields.eval_at", "heisenflag.fields:SampledField", "eval_at",
           _count_eval_at_rows),
    Target("grids.centered_dft", "heisenflag.grids", "centered_dft"),
    Target("grids.centered_idft", "heisenflag.grids", "centered_idft"),
    Target("checks.run_identity_battery", "heisenflag.checks",
           "run_identity_battery"),
    Target("cli.main", "heisenflag.cli", "main"),
    Target("numpy.svd", "numpy.linalg", "svd", _count_svd, timed=False),
    Target("numpy.norm", "numpy.linalg", "norm", _count_norm2, timed=False),
)


def _resolve_owner(owner: str):
    mod_name, _, cls_name = owner.partition(":")
    mod = sys.modules[mod_name]
    return getattr(mod, cls_name) if cls_name else mod


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if isinstance(m, types.ModuleType)
            and (name == "heisenflag" or name.startswith("heisenflag."))]


def bindings(original) -> list:
    """Every place in the loaded `heisenflag` package that holds `original`.

    Looks at module namespaces, class dictionaries, module-level containers
    and default arguments of module-level functions. Returns readable
    locations; `Recorder.install` rewrites the first two kinds only, so a
    binding of the other kinds shows up as uncovered.
    """
    found = []
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            where = f"{mod.__name__}.{key}"
            if value is original:
                found.append(where)
            elif isinstance(value, type) and value.__module__.startswith("heisenflag"):
                found += [f"{where}.{k}" for k, v in vars(value).items() if v is original]
            elif isinstance(value, dict):
                found += [f"{where}[{k!r}]" for k, v in value.items() if v is original]
            elif isinstance(value, (list, tuple)):
                found += [f"{where}[{i}]" for i, v in enumerate(value) if v is original]
            elif isinstance(value, types.FunctionType):
                defaults = (value.__defaults__ or ()) + tuple(
                    (value.__kwdefaults__ or {}).values())
                if any(d is original for d in defaults):
                    found.append(f"{where}(default argument)")
    return found


class Recorder:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list = []           # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.installed: dict = {}       # Target -> (original, wrapper)
        self.missing: list = []         # targets absent from this build
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, target: Target, fn):
        counts = self.counts
        counter = target.counter
        if not target.timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counter(counts, args, kwargs)
                return fn(*args, **kwargs)
            return counted

        spans, name = self.spans, target.name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(counts, args, kwargs)
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
        return traced

    def install(self) -> None:
        """Wrap every target at its home binding and all package bindings."""
        for target in TARGETS:
            try:
                owner = _resolve_owner(target.owner)
                original = vars(owner)[target.attr]
            except (KeyError, AttributeError):
                self.missing.append(target.name)
                continue
            wrapper = self.wrap(target, original)
            _rebind(owner, target.attr, original, wrapper)
            self.installed[target] = (original, wrapper)

    def uncovered(self) -> list:
        """Bindings of a wrapped original that still bypass its wrapper."""
        return [f"{target.name}: {where}"
                for target, (original, _) in self.installed.items()
                for where in bindings(original)]

    def uninstall(self) -> None:
        for target, (original, wrapper) in self.installed.items():
            _rebind(_resolve_owner(target.owner), target.attr, wrapper, original)
        self.installed.clear()


def _rebind(owner, attr: str, old, new) -> None:
    """Point `owner.attr`, and every package binding of `old`, at `new`."""
    setattr(owner, attr, new)
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)
            elif isinstance(value, type) and vars(value).get(attr) is old:
                setattr(value, attr, new)


def aggregate(spans: list) -> dict:
    """Per-name call count, total time and self time from raw spans.

    Self time is a span's duration minus the durations of its direct
    children; spans on one thread nest, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return out
