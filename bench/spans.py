"""Span tracing of the akscal layers, installed from outside the package.

`Tracer.install()` replaces every public callable of every akscal module with
a wrapper that records a span (name, start, end, parent, job id) and a few
counters read from the call's arguments and result.  Names that one akscal
module imported from another (`operator_lab`'s `from .grid import
lift_axis`, the re-exports in `akscal/__init__`) are rebound too, so nested
calls show up under their caller.  `uninstall()` restores every original.

Span names are `<module>.<function>`, `<module>.<method>` for public methods
and cached properties, and `<module>.<Class>` for a constructor.  A
`spectral_floor` span is renamed after the branch it took: `.dense` or
`.sparse`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import time
import weakref

import numpy as np

MODULES = ("exact", "tensor", "lie", "zbound", "grid", "operator_lab",
           "rearrange", "suite", "cli")


class Tracer:
    """In-memory span recorder; the tree is written out when the run ends."""

    def __init__(self):
        self.names: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []      # index of the enclosing span, -1 at top
        self.job: list = []
        self.self_time: list = []   # duration minus time covered by children
        self.job_id = ""
        self.counters: dict = {}    # reset by mark()
        self.variants: set = set()  # get_variant names seen since mark()
        self.shift_keys = weakref.WeakKeyDictionary()  # grid -> {(axis, step)}
        self._stack: list = []
        self._child: list = []
        self._patches: list = []    # (owner, attribute, original value)

    # -- recording -----------------------------------------------------------

    def enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.self_time.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int, rename: str | None = None) -> None:
        t = time.perf_counter()
        self._stack.pop()
        dur = t - self.start[idx]
        self.end[idx] = t
        self.self_time[idx] = dur - self._child.pop()
        if rename is not None:
            self.names[idx] = rename
        if self._child:
            self._child[-1] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.enter(name)
        try:
            yield
        finally:
            self.exit(idx)

    def count(self, name: str, value=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def mark(self) -> int:
        """Start a new aggregation window (one pass); returns its first span."""
        self.counters = {}
        self.variants = set()
        return len(self.names)

    def aggregate(self, first: int) -> tuple:
        """(self time per name, calls per name, counters) since mark()."""
        self_s: dict = {}
        calls: dict = {}
        for i in range(first, len(self.names)):
            n = self.names[i]
            self_s[n] = self_s.get(n, 0.0) + self.self_time[i]
            calls[n] = calls.get(n, 0) + 1
        return self_s, calls, dict(self.counters)

    def tree(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "job"],
                "spans": [list(s) for s in zip(self.names, self.start,
                                               self.end, self.parent,
                                               self.job)]}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import akscal
        mods = {m: importlib.import_module(f"akscal.{m}") for m in MODULES}
        replaced: dict = {}     # id(original function) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_")
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(obj, f"{short}.{attr}")
                    self._patch(mod, attr, replaced[id(obj)])
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, short)
        for mod in (akscal, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and obj is not replaced[id(obj)]:
                    self._patch(mod, attr, replaced[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, short: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, functools.cached_property):
                prop = functools.cached_property(
                    self._wrap(obj.func, f"{short}.{attr}"))
                prop.__set_name__(cls, attr)
                self._patch(cls, attr, prop)
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(obj, f"{short}.{attr}"))
        if "__init__" in vars(cls) and not dataclasses.is_dataclass(cls):
            self._patch(cls, "__init__", self._wrap(
                vars(cls)["__init__"], f"{short}.{cls.__name__}"))

    def _wrap(self, fn, name: str):
        counter = _COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if name == "rearrange.build_plan" and isinstance(exc, ValueError):
                    tracer.count("rearrange.build_plan.refusals")
                tracer.exit(idx)
                raise
            rename = None if counter is None else counter(tracer, args, kwargs,
                                                          result)
            tracer.exit(idx, rename)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# counters read from arguments and results; a counter may rename its span


def _arg(args, kwargs, pos: int, name: str, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _shift(tr: Tracer, args, kwargs, result):
    grid = args[0]
    key = (_arg(args, kwargs, 1, "axis", None), int(_arg(args, kwargs, 2, "step", 1)))
    seen = tr.shift_keys.setdefault(grid, set())
    if key in seen:
        tr.count("grid.shift.repeats")
    seen.add(key)


def _get_variant(tr: Tracer, args, kwargs, result):
    tr.variants.add(result.name)
    tr.counters["operator_lab.get_variant.distinct"] = len(tr.variants)


def _normal_matrix(tr: Tracer, args, kwargs, result):
    tr.count("operator_lab.normal_matrix.nnz", int(result.nnz))


def _spectral_floor(tr: Tracer, args, kwargs, result):
    size = int(result.size)
    branch = "dense" if result.method == "dense" else "sparse"
    tr.count(f"operator_lab.spectral_floor.{branch}_calls")
    tr.count("operator_lab.spectral_floor.size_sum", size)
    if branch == "dense":
        tr.count("operator_lab.spectral_floor.dense_n3_computed", size ** 3)
        tr.count("operator_lab.spectral_floor.dense_bytes_computed", 8 * size ** 2)
    key = "operator_lab.spectral_floor.max_residual"
    tr.counters[key] = max(tr.counters.get(key, 0.0),
                           float(np.max(np.abs(result.residuals))))
    return f"operator_lab.spectral_floor.{branch}"


def _build_plan(tr: Tracer, args, kwargs, result):
    tr.count("rearrange.build_plan.arcs", len(result.arcs))


def _derivative(tr: Tracer, args, kwargs, result):
    tr.count("rearrange.derivative.points", int(np.size(args[1])))


def _optimize(tr: Tracer, args, kwargs, result):
    tr.count("zbound.optimize_z_bound.iterations", int(result.iterations))


_COUNTERS = {
    "grid.shift": _shift,
    "operator_lab.get_variant": _get_variant,
    "operator_lab.normal_matrix": _normal_matrix,
    "operator_lab.spectral_floor": _spectral_floor,
    "rearrange.build_plan": _build_plan,
    "rearrange.derivative": _derivative,
    "zbound.optimize_z_bound": _optimize,
}
