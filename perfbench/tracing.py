"""Spans around the package's layer functions, recorded from outside it.

``Recorder.install`` wraps each function in ``TARGETS`` where its callers
look it up: the module attribute in every loaded ``bsderisk`` module that
holds the function (``from .bsde import solve_bsde`` makes a second
binding in the importing module), or the class attribute for a method.
Each call then records a span (layer name, start, end, parent span and,
for the regression and solver layers, the number of target columns). The
spans stay in memory until ``dump``.

``summarize`` turns spans into per-layer totals: inclusive time (spans with
no ancestor of the same layer, so recursion is not counted twice), self
time (duration minus the time covered by child spans), calls and columns.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (module, attribute, layer, argument whose column count is recorded)
TARGETS = (
    ("bsderisk.market", "simulate_paths", "market.simulate", None),
    ("bsderisk.bsde", "features_at_node", "bsde.basis", None),
    ("bsderisk.bsde", "regress_condexp", "bsde.fit", "targets"),
    ("bsderisk.bsde", "solve_bsde", "bsde.solve", "terminal"),
    ("bsderisk.bsde", "condexp_at_node", "bsde.condexp", "targets"),
    ("bsderisk.drivers", "Driver.__call__", "drivers.eval", None),
    ("bsderisk.drivers", "Driver.partial_z", "drivers.partial", None),
    ("bsderisk.drivers", "Driver.partial_upsilon", "drivers.partial", None),
    ("bsderisk.measure", "doleans_dade", "measure.density", None),
    ("bsderisk.measure", "weighted_condexp", "measure.weighted", None),
    ("bsderisk.allocation", "build_allocation_report", "allocation.report", None),
    ("bsderisk.allocation", "gradient_fd", "allocation.fd", None),
    ("bsderisk.allocation", "gradient_measure", "allocation.measure", None),
    ("bsderisk.allocation", "aumann_shapley", "allocation.shapley", None),
    # the report reaches the Shapley route through this helper, not aumann_shapley
    ("bsderisk.allocation", "_shapley_multi", "allocation.shapley", None),
    ("bsderisk.risk", "entropic_closed_form", "risk.closed_form", None),
    ("bsderisk.risk", "axiom_suite", "risk.axioms", None),
    ("bsderisk.malliavin", "clark_ocone", "malliavin.clark_ocone", None),
    ("bsderisk.malliavin", "entropic_controls", "malliavin.entropic_controls", None),
    ("bsderisk.scenario", "load_config", "scenario.config", None),
    ("bsderisk.scenario", "apply_overrides", "scenario.config", None),
    ("bsderisk.scenario", "build_scenario", "scenario.config", None),
    ("bsderisk.scenario", "run_scenario", "scenario.run", None),
    ("bsderisk.reporting", "emit_report", "reporting.emit", None),
)


def _rebind(module_name: str, attr: str, make):
    """Replace the function at module.attr by make(function) wherever a
    bsderisk module or class holds it. Returns False if it does not exist."""
    module = sys.modules.get(module_name)
    owner_name, _, name = attr.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    current = getattr(owner, name, None) if owner is not None else None
    if current is None:
        return False
    replacement = make(current)
    if owner_name:
        setattr(owner, name, replacement)
        return True
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "bsderisk" or mod_name.startswith("bsderisk."):
            for key, value in list(vars(mod).items()):
                if value is current:
                    setattr(mod, key, replacement)
    return True


def hook_after(module_name: str, attr: str, callback) -> bool:
    """Call ``callback()`` each time the function returns."""

    def make(fn):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            result = fn(*args, **kwargs)
            callback()
            return result
        return hooked

    return _rebind(module_name, attr, make)


def _column_count(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is None:
        return 1
    return 1 if len(shape) < 2 else int(shape[1])


class Recorder:
    """In-memory span list: [layer, start, end, parent index, columns]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def _wrap(self, layer: str, column_arg: str | None, fn):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if column_arg else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            columns = None
            if signature is not None:
                bound = signature.bind_partial(*args, **kwargs).arguments
                if column_arg in bound:
                    columns = _column_count(bound[column_arg])
            index = len(spans)
            spans.append([layer, time.perf_counter(), None,
                          stack[-1] if stack else None, columns])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        return traced

    def install(self) -> None:
        for module_name, attr, layer, column_arg in TARGETS:
            make = functools.partial(self._wrap, layer, column_arg)
            if not _rebind(module_name, attr, make):
                self.missing.append(f"{module_name}.{attr}")
        if self.missing:
            print("tracing: not found: " + ", ".join(self.missing), file=sys.stderr)

    def dump(self) -> dict:
        return {"fields": ["layer", "start", "end", "parent", "columns"],
                "spans": self.spans, "missing": self.missing}


def has_ancestor(spans: list[list], index: int, layer: str) -> bool:
    """Does span ``index`` run inside a span of ``layer``?"""
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] == layer:
            return True
        parent = spans[parent][3]
    return False


def summarize(spans: list[list]) -> dict:
    """Per-layer inclusive seconds, self seconds, calls and columns."""
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start

    layers: dict[str, dict] = {}
    for i, (layer, start, end, parent, columns) in enumerate(spans):
        entry = layers.setdefault(
            layer, {"inclusive_s": 0.0, "self_s": 0.0, "calls": 0, "columns": 0})
        duration = end - start
        entry["calls"] += 1
        entry["self_s"] += duration - child_time[i]
        entry["columns"] += columns or 0
        if not has_ancestor(spans, i, layer):
            entry["inclusive_s"] += duration
    return layers
