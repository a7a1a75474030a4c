"""The benchmark's tracer finds the package's layer functions by name."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# names the tracer still looks up although the package no longer has them
# (their per-layer metrics read 0 until the tracer is updated)
STALE = {
    "bsderisk.bsde.regress_condexp",
    "bsderisk.allocation.gradient_fd",
    "bsderisk.allocation.gradient_measure",
    "bsderisk.allocation.aumann_shapley",
}


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for name in attr.split("."):
        owner = getattr(owner, name, None)
        if owner is None:
            return False
    return callable(owner)


def test_only_the_known_stale_tracer_targets_are_missing():
    # renaming a traced function (features_at_node, condexp_at_node, ...)
    # would silently zero its per-layer metric: it fails here instead
    missing = {f"{module}.{attr}" for module, attr, _, _ in tracer_targets()
               if not resolves(module, attr)}
    assert missing == STALE
