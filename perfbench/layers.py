"""Layer clocks: time and count the layers of ``repro`` from outside it.

:func:`install` replaces each function named in :data:`LAYERS`, in every
loaded ``repro`` module that binds it, with a wrapper that charges the
call's *self time* (its wall time minus the time of wrapped calls nested in
it) to the function's layer.  Nothing inside ``src/`` changes; the wrappers
live only in the process that installs them.

Counters are exact work counts, so two runs of the same code on the same
inputs must produce identical ones: ``<layer>.calls`` counts entries into a
layer from outside it, and the hooks below add the per-layer work measures
(rounds, messages, nodes, edges, comparisons).
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from functools import cmp_to_key

# (layer, module, attribute); "Class.method" patches the class attribute
LAYERS = (
    ("local", "repro.local.runtime", "run"),
    ("local", "repro.local.runtime", "run_rounds"),
    ("fm", "repro.matching.fm", "fm_from_node_outputs"),
    ("fm", "repro.matching.fm", "FractionalMatching.feasibility_violations"),
    ("fm", "repro.matching.fm", "FractionalMatching.maximality_violations"),
    ("fm", "repro.core.saturation", "unsaturated_nodes"),
    ("lifts.unfold", "repro.graphs.lifts", "unfold_loop"),
    ("lifts.mix", "repro.graphs.lifts", "mix"),
    ("ball", "repro.graphs.neighborhoods", "ball"),
    ("iso", "repro.graphs.isomorphism", "balls_isomorphic"),
    ("iso", "repro.graphs.isomorphism", "canonical_form_of"),
    ("iso", "repro.graphs.isomorphism", "rooted_isomorphic"),
    ("iso", "repro.graphs.isomorphism", "ec_isomorphic"),
    ("iso", "repro.engine.cache", "CanonicalFormCache.canonical_form"),
    ("walk", "repro.core.propagation", "disagreement_walk"),
    ("adversary", "repro.core.adversary", "run_adversary"),
    ("adversary", "repro.core.adversary", "checked_run"),
    ("sim.ec_po", "repro.core.sim_ec_po", "ECFromPO.run_on"),
    ("sim.po_oi", "repro.core.sim_po_oi", "POFromOI.run_on"),
    ("sim.po_oi", "repro.core.sim_po_oi", "SymmetricOIAdapter.evaluate"),
    ("sim.oi_id", "repro.core.sim_oi_id", "OIFromID.evaluate"),
    ("order", "repro.core.canonical_order", "compare_words"),
    ("cover", "repro.graphs.cover", "universal_cover_po"),
    ("cover", "repro.graphs.cover", "universal_cover_ec"),
)

#: the modules whose import pulls in every binding site of the functions
_ENTRY_MODULES = ("repro.api", "repro.engine", "repro.service", "repro.cli")


# counter hooks: (counts, call args, result or None if it raised, number of
# wrapped calls made inside the call)


def _local_counts(counts, args, result, children):
    if result is None:
        return
    counts["local.rounds"] += result.rounds
    counts["local.messages"] += sum(result.message_counts)


def _fm_counts(counts, args, result, children):
    counts["fm.edges"] += args[0].num_edges()


def _lift_counts(counts, args, result, children):
    counts["lifts.calls"] += 1
    if result is not None:
        counts["lifts.nodes_out"] += result[0].num_nodes()


def _ball_counts(counts, args, result, children):
    if result is not None:
        counts["ball.nodes"] += len(result.distances)


def _checked_run_counts(counts, args, result, children):
    # a memo hit returns before simulating or verifying: no wrapped calls
    counts["checked_run.calls"] += 1
    if children:
        counts["checked_run.simulations"] += 1


def _compare_counts(counts, args, result, children):
    counts["order.compare_calls"] += 1


_HOOKS = {
    "run": _local_counts,
    "run_rounds": _local_counts,
    "fm_from_node_outputs": _fm_counts,
    "unfold_loop": _lift_counts,
    "mix": _lift_counts,
    "ball": _ball_counts,
    "checked_run": _checked_run_counts,
    "compare_words": _compare_counts,
}


class LayerClock:
    """Self time and work counters per layer, shared by every thread."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._frames = threading.local()

    def wrap(self, layer, fn, hook):
        frames = self._frames
        busy, counts, lock = self.busy, self.counts, self._lock
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = getattr(frames, "stack", None)
            if stack is None:
                stack = frames.stack = []
            parent = stack[-1] if stack else None
            frame = [layer, 0.0, 0]  # layer, nested wrapped time, nested calls
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                    parent[2] += 1
                with lock:
                    busy[layer] += elapsed - frame[1]
                    if parent is None or parent[0] != layer:
                        counts[layer + ".calls"] += 1
                    if hook is not None:
                        hook(counts, args, result, frame[2])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        return wrapper

    def snapshot(self) -> dict:
        with self._lock:
            return {"busy": dict(self.busy), "counts": dict(self.counts)}


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module global bound to ``original`` at
    ``replacement`` (modules import the layer functions by name)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def install(clock: LayerClock) -> None:
    """Wrap every function in :data:`LAYERS`; call before the workload runs."""
    for name in _ENTRY_MODULES:
        importlib.import_module(name)
    for layer, module_name, attribute in LAYERS:
        module = importlib.import_module(module_name)
        owner_name, _, fn_name = attribute.rpartition(".")
        hook = _HOOKS.get(fn_name)
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, fn_name, clock.wrap(layer, vars(owner)[fn_name], hook))
            continue
        original = getattr(module, fn_name)
        wrapped = clock.wrap(layer, original, hook)
        _rebind(original, wrapped)
        if fn_name == "compare_words":
            # tree_sort_key was built from the unwrapped comparator at import
            _rebind(module.tree_sort_key, cmp_to_key(wrapped))
