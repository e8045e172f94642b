"""Span tracer for the traced benchmark run.

While a :class:`Tracer` is active, every public function of the layer
modules (and ``NoiseModel.sample``) is replaced by a wrapper that records a
span: name, start, end and the index of the enclosing span.  The wrapper is
installed in every ``oamlis`` namespace that holds the function, including
module-level dicts such as ``experiments.RUNNERS``, because modules import
each other's functions by name and a call through such a name would
otherwise go uncounted.  Spans stay in memory; :meth:`Tracer.metrics`
reduces them to per-layer self times and counts.

A span's self time is its duration minus the durations of its direct child
spans, so the self times of all spans partition the traced wall time except
for code that runs outside every wrapped function (``cli`` and the harness
itself).  ``geometry`` is not wrapped; its time counts towards the caller.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYER_MODULES = ("numerics", "modes", "oam", "detect", "experiments")

# Functions reported on their own.  Every other wrapped function counts
# towards "<module>.other", except in experiments, whose functions all form
# the one layer "experiments.self" (config handling, dispatch, CSV writing).
# ed_ber is only called by the golden-section search, so it is reported
# with it.
NAMED_LAYERS = {
    "numerics.svd_spectrum": "numerics.svd_spectrum",
    "numerics.bessel_j": "numerics.bessel_j",
    "modes.coupling_matrix": "modes.coupling_matrix",
    "oam.rx_field_radial": "oam.rx_field_radial",
    "detect.ber_monte_carlo": "detect.mc",
    "detect.tnr_sweep": "detect.mc",
    "detect.NoiseModel.sample": "detect.noise_sample",
    "detect.optimize_threshold": "detect.optimize_threshold",
    "detect.ed_ber": "detect.optimize_threshold",
}

LAYERS = (
    "numerics.svd_spectrum",
    "numerics.bessel_j",
    "numerics.other",
    "modes.coupling_matrix",
    "modes.other",
    "oam.rx_field_radial",
    "oam.other",
    "detect.mc",
    "detect.noise_sample",
    "detect.optimize_threshold",
    "detect.other",
    "experiments.self",
)


def layer_of(name: str) -> str:
    if name in NAMED_LAYERS:
        return NAMED_LAYERS[name]
    module = name.split(".", 1)[0]
    return "experiments.self" if module == "experiments" else f"{module}.other"


def _count_bessel(tracer, args, result):
    tracer.counts["numerics.bessel_j_evals"] += int(np.size(args["x"]))


def _count_matrix(tracer, args, result):
    tracer.counts["modes.matrix_entries"] += int(result.size)


def _count_radial(tracer, args, result):
    grid = args["grid"]
    digest = None
    if grid is not None:
        digest = hashlib.sha1(np.ascontiguousarray(grid, dtype=float).tobytes()).hexdigest()
    tracer.radial_inputs.add((args["n"], args["scenario"], bool(args["focused"]), digest))


def _count_ber(tracer, args, result):
    points = np.size(np.atleast_1d(args["snr_db_list"]))
    tracer.counts["detect.mc_trials"] += int(args["trials"]) * int(points)


def _count_tnr(tracer, args, result):
    # One draw of `trials` symbols is reused for every threshold.
    tracer.counts["detect.mc_trials"] += int(args["trials"])


def _count_csv(tracer, args, result):
    tracer.counts["experiments.csv_bytes"] += sum(path.stat().st_size for path in result)


COUNT_HOOKS = {
    "numerics.bessel_j": _count_bessel,
    "modes.coupling_matrix": _count_matrix,
    "oam.rx_field_radial": _count_radial,
    "detect.ber_monte_carlo": _count_ber,
    "detect.tnr_sweep": _count_tnr,
}


def count_hook(name: str):
    """Counter update run after each call of ``name``, or None."""
    if name.startswith("experiments.run_"):
        return _count_csv
    return COUNT_HOOKS.get(name)


def traced_functions() -> dict:
    """Public functions of the layer modules, by qualified name."""
    found = {}
    for short in LAYER_MODULES:
        module = importlib.import_module(f"oamlis.{short}")
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                found[f"{short}.{name}"] = obj
    detect = importlib.import_module("oamlis.detect")
    found["detect.NoiseModel.sample"] = detect.NoiseModel.sample
    return found


class Tracer:
    """Context manager that wraps the layer functions while it is active."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.radial_inputs: set = set()
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn):
        spans, stack, calls = self.spans, self._stack, self.calls
        hook = count_hook(name)
        signature = inspect.signature(fn) if hook else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            calls[name] += 1
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        originals = traced_functions()
        by_id = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "oamlis" or module_name.startswith("oamlis.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in by_id:
                    self._restore.append(functools.partial(setattr, module, attr, value))
                    setattr(module, attr, by_id[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in by_id:
                            self._restore.append(functools.partial(value.__setitem__, key, item))
                            value[key] = by_id[id(item)]
        noise_model = importlib.import_module("oamlis.detect").NoiseModel
        sample = originals["detect.NoiseModel.sample"]
        self._restore.append(functools.partial(setattr, noise_model, "sample", sample))
        noise_model.sample = by_id[id(sample)]
        return self

    def __exit__(self, *exc) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    def self_times(self) -> dict:
        """Self time in seconds per layer of :data:`LAYERS`."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[layer_of(name)] += end - start - inner
        return totals

    def metrics(self) -> dict:
        """Per-layer self times (``<layer>_s``) and counts."""
        out = {f"{layer}_s": value for layer, value in self.self_times().items()}
        radial_calls = self.calls["oam.rx_field_radial"]
        out.update(
            {
                "modes.matrix_entries": self.counts["modes.matrix_entries"],
                "numerics.bessel_j_calls": self.calls["numerics.bessel_j"],
                "numerics.bessel_j_evals": self.counts["numerics.bessel_j_evals"],
                "oam.rx_field_radial_calls": radial_calls,
                "oam.rx_field_radial_useful_ratio": (
                    len(self.radial_inputs) / radial_calls if radial_calls else 0.0
                ),
                "detect.mc_trials": self.counts["detect.mc_trials"],
                "detect.optimize_threshold_calls": self.calls["detect.optimize_threshold"],
                "experiments.csv_bytes": self.counts["experiments.csv_bytes"],
            }
        )
        return out
