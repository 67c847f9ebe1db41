"""The benchmark's tracer hooks still bind to the package.

``perfbench/tracer.py`` wraps named functions and the cached
``LabeledHypergraph.adj`` property for its per-layer metrics; a rename in
the package that it cannot follow would break every traced benchmark pass.
This test installs the tracer in-process, so such a rename fails here first.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import splitforge
from splitforge import spectral
from splitforge.structures import LabeledHypergraph

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_times_the_neighbour_build_and_uninstalls():
    tracer = load_tracer()
    modules = {name: importlib.import_module(f"splitforge.{name}") for name in tracer.LAYERS}
    greedy, adj = spectral.greedy_split, LabeledHypergraph.__dict__["adj"].func
    rec = tracer.Tracer()
    rec.install(splitforge, modules)
    try:
        assert spectral.greedy_split is not greedy
        G = modules["constructions"].build_wenger(1, 13)  # the traced builder
        spectral.spectrum(G)
        spectral.greedy_split(G, 8, "K_{2,2}", seed=42)
        metrics = rec.metrics()
    finally:
        rec.uninstall()
    assert metrics["structures.adj_s"] > 0
    assert metrics["constructions.edges_per_s"] > 0  # the tracer counts edges on `.edges`
    assert metrics["spectral.spectrum_calls"] >= 1
    assert spectral.greedy_split is greedy
    assert LabeledHypergraph.__dict__["adj"].func is adj


def test_every_function_the_tracer_names_resolves():
    # the tracer reads these names as strings; one that no longer names a
    # package function would leave its per-layer metric at zero, silently
    tracer = load_tracer()
    names = [*tracer.DECIDERS, *tracer.CONSTRUCTION_TOTALS,
             *(f"{layer}.{attr}" for layer, attrs in tracer.PRIVATE.items() for attr in attrs)]
    for name in names:
        layer, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"splitforge.{layer}"), attr, None)), name
