"""Span recorder that times splitforge from outside the package.

``Tracer.install`` replaces each public function of the eight modules (and
a few named private entry points) with a wrapper, at every module global
that binds it, so a call made from inside the package -- ``cli`` calling
``check_pattern``, ``oracle`` calling ``LabeledHypergraph`` -- is recorded
as well as the benchmark's own calls.  Methods of ``LabeledHypergraph``
and ``SplitPartition`` get spans; the scalar ``FieldSpec`` operations are
only counted, because a span per field operation would cost more than the
operation itself.  Nothing under ``src/`` changes: ``uninstall`` puts every
original back.

A span is ``[name, start_ns, end_ns, parent_index]`` (plus an edge count on
``constructions`` spans).  Spans stay in memory; ``write`` stores them once.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter, defaultdict

LAYERS = ("gf", "constructions", "structures", "forbidden", "spectral", "bounds", "oracle", "cli")

# private functions that mark a layer boundary the metrics need
PRIVATE = {
    "cli": ("_cmd_construct", "_cmd_verify"),
    "oracle": ("_search_k", "_patterns_absent"),
}

SCALAR_OPS = ("add", "neg", "sub", "mul", "inv", "pow")

DECIDERS = {
    "forbidden.contains_cycle": "forbidden.cycle_s",
    "forbidden.contains_kst": "forbidden.kst_s",
    "forbidden.contains_theta": "forbidden.theta_s",
    "forbidden.contains_berge_cycle": "forbidden.berge_s",
    "forbidden.contains_explicit": None,
    "forbidden.girth": None,
}

CONSTRUCTION_TOTALS = {
    "constructions.partition_wenger": "constructions.partition_wenger_s",
    "constructions.partition_norm_quotient": "constructions.partition_norm_quotient_s",
    "constructions.build_theta": "constructions.build_theta_s",
    "constructions.build_berge3": "constructions.build_berge3_s",
}

# every per-layer metric a traced pass reports, in the order of the docs
METRICS = {
    "gf.make_field_s": "s",
    "gf.scalar_calls": "count",
    "constructions.partition_wenger_s": "s",
    "constructions.partition_norm_quotient_s": "s",
    "constructions.build_theta_s": "s",
    "constructions.build_berge3_s": "s",
    "constructions.edges_per_s": "1/s",
    "structures.hypergraph_init_s": "s",
    "structures.hypergraph_inits": "count",
    "structures.from_json_s": "s",
    "structures.verify_rk_s": "s",
    "structures.adj_s": "s",
    "cli.construct_s": "s",
    "cli.verify_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "count",
    "forbidden.cycle_s": "s",
    "forbidden.kst_s": "s",
    "forbidden.theta_s": "s",
    "forbidden.berge_s": "s",
    "forbidden.calls": "count",
    "forbidden.us_per_call": "us",
    "oracle.exact_f_s": "s",
    "oracle.nodes": "count",
    "oracle.nodes_per_s": "1/s",
    "oracle.accept_ratio": "ratio",
    "oracle.self_s": "s",
    "spectral.spectrum_dense_s": "s",
    "spectral.spectrum_iter_s": "s",
    "spectral.spectrum_calls": "count",
    "spectral.mixing_self_s": "s",
    "spectral.greedy_self_s": "s",
    "bounds.min_k_lower_s": "s",
    "trace.spans": "count",
}  # cli.bytes_out is filled in by the worker, from the files the CLI wrote


def _edge_count(out):
    graph = out[0] if isinstance(out, tuple) and out else out
    edges = getattr(graph, "edges", None)
    return len(edges) if isinstance(edges, tuple) else 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._undo: list = []

    # ------------------------------------------------------------ wrappers

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(sid)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(rec, out)
            return out

        return traced

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _after(self, name):
        spans, counts = self.spans, self.counts
        if name == "oracle.exact_f":
            def after(rec, out):
                counts["oracle.nodes"] += out.nodes_total
        elif name == "oracle._patterns_absent":
            def after(rec, out):
                # the re-check of a finished witness is not a placement
                if rec[3] >= 0 and spans[rec[3]][0] == "oracle._search_k":
                    counts["oracle.placements"] += 1
                    counts["oracle.accepted"] += bool(out)
        elif name == "spectral.spectrum":
            def after(rec, out):
                rec[0] = "spectral.spectrum_dense" if out.eigenvalues is not None else "spectral.spectrum_iter"
        elif name.startswith("constructions."):
            def after(rec, out):
                rec.append(_edge_count(out))
        else:
            after = None
        return after

    def _set(self, owner, attr, value) -> None:
        # vars() keeps a classmethod a classmethod when it is put back
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, package, modules: dict) -> None:
        """Wrap the functions of ``modules`` (layer name -> module) and rebind
        them wherever ``package`` or one of ``modules`` holds them."""
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, self._span(name, obj, self._after(name)))
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

        structures, gf = modules["structures"], modules["gf"]
        for cls in (structures.LabeledHypergraph, structures.SplitPartition):
            base = f"structures.{cls.__name__}"
            self._set(cls, "__init__", self._span(f"{base}.__init__", cls.__init__))
            from_json = cls.__dict__["from_json_dict"].__func__
            self._set(cls, "from_json_dict",
                      classmethod(self._span(f"{base}.from_json_dict", from_json)))
        adj = structures.LabeledHypergraph.__dict__["adj"]
        self._set(adj, "func", self._span("structures.LabeledHypergraph.adj", adj.func))
        for op in SCALAR_OPS:
            self._set(gf.FieldSpec, op, self._counted("gf.scalar_calls", gf.FieldSpec.__dict__[op]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------- summary

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded so far (seconds unless
        the unit in ``METRICS`` says otherwise)."""
        spans = self.spans
        child = [0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        incl = defaultdict(int)
        self_ns = defaultdict(int)
        layer_self = defaultdict(int)
        calls = Counter()
        # constructions self time, attributed to the outermost constructions call
        top = [-1] * len(spans)
        cons_self = defaultdict(int)
        cons_edges = cons_time = 0
        decider_ns = decider_calls = 0
        for i, rec in enumerate(spans):
            name, start, end, parent = rec[0], rec[1], rec[2], rec[3]
            dur = end - start
            own = dur - child[i]
            layer = name.split(".", 1)[0]
            incl[name] += dur
            self_ns[name] += own
            layer_self[layer] += own
            calls[name] += 1
            outer = parent < 0 or not spans[parent][0].startswith(layer + ".")
            if layer == "constructions":
                top[i] = i if outer else top[parent]
                cons_self[spans[top[i]][0]] += own
                if outer:
                    cons_edges += rec[4] if len(rec) > 4 else 0
                    cons_time += dur
            if name in DECIDERS and (parent < 0 or spans[parent][0] not in DECIDERS):
                decider_ns += dur
                decider_calls += 1

        def s(ns):
            return ns / 1e9

        out = {key: 0.0 for key in METRICS}
        out["gf.make_field_s"] = s(incl["gf.make_field"])
        out["gf.scalar_calls"] = self.counts["gf.scalar_calls"]
        for name, key in CONSTRUCTION_TOTALS.items():
            out[key] = s(cons_self[name])
        out["constructions.edges_per_s"] = cons_edges / s(cons_time) if cons_time else 0.0
        out["structures.hypergraph_init_s"] = s(incl["structures.LabeledHypergraph.__init__"])
        out["structures.hypergraph_inits"] = calls["structures.LabeledHypergraph.__init__"]
        out["structures.from_json_s"] = s(incl["structures.LabeledHypergraph.from_json_dict"]
                                          + incl["structures.SplitPartition.from_json_dict"])
        out["structures.verify_rk_s"] = s(incl["structures.verify_rk"])
        out["structures.adj_s"] = s(incl["structures.LabeledHypergraph.adj"])
        out["cli.construct_s"] = s(incl["cli._cmd_construct"])
        out["cli.verify_s"] = s(incl["cli._cmd_verify"])
        out["cli.self_s"] = s(layer_self["cli"])
        for name, key in DECIDERS.items():
            if key is not None:
                out[key] = s(incl[name])
        out["forbidden.calls"] = decider_calls
        out["forbidden.us_per_call"] = decider_ns / 1e3 / decider_calls if decider_calls else 0.0
        out["oracle.exact_f_s"] = s(incl["oracle.exact_f"])
        out["oracle.nodes"] = self.counts["oracle.nodes"]
        exact_s = out["oracle.exact_f_s"]
        out["oracle.nodes_per_s"] = out["oracle.nodes"] / exact_s if exact_s else 0.0
        placements = self.counts["oracle.placements"]
        out["oracle.accept_ratio"] = self.counts["oracle.accepted"] / placements if placements else 0.0
        out["oracle.self_s"] = s(layer_self["oracle"])
        out["spectral.spectrum_dense_s"] = s(incl["spectral.spectrum_dense"])
        out["spectral.spectrum_iter_s"] = s(incl["spectral.spectrum_iter"])
        out["spectral.spectrum_calls"] = calls["spectral.spectrum_dense"] + calls["spectral.spectrum_iter"]
        out["spectral.mixing_self_s"] = s(self_ns["spectral.mixing_check"])
        out["spectral.greedy_self_s"] = s(self_ns["spectral.greedy_split"])
        out["bounds.min_k_lower_s"] = s(incl["bounds.min_k_lower"])
        out["trace.spans"] = len(spans)
        return out

    def write(self, path) -> None:
        """Store every span once, as gzipped JSON with times relative to the
        first span: {"names": [...], "spans": [[name_id, start_ns, end_ns, parent], ...]}."""
        names: dict = {}
        t0 = self.spans[0][1] if self.spans else 0
        rows = [[names.setdefault(r[0], len(names)), r[1] - t0, r[2] - t0, r[3]] for r in self.spans]
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))
