"""Command-line interface: reproducible construct/verify/analyse runs.

Every command writes one UTF-8 JSON document in canonical form: sorted
keys, no whitespace, one trailing newline.  The result fields sit at the
top level of the document and a run manifest sits next to them under
"provenance"; the manifest carries the command, parameters, seed, thread
count, tool version, input digests, a sha256 of the canonical payload
(the document minus the provenance key) and the wall time; an oracle
run's manifest also has "paths", which names the check each pattern's
placements took, "incremental" for every pattern, and a verify run's
"paths" names the route each --forbid pattern took, "orbit" or "full";
a spectrum run's "paths" names the solver, "dense-svd" (bipartite),
"dense-eigh" or "iterative".
A document written to a file replaces the old file only once it is
complete; two output flags of one command that name the same file are
refused before any work starts.
Repeated runs with the same parameters and seed produce byte-identical
payloads; only the manifest's wall time may differ.
A graph's edge rows are written by `_int_rows`, array code that gathers
each value's digits in groups of four from a fixed table and cuts the
leading zeros with one mask.  A graph document is read through an
exact fast path when its bytes are exactly what `_emit` writes: numpy
parses the edge rows, json.loads the rest, and re-encoding both (the
rows by the same `_int_rows`) must give the bytes back.  Partitions and
every other document are read with json.loads, with the same objects,
messages and exit codes; no flag or environment variable selects the
route.

verify takes the orbit route for a pattern with a walk test
(`ForbiddenPattern.walk_test`: C_{2k}, K_{2,t}, a short theta, or a
Berge cycle bergeC_l) when the graph document's construct recipe names
a host the graph is an edge-subgraph (sub-hypergraph) of: theta or
Wenger for the graph patterns, berge3 for Berge cycles
(`constructions.recipe_host`).  The deciders' own proof
(`forbidden.rows_prove_absent`), run on one row per vertex orbit of the
host's automorphism group, of its adjacency or vertex-edge incidence
matrix, proves the pattern absent.  Every hit, and every recipe that is
missing or does not fit, goes to the full deciders, so the payload is
the same either way; a generator that is not an automorphism of its
host is an internal failure.

Exit codes: 0 success (including an "exhausted" oracle verdict), 1
unexpected internal failure, 2 invalid parameters or unreadable input,
3 split incomplete or not constructible, 4 forbidden pattern found,
5 budget exhausted.  Incompleteness takes precedence over a forbidden
witness when both apply.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, constructions
from .bounds import (
    TuranEnvelope,
    admissible_pair_for,
    berge_path_k_lb,
    k2d_upper_coeff,
    min_k_lower,
    min_k_lower_relaxed,
    small_d_table,
    tree_bound,
)
from .constructions import (
    build_berge3,
    build_design_split,
    build_norm_quotient,
    build_property_B,
    build_theta,
    build_wenger,
    design_catalog,
    partition_norm_quotient,
    partition_wenger,
)
from .forbidden import check_pattern, parse_pattern, rows_prove_absent
from .oracle import OracleQuery, exact_f
from .spectral import greedy_split, mixing_check, spectrum
from .structures import (
    BudgetExceededError,
    LabeledHypergraph,
    SplitPartition,
    _int_rows,
    verify_rk,
)

_RNG_NAME = "python-random-mt19937"


# -- JSON plumbing -----------------------------------------------------------


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


class _Encoded(str):
    """JSON text that `_emit` writes as it stands."""


def _graph_payload(G: LabeledHypergraph) -> dict:
    """`G.to_json_dict()`, its edges written straight from the edge array."""
    return {"edges": _Encoded(_int_rows(G.edge_array)), "m": G.m, "vertices": list(G.vertices)}


def _object_text(pieces: dict) -> str:
    """The canonical JSON object of keys and their encoded values."""
    return "{" + ",".join(_canonical(key) + ":" + pieces[key] for key in sorted(pieces)) + "}"


def _write_atomic(path: str, text: str) -> None:
    """Write text next to `path` and rename it over `path`, so a failed
    write leaves the old file as it was."""
    tmp = Path(path + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _emit(payload: dict, manifest: dict, out: str | None) -> None:
    """Write the document in canonical form plus a newline, to stdout or
    atomically to the file `out`.  Each top-level value is encoded once
    (`_Encoded` text as it stands); the payload text that the manifest's
    digest is taken of and the document are joined from those pieces."""
    pieces = {key: value if type(value) is _Encoded else _canonical(value)
              for key, value in payload.items()}
    digest = hashlib.sha256(_object_text(pieces).encode("utf-8")).hexdigest()
    pieces["provenance"] = _canonical(dict(manifest, payload_sha256=digest))
    text = _object_text(pieces) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(out, text)


# a graph document as `_emit` writes it: its edge rows straight after
# the brace, then "m"
_EDGES_AT, _M_AT = b'{"edges":', b',"m":'
_SPACES = bytes.maketrans(b"[],", b"   ")


def _read_exact(raw: bytes):
    """The graph document in `raw` when it is exactly as `_emit` writes
    one, else None.  One np.fromstring call reads the edge rows as an
    (E, m) int64 array, m read by json.loads with the rest; re-encoding
    both must give `raw` back, so json.loads would have returned the same
    values: a number np.fromstring saturated, a leading zero, `[[]]`
    (read as [0]) and a ragged or wrong-width row all re-encode to other
    bytes.  Nothing here raises: any doubt is a None, and the caller reads
    the document the general way."""
    start, end = len(_EDGES_AT), raw.find(_M_AT)
    seg = raw[start:end]
    if not raw.startswith(_EDGES_AT) or end < start or seg.translate(None, b"0123456789,[]"):
        return None
    try:
        text = (raw[:start] + b"[]" + raw[end:]).decode("utf-8")
        doc = json.loads(text)
        values, m = np.fromstring(seg.translate(_SPACES), np.int64, sep=" "), doc["m"]
        # m at most the value count, so a huge m builds no huge row template
        if type(m) is not int or not 0 < m <= len(values):
            return None
        rows = values.reshape(-1, m)
        if _int_rows(rows) != seg.decode("ascii") or _canonical(doc) + "\n" != text:
            return None
    except (ValueError, RecursionError):
        return None
    doc["edges"] = rows
    return doc


def _load(path: str, inputs: dict, cls):
    """Read a JSON document as `cls` and record its digest in `inputs`;
    returns the object and the parsed document.  A graph document exactly
    as `_emit` writes it is read by `_read_exact`, any other document by
    json.loads; `from_json_dict` checks either."""
    raw = Path(path).read_bytes()
    inputs[path] = "sha256:" + hashlib.sha256(raw).hexdigest()
    try:
        doc = _read_exact(raw)
        if doc is None:
            doc = json.loads(raw.decode("utf-8"))
        return cls.from_json_dict(doc), doc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, bad and too deeply nested JSON
        raise ValueError(f"{path}: {exc}") from None


class _Run:
    """Collects manifest ingredients while a command executes."""

    def __init__(self, args, argv: list):
        self.command = args.cmd
        self.argv = list(argv)
        self.threads = args.threads
        self.seed = getattr(args, "seed", None)
        self.params: dict = {}
        self.inputs: dict = {}
        self._t0 = time.monotonic()

    def manifest(self) -> dict:
        return {
            "command": self.command,
            "argv": self.argv,
            "params": self.params,
            "seed": self.seed,
            "threads": self.threads,
            "rng": _RNG_NAME,
            "version": __version__,
            "inputs": self.inputs,
            "wall_time_ms": int((time.monotonic() - self._t0) * 1000),
        }


def _distinct_outputs(args, *dests) -> None:
    """Refuse two output flags that name one file, before any work starts:
    the later document would replace the earlier one."""
    named: dict = {}
    for dest in (d for d in dests if getattr(args, d) is not None):
        flag, path = "--" + dest.replace("_", "-"), Path(getattr(args, dest)).resolve()
        if path in named:
            raise ValueError(f"{named[path]} and {flag} name the same file {str(path)!r}")
        named[path] = flag


def _ints(text: str) -> list:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _float(value) -> float:
    """`value` as a float; a value beyond the float range is refused."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(
            "the bound is beyond the float range (about 1.8e308) of value_float") from None


def _frac_str(value) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# -- construct ---------------------------------------------------------------


def _construct_payloads(args):
    """Returns (params, graph, partition_or_None, extra_partition_fields)."""
    fam = args.family
    if fam == "norm-quotient":
        params = {"family": "norm_quotient", "q": args.q, "t": args.t, "d": args.d}
        if args.partition:
            if args.h is None or args.a is None:
                raise ValueError("norm-quotient partitions need --h and --a")
            params.update(h=args.h, a=args.a, patch_strategy=args.patch_strategy)
            G, P, stats = partition_norm_quotient(
                args.q, args.t, args.d, args.h, args.a,
                patch_strategy=args.patch_strategy, seed=args.seed,
            )
            return params, G, P, {"patch_stats": stats.to_json_dict()}
        return params, build_norm_quotient(args.q, args.t, args.d), None, {}
    if fam == "wenger":
        params = {"family": "wenger", "M": args.M, "q": args.q}
        if args.partition:
            G, P = partition_wenger(args.M, args.q, seed=args.seed)
            return params, G, P, {}
        return params, build_wenger(args.M, args.q), None, {}
    if fam == "theta":
        params = {"family": "theta", "q": args.q, "reduce_parts": not args.keep_internal_edges}
        G, P = build_theta(args.q, reduce_parts=not args.keep_internal_edges)
        return params, G, P, {}
    if fam == "berge3":
        params = {"family": "berge3", "q": args.q}
        G, P = build_berge3(args.q)
        return params, G, P, {}
    if fam == "design":
        params = {"family": "design_split", "id": args.id}
        design = design_catalog(args.id)
        G, P = build_design_split(design, design.m)
        params["design"] = {"m": design.m, "r": design.r, "t": design.t}
        return params, G, P, {}
    if fam == "property-B":
        c = _ints(args.c)
        params = {"family": "property_B", "m": args.m, "c": c, "r": args.r}
        G, P = build_property_B(args.m, c, args.r)
        return params, G, P, {}
    raise ValueError(f"unknown family {fam!r}")


def _cmd_construct(args, run) -> int:
    _distinct_outputs(args, "out", "partition")
    params, G, P, extra = _construct_payloads(args)
    run.params = params
    _emit(_graph_payload(G), run.manifest(), args.out)
    if args.partition:
        _emit(dict(P.to_json_dict(), **extra), run.manifest(), args.partition)
    return 0


# -- verify ------------------------------------------------------------------


def _cmd_verify(args, run) -> int:
    G, doc = _load(args.graph, run.inputs, LabeledHypergraph)
    P, _ = _load(args.partition, run.inputs, SplitPartition)
    patterns = [parse_pattern(text) for text in args.forbid or []]
    run.params = {"forbid": [pat.spec_string() for pat in patterns]}
    report = verify_rk(G, P)
    provenance = doc.get("provenance")
    params = provenance.get("params") if type(provenance) is dict else None
    # no host for patterns of the other uniformity: check_pattern refuses them
    host = constructions.recipe_host(params, G) if any(
        pat.walk_test and pat.fits(G.m) for pat in patterns) else None
    orbit = [host is not None and rows_prove_absent(*host, pat) for pat in patterns]
    paths = {pat.spec_string(): "orbit" if o else "full" for pat, o in zip(patterns, orbit)}
    findings = [{"pattern": pat.spec_string(), "witness": None if o else check_pattern(G, pat)}
                for pat, o in zip(patterns, orbit)]
    split_ok = report.completeness_ok and report.independence_ok
    found = any(f["witness"] is not None for f in findings)
    payload = {"report": report.to_json_dict(), "forbidden": findings, "ok": split_ok and not found}
    _emit(payload, dict(run.manifest(), paths=paths), args.out)
    if not split_ok:
        return 3
    if found:
        return 4
    return 0


# -- spectrum / mixing -------------------------------------------------------


def _cmd_spectrum(args, run) -> int:
    G, _ = _load(args.graph, run.inputs, LabeledHypergraph)
    s = spectrum(G)
    payload = dict(asdict(s), rho1=s.rho1, rho2=s.rho2, rho_n=s.rho_n)
    if s.eigenvalues is None:
        route = "iterative"
    else:
        route = "dense-svd" if s.bipartite else "dense-eigh"
    _emit(payload, dict(run.manifest(), paths={"spectrum": route}), args.out)
    return 0


def _cmd_mixing(args, run) -> int:
    G, _ = _load(args.graph, run.inputs, LabeledHypergraph)
    U = _ints(args.U)
    W = _ints(args.W)
    run.params = {"U": U, "W": W, "mode": args.mode}
    payload = dict(mixing_check(G, U, W, mode=args.mode))
    payload.update(mode=args.mode, n_U=len(set(U)), n_W=len(set(W)))
    _emit(payload, run.manifest(), args.out)
    return 0


# -- bound -------------------------------------------------------------------


# each calculator's flags (argparse cannot require them per mode), quantity
# and formula reference
_BOUNDS = {
    "lower": (("r", "m"), "min-k-lower", "lb.exact-binomial"),
    "berge_path": (("r", "m", "t"), "berge-path-k-lb", "lb.berge-path-replication"),
    "tree": (("r", "t"), "tree-bound", "lb.tree-ratio"),
    "admissible": (("d",), "admissible-pair", "ub.admissible-pair"),
    "k2d": (("d",), "k2d-upper-coeff", "ub.k2d-coefficient"),
    "table": ((), "small-d-table", "ub.small-d-table"),
}


def _cmd_bound(args, run) -> int:
    mode = next(k for k in _BOUNDS if getattr(args, k))
    flags, quantity, formula_ref = _BOUNDS[mode]
    missing = [f"--{f}" for f in flags if getattr(args, f) is None]
    if missing:
        raise ValueError(f"bound --{mode.replace('_', '-')} needs {', '.join(missing)}")
    run.params = {f: getattr(args, f) for f in flags}
    if mode == "lower":
        env = TuranEnvelope(C=args.C, e=args.e, m=args.m)
        exact = min_k_lower(args.r, args.m, env)
        relaxed = min_k_lower_relaxed(args.r, args.m, env)
        run.params.update(C=_frac_str(env.C), e=_frac_str(env.e))
        payload = {"value": str(exact), "value_float": float(exact),
                   "relaxed": {"value": str(relaxed), "formula_ref": "lb.relaxed-power"}}
    elif mode == "admissible":
        # the pair's fields, its coefficient as the value
        payload = asdict(admissible_pair_for(args.d, max_primes=args.max_primes))
        run.params["max_primes"] = args.max_primes
        c = payload.pop("coefficient")
        payload.update(value=_frac_str(c), value_float=float(c))
    elif mode == "k2d":
        v = k2d_upper_coeff(args.d)
        payload = {"value": repr(v), "value_float": v}
    elif mode == "table":
        payload = {"value": {str(k): v for k, v in sorted(small_d_table().items())}}
    else:  # berge_path, tree
        v = berge_path_k_lb(args.r, args.m, args.t) if args.berge_path else tree_bound(args.r, args.t)
        payload = {"value": _frac_str(v), "value_float": _float(v)}
    payload.update(quantity=quantity, formula_ref=formula_ref)
    _emit(payload, run.manifest(), args.out)
    return 0


# -- oracle ------------------------------------------------------------------


def _cmd_oracle(args, run) -> int:
    _distinct_outputs(args, "out", "cert_graph", "cert_partition")
    patterns = tuple(parse_pattern(p) for p in args.forbid)
    run.params = {
        "r": args.r, "m": args.m, "k_max": args.k_max,
        "forbid": [p.spec_string() for p in patterns], "budget": args.budget,
    }
    query = OracleQuery(args.r, args.m, args.k_max, patterns, budget=args.budget)
    res = exact_f(query)
    certificate = None
    if res.status == "found":
        certificate = {
            "graph": res.graph.to_json_dict(),
            "partition": res.partition.to_json_dict(),
        }
    payload = {
        "status": res.status,
        "value": res.value,
        "k_max": args.k_max,
        "per_k_nodes": {str(k): v for k, v in res.per_k_nodes.items()},
        "nodes_total": res.nodes_total,
        "certificate": certificate,
    }
    manifest = dict(run.manifest(), paths=res.paths)
    _emit(payload, manifest, args.out)
    if certificate is not None:
        if args.cert_graph:
            _emit(certificate["graph"], manifest, args.cert_graph)
        if args.cert_partition:
            _emit(certificate["partition"], manifest, args.cert_partition)
    return 0


# -- partition-greedy --------------------------------------------------------


def _cmd_partition_greedy(args, run) -> int:
    _distinct_outputs(args, "out_graph", "out_partition", "trace")
    G, _ = _load(args.graph, run.inputs, LabeledHypergraph)
    H = parse_pattern(args.forbid)
    sizes = {k: getattr(args, k) for k in ("seed_size", "target_s", "max_iters")
             if getattr(args, k) is not None}
    run.params = {"m": args.m, "forbid": H.spec_string(), "sizes": sizes}
    try:
        G2, P, trace = greedy_split(G, args.m, H, sizes=sizes or None, seed=args.seed)
    except BudgetExceededError:
        raise  # a RuntimeError subclass: main must map it to exit 5, not 3
    except RuntimeError as exc:
        print(f"partitioning failed: {exc}", file=sys.stderr)
        return 3
    _emit(_graph_payload(G2), run.manifest(), args.out_graph)
    _emit(dict(P.to_json_dict(), trace=trace.to_json_dict()), run.manifest(), args.out_partition)
    if args.trace:
        recs = [*trace.iteration_records(), {"provenance": run.manifest()}]
        _write_atomic(args.trace, "".join(
            json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n" for rec in recs))
    return 0


# -- parser ------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="splitforge", allow_abbrev=False, description=__doc__)
    sub = top.add_subparsers(dest="cmd", required=True)

    pc = sub.add_parser("construct", allow_abbrev=False, help="build a graph/partition pair")
    fam = pc.add_subparsers(dest="family", required=True)

    f = fam.add_parser("norm-quotient", allow_abbrev=False)
    f.add_argument("--q", type=int, required=True)
    f.add_argument("--t", type=int, required=True)
    f.add_argument("--d", type=int, default=1)
    f.add_argument("--h", type=int, default=None, help="subgroup block count for the partition")
    f.add_argument("--a", type=int, default=None, help="parts per point/line class")
    f.add_argument("--patch-strategy", choices=["matching", "greedy_reuse"], default="matching")
    f.add_argument("--seed", type=int, default=None, help="seeds the partition's random choices")

    f = fam.add_parser("wenger", allow_abbrev=False)
    f.add_argument("--M", type=int, required=True)
    f.add_argument("--q", type=int, required=True)
    f.add_argument("--seed", type=int, default=None, help="seeds the partition's random choices")

    f = fam.add_parser("theta", allow_abbrev=False)
    f.add_argument("--q", type=int, required=True)
    f.add_argument("--keep-internal-edges", action="store_true",
                   help="keep the solvable within-part edges instead of dropping them")

    f = fam.add_parser("berge3", allow_abbrev=False)
    f.add_argument("--q", type=int, required=True)

    f = fam.add_parser("design", allow_abbrev=False)
    f.add_argument("--id", required=True, help="catalog id, e.g. fano, PG(2,3), all-3-subsets(5,3)")

    f = fam.add_parser("property-B", allow_abbrev=False)
    f.add_argument("--m", type=int, required=True)
    f.add_argument("--c", required=True, help="comma-separated color profile, e.g. 1,1")
    f.add_argument("--r", type=int, required=True)

    for f in fam.choices.values():
        f.add_argument("--out", required=True, help="graph JSON path")
        f.add_argument("--partition", default=None, help="partition JSON path")
        f.set_defaults(handler=_cmd_construct)

    pv = sub.add_parser("verify", allow_abbrev=False, help="certify a split and check patterns")
    pv.add_argument("--graph", required=True)
    pv.add_argument("--partition", required=True)
    pv.add_argument("--forbid", action="append", default=None,
                    help="pattern like C_6, K_{2,2}, theta_{3,4}, bergeC_2; repeatable")
    pv.set_defaults(handler=_cmd_verify)

    ps = sub.add_parser("spectrum", allow_abbrev=False, help="adjacency spectrum of a regular graph")
    ps.add_argument("--graph", required=True)
    ps.set_defaults(handler=_cmd_spectrum)

    pm = sub.add_parser("mixing", allow_abbrev=False, help="edge-distribution check between two sets")
    pm.add_argument("--graph", required=True)
    pm.add_argument("--U", required=True, help="comma-separated vertex indices")
    pm.add_argument("--W", required=True, help="comma-separated vertex indices")
    pm.add_argument("--mode", choices=["general", "bipartite"], default="general")
    pm.set_defaults(handler=_cmd_mixing)

    pb = sub.add_parser("bound", allow_abbrev=False, help="lower/upper bound calculators")
    which = pb.add_mutually_exclusive_group(required=True)
    which.add_argument("--lower", action="store_true", help="counting lower bound on k")
    which.add_argument("--berge-path", action="store_true", help="replication-number bound")
    which.add_argument("--tree", action="store_true", help="(r-1)/(t-1)")
    which.add_argument("--admissible", action="store_true", help="divisor pair with sample primes")
    which.add_argument("--k2d", action="store_true", help="upper-bound coefficient for d >= 12")
    which.add_argument("--table", action="store_true", help="small-d reference constants")
    pb.add_argument("--r", type=int)
    pb.add_argument("--m", type=int)
    pb.add_argument("--t", type=int)
    pb.add_argument("--d", type=int)
    pb.add_argument("--C", default="1")
    pb.add_argument("--e", default="1.5")
    pb.add_argument("--max-primes", type=int, default=4)
    pb.set_defaults(handler=_cmd_bound)

    po = sub.add_parser("oracle", allow_abbrev=False, help="exact threshold on tiny instances")
    po.add_argument("--r", type=int, required=True)
    po.add_argument("--m", type=int, required=True)
    po.add_argument("--k-max", type=int, required=True)
    po.add_argument("--forbid", action="append", required=True)
    po.add_argument("--budget", type=int, default=2_000_000)
    po.add_argument("--cert-graph", default=None)
    po.add_argument("--cert-partition", default=None)
    po.set_defaults(handler=_cmd_oracle)

    pg = sub.add_parser("partition-greedy", allow_abbrev=False,
                        help="pattern-free split of a regular graph by seeded growth")
    pg.add_argument("--graph", required=True)
    pg.add_argument("--m", type=int, required=True)
    pg.add_argument("--forbid", required=True)
    pg.add_argument("--seed", type=int, default=None)
    pg.add_argument("--seed-size", type=int, default=None)
    pg.add_argument("--target-s", type=int, default=None)
    pg.add_argument("--max-iters", type=int, default=None)
    pg.add_argument("--out-graph", required=True)
    pg.add_argument("--out-partition", required=True)
    pg.add_argument("--trace", default=None, help="iteration records as JSON lines")
    pg.set_defaults(handler=_cmd_partition_greedy)

    for p in (pv, ps, pm, pb, po):
        p.add_argument("--out", default=None)
    for p in (*fam.choices.values(), pv, ps, pm, pb, po, pg):
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads to record (default 1); never affects results")
    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.threads < 1:
            raise ValueError(f"thread count must be >= 1, got {args.threads}")
        return args.handler(args, _Run(args, argv))
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 5
    except (ValueError, OSError) as exc:
        print(f"invalid parameters or input: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
