"""The orbit route of ``verify --forbid``: walk counts on one row per
vertex orbit of a theta, Wenger or berge3 host prove a pattern absent
from any edge-subgraph (sub-hypergraph) of it, and every other case
takes the full deciders with the same payload and exit code."""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

from splitforge import cli, constructions, forbidden, oracle, structures
from splitforge.forbidden import ForbiddenPattern, check_pattern, parse_pattern
from splitforge.structures import LabeledHypergraph

HOSTS = [("wenger", (M, q)) for M in (1, 2) for q in (3, 4, 5, 7)] + [("theta", (9,))]
PATTERNS = ["C_4", "C_6", "C_8", "K_{2,2}", "K_{2,3}", "theta_{3,3}", "theta_{3,4}"]


def host_and_gens(family, args):
    return (constructions.theta_host if family == "theta" else constructions.wenger_host)(*args)


def recipe(family, args):
    if family == "theta":
        return {"family": "theta", "q": args[0], "reduce_parts": True}
    return {"family": "wenger", "M": args[0], "q": args[1]}


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def verify(tmp_path, graph_doc, patterns, name="g"):
    """Run verify on the document; returns the exit code and the report,
    or None when no report was written."""
    g = write_json(tmp_path / f"{name}.json", graph_doc)
    p = write_json(tmp_path / "parts.json", {"k": 1, "parts": []})
    out = tmp_path / f"{name}_report.json"
    argv = ["verify", "--graph", str(g), "--partition", str(p), "--out", str(out)]
    for spec in patterns:
        argv += ["--forbid", spec]
    code = cli.main(argv)
    return code, json.loads(out.read_text(encoding="utf-8")) if out.exists() else None


def least_of_each_component(n, gens):
    """The least vertex of each connected component of the graph that
    joins every vertex v to its images g[v], ascending."""
    links = sparse.coo_matrix((np.ones(len(gens) * n), (np.tile(np.arange(n), len(gens)),
                                                         np.concatenate(gens))), shape=(n, n))
    _, label = csgraph.connected_components(links, directed=False)
    first = {}
    for v, c in enumerate(label.tolist()):
        first.setdefault(c, v)
    return sorted(first.values())


def payload_bytes(report):
    doc = dict(report)
    doc.pop("provenance")
    return cli._canonical(doc)


# ---------------------------------------------------------------- the hosts


@pytest.mark.parametrize("family, args", HOSTS)
def test_orbit_rows_agree_with_every_row(family, args):
    # the generators are automorphisms (orbit_representatives checks each),
    # their orbits are those of the generator graph, 2q for theta and
    # q + 1 for Wenger, and the representatives' rows give the kernel's
    # answer on every row
    H, gens = host_and_gens(family, args)
    reps = structures.orbit_representatives(H, gens, family)
    q = args[-1]
    assert len(reps) == (2 * q if family == "theta" else q + 1)
    assert reps.tolist() == least_of_each_component(H.n, gens)
    A, every = H.csr, np.arange(H.n)
    for spec in PATTERNS:
        k, threshold = parse_pattern(spec).walk_test
        want = forbidden._walk_counts_reach(A, every, k, threshold)
        assert forbidden._walk_counts_reach(A, reps, k, threshold) is want
        assert forbidden.rows_prove_absent(H, reps, spec) is not want


@pytest.mark.parametrize("host, args", [("wenger_host", (2, 3)), ("theta_host", (9,)),
                                        ("berge3_host", (7,))])
def test_each_host_builds_its_field_tables_once(monkeypatch, host, args):
    # the host and its generators share the builder's tables
    tables, calls = constructions._tables, []
    monkeypatch.setattr(constructions, "_tables", lambda F: calls.append(F.q) or tables(F))
    getattr(constructions, host)(*args)
    assert calls == [args[-1]]


def test_orbit_tests_of_each_pattern():
    assert parse_pattern("C_6").walk_test == (3, 2)
    assert parse_pattern("C_4").walk_test == (2, 2)
    assert parse_pattern("K_{2,3}").walk_test == (2, 3)
    assert parse_pattern("theta_{2,5}").walk_test == (5, 2)
    assert parse_pattern("theta_{3,4}").walk_test == (4, 3)
    assert parse_pattern("bergeC_2").walk_test == (2, 2)
    assert parse_pattern("bergeC_4").walk_test == (4, 2)
    for spec in ("C_5", "K_{3,3}", "K_{1,4}", "theta_{3,5}"):
        assert parse_pattern(spec).walk_test is None
    # no walk test, or a pattern of the other uniformity: no proof, and
    # no error before the decider refuses it; W_1(3) has no codegree 2 and
    # berge3(5) no Berge 3-cycle, so a test run on the wrong matrix would
    # say True
    G, Hy = constructions.build_wenger(1, 3), constructions.build_berge3(5)[0]
    for H, spec in ((G, "C_5"), (G, "K_{3,3}"), (G, "bergeC_2"), (Hy, "C_6")):
        assert forbidden.rows_prove_absent(H, np.arange(H.n), spec) is False


@pytest.mark.parametrize("family, args", HOSTS)
def test_verify_on_edge_subgraphs_matches_check_pattern(tmp_path, family, args):
    # seeded random edge-subgraphs G of the host: each verdict is
    # check_pattern(G)'s, witnesses included; the orbit route answers
    # only "absent", and a hit (C_8 on W_2) falls back
    rng = random.Random(sum(args) * 31 + len(family))
    H, _ = host_and_gens(family, args)
    patterns, shares = (PATTERNS, (1.0, 0.9)) if family == "wenger" else \
        (["C_6", "K_{2,2}", "theta_{3,4}"], (0.9,))
    seen = set()
    for share in shares:
        keep = np.sort(rng.sample(range(len(H.edge_array)), int(share * len(H.edge_array))))
        G = LabeledHypergraph(2, H.vertices, H.edge_array[keep])
        doc = dict(G.to_json_dict(), provenance={"params": recipe(family, args)})
        code, report = verify(tmp_path, doc, patterns)
        paths = report["provenance"]["paths"]
        for finding in report["forbidden"]:
            spec = finding["pattern"]
            want = check_pattern(G, spec)
            assert finding["witness"] == want
            assert paths[spec] == "full" or want is None
            seen.add((paths[spec], want is None))
        assert code == (4 if any(f["witness"] for f in report["forbidden"]) else 0)
    assert ("orbit", True) in seen
    if family == "wenger" and args[0] == 2:
        assert ("full", False) in seen


# ------------------------------------------------------------------ the CLI


def test_payload_is_the_same_with_the_orbit_route_off(tmp_path, monkeypatch):
    # theta(9) with theta_{3,4} and W_2(5) with C_6 take the orbit route;
    # with it forced off the payload bytes and payload_sha256 are the same
    runs = {}
    for family, construct, patterns in (
            ("theta", ["theta", "--q", "9"], ["theta_{3,4}"]),
            ("wenger", ["wenger", "--M", "2", "--q", "5"], ["C_6", "K_{2,2}", "C_8"])):
        g, p = tmp_path / f"{family}.json", tmp_path / f"{family}_parts.json"
        assert cli.main(["construct", *construct, "--out", str(g), "--partition", str(p)]) == 0
        for route in ("on", "off"):
            if route == "off":
                monkeypatch.setattr(constructions, "recipe_host", lambda params, G: None)
            out = tmp_path / f"{family}_{route}.json"
            argv = ["verify", "--graph", str(g), "--partition", str(p), "--out", str(out)]
            for spec in patterns:
                argv += ["--forbid", spec]
            runs[family, route] = (cli.main(argv), json.loads(out.read_text(encoding="utf-8")))
            monkeypatch.undo()
    for family in ("theta", "wenger"):
        (code_on, on), (code_off, off) = runs[family, "on"], runs[family, "off"]
        assert code_on == code_off
        assert payload_bytes(on) == payload_bytes(off)
        assert on["provenance"]["payload_sha256"] == off["provenance"]["payload_sha256"]
        assert set(off["provenance"]["paths"].values()) == {"full"}
    assert runs["theta", "on"][1]["provenance"]["paths"] == {"theta_{3,4}": "orbit"}
    assert runs["wenger", "on"][1]["provenance"]["paths"] == {
        "C_{6}": "orbit", "K_{2,2}": "orbit", "C_{8}": "full"}
    assert runs["wenger", "on"][0] == 4  # W_2(5) holds a C_8


def test_verify_without_forbid_never_builds_the_host(tmp_path, monkeypatch):
    g, p = tmp_path / "g.json", tmp_path / "p.json"
    assert cli.main(["construct", "wenger", "--M", "2", "--q", "3", "--out", str(g),
                     "--partition", str(p)]) == 0

    def refuse(*args):
        raise AssertionError("host built")

    monkeypatch.setattr(constructions, "wenger_host", refuse)
    out = tmp_path / "r.json"
    for forbid in ([], ["C_5"]):
        argv = ["verify", "--graph", str(g), "--partition", str(p), "--out", str(out)]
        for spec in forbid:
            argv += ["--forbid", spec]
        assert cli.main(argv) == 0
        assert set(json.loads(out.read_text(encoding="utf-8"))["provenance"]["paths"].values()) <= {"full"}


def _w23():
    G, _ = constructions.partition_wenger(2, 3)
    return G.to_json_dict(), {"family": "wenger", "M": 2, "q": 3}


def _with_provenance(provenance):
    def mutate(doc, params):
        doc["provenance"] = provenance
        return doc
    return mutate


def _with_params(**changes):
    def mutate(doc, params):
        doc["provenance"] = {"params": dict(params, **changes)}
        return doc
    return mutate


def _without_provenance(doc, params):
    return doc


def _with_outside_edge(doc, params):
    # points 0 and 1 are on the same side, so the edge is not in W_2(3)
    doc["edges"].append([0, 1])
    doc["provenance"] = {"params": params}
    return doc


@pytest.mark.parametrize("mutate", [
    _without_provenance,
    _with_provenance([1, 2]),
    _with_provenance("wenger"),
    _with_provenance({"params": ["wenger", 2, 3]}),
    _with_params(q="3"),
    _with_params(q=True),
    _with_params(q=-3),
    _with_params(M=True),
    _with_params(M=10 ** 30),
    _with_params(family="hexagon"),
    _with_params(family="theta"),
    _with_params(family="berge3"),
    _with_params(q=5),
    _with_outside_edge,
], ids=["missing", "array", "string", "params-array", "string-q", "bool-q", "negative-q",
        "bool-M", "huge-M", "unknown-family", "wrong-family", "hypergraph-family", "wrong-count",
    "edge-outside-host"])
def test_hostile_recipes_take_the_full_route(tmp_path, monkeypatch, mutate):
    # the recipe's vertex count never matches here, or the graph leaves
    # the host, so the builders must not run or their host must be refused
    doc, params = _w23()
    patterns = ["C_6", "K_{2,2}", "C_8"]
    doc = mutate(doc, params)
    if mutate is not _with_outside_edge:
        def refuse(*args):
            raise AssertionError("host built")
        for build in ("wenger_host", "theta_host", "berge3_host"):
            monkeypatch.setattr(constructions, build, refuse)
    code, report = verify(tmp_path, doc, patterns)
    assert set(report["provenance"]["paths"].values()) == {"full"}
    doc.pop("provenance", None)
    want_code, want = verify(tmp_path, doc, patterns, name="plain")
    assert (code, payload_bytes(report)) == (want_code, payload_bytes(want))


@pytest.mark.parametrize("family, q, dim", [("wenger", 6, 2), ("theta", 6, 4), ("theta", 5, 4)])
def test_recipes_the_builder_refuses_take_the_full_route(tmp_path, family, q, dim):
    # the vertex count fits, so the builder runs and refuses q: 6 is not a
    # prime power and theta needs an even power of an odd prime
    n = 2 * q ** dim
    doc = {"m": 2, "vertices": [f"v{i}" for i in range(n)],
           "edges": [[i, i + 1] for i in range(0, n - 1, 2)],
           "provenance": {"params": {"family": family, "M": dim - 1, "q": q}}}
    code, report = verify(tmp_path, doc, ["C_4", "K_{2,2}"])
    assert code == 0 and report["provenance"]["paths"] == {"C_{4}": "full", "K_{2,2}": "full"}
    with pytest.raises(ValueError):
        host_and_gens(family, (q,) if family == "theta" else (dim - 1, q))


def _entry_below_range(gens):
    gens[0][3] = -1


def _entry_at_n(gens):
    gens[1][5] = len(gens[1])


def _float_entries(gens):
    gens[2] = gens[2].astype(float)


def _one_entry_short(gens):
    gens[0] = gens[0][:-1]


def _entry_repeated(gens):
    gens[2][4] = gens[2][7]


# generators that are no permutation of the 54 vertices: each must be
# refused as one, by name, and none may raise a ValueError or IndexError
# from the bincount or the gather
NO_PERMUTATIONS = (_entry_below_range, _entry_at_n, _float_entries, _one_entry_short, _entry_repeated)


@pytest.mark.parametrize("corrupt, index", [
    (lambda gens: gens[2].__setitem__(0, gens[2][1]), 2),  # not a permutation
    (lambda gens: gens[1].__setitem__([0, 1], gens[1][[1, 0]]), 1),  # not an automorphism
    (_entry_below_range, 0),
    (_entry_at_n, 1),
    (_float_entries, 2),
    (_one_entry_short, 0),
    (_entry_repeated, 2),
])
def test_corrupt_generator_is_refused_by_name(tmp_path, monkeypatch, capsys, corrupt, index):
    doc, params = _w23()
    doc["provenance"] = {"params": params}
    build = constructions.wenger_host

    def corrupted(M, q):
        H, gens = build(M, q)
        corrupt(gens)
        return H, gens

    monkeypatch.setattr(constructions, "wenger_host", corrupted)
    code, report = verify(tmp_path, doc, ["C_6"])
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err.startswith("internal failure: ") and f"wenger generator {index} " in err
    if corrupt in NO_PERMUTATIONS:
        assert err == f"internal failure: wenger generator {index} is not a permutation of the 54 vertices\n"


def test_unsigned_generators_are_permutations_too():
    H, gens = constructions.wenger_host(2, 3)
    want = structures.orbit_representatives(H, gens, "wenger")
    unsigned = [g.astype(np.uint64) for g in gens]
    assert np.array_equal(structures.orbit_representatives(H, unsigned, "wenger"), want)


def _w23_host_codes():
    H = constructions.wenger_host(2, 3)[0]
    return H, structures.edge_codes(H.edge_array, H.n)


@pytest.mark.parametrize("foreign, side", [((52, 53), "above"), ((0, 1), "below")])
def test_foreign_edge_past_either_end_of_the_host_codes_is_refused(foreign, side):
    # a line-line edge codes above every host edge, a point-point edge
    # with vertex 0 below; both must miss the searchsorted lookup
    H, codes = _w23_host_codes()
    code = int(structures.edge_codes(np.array([foreign]), H.n)[0])
    assert code > codes.max() if side == "above" else code < codes.min()
    params = {"family": "wenger", "M": 2, "q": 3}
    assert constructions.recipe_host(params, H) is not None
    for keep in (len(H.edge_array), 10, 0):
        G = LabeledHypergraph(2, H.vertices, [*H.edge_array[:keep].tolist(), foreign])
        assert constructions.recipe_host(params, G) is None


def test_edgeless_graph_gets_the_host_back():
    H, _ = _w23_host_codes()
    G = LabeledHypergraph(2, [f"v{i}" for i in range(H.n)], [])
    host, reps = constructions.recipe_host({"family": "wenger", "M": 2, "q": 3}, G)
    assert np.array_equal(host.edge_array, H.edge_array) and host.vertices == H.vertices
    assert reps.tolist() == least_of_each_component(H.n, constructions.wenger_host(2, 3)[1])


# ------------------------------------------------------------------ berge3

BERGE_QS = (5, 7, 9, 11, 13, 25, 27)
BERGE_PATTERNS = ["bergeC_2", "bergeC_3", "bergeC_4"]


def berge_doc(G, q):
    return dict(G.to_json_dict(), provenance={"params": {"family": "berge3", "q": q}})


def swap_first_two(gens, index):
    # vertices 0 and 1 are (0, 1) and (0, 2): (0, 1) and (b1, -1) are
    # joined by an edge, (0, 2) and (b1, -1) are not, so the swap breaks
    # the edge relation and g composed with it is no automorphism
    gens = [g.copy() for g in gens]
    gens[index][[0, 1]] = gens[index][[1, 0]]
    return gens


def assert_full_route_matches_check_pattern(code, report, G, patterns):
    want = [check_pattern(G, spec) for spec in patterns]
    assert [f["witness"] for f in report["forbidden"]] == want
    assert set(report["provenance"]["paths"].values()) == {"full"}
    assert code == (4 if any(want) else 0)
    return want


def test_edge_codes_number_sorted_rows_and_refuse_overflow():
    rows = np.array([[0, 1, 2], [0, 2, 3], [1, 2, 3]])
    assert structures.edge_codes(rows, 4).tolist() == [6, 11, 27]
    assert structures.edge_codes(rows[:, 1:], 4).tolist() == [6, 11, 11]
    structures.edge_codes(rows, 2 ** 21 - 1)
    with pytest.raises(ValueError, match="overflow"):
        structures.edge_codes(rows, 2 ** 21)


@pytest.mark.parametrize("q", BERGE_QS)
def test_berge3_orbit_rows_agree_with_every_row(q):
    # the translations and the scaling are automorphisms, their orbits
    # are the two square classes of x2 - x1^2/2, and the two
    # representatives' rows of the incidence matrix give the kernel's
    # answer on every vertex row
    H, gens = constructions.berge3_host(q)
    reps = structures.orbit_representatives(H, gens, "berge3")
    assert len(reps) == 2
    assert reps.tolist() == least_of_each_component(H.n, gens)
    every = np.arange(H.n)
    for spec in BERGE_PATTERNS:
        k, threshold = parse_pattern(spec).walk_test
        want = forbidden._walk_counts_reach(H.incidence, every, k, threshold)
        assert forbidden._walk_counts_reach(H.incidence, reps, k, threshold) is want
        assert forbidden.rows_prove_absent(H, reps, spec) is not want
        assert (forbidden.contains_berge_cycle(H, k) is None) is not want


@pytest.mark.parametrize("q", BERGE_QS)
def test_berge3_corrupt_generator_is_refused_by_name(tmp_path, monkeypatch, capsys, q):
    H, gens = constructions.berge3_host(q)
    for index in range(len(gens)):
        with pytest.raises(RuntimeError, match=f"^berge3 generator {index} "):
            structures.orbit_representatives(H, swap_first_two(gens, index), "berge3")
    build = constructions.berge3_host

    def corrupted(q):
        H, gens = build(q)
        return H, swap_first_two(gens, 0)

    monkeypatch.setattr(constructions, "berge3_host", corrupted)
    code, report = verify(tmp_path, berge_doc(H, q), ["bergeC_3"])
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err.startswith("internal failure: ") and "berge3 generator 0 " in err


@pytest.mark.parametrize("q", BERGE_QS)
def test_berge3_verify_on_sub_hypergraphs_matches_check_pattern(tmp_path, q):
    # the host and seeded sub-hypergraphs of it take the orbit route,
    # and each verdict is check_pattern(G)'s: berge3(q) is Berge-free
    rng = random.Random(q)
    H = constructions.build_berge3(q)[0]
    for share in (1.0, 0.9, 0.5):
        keep = np.sort(rng.sample(range(len(H.edge_array)), int(share * len(H.edge_array))))
        G = LabeledHypergraph(3, H.vertices, H.edge_array[keep])
        code, report = verify(tmp_path, berge_doc(G, q), BERGE_PATTERNS)
        assert report["provenance"]["paths"] == {spec: "orbit" for spec in BERGE_PATTERNS}
        assert [f["witness"] for f in report["forbidden"]] == [check_pattern(G, s) for s in BERGE_PATTERNS]
        assert code == 0


@pytest.mark.parametrize("q", (7, 13))
def test_berge3_foreign_triples_take_the_full_route(tmp_path, q):
    # a triple inside part 0, which no host edge meets twice, and one
    # that shares two vertices with a host edge, a Berge 2-cycle
    H = constructions.build_berge3(q)[0]
    a, b, c = H.edge_array[random.Random(q).randrange(len(H.edge_array))].tolist()
    hits = []
    for triple in ((0, 1, 2), (a, b, next(v for v in range(H.n) if v not in (a, b, c)))):
        G = LabeledHypergraph(3, H.vertices, [*H.edge_array.tolist(), triple])
        code, report = verify(tmp_path, berge_doc(G, q), BERGE_PATTERNS)
        want = assert_full_route_matches_check_pattern(code, report, G, BERGE_PATTERNS)
        hits.append([w is not None for w in want])
    assert hits[1][0]


@pytest.mark.parametrize("q, n", [(7, 30), (5, 42), (6, 30), (8, 56), (4, 12)],
                         ids=["wrong-q", "wrong-q-below", "not-a-prime-power", "even", "even-small"])
def test_berge3_misfit_recipes_take_the_full_route(tmp_path, monkeypatch, q, n):
    # a recipe whose q(q - 1) is not the vertex count never builds the
    # host; one that fits names a q the builder refuses
    refused = q * (q - 1) == n
    if not refused:
        def refuse(*args):
            raise AssertionError("host built")
        monkeypatch.setattr(constructions, "berge3_host", refuse)
    rng = random.Random(n)
    edges = {tuple(sorted(rng.sample(range(n), 3))) for _ in range(n)}
    G = LabeledHypergraph(3, [f"v{i}" for i in range(n)], sorted(edges))
    code, report = verify(tmp_path, berge_doc(G, q), BERGE_PATTERNS)
    assert_full_route_matches_check_pattern(code, report, G, BERGE_PATTERNS)
    if refused:
        with pytest.raises(ValueError):
            constructions.berge3_host(q)


def test_berge3_payload_is_the_same_with_the_orbit_route_off(tmp_path, monkeypatch):
    g, p = tmp_path / "berge3.json", tmp_path / "berge3_parts.json"
    assert cli.main(["construct", "berge3", "--q", "25", "--out", str(g), "--partition", str(p)]) == 0
    runs = {}
    for route in ("on", "off"):
        if route == "off":
            monkeypatch.setattr(constructions, "recipe_host", lambda params, G: None)
        out = tmp_path / f"berge3_{route}.json"
        argv = ["verify", "--graph", str(g), "--partition", str(p), "--out", str(out)]
        for spec in BERGE_PATTERNS:
            argv += ["--forbid", spec]
        runs[route] = (cli.main(argv), json.loads(out.read_text(encoding="utf-8")))
        monkeypatch.undo()
    (code_on, on), (code_off, off) = runs["on"], runs["off"]
    assert code_on == code_off == 0
    assert payload_bytes(on) == payload_bytes(off)
    assert on["provenance"]["payload_sha256"] == off["provenance"]["payload_sha256"]
    assert on["provenance"]["paths"] == {spec: "orbit" for spec in BERGE_PATTERNS}
    assert off["provenance"]["paths"] == {spec: "full" for spec in BERGE_PATTERNS}


def test_verify_never_builds_a_host_for_patterns_off_the_orbit_route(tmp_path, monkeypatch):
    # no pattern, or only patterns of the other uniformity, which
    # check_pattern refuses with exit 2: no host is built for either
    def refuse(*args):
        raise AssertionError("host built")

    for family, construct, patterns in (
            ("berge3", ["berge3", "--q", "5"], ["C_6", "K_{2,2}", "theta_{3,4}"]),
            ("wenger", ["wenger", "--M", "2", "--q", "3"], BERGE_PATTERNS)):
        g, p = tmp_path / f"{family}.json", tmp_path / f"{family}_parts.json"
        assert cli.main(["construct", *construct, "--out", str(g), "--partition", str(p)]) == 0
        monkeypatch.setattr(constructions, f"{family}_host", refuse)
        out = tmp_path / f"{family}_report.json"
        argv = ["verify", "--graph", str(g), "--partition", str(p), "--out", str(out)]
        assert cli.main(argv) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["provenance"]["paths"] == {}
        for spec in patterns:
            assert cli.main([*argv, "--forbid", spec]) == 2
        monkeypatch.undo()


FIT_SPECS = ["K_{2,2}", "K_{3,3}", "C_5", "C_6", "theta_{2,3}", "theta_{3,4}", "theta_{3,5}",
             "bergeC_2", "bergeC_3", "bergeC_4"]
MISFIT_MESSAGES = {2: "Berge cycle detection expects a hypergraph with m >= 3",
                   3: "this decider needs a 2-uniform graph, got m=3"}


def test_fits_agrees_with_every_host_check():
    # a path and a linear hyperpath hold no cycle and no Berge cycle, and
    # every walk count on them is at most 1, so the walk counts prove
    # each pattern with a walk test absent exactly where it fits
    forests = {2: LabeledHypergraph(2, list("abcdef"), [(i, i + 1) for i in range(5)]),
               3: LabeledHypergraph(3, list("abcde"), [(0, 1, 2), (2, 3, 4)])}
    patterns = [parse_pattern(spec) for spec in FIT_SPECS] + [
        ForbiddenPattern("explicit", (), ((0, 1), (1, 2))),
        ForbiddenPattern("explicit", (), ((0, 1, 2), (2, 3, 4)))]
    seen = set()
    for m, H in forests.items():
        for pat in patterns:
            fits = pat.fits(m)
            seen.add((pat.kind, m, fits))
            # the oracle refuses a query on a misfit pattern with the
            # decider's own message, and takes every pattern that fits
            try:
                check_pattern(H, pat)
            except ValueError as exc:
                assert not fits
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    oracle.OracleQuery(3, m, 1, pat)
            else:
                assert fits
                oracle.OracleQuery(3, m, 1, pat)
            proved = forbidden.rows_prove_absent(H, np.arange(H.n), pat)
            assert proved == (fits and pat.walk_test is not None)
    assert {(kind, fits) for kind, _, fits in seen} == {
        (kind, fits) for kind in ("complete_bipartite", "cycle", "theta", "berge_cycle", "explicit")
        for fits in (True, False)}


@pytest.mark.parametrize("construct, m", [
    (["wenger", "--M", "2", "--q", "3"], 2),
    (["berge3", "--q", "5"], 3),
])
def test_verify_builds_a_host_only_for_patterns_that_fit(tmp_path, monkeypatch, capsys, construct, m):
    g, p = tmp_path / "g.json", tmp_path / "parts.json"
    assert cli.main(["construct", *construct, "--out", str(g), "--partition", str(p)]) == 0
    built, recipe_host = [], constructions.recipe_host

    def spy(params, G):
        built.append(params["family"])
        return recipe_host(params, G)

    monkeypatch.setattr(constructions, "recipe_host", spy)
    out = tmp_path / "report.json"
    for spec in FIT_SPECS:
        built.clear()
        capsys.readouterr()
        code = cli.main(["verify", "--graph", str(g), "--partition", str(p),
                         "--forbid", spec, "--out", str(out)])
        pat = parse_pattern(spec)
        if pat.fits(m):
            assert code in (0, 4) and len(built) == (pat.walk_test is not None)
        else:
            assert code == 2 and built == []
            assert MISFIT_MESSAGES[m] in capsys.readouterr().err
