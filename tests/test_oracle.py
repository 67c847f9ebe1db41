from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest

from splitforge import oracle
from splitforge.bounds import TuranEnvelope, min_k_lower
from splitforge.forbidden import ForbiddenPattern, _paths_by_end, check_pattern, contains_cycle, parse_pattern
from splitforge.oracle import (
    OracleQuery,
    OracleResult,
    _PatternState,
    _placements,
    _reaches,
    exact_f,
)
from splitforge.structures import (
    BudgetExceededError,
    LabeledHypergraph,
    verify_rk,
)
from test_frozen_outputs import ORACLE_RECORD

C3 = parse_pattern("C_3")
C4 = parse_pattern("C_4")

# explicit patterns by name, graphs and then 3-uniform ones
EXPLICIT = {
    "P_4": ((0, 1), (1, 2), (2, 3)),
    "diamond": ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)),
    "2K_2": ((0, 1), (2, 3)),
    "triangle+edge": ((0, 1), (1, 2), (2, 0), (3, 4)),
    "paw": ((0, 1), (1, 2), (2, 0), (2, 3)),
    "loose path": ((0, 1, 2), (2, 3, 4)),
    "triples sharing a pair": ((0, 1, 2), (0, 1, 3)),
    "triples sharing a vertex": ((0, 1, 3), (0, 2, 4)),
    "disjoint triples": ((0, 1, 2), (3, 4, 5)),
}


def pattern_named(name: str) -> ForbiddenPattern:
    if name in EXPLICIT:
        return ForbiddenPattern("explicit", (), EXPLICIT[name])
    return parse_pattern(name)


def complete_graph(n: int) -> LabeledHypergraph:
    vs = [f"u{i}" for i in range(n)]
    return LabeledHypergraph(2, vs, list(itertools.combinations(range(n), 2)))


def assert_certificate_ok(res: OracleResult, patterns) -> None:
    report = verify_rk(res.graph, res.partition)
    assert report.completeness_ok
    assert report.independence_ok
    for pat in patterns:
        assert check_pattern(res.graph, pat) is None


def test_query_validation():
    with pytest.raises(ValueError):
        OracleQuery(7, 2, 2, C4)
    with pytest.raises(ValueError):
        OracleQuery(4, 4, 2, C4)
    with pytest.raises(ValueError):
        OracleQuery(4, 1, 2, C4)
    with pytest.raises(ValueError):
        OracleQuery(2, 3, 2, C4)  # fewer parts than the uniformity
    with pytest.raises(ValueError):
        OracleQuery(4, 2, 0, C4)
    with pytest.raises(ValueError):
        OracleQuery(4, 2, 4, C4)
    with pytest.raises(ValueError):
        OracleQuery(4, 2, 2, C4, budget=0)
    with pytest.raises(ValueError):
        OracleQuery(4, 2, 2, ())
    with pytest.raises(ValueError):
        OracleQuery(4, 2, 2, "C_4")  # must be parsed patterns, not strings
    with pytest.raises(ValueError, match="^pattern must be a ForbiddenPattern or a sequence of them$"):
        OracleQuery(4, 2, 2, pattern=5)
    # a pattern that does not fit m is refused here, with its decider's
    # message, before any placement
    berge2 = parse_pattern("bergeC_2")
    with pytest.raises(ValueError, match="^Berge cycle detection expects a hypergraph with m >= 3$"):
        OracleQuery(4, 2, 2, (C4, berge2))
    with pytest.raises(ValueError, match=r"^this decider needs a 2-uniform graph, got m=3$"):
        OracleQuery(4, 3, 2, C4)

    # bool is an int subclass, so True would pass as k_max = 1 or budget
    # = 1; floats are refused too, with the same messages
    for kwargs, message in [
        ({"k_max": True}, "k_max must lie in 1..3, got True"),
        ({"budget": True}, "budget must be a positive integer, got True"),
        ({"budget": False}, "budget must be a positive integer, got False"),
        ({"m": 2.0}, "uniformity m must be 2 or 3, got 2.0"),
        ({"r": 4.0}, "r must be an integer with m <= r <= 6, got 4.0"),
        ({"k_max": 2.0}, "k_max must lie in 1..3, got 2.0"),
        ({"budget": 10.0}, "budget must be a positive integer, got 10.0"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OracleQuery(**{"r": 4, "m": 2, "k_max": 2, "pattern": C4, **kwargs})


def test_query_normalises_single_pattern_to_tuple():
    q = OracleQuery(4, 2, 2, C4)
    assert q.pattern == (C4,)
    q2 = OracleQuery(4, 2, 2, [C3, C4])
    assert q2.pattern == (C3, C4)


def test_f3_c4_is_one():
    # the triangle itself: one edge per part pair, no 4-cycle possible
    res = exact_f(OracleQuery(3, 2, 3, C4))
    assert res.status == "found"
    assert res.value == 1
    assert res.graph.n == 3
    assert len(res.graph.edge_array) == 3
    assert res.partition.r == 3
    assert res.partition.declared_k == 1
    assert_certificate_ok(res, [C4])
    assert contains_cycle(complete_graph(3), 4) is None


def test_f4_c4_is_two():
    # k=1 would be K_4, which contains a 4-cycle
    assert contains_cycle(complete_graph(4), 4) is not None
    res = exact_f(OracleQuery(4, 2, 3, C4))
    assert res.status == "found"
    assert res.value == 2
    assert res.graph.n == 8
    assert len(res.graph.edge_array) == 6
    assert_certificate_ok(res, [C4])
    # the failed k=1 level was actually searched
    assert res.per_k_nodes[1] >= 1
    assert 2 in res.per_k_nodes


def test_f3_c3_is_two():
    assert contains_cycle(complete_graph(3), 3) is not None
    res = exact_f(OracleQuery(3, 2, 3, C3))
    assert res.value == 2
    assert res.value <= 2  # never beyond the uniformity for a single pattern
    assert_certificate_ok(res, [C3])


def test_reports_k_beyond_k_max():
    res = exact_f(OracleQuery(3, 2, 1, C3))
    assert res.status == "exhausted"
    assert res.value is None
    assert res.graph is None
    assert res.partition is None
    assert set(res.per_k_nodes) == {1}
    assert res.per_k_nodes[1] >= 1
    assert res.nodes_total == sum(res.per_k_nodes.values())


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExceededError):
        exact_f(OracleQuery(4, 2, 2, C4, budget=3))


def test_pattern_family_certificate_avoids_all():
    res = exact_f(OracleQuery(3, 2, 3, (C3, C4)))
    assert res.status == "found"
    assert res.value == 2
    assert_certificate_ok(res, [C3, C4])
    # a family can only push the threshold up, never down
    single = exact_f(OracleQuery(3, 2, 3, C3))
    assert res.value >= single.value


def test_vertex_labels_and_part_shape():
    res = exact_f(OracleQuery(4, 2, 3, C4))
    k = res.value
    expected = {f"p{i}v{j}" for i in range(4) for j in range(k)}
    assert set(res.graph.vertices) == expected
    for i, part in enumerate(res.partition.parts):
        assert {res.graph.vertices[v] for v in part} == {f"p{i}v{j}" for j in range(k)}


def test_agrees_with_counting_lower_bound():
    # edge ceiling 0.58 N^{3/2} dominates the 4-cycle-free maximum for
    # every vertex count reached here (N <= 12)
    env = TuranEnvelope(C=Fraction(29, 50), e=Fraction(3, 2), m=2)
    for r, expected in [(3, 1), (4, 2)]:
        res = exact_f(OracleQuery(r, 2, 3, C4))
        assert res.value == expected
        assert res.value >= min_k_lower(r, 2, env)


def test_uniformity_three_search():
    # m=3 on three parts: the single rainbow triple is pattern-free
    berge2 = parse_pattern("bergeC_2")
    res = exact_f(OracleQuery(3, 3, 2, berge2))
    assert res.status == "found"
    assert res.value == 1
    assert len(res.graph.edge_array) == 1
    assert_certificate_ok(res, [berge2])


def test_deterministic_and_node_accounting():
    a = exact_f(OracleQuery(4, 2, 2, C4))
    b = exact_f(OracleQuery(4, 2, 2, C4))
    assert a.value == b.value
    assert a.per_k_nodes == b.per_k_nodes
    assert a.nodes_total == b.nodes_total
    assert sorted(a.graph.edge_array.tolist()) == sorted(b.graph.edge_array.tolist())
    assert a.nodes_total == sum(a.per_k_nodes.values())


def test_result_names_each_pattern_path():
    res = exact_f(OracleQuery(4, 2, 2, (C4, parse_pattern("theta_{3,2}"))))
    assert res.paths == {"C_{4}": "incremental", "theta_{3,2}": "incremental"}
    res = exact_f(OracleQuery(3, 3, 1, (parse_pattern("bergeC_3"), pattern_named("loose path"))))
    assert res.paths == {"bergeC_3": "incremental", "explicit": "incremental"}


def test_a_pattern_with_a_repeated_edge_cannot_start_a_query():
    with pytest.raises(ValueError, match=r"^pattern edge \(1, 0\) appears twice$"):
        OracleQuery(4, 2, 3, (ForbiddenPattern("explicit", (), ((0, 1), (1, 2), (2, 0), (1, 0))),))


def _count_full_decider_calls(monkeypatch):
    """Route `oracle.check_pattern` through a recorder of (host, pattern)."""
    calls = []

    def counted(G, pat):
        calls.append((G, pat))
        return check_pattern(G, pat)
    monkeypatch.setattr(oracle, "check_pattern", counted)
    return calls


def _state_cross_check(monkeypatch, rng, m, patterns, n, steps):
    """Random add/pop sequences on n vertices: whenever the placed host
    is free, `closes` must agree with the full deciders on the host plus
    the edge, and must never ask a full decider itself (through
    `oracle.check_pattern`, counted here).  Returns the verdicts
    compared."""
    labels = [f"v{i}" for i in range(n)]
    asked = _count_full_decider_calls(monkeypatch)
    state = _PatternState(m, labels, patterns)
    pool = list(itertools.combinations(range(n), m))
    free = [True]  # whether each prefix of the placed edges is free
    seen = []
    for _ in range(steps):
        if state.edges and rng.random() < 0.3:
            state.pop()
            free.pop()
            continue
        edge = rng.choice([e for e in pool if e not in state.edges])
        host = LabeledHypergraph(m, labels, state.edges + [edge])
        full = any(check_pattern(host, pat) is not None for pat in patterns)
        if free[-1]:
            assert state.closes(edge) == full, (patterns, state.edges, edge)
            assert asked == []
            seen.append(full)
        if full and rng.random() < 0.8:
            continue
        state.add(edge)
        free.append(free[-1] and not full)
    # undoing in LIFO order leaves what adding the same edges afresh builds
    fresh = _PatternState(m, labels, patterns)
    for e in state.edges:
        fresh.add(e)
    assert fresh.nb == state.nb
    assert fresh.covered == {p: c for p, c in state.covered.items() if c}
    return seen


@pytest.mark.parametrize("m, spec", [
    (2, "C_3"), (2, "C_4"), (2, "C_5"), (2, "C_6"),
    (3, "bergeC_2"), (3, "bergeC_3"), (3, "bergeC_4"),
    (4, "bergeC_2"), (4, "bergeC_3"), (4, "bergeC_4"),
    (2, "K_{1,3}"), (2, "K_{2,2}"), (2, "K_{2,3}"), (2, "theta_{2,3}"), (2, "theta_{3,2}"),
    (2, "P_4"), (2, "diamond"), (2, "2K_2"), (2, "triangle+edge"), (2, "paw"),
    (3, "loose path"), (3, "triples sharing a pair"), (3, "disjoint triples"),
    (3, "triples sharing a vertex"),
])
def test_incremental_state_agrees_with_the_full_deciders(monkeypatch, m, spec):
    # the full deciders are the test oracle for every rule
    rng = random.Random(f"{m}:{spec}")
    pattern = pattern_named(spec)
    seen = []
    for _ in range(12):
        seen += _state_cross_check(monkeypatch, rng, m, (pattern,), rng.randrange(6, 13), 60)
    assert set(seen) == {True, False}


@pytest.mark.parametrize("m, specs", [
    (2, ("C_3", "C_5")),
    (2, ("C_4", "theta_{3,2}")),  # the anchored rule second
    (2, ("theta_{3,2}", "C_4")),  # the anchored rule first
    (3, ("bergeC_2", "bergeC_3")),
    (3, ("bergeC_3", "loose path")),
])
def test_rule_table_agrees_with_the_full_deciders_on_several_patterns(monkeypatch, m, specs):
    # the composed `closes` equals any(check_pattern(host + edge, p)) and
    # asks the rules in the query's order
    rng = random.Random(f"{m}:{specs}")
    patterns = tuple(map(pattern_named, specs))
    seen = []
    for _ in range(12):
        seen += _state_cross_check(monkeypatch, rng, m, patterns, rng.randrange(6, 13), 60)
    assert set(seen) == {True, False}


@pytest.mark.parametrize("tag", [
    "C4_r5", "bergeC2_r6", "C3_theta32_r5", "K23_r6", "diamond_r5", "loose3_r5",
])
def test_incremental_search_never_calls_the_full_decider(monkeypatch, tag):
    (r, m, k_max, specs), expected = ORACLE_RECORD[tag]
    patterns = tuple(map(parse_pattern, specs))
    calls = _count_full_decider_calls(monkeypatch)
    res = exact_f(OracleQuery(r, m, k_max, patterns))
    assert (res.status, res.per_k_nodes) == (expected[0], expected[2])
    # the certificate's recheck in `_patterns_absent`, one call per
    # pattern in query order, is the only call
    assert calls == ([(res.graph, pat) for pat in patterns] if res.status == "found" else [])


def _random_neighbour_lists(rng, n, m, p):
    """Ascending neighbour lists of a random graph on n vertices (m = 2),
    or the vertex-edge incidence lists of a random m-uniform hypergraph
    laid out as `_PatternState.nb` lays them out (m >= 3)."""
    edges = [e for e in itertools.combinations(range(n), m) if rng.random() < p]
    rng.shuffle(edges)
    state = _PatternState(m, range(n), [])
    for e in edges:
        state.add(e)
    return state.nb


@pytest.mark.parametrize("m", [2, 3])
def test_reaches_agrees_with_the_bucketed_paths(m):
    # `_paths_by_end` lists every path, so it is the test oracle for the
    # early-exit query on every length and target set
    rng = random.Random(f"reaches:{m}")
    seen = set()
    for _ in range(40):
        n = rng.randrange(3, 10)
        nb = _random_neighbour_lists(rng, n, m, rng.choice([0.15, 0.3, 0.5]))
        for length in range(1, 7):
            root = rng.randrange(len(nb))
            ends = _paths_by_end(nb, root, length, -1)
            for targets in (tuple(rng.sample(range(len(nb)), rng.randrange(1, 4))), (root,)):
                want = any(t in ends for t in targets)
                assert _reaches(nb, root, length, targets) == want, (nb, root, length, targets)
                seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_placement_tables_keep_the_product_order(m, k):
    # every `used` state a part tuple can meet, against the product the
    # search used to rebuild at each node
    parts = tuple(range(1, 2 * m, 2))
    for used in itertools.product(range(k + 1), repeat=m):
        old = []
        for combo in itertools.product(*(range(min(u + 1, k)) for u in used)):
            edge = tuple(p * k + v for p, v in zip(parts, combo))
            old.append((edge, tuple(p for p, v, u in zip(parts, combo, used) if v == u)))
        assert _placements(parts, used, k) == old
