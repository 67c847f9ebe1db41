"""Tests for splitforge.structures.

Coverage and bipartiteness oracles here are naive reimplementations
(double loops, BFS 2-coloring) kept independent of the module code.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import deque

import numpy as np
import pytest
from scipy import sparse

from splitforge import constructions, forbidden, structures
from splitforge.structures import (
    BudgetExceededError,
    LabeledHypergraph,
    SplitPartition,
    VerificationReport,
)


def graph(n, edges, m=2):
    return LabeledHypergraph(m=m, vertices=[f"v{i}" for i in range(n)], edges=edges)


# --------------------------------------------------------------- oracles


def naive_missing(G, parts):
    missing = []
    for combo in itertools.combinations(range(len(parts)), G.m):
        hit = False
        for e in G.edges:
            es = set(e)
            if all(len(es & set(parts[i])) == 1 for i in combo):
                hit = True
                break
        if not hit:
            missing.append(combo)
    return missing


def naive_independent(G, parts):
    return not any(set(e) <= set(part) for e in G.edges for part in parts)


def bipartite_bfs(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    color = [None] * n
    for s in range(n):
        if color[s] is not None:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if color[w] is None:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True


# ------------------------------------------------------------- verify_rk


def test_verify_triangle_singletons():
    G = graph(3, [(0, 1), (1, 2), (0, 2)])
    P = SplitPartition([(0,), (1,), (2,)], declared_k=1)
    rep = structures.verify_rk(G, P)
    assert rep.r == 3
    assert rep.k_effective == 1
    assert rep.completeness_ok
    assert rep.missing_tuples == []
    assert rep.independence_ok
    assert rep.forbidden_witness is None


def test_verify_reports_missing_pair():
    G = graph(2, [])
    P = SplitPartition([(0,), (1,)], declared_k=1)
    rep = structures.verify_rk(G, P)
    assert not rep.completeness_ok
    assert rep.missing_tuples == [(0, 1)]


def test_verify_independence_flag():
    G = graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    P = SplitPartition([(0, 1), (2, 3)], declared_k=2)
    rep = structures.verify_rk(G, P)
    assert rep.completeness_ok  # (0,2) crosses the parts
    assert not rep.independence_ok  # (0,1) sits inside part 0


def test_verify_skips_edges_with_unassigned_vertices():
    G = graph(3, [(0, 2), (1, 2)])
    P = SplitPartition([(0,), (1,)], declared_k=1)
    rep = structures.verify_rk(G, P)
    assert rep.missing_tuples == [(0, 1)]


def test_verify_m3():
    verts = [f"v{i}" for i in range(9)]
    parts = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    G = LabeledHypergraph(3, verts, [(0, 3, 6)])
    rep = structures.verify_rk(G, SplitPartition(parts, declared_k=3))
    assert rep.completeness_ok and rep.independence_ok

    G2 = LabeledHypergraph(3, verts, [(0, 1, 3)])
    rep2 = structures.verify_rk(G2, SplitPartition(parts, declared_k=3))
    assert rep2.missing_tuples == [(0, 1, 2)]


def test_removing_unique_rainbow_edge_flips_completeness():
    edges = list(itertools.combinations(range(4), 2))
    P = SplitPartition([(i,) for i in range(4)], declared_k=1)
    rep = structures.verify_rk(graph(4, edges), P)
    assert rep.completeness_ok
    edges.remove((1, 3))
    rep2 = structures.verify_rk(graph(4, edges), P)
    assert not rep2.completeness_ok
    assert rep2.missing_tuples == [(1, 3)]


@pytest.mark.parametrize("m", [2, 3])
def test_verify_matches_naive_on_random_instances(m):
    rng = random.Random(4242 + m)
    for _ in range(40):
        n = rng.randrange(m + 2, 13)
        edges = set()
        for _ in range(rng.randrange(1, 18)):
            e = tuple(sorted(rng.sample(range(n), m)))
            edges.add(e)
        G = graph(n, sorted(edges), m=m)
        r = rng.randrange(2, 6)
        assignment = [rng.randrange(-1, r) for _ in range(n)]
        parts = [tuple(v for v in range(n) if assignment[v] == i) for i in range(r)]
        P = SplitPartition(parts, declared_k=max(1, max(map(len, parts), default=1)))
        rep = structures.verify_rk(G, P)
        assert sorted(rep.missing_tuples) == sorted(naive_missing(G, parts))
        assert rep.completeness_ok == (not rep.missing_tuples)
        assert rep.independence_ok == naive_independent(G, parts)
        assert rep.k_effective == max(map(len, parts))


def set_report(G, P):
    """verify_rk's report from sets of part tuples, edge by edge."""
    part = {v: i for i, p in enumerate(P.parts) for v in p}
    covered, independent = set(), True
    for e in G.edge_array.tolist():
        hit = [part.get(v) for v in e]
        if None not in hit and len(set(hit)) == G.m:
            covered.add(tuple(sorted(hit)))
        if None not in hit and len(set(hit)) == 1:
            independent = False
    missing = [c for c in itertools.combinations(range(P.r), G.m) if c not in covered]
    return VerificationReport(r=P.r, k_effective=max(map(len, P.parts), default=0),
                              completeness_ok=not missing, missing_tuples=missing,
                              independence_ok=independent)


@pytest.mark.parametrize("m", [2, 3])
def test_verify_report_matches_sets_of_tuples(m):
    # parts that leave some vertices out and keep some edges inside, on
    # hosts from nearly complete to sparse, so reports both complete and
    # not, independent and not
    rng = random.Random(20261020 + m)
    seen = set()
    for _ in range(60):
        n = rng.randrange(m + 2, 40)
        pool = list(itertools.combinations(range(n), m))
        G = graph(n, rng.sample(pool, rng.randrange(1, min(len(pool), 6 * n) + 1)), m=m)
        r = rng.randrange(m, 7)
        where = [rng.randrange(-1, r) if rng.random() < 0.3 else v % r for v in range(n)]
        parts = [tuple(v for v in range(n) if where[v] == i) for i in range(r)]
        P = SplitPartition(parts, declared_k=max(1, max(map(len, parts))))
        report = structures.verify_rk(G, P)
        assert report == set_report(G, P)
        seen.add((report.completeness_ok, report.independence_ok, -1 in where))
    assert {(c, i, True) for c in (True, False) for i in (True, False)} <= seen


def test_verify_rejects_foreign_partition():
    G = graph(3, [(0, 1)])
    P = SplitPartition([(0,), (4,)], declared_k=1)
    with pytest.raises(ValueError):
        structures.verify_rk(G, P)


# ----------------------------------------------------------- data model


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        LabeledHypergraph(1, ["a", "b"], [(0, 1)])
    with pytest.raises(ValueError):
        LabeledHypergraph(2, ["a", "b"], [(0, 0)])
    with pytest.raises(ValueError):
        LabeledHypergraph(2, ["a", "b", "c"], [(0, 1, 2)])
    with pytest.raises(ValueError):
        LabeledHypergraph(2, ["a", "b"], [(0, 2)])
    with pytest.raises(ValueError):
        LabeledHypergraph(2, ["a", "b"], [(0, 1), (1, 0)])
    E = np.array([[1, 0], [2, 3]])
    G = LabeledHypergraph(2, list("abcd"), E)
    E[0] = [3, 2]  # the graph holds its own copy
    assert G.edges == ((0, 1), (2, 3))
    assert not G.edge_array.flags.writeable
    with pytest.raises(ValueError, match=r"edge \(0, 1, 2\)"):
        LabeledHypergraph(2, list("abcd"), np.array([[0, 1, 2], [1, 2, 3]]))
    with pytest.raises(ValueError, match=str(2**70)):
        LabeledHypergraph(2, ["a", "b"], [(0, 2**70)])


def test_array_readers_never_build_edge_tuples():
    G, P = constructions.build_theta(9)
    G2 = LabeledHypergraph.from_json_dict(G.to_json_dict())
    assert structures.verify_rk(G2, P).completeness_ok
    host = constructions.build_wenger(2, 5)
    assert len(host.edge_array) >= forbidden._KERNEL_EDGES
    assert forbidden.contains_cycle(host, 6) is None
    for H in (G, G2, host):
        assert "edges" not in H.__dict__


def test_partition_validation():
    with pytest.raises(ValueError, match=r"^vertex 1 appears in two parts$"):
        SplitPartition([(0, 1), (1, 2)], declared_k=2)
    with pytest.raises(ValueError, match=r"^part of size 3 exceeds declared k=2$"):
        SplitPartition([(0, 1, 2)], declared_k=2)
    with pytest.raises(ValueError, match=r"^negative vertex index -1$"):
        SplitPartition([(-1,)], declared_k=1)
    # several faults: the first failing part wins, and within a part its
    # vertices, least first, are checked before its size
    for parts, k, message in (
        ([(0, 1, 2), (-1,)], 2, "part of size 3 exceeds declared k=2"),
        ([(0, 1), (5, 1, 2)], 2, "vertex 1 appears in two parts"),
        ([(5, -2, 0, -7)], 1, "negative vertex index -7"),
        ([(3,), (4, -1, 3)], 3, "negative vertex index -1"),
        ([(2, 2)], 1, "vertex 2 appears in two parts"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SplitPartition(parts, declared_k=k)
    # an index past the graph is named by verify_rk, however large
    G = graph(3, [(0, 1)])
    for big in (3, 2 ** 63, 2 ** 70):
        P = SplitPartition([(0,), (1, big)], declared_k=2)
        with pytest.raises(ValueError, match=f"^partition references vertex {big}, graph has 3$"):
            structures.verify_rk(G, P)
    P = SplitPartition([(2, 0), (1,)], declared_k=2)
    assert P.parts == ((0, 2), (1,))
    assert P.r == 2


def loop_partition(parts, declared_k):
    """SplitPartition's validation as a loop over the vertices, the
    reference: the normalised parts, or the message of the first fault."""
    norm, seen = [], set()
    for part in parts:
        part = tuple(sorted(part))
        for v in part:
            if v < 0:
                return f"negative vertex index {v}"
            if v in seen:
                return f"vertex {v} appears in two parts"
            seen.add(v)
        if len(part) > declared_k:
            return f"part of size {len(part)} exceeds declared k={declared_k}"
        norm.append(part)
    return tuple(norm)


def test_partition_validation_matches_the_vertex_loop():
    # seeded part lists with negative, repeated (within and across parts)
    # and huge indices, empty parts and oversize parts
    rng = random.Random(20261022)
    seen = set()
    for _ in range(3000):
        def vertex():
            roll = rng.random()
            if roll < 0.03:
                return rng.choice((2 ** 63, 2 ** 63 + 1, 2 ** 70))
            return rng.randrange(-2 if roll < 0.08 else 0, 40)
        parts = [[vertex() for _ in range(rng.randrange(6))] for _ in range(rng.randrange(5))]
        k = rng.randrange(6)
        want = loop_partition(parts, k)
        try:
            got = SplitPartition(parts, k).parts
        except ValueError as exc:
            got = str(exc)
        assert got == want, (parts, k)
        seen.add(want.split()[0] if isinstance(want, str) else "ok")
    assert seen == {"ok", "negative", "vertex", "part"}


def test_adjacency_and_degree():
    G = graph(4, [(0, 1), (0, 2), (0, 3)])
    assert G.n == 4
    assert sorted(G.adj[0]) == [1, 2, 3]
    assert G.degree(0) == 3
    assert G.degree(3) == 1
    H = LabeledHypergraph(3, list("abcd"), [(0, 1, 2), (0, 1, 3)])
    assert H.degree(0) == 2
    assert H.degree(3) == 1


def test_json_round_trips():
    G = LabeledHypergraph(3, ["P:0,c1", "L:0,c0", "x"], [(0, 1, 2)])
    d = G.to_json_dict()
    assert d == {"m": 3, "vertices": ["P:0,c1", "L:0,c0", "x"], "edges": [[0, 1, 2]]}
    G2 = LabeledHypergraph.from_json_dict(d)
    assert G2.m == G.m and G2.vertices == G.vertices and G2.edges == G.edges

    P = SplitPartition([(0, 2), (1,)], declared_k=2)
    pd = P.to_json_dict()
    assert pd == {"k": 2, "parts": [[0, 2], [1]]}
    P2 = SplitPartition.from_json_dict(pd)
    assert P2.parts == P.parts and P2.declared_k == 2


def test_report_json():
    G = graph(2, [])
    P = SplitPartition([(0,), (1,)], declared_k=1)
    rep = structures.verify_rk(G, P)
    # the dict keeps the report's tuples; its JSON encoding holds arrays
    d = json.loads(json.dumps(rep.to_json_dict()))
    assert d["r"] == 2
    assert d["completeness_ok"] is False
    assert d["missing_tuples"] == [[0, 1]]
    assert d["forbidden_witness"] is None


# ------------------------------------------------------------ components


def test_components_disjoint_triangles():
    edges = []
    for t in range(7):
        b = 3 * t
        edges += [(b, b + 1), (b + 1, b + 2), (b, b + 2)]
    G = graph(21, edges)
    comps = structures.components(G)
    assert len(comps) == 7
    assert max(map(len, comps)) == 3


def test_components_empty_graph():
    G = graph(5, [])
    comps = structures.components(G)
    assert comps == [[0], [1], [2], [3], [4]]
    assert max(map(len, comps)) == 1


def test_components_hypergraph_connectivity():
    H = LabeledHypergraph(3, list("abcdefg"), [(0, 1, 2), (2, 3, 4)])
    comps = structures.components(H)
    assert [0, 1, 2, 3, 4] in comps
    assert max(map(len, comps)) == 5


def queue_bfs(adj, roots):
    """Reference breadth-first search: a FIFO queue per component, each
    started at the next unvisited vertex of `roots`."""
    order, dist = [], [-1] * len(adj)
    for s in roots:
        if dist[s] >= 0:
            continue
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
    return order, dist


def test_bfs_follows_the_given_root_order():
    rng = random.Random(20261021)
    isolated = 0
    for _ in range(80):
        n = rng.randrange(2, 25)
        m = rng.choice((2, 2, 3))
        edges = {tuple(sorted(rng.sample(range(n), m))) for _ in range(rng.randrange(n + 1))
                 } if n >= m else set()
        G = graph(n, sorted(edges), m)
        isolated += G.adj.count(())
        roots = rng.sample(range(n), n)
        assert structures._bfs(G.adj, roots) == queue_bfs(G.adj, roots)
        assert structures._bfs(G.adj) == queue_bfs(G.adj, range(n))
    assert isolated > 0


# -------------------------------------------------------- property B


def test_property_b_frozen_examples():
    tri = graph(3, [(0, 1), (1, 2), (0, 2)])
    assert structures.property_B_check(tri, (1, 1)) is False
    single = LabeledHypergraph(3, ["a", "b", "c"], [(0, 1, 2)])
    assert structures.property_B_check(single, (2, 1)) is True
    path = graph(4, [(0, 1), (1, 2), (2, 3)])
    assert structures.property_B_check(path, (1, 1)) is True


def test_property_b_11_matches_bipartiteness():
    rng = random.Random(20260816)
    for _ in range(100):
        n = rng.randrange(2, 13)
        edges = {
            tuple(sorted(rng.sample(range(n), 2)))
            for _ in range(rng.randrange(0, 2 * n))
        }
        G = graph(n, sorted(edges))
        assert structures.property_B_check(G, (1, 1)) == bipartite_bfs(n, G.edges)
        color = G.colouring
        assert (color is not None) == bipartite_bfs(n, G.edges)
        if color is not None:
            assert all(color[u] != color[v] for u, v in G.edges)
        # the colouring is computed once per graph and shared
        assert G.colouring is color


def test_property_b_fano_not_rainbow_3_colorable():
    # any two points share a line, so no color may repeat; 7 > 3 colors
    lines = [tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
    fano = LabeledHypergraph(3, [f"p{i}" for i in range(7)], lines)
    assert structures.property_B_check(fano, (1, 1, 1)) is False


def test_property_b_validation():
    G = graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        structures.property_B_check(G, (1, 2))  # sums to 3, m is 2
    with pytest.raises(ValueError):
        structures.property_B_check(G, (2,))  # needs k >= 2
    with pytest.raises(ValueError):
        structures.property_B_check(G, (0, 2))
    big = graph(25, [(0, 1)])
    with pytest.raises(ValueError):
        structures.property_B_check(big, (1, 1))


def test_property_b_budget_is_explicit():
    edges = [(i, i + 1) for i in range(8)] + [(0, 8)]  # odd cycle C9
    G = graph(9, edges)
    with pytest.raises(BudgetExceededError):
        structures.property_B_check(G, (1, 1), budget=3)
    assert structures.property_B_check(G, (1, 1)) is False


# ------------------------------------------------------- adjacency layouts


def random_hypergraph(rng, m, n):
    pool = list(itertools.combinations(range(n), m))
    return graph(n, rng.sample(pool, rng.randrange(0, min(len(pool), 2 * n) + 1)), m=m)


def test_adj_is_the_sorted_shadow():
    rng = random.Random(20261018)
    for _ in range(120):
        m = rng.choice((2, 3))
        n = rng.randrange(m, 14)
        H = random_hypergraph(rng, m, n)
        # the lists the Berge decider once built from its sorted pair index
        shadow = [[] for _ in range(n)]
        for a, b in sorted({p for e in H.edges for p in itertools.combinations(e, 2)}):
            shadow[a].append(b)
            shadow[b].append(a)
        assert H.adj == tuple(map(tuple, shadow))
        assert H.adj is H.adj


def test_incident_is_read_from_the_edge_array():
    # each vertex's edge indices, ascending, as a pass over the edge tuples
    # lists them; isolated vertices and edgeless hosts included, and no
    # reader of `incident` builds those tuples
    rng = random.Random(20261019)
    for _ in range(120):
        m = rng.choice((2, 3, 4))
        H = random_hypergraph(rng, m, rng.randrange(m, 14))
        structures.property_B_check(H, (1, m - 1))
        degrees = [H.degree(v) for v in range(H.n)]
        assert "edges" not in H.__dict__
        want = [[] for _ in range(H.n)]
        for i, e in enumerate(H.edges):
            for v in e:
                want[v].append(i)
        assert H.incident == tuple(map(tuple, want))
        assert degrees == list(map(len, want))
    H = graph(5, [], m=3)
    assert H.incident == ((),) * 5 and H.degree(4) == 0


def test_csr_is_the_symmetric_adjacency():
    rng = random.Random(20261018)
    for _ in range(60):
        n = rng.randrange(1, 16)
        G = random_hypergraph(rng, 2, n)
        A = G.csr
        assert A.format == "csr" and A.dtype == np.int64 and A.shape == (n, n)
        assert A.has_canonical_format
        E = np.array(G.edges, dtype=np.int64).reshape(-1, 2)
        B = sparse.csr_matrix(
            (np.ones(len(E), dtype=np.int64), (E[:, 0], E[:, 1])), shape=(n, n)
        )
        B = (B + B.T).tocsr()
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(A, attr), getattr(B, attr)), attr
        assert G.csr is A


def test_csr_needs_a_graph():
    with pytest.raises(ValueError, match="2-uniform"):
        graph(4, [(0, 1, 2), (1, 2, 3)], m=3).csr


def test_incidence_needs_a_hypergraph():
    with pytest.raises(ValueError, match=r"^an incidence matrix needs m >= 3, got m=2$"):
        graph(3, [(0, 1), (1, 2)]).incidence


# ------------------------------------------------------ one code per row


def lexsort_duplicate(edges):
    """The constructor's "duplicate edge" message as its lexsort route
    made it, before rows were compared as int64 codes: the sorted rows in
    np.lexsort order, the first that equals the row before named; None
    when no row repeats.  The reference for `structures._repeats`."""
    S = np.sort(np.array(edges, dtype=np.int64).reshape(len(edges), -1), axis=1)
    S = S[np.lexsort(S.T)]
    same = (S[1:] == S[:-1]).all(axis=1)
    return f"duplicate edge {tuple(S[1:][same][0].tolist())}" if same.any() else None


def constructor_message(n, m, edges):
    try:
        LabeledHypergraph(m, [f"v{i}" for i in range(n)], edges)
    except ValueError as exc:
        return str(exc)
    return None


def with_duplicates(rng, n, m, count, copies):
    """`count` random m-subsets of range(n), then `copies` of them again,
    each in a shuffled vertex order and at a random place."""
    edges = [rng.sample(range(n), m) for _ in range(count)]
    for _ in range(copies):
        edges.insert(rng.randrange(len(edges) + 1), rng.sample(rng.choice(edges), m))
    return edges


@pytest.mark.parametrize("m", [2, 3, 4])
def test_duplicate_edge_named_as_by_lexsort(m):
    # small n repeats rows by chance, often several different ones, so
    # which repeat is named first matters
    rng = random.Random(20261021 + m)
    seen = set()
    for _ in range(80):
        n = rng.choice((rng.randrange(m + 1, 10), rng.randrange(10, 300)))
        edges = with_duplicates(rng, n, m, rng.randrange(1, 60), rng.choice((0, 0, 1, 4)))
        want = lexsort_duplicate(edges)
        assert constructor_message(n, m, edges) == want
        assert constructor_message(n, m, np.array(edges)) == want
        distinct = len({tuple(sorted(e)) for e in edges})
        rows = np.sort(np.array(edges), axis=1)
        assert structures._repeats(rows, n)[0] == len(edges) - distinct
        seen.add((want is None, distinct < len(edges) - 1))
    assert seen == {(True, False), (False, False), (False, True)}


def test_duplicate_edge_named_where_codes_would_overflow():
    # n^m >= 2^63, so `_repeats` sorts the rows by np.lexsort itself
    n, m = 60_000, 4
    assert n ** m >= 2 ** 63
    rng = random.Random(20261022)
    free = with_duplicates(rng, n, m, 400, 0)
    assert lexsort_duplicate(free) is None and constructor_message(n, m, free) is None
    # (1, 2, 3, 4) is the first repeat in lexsort order, where the last
    # vertex weighs most; by the first vertex (0, 1, 2, n - 1) would be
    edges = free + [[n - 1, 0, 2, 1], [1, 2, 3, 4], [0, 1, 2, n - 1], [4, 3, 2, 1]]
    edges += with_duplicates(rng, n, m, 100, 3)
    assert lexsort_duplicate(edges) == "duplicate edge (1, 2, 3, 4)"
    assert constructor_message(n, m, edges) == "duplicate edge (1, 2, 3, 4)"
    rows = np.sort(np.array(edges), axis=1)
    assert structures._repeats(rows, n) == (5, (1, 2, 3, 4))


# ------------------------------------------------------------- row sort


def test_sort_rows_matches_np_sort_on_seeded_arrays():
    # small value ranges repeat entries within a row, so ties are sorted too
    rng = np.random.default_rng(20261023)
    widths = set()
    for _ in range(300):
        R, m = int(rng.integers(0, 201)), int(rng.integers(1, 6))
        high = int(rng.choice([2, 5, 1000, 2 ** 62]))
        E = rng.integers(-high, high, size=(R, m), dtype=np.int64)
        got = structures._sort_rows(E)
        assert got.dtype == np.int64 and got.shape == (R, m)
        assert np.array_equal(got, np.sort(E, axis=1))
        widths.add(m)
    assert widths == {1, 2, 3, 4, 5}
    E = np.array([[3, 1, 2]])
    assert structures._sort_rows(E) is not E and E.tolist() == [[3, 1, 2]]


def test_sort_rows_sorts_the_object_rows_the_constructor_builds():
    # an index of 2**63 or more makes the constructor hold its rows as
    # Python ints in an object array
    edges = [(2 ** 63, 0), (5, 2 ** 70, 1), (3, 2, 1)]
    for rows in ([edges[0], (1, 0)], [edges[1], (0, 1, 2)], [(2 ** 64, 7, 2 ** 63, 1)]):
        E = np.array(rows, dtype=object).reshape(len(rows), -1)
        got = structures._sort_rows(E)
        assert got.dtype == object and got.tolist() == np.sort(E, axis=1).tolist()
    assert structures._sort_rows(np.array([edges[2]], dtype=object)).tolist() == [[1, 2, 3]]


@pytest.mark.parametrize("m, edges, message", [
    (2, [(0, 2 ** 63)], "edge (0, 9223372036854775808) references a vertex outside [0, 4)"),
    (2, [(2 ** 63, 0)], "edge (0, 9223372036854775808) references a vertex outside [0, 4)"),
    (3, [(1, 2 ** 70, 0)], f"edge (0, 1, {2 ** 70}) references a vertex outside [0, 4)"),
    (2, [(0, 1), (3, -1)], "edge (-1, 3) references a vertex outside [0, 4)"),
    (3, [(0, 1, 2), (2, 3, 9)], "edge (2, 3, 9) references a vertex outside [0, 4)"),
    (3, [(0, 1, 2), (3, 1, 3)], "edge (1, 3, 3) does not have 3 distinct vertices"),
    (2, [(2, 2)], "edge (2, 2) does not have 2 distinct vertices"),
    (3, [(2 ** 63, 1, 1)], "edge (1, 1, 9223372036854775808) does not have 3 distinct vertices"),
    (3, [(0, 1, 2), (1, 2, 3), (2, 1, 0)], "duplicate edge (0, 1, 2)"),
    (2, [(3, 0), (1, 2), (0, 3)], "duplicate edge (0, 3)"),
], ids=["over-2**63", "over-2**63-first", "over-2**70", "negative", "past-n", "repeat",
        "loop", "repeat-and-over", "duplicate-3", "duplicate-2"])
def test_constructor_messages_read_as_before(m, edges, message):
    assert constructor_message(4, m, edges) == message
    if max(map(max, edges)) < 2 ** 63:
        assert constructor_message(4, m, np.array(edges)) == message
