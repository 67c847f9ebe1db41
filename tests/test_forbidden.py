"""Tests for splitforge.forbidden.

Every decider is compared against a deliberately naive oracle built on
subset/permutation enumeration; the oracles share no code with the
module under test.
"""

from __future__ import annotations

import gc
import itertools
import math
import random
import re

import numpy as np
import pytest

from splitforge import constructions, forbidden, oracle, structures
from splitforge.forbidden import ForbiddenPattern, parse_pattern
from splitforge.structures import LabeledHypergraph


def graph(n, edges):
    return LabeledHypergraph(2, [f"v{i}" for i in range(n)], edges)


def cycle_graph(L):
    return graph(L, [(i, (i + 1) % L) for i in range(L)])


def complete_bipartite(s, t):
    return graph(s + t, [(i, s + j) for i in range(s) for j in range(t)])


def theta_graph(K, length):
    # two endpoints 0, 1 joined by K internally disjoint paths of the
    # given length
    verts = 2 + K * (length - 1)
    edges = []
    nxt = 2
    for _ in range(K):
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return graph(verts, edges)


def fano_plane():
    lines = [tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
    return LabeledHypergraph(3, [f"p{i}" for i in range(7)], lines)


def random_graph(rng, n, density=0.3):
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    ]
    return graph(n, edges)


# --------------------------------------------------------------- oracles


def naive_kst(G, s, t):
    adj = [set() for _ in range(G.n)]
    for u, v in G.edges:
        adj[u].add(v)
        adj[v].add(u)
    for hubs in itertools.combinations(range(G.n), s):
        common = set(range(G.n))
        for h in hubs:
            common &= adj[h]
        common -= set(hubs)
        if len(common) >= t:
            return True
    return False


def host_edges(G):
    """The host's edges as a set of sorted vertex tuples."""
    return set(map(tuple, G.edge_array.tolist()))


def naive_cycle(G, L):
    es = host_edges(G)
    if L > G.n:
        return False
    for subset in itertools.combinations(range(G.n), L):
        first = subset[0]
        for perm in itertools.permutations(subset[1:]):
            if perm[0] > perm[-1]:
                continue
            cyc = (first,) + perm
            if all(
                tuple(sorted((cyc[i], cyc[(i + 1) % L]))) in es for i in range(L)
            ):
                return True
    return False


def naive_paths(G, u, v, length):
    adj = G.adj
    out = []

    def dfs(x, path):
        if len(path) - 1 == length:
            if x == v:
                out.append(tuple(path))
            return
        if x == v:
            return
        for y in sorted(adj[x]):
            if y in path:
                continue
            dfs(y, path + [y])

    dfs(u, [u])
    return out


def naive_theta(G, K, length):
    for u in range(G.n):
        for v in range(u + 1, G.n):
            paths = naive_paths(G, u, v, length)
            interiors = [frozenset(p[1:-1]) for p in paths]
            interiors = sorted(set(interiors), key=sorted)
            for combo in itertools.combinations(interiors, K):
                union = set()
                total = 0
                for s_ in combo:
                    union |= s_
                    total += len(s_)
                if len(union) == total:
                    return True
    return False


def naive_berge(Hy, length):
    E = Hy.edges
    idx = range(len(E))
    for combo in itertools.permutations(idx, length):
        if combo[0] != min(combo):
            continue
        pools = []
        for i in range(length):
            shared = set(E[combo[i - 1]]) & set(E[combo[i]])
            pools.append(sorted(shared))
        for core in itertools.product(*pools):
            if len(set(core)) == length:
                return True
    return False


def naive_embed(G, pattern_edges):
    pverts = sorted({v for e in pattern_edges for v in e})
    es = host_edges(G)
    for image in itertools.permutations(range(G.n), len(pverts)):
        phi = dict(zip(pverts, image))
        if all(
            tuple(sorted(phi[x] for x in e)) in es for e in pattern_edges
        ):
            return True
    return False


# ------------------------------------------------------ witness checking


def check_witness_edges(G, w):
    assert set(w) == {"pattern", "vertices", "edges"}
    es = host_edges(G)
    for e in w["edges"]:
        assert tuple(sorted(e)) in es


def check_cycle_witness(G, w, L):
    check_witness_edges(G, w)
    cyc = w["vertices"]
    assert len(cyc) == L and len(set(cyc)) == L
    es = host_edges(G)
    for i in range(L):
        assert tuple(sorted((cyc[i], cyc[(i + 1) % L]))) in es


def check_kst_witness(G, w, s, t):
    check_witness_edges(G, w)
    hubs, leaves = w["vertices"][:s], w["vertices"][s:]
    assert len(leaves) == t
    assert len(set(hubs + leaves)) == s + t
    es = host_edges(G)
    for h in hubs:
        for leaf in leaves:
            assert tuple(sorted((h, leaf))) in es


def check_theta_witness(G, w, K, length):
    check_witness_edges(G, w)
    if K == 2:
        check_cycle_witness(G, {**w, "pattern": w["pattern"]}, 2 * length)
        return
    u, v = w["vertices"][0], w["vertices"][1]
    interior = w["vertices"][2:]
    assert len(interior) == K * (length - 1)
    assert len(set(w["vertices"])) == 2 + K * (length - 1)
    es = host_edges(G)
    for i in range(K):
        path = [u] + interior[i * (length - 1) : (i + 1) * (length - 1)] + [v]
        for a, b in zip(path, path[1:]):
            assert tuple(sorted((a, b))) in es


def check_berge_witness(Hy, w, length):
    assert set(w) == {"pattern", "vertices", "edges"}
    core = w["vertices"]
    assert len(core) == length and len(set(core)) == length
    used = [tuple(sorted(e)) for e in w["edges"]]
    assert len(set(used)) == length
    es = host_edges(Hy)
    for i, e in enumerate(used):
        assert e in es
        assert core[i] in e and core[(i + 1) % length] in e


# -------------------------------------------------------------- patterns


def test_parse_pattern():
    p = parse_pattern("K_{2,3}")
    assert p.kind == "complete_bipartite" and p.params == (2, 3)
    assert parse_pattern("K_{3,2}").params == (2, 3)
    assert parse_pattern("C_6").params == (6,)
    assert parse_pattern("C_{10}").params == (10,)
    assert parse_pattern("C_5").params == (5,)
    t = parse_pattern("theta_{3,4}")
    assert t.kind == "theta" and t.params == (3, 4)
    b = parse_pattern("bergeC_2")
    assert b.kind == "berge_cycle" and b.params == (2,)
    for bad in ["C_2", "theta_{1,4}", "theta_{3,1}", "bergeC_5", "K_{0,2}", "Q_3", ""]:
        with pytest.raises(ValueError):
            parse_pattern(bad)


def test_pattern_spec_string_round_trip():
    for s in ["K_{2,3}", "C_{6}", "theta_{3,4}", "bergeC_3"]:
        assert parse_pattern(s).spec_string() == s
    assert parse_pattern("C_6").spec_string() == "C_{6}"


@pytest.mark.parametrize("spellings, kind, params, spec", [
    (("C_6", "C_{6}"), "cycle", (6,), "C_{6}"),
    (("C_3", "C_{3}"), "cycle", (3,), "C_{3}"),
    (("K_{3,2}", "K_{2,3}"), "complete_bipartite", (2, 3), "K_{2,3}"),
    (("K_{1,1}",), "complete_bipartite", (1, 1), "K_{1,1}"),
    (("theta_{3,4}",), "theta", (3, 4), "theta_{3,4}"),
    (("theta_{2,2}",), "theta", (2, 2), "theta_{2,2}"),
    (("bergeC_2",), "berge_cycle", (2,), "bergeC_2"),
    (("bergeC_4",), "berge_cycle", (4,), "bergeC_4"),
])
def test_every_spelling_gives_one_pattern(spellings, kind, params, spec):
    want = ForbiddenPattern(kind, params)
    for text in spellings + (spec,):
        pat = parse_pattern(text)
        assert pat == want and pat.spec_string() == spec
    assert parse_pattern(want) is want


@pytest.mark.parametrize("text", [
    "C_2", "C_{2}", "C_{6", "C_6}", "C6", "c_6", " C_6", "C_6 ", "C_-6",
    "K_{0,2}", "K_{2, 2}", "K_2,2", "K_{2,2,2}", "theta_{1,4}", "theta_{3,1}",
    "theta_3,4", "bergeC_1", "bergeC_5", "bergeC_{2}", "Q_3", "explicit", "",
    "C_6\n", "C_\u0666", "C_0006", "C_{06}", "K_{02,2}", "theta_{3,04}", "bergeC_02",
])
def test_parse_pattern_refusals(text):
    with pytest.raises(ValueError):
        parse_pattern(text)


@pytest.mark.parametrize("kind, params", [
    ("bogus", ()), ("complete_bipartite", (3, 2)), ("complete_bipartite", (0, 2)),
    ("complete_bipartite", (2,)), ("cycle", (2,)), ("cycle", ()), ("theta", (1, 4)),
    ("theta", (3,)), ("berge_cycle", (5,)), ("explicit", ()),
])
def test_pattern_refuses_bad_parameters(kind, params):
    with pytest.raises(ValueError):
        ForbiddenPattern(kind, params)


@pytest.mark.parametrize("call", [
    lambda G: forbidden.contains_kst(G, 0, 2),
    lambda G: forbidden.contains_kst(G, 3, 2),
    lambda G: forbidden.contains_cycle(G, 2),
    lambda G: forbidden.contains_cycle(G, 0),
    lambda G: forbidden.contains_theta(G, 1, 4),
    lambda G: forbidden.contains_theta(G, 3, 1),
    lambda G: forbidden.contains_theta(G, 2, 1),
    lambda G: forbidden.contains_explicit(G, []),
    lambda G: forbidden.contains_explicit(G, [(i, i + 1) for i in range(10)]),
    lambda G: forbidden.contains_explicit(G, [(0, 0)]),
    lambda G: forbidden.contains_explicit(G, [(0, 1, 2)]),
])
def test_graph_deciders_refuse_bad_parameters(call):
    with pytest.raises(ValueError):
        call(cycle_graph(6))


@pytest.mark.parametrize("length", [0, 1, 5, 6])
def test_berge_decider_refuses_bad_lengths(length):
    with pytest.raises(ValueError):
        forbidden.contains_berge_cycle(fano_plane(), length)


@pytest.mark.parametrize("call", [
    lambda G: forbidden.contains_kst(G, 2, 2),
    lambda G: forbidden.contains_kst(G, 3, 3),
    lambda G: forbidden.contains_cycle(G, 4),
    lambda G: forbidden.contains_theta(G, 3, 2),
    lambda G: forbidden.contains_theta(G, 2, 3),
    lambda G: forbidden.girth(G),
])
def test_graph_deciders_refuse_hypergraph_hosts(call):
    with pytest.raises(ValueError, match="^this decider needs a 2-uniform graph, got m=3$"):
        call(fano_plane())


@pytest.mark.parametrize("length", [2, 3, 4])
def test_berge_decider_refuses_graph_hosts(length):
    with pytest.raises(ValueError, match="^Berge cycle detection expects a hypergraph with m >= 3$"):
        forbidden.contains_berge_cycle(cycle_graph(6), length)


def test_explicit_decider_refuses_edges_of_another_arity():
    with pytest.raises(ValueError):
        forbidden.contains_explicit(fano_plane(), [(0, 1), (1, 2)])


# ---------------------------------------------------------------- K_{s,t}


def test_kst_frozen_examples():
    w = forbidden.contains_kst(complete_bipartite(2, 2), 2, 2)
    assert w is not None
    check_kst_witness(complete_bipartite(2, 2), w, 2, 2)
    star = complete_bipartite(1, 5)
    assert forbidden.contains_kst(star, 2, 2) is None
    c4 = cycle_graph(4)
    assert forbidden.contains_kst(c4, 2, 2) is not None


def test_kst_bigger_hub_sets():
    k35 = complete_bipartite(3, 5)
    w = forbidden.contains_kst(k35, 3, 4)
    assert w is not None
    check_kst_witness(k35, w, 3, 4)
    assert forbidden.contains_kst(k35, 4, 4) is None


@pytest.mark.parametrize("s,t", [(2, 2), (2, 3), (3, 3)])
def test_kst_matches_naive(s, t):
    rng = random.Random(100 * s + t)
    for _ in range(40):
        G = random_graph(rng, rng.randrange(4, 12))
        w = forbidden.contains_kst(G, s, t)
        assert (w is not None) == naive_kst(G, s, t)
        if w is not None:
            check_kst_witness(G, w, s, t)


def test_kst_large_hub_sets_agree_with_networkx_vf2():
    # s >= 3 runs the hub-set search; every verdict against VF2 subgraph
    # monomorphisms (not induced), every witness checked against the host
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    rng = random.Random(2031)
    shapes = [(3, 3), (3, 4), (4, 4)]
    seen = set()
    for _ in range(16):
        G = random_graph(rng, rng.randrange(7, 10), rng.choice((0.45, 0.6, 0.8)))
        host = nx.Graph()
        host.add_nodes_from(range(G.n))
        host.add_edges_from(G.edges)
        for s, t in shapes:
            got = forbidden.contains_kst(G, s, t)
            matcher = GraphMatcher(host, nx.complete_bipartite_graph(s, t))
            want = next(matcher.subgraph_monomorphisms_iter(), None)
            assert (got is not None) == (want is not None)
            if got is not None:
                check_kst_witness(G, got, s, t)
            seen.add(((s, t), got is not None))
    assert seen == {(shape, found) for shape in shapes for found in (True, False)}


# ----------------------------------------------------------------- cycles


def test_cycle_frozen_examples():
    c6 = cycle_graph(6)
    w = forbidden.contains_cycle(c6, 6)
    assert w is not None
    check_cycle_witness(c6, w, 6)
    assert forbidden.contains_cycle(c6, 4) is None
    tree = graph(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    for L in range(3, 7):
        assert forbidden.contains_cycle(tree, L) is None
    tri = cycle_graph(3)
    assert forbidden.contains_cycle(tri, 3) is not None


@pytest.mark.parametrize("L", [3, 4, 5, 6])
def test_cycle_matches_naive(L):
    rng = random.Random(L)
    for _ in range(30):
        G = random_graph(rng, rng.randrange(4, 11))
        w = forbidden.contains_cycle(G, L)
        assert (w is not None) == naive_cycle(G, L)
        if w is not None:
            check_cycle_witness(G, w, L)


@pytest.mark.parametrize("n", [6, 7])
def test_cycles_enumerates_each_cycle_once(n):
    # K_n has C(n, L) (L-1)! / 2 cycles with L vertices
    G = graph(n, itertools.combinations(range(n), 2))
    sadj = [sorted(a) for a in G.adj]
    for L in range(3, n + 1):
        cycles = list(forbidden._cycles(sadj, L))
        assert all(c[0] == min(c) for c in cycles)
        edge_sets = {frozenset(frozenset(e) for e in zip(c, c[1:] + c[:1])) for c in cycles}
        assert len(edge_sets) == len(cycles)
        assert len(cycles) == math.comb(n, L) * math.factorial(L - 1) // 2


def test_cycles_come_out_oriented():
    # each cycle starts at its minimum vertex and goes on to the smaller
    # of that vertex's two cycle neighbours, at odd lengths too; the
    # incidence graphs are the ones the Berge search enumerates
    rng = random.Random(41)
    adjs = [random_graph(rng, rng.randrange(5, 12), 0.4).adj for _ in range(20)]
    adjs += [incidence_graph(Hy).adj for Hy in berge_kernel_hosts()[:20]]
    seen = set()
    for adj in adjs:
        for L in range(3, 9):
            for cyc in forbidden._cycles(adj, L):
                assert cyc[0] == min(cyc) and cyc[1] < cyc[-1]
                seen.add(L)
    assert seen == set(range(3, 9))


def test_cycle_agrees_with_kst_on_c4():
    rng = random.Random(99)
    for _ in range(200):
        G = random_graph(rng, rng.randrange(4, 31), density=0.15)
        assert (forbidden.contains_cycle(G, 4) is not None) == (
            forbidden.contains_kst(G, 2, 2) is not None
        )


# ------------------------------------------------------ walk-count kernel


def naive_nb_walks(G, u, j):
    # end vertex -> number of non-backtracking walks of j edges from u
    counts = {}
    stack = [(u, -1, 0)]
    while stack:
        x, prev, steps = stack.pop()
        if steps == j:
            counts[x] = counts.get(x, 0) + 1
            continue
        for y in G.adj[x]:
            if y != prev:
                stack.append((y, x, steps + 1))
    return counts


def reaches_at_k(walks, n, k, threshold):
    # `_walk_counts_reach` from enumerated walks: whether an off-diagonal
    # count of A_k alone, in any of the n rows, reaches the threshold
    return any(c >= threshold for u in range(n)
               for w, c in walks[u, k].items() if w != u)


@pytest.mark.parametrize("rows", [256, 3])
def test_walk_counts_reach_matches_enumerated_walks(monkeypatch, rows):
    # the kernel's answer from walks enumerated one by one; three-row
    # blocks make every host span several blocks; a count of a shorter
    # walk that reaches the threshold, with A_k's below it, is no hit
    monkeypatch.setattr(forbidden, "_ROWS", rows)
    rng = random.Random(7)
    answers = set()
    for _ in range(25):
        G = random_graph(rng, rng.randrange(2, 13), rng.choice((0.15, 0.3, 0.5)))
        walks = {(u, j): naive_nb_walks(G, u, j) for u in range(G.n) for j in (2, 3, 4)}
        for k, threshold in ((2, 1), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (4, 5)):
            want = reaches_at_k(walks, G.n, k, threshold)
            assert forbidden._walk_counts_reach(G.csr, np.arange(G.n), k, threshold) is want
            shorter = any(reaches_at_k(walks, G.n, j, threshold) for j in range(2, k))
            answers.add((want, shorter))
    assert answers == {(want, shorter) for want in (True, False) for shorter in (True, False)}


def test_walk_counts_exact_up_to_the_kth_power_bound():
    # K_{234,234} has D = 234, D**8 < 2**63 <= D**9; a row of its A_8
    # sums to 234 * 233**7, within 7% of 2**63, and every count matches
    # the Python-int counts of the three classes (u itself, its own
    # side, the other side)
    D, k = 234, 8
    G = complete_bipartite(D, D)
    assert forbidden._counts_exact(G.csr, k) and not forbidden._counts_exact(G.csr, k + 1)
    classes = [(1, 0, 0), (0, 0, 1), (0, D, 0)]  # (a, b, c) of A_0, A_1, A_2
    for _ in range(3, k + 1):
        (a2, b2, c2), (a1, b1, c1) = classes[-2:]
        classes.append((D * c1 - (D - 1) * a2, D * c1 - (D - 1) * b2,
                        a1 + (D - 1) * b1 - (D - 1) * c2))
    a, b, c = classes[k]
    assert a + (D - 1) * b + D * c == D * (D - 1) ** (k - 1) > 2 ** 63 * 0.93
    side = np.arange(G.n) < D
    for row_of, walks in forbidden._walk_blocks(G.csr, np.arange(G.n), k):
        for u, row in zip(np.unique(row_of).tolist(), walks.toarray()):
            want = np.where(side == side[u], b, c)
            want[u] = a
            assert row.tolist() == want.tolist()


def within(adj, u, v, limit):
    # whether v is at most `limit` edges from u
    reach = {u}
    for _ in range(limit):
        reach |= {y for x in reach for y in adj[x]}
    return v in reach


def random_bipartite(rng, girth=None):
    # sides interleaved in index order; with `girth`, an edge is kept
    # only if it closes no cycle shorter than that
    nx, ny = rng.randrange(3, 16), rng.randrange(3, 16)
    perm = rng.sample(range(nx + ny), nx + ny)
    X, Y = perm[:nx], perm[nx:]
    adj = {v: set() for v in perm}
    edges = []
    for _ in range(rng.randrange(nx + ny, 3 * (nx + ny))):
        u, v = rng.choice(X), rng.choice(Y)
        if v in adj[u] or (girth and within(adj, u, v, girth - 2)):
            continue
        adj[u].add(v)
        adj[v].add(u)
        edges.append((u, v))
    return graph(nx + ny, edges)


def kernel_hosts():
    rng = random.Random(2007)
    hosts = [constructions.build_wenger(1, 5), constructions.build_wenger(2, 5)]
    for _ in range(12):
        hosts.append(random_bipartite(rng, girth=6))
        hosts.append(random_bipartite(rng, girth=8))
        hosts.append(random_bipartite(rng))
        hosts.append(random_graph(rng, rng.randrange(6, 31), 0.15))
    return hosts


def both_sides_of_the_cut(monkeypatch):
    # the walk-count cut at 0, so every host runs the kernel first, then
    # at its default
    default = forbidden._KERNEL_EDGES
    for cut in (0, default):
        monkeypatch.setattr(forbidden, "_KERNEL_EDGES", cut)
        yield cut


def test_walk_kernel_verdicts_match_ordered_search(monkeypatch):
    # the kernel's "absent" is sound on every host, bipartite or not:
    # wherever it answers None the ordered search finds nothing, and
    # contains_cycle returns the ordered search's first cycle; hits come
    # with and without a cycle of the length asked for (shorter even
    # cycles, odd cycles), and K_{2,2}/K_{2,3} hits are exact
    seen = set()
    for G in kernel_hosts():
        for L in (6, 8):
            ordered = next(forbidden._cycles(G.adj, L), None)
            for _ in both_sides_of_the_cut(monkeypatch):
                got = forbidden.contains_cycle(G, L)
                if ordered is None:
                    assert got is None
                else:
                    assert got == forbidden._emit(G, parse_pattern("C_%d" % L), ordered,
                                                  list(zip(ordered, ordered[1:] + ordered[:1])))
            hit = forbidden._walk_counts_reach(G.csr, np.arange(G.n), L // 2, 2)
            assert hit or ordered is None
            seen.add((L, hit, ordered is not None, G.colouring is not None))
        for t in (2, 3):
            hit = forbidden._walk_counts_reach(G.csr, np.arange(G.n), 2, t)
            assert hit == (forbidden._codegree_scan(G.adj, t) is not None)
            seen.add((t, hit))
    assert seen >= {(L, hit, found, True) for L in (6, 8)
                    for hit, found in ((False, False), (True, False), (True, True))}
    assert {(L, True, False, False) for L in (6, 8)} | {(6, False, False, False)} <= seen
    assert seen >= {(t, v) for t in (2, 3) for v in (True, False)}


def test_walk_kernel_hosts_agree_with_networkx(monkeypatch):
    nx = pytest.importorskip("networkx")
    for G in kernel_hosts():
        H = nx.Graph()
        H.add_nodes_from(range(G.n))
        H.add_edges_from(G.edges)
        cycles = {L: any(len(c) == L for c in nx.simple_cycles(H, length_bound=L))
                  for L in (4, 6, 8)}
        codegree = max((len(list(nx.common_neighbors(H, u, v)))
                        for u, v in itertools.combinations(range(G.n), 2)), default=0)
        for _ in both_sides_of_the_cut(monkeypatch):
            for L, want in cycles.items():
                assert (forbidden.contains_cycle(G, L) is not None) == want
            assert (forbidden.contains_kst(G, 2, 2) is not None) == cycles[4]
            assert (forbidden.contains_kst(G, 2, 3) is not None) == (codegree >= 3)


def test_deciders_above_the_cut_consult_the_one_proof(monkeypatch):
    # K_{2,t}, even cycles, thetas of length up to 4 and Berge cycles ask
    # `rows_prove_absent` once, on every vertex row, the same proof the
    # orbit route runs; W_2(5) holds theta_{3,4}
    proof, calls = forbidden.rows_prove_absent, []

    def spy(H, rows, pattern):
        calls.append((pattern, rows.tolist() == list(range(H.n))))
        return proof(H, rows, pattern)

    monkeypatch.setattr(forbidden, "rows_prove_absent", spy)
    G = constructions.build_wenger(2, 5)  # 625 edges
    Hy = constructions.build_berge3(17)[0]  # 680 edges
    assert min(len(G.edge_array), len(Hy.edge_array)) >= forbidden._KERNEL_EDGES
    for decide, spec in ((lambda: forbidden.contains_kst(G, 2, 2), "K_{2,2}"),
                         (lambda: forbidden.contains_kst(G, 2, 3), "K_{2,3}"),
                         (lambda: forbidden.contains_cycle(G, 4), "C_4"),
                         (lambda: forbidden.contains_cycle(G, 6), "C_6"),
                         (lambda: forbidden.contains_cycle(G, 8), "C_8"),
                         (lambda: forbidden.contains_theta(G, 3, 4), "theta_{3,4}"),
                         (lambda: forbidden.contains_theta(G, 3, 3), "theta_{3,3}"),
                         *((lambda L=L: forbidden.contains_berge_cycle(Hy, L), f"bergeC_{L}")
                           for L in (2, 3, 4))):
        calls.clear()
        decide()
        assert calls == [(parse_pattern(spec), True)]


def padded(rng, G):
    """G with isolated vertices put in at random places among its own."""
    n = G.n + rng.randrange(1, G.n + 1)
    place = np.array(sorted(rng.sample(range(n), G.n)))
    return LabeledHypergraph(G.m, [f"v{i}" for i in range(n)], place[G.edge_array])


def test_proof_on_vertices_with_edges_equals_every_row(monkeypatch):
    # an isolated vertex's row of A_k is zero, so the proof on the rows
    # of the vertices on an edge, which the deciders' gate passes, gives
    # the all-rows verdict, for each pattern family
    proof, passed = forbidden.rows_prove_absent, []

    def spy(H, rows, pattern):
        passed.append(rows.tolist())
        return proof(H, rows, pattern)

    monkeypatch.setattr(forbidden, "_KERNEL_EDGES", 0)
    monkeypatch.setattr(forbidden, "rows_prove_absent", spy)
    rng = random.Random(20261024)
    families = {2: ("C_6", "C_8", "K_{2,2}", "K_{2,3}", "theta_{3,4}", "theta_{2,3}"),
                3: ("bergeC_2", "bergeC_3", "bergeC_4")}
    seen = set()
    for G in kernel_hosts() + berge_kernel_hosts():
        H = padded(rng, G)
        on_edges = np.flatnonzero(np.bincount(H.edge_array.ravel(), minlength=H.n))
        assert len(on_edges) < H.n
        for spec in families[min(H.m, 3)]:
            pat = parse_pattern(spec)
            every = proof(H, np.arange(H.n), pat)
            assert proof(H, on_edges, pat) == every
            passed.clear()
            assert forbidden._proved_absent(H, pat) == every
            assert passed == [on_edges.tolist()]
            seen.add((pat.kind, every))
    assert seen == {(kind, v) for kind in ("cycle", "complete_bipartite", "theta", "berge_cycle")
                    for v in (True, False)}


def test_free_hosts_decided_without_neighbour_lists():
    # the kernel alone proves these splits free: the ordered search, and
    # with it the neighbour tuples, never runs
    G = constructions.partition_wenger(2, 5)[0]
    assert forbidden.contains_cycle(G, 4) is None and forbidden.contains_cycle(G, 6) is None
    assert "csr" in G.__dict__ and "adj" not in G.__dict__
    G = constructions.partition_norm_quotient(9, 2, 1, 4, 2, seed=7)[0]
    assert forbidden.contains_kst(G, 2, 2) is None
    assert "csr" in G.__dict__ and "adj" not in G.__dict__
    G = cycle_graph(301)  # not bipartite, above the cut
    assert forbidden.contains_cycle(G, 6) is None
    assert "adj" not in G.__dict__
    Hy = constructions.build_berge3(17)[0]  # 680 edges, above the cut
    for L in (2, 3, 4):
        assert forbidden.contains_berge_cycle(Hy, L) is None
    assert "incidence" in Hy.__dict__ and "adj" not in Hy.__dict__


@pytest.mark.parametrize("L", [5])
def test_short_cycles_never_build_the_adjacency_matrix(L):
    # the oracle's tiny hosts ask for C_3..C_5 tens of thousands of times
    G = constructions.partition_wenger(2, 5)[0]
    assert forbidden.contains_cycle(G, L) is None
    assert "csr" not in G.__dict__ and "colouring" not in G.__dict__


GATE_SPECS = [f"C_{L}" for L in range(3, 9)] + [
    "K_{1,3}", "K_{2,2}", "K_{2,3}", "K_{3,3}", "theta_{2,3}", "theta_{3,4}", "theta_{3,5}",
    "bergeC_2", "bergeC_3", "bergeC_4"]


@pytest.mark.parametrize("spec", GATE_SPECS)
def test_walk_counts_run_exactly_for_patterns_with_a_walk_test(monkeypatch, spec):
    # above the cut the kernel runs once, on A_k of its walk test, for a
    # pattern that has one, and no pattern without one builds `csr` or
    # `incidence`; below the cut no decider builds either
    kernel, runs = forbidden._walk_blocks, []
    monkeypatch.setattr(forbidden, "_walk_blocks",
                        lambda A, rows, k: runs.append(k) or kernel(A, rows, k))
    pat = parse_pattern(spec)
    if pat.fits(2):
        above, below = constructions.partition_wenger(2, 5)[0], constructions.build_wenger(1, 4)
    else:
        above, below = constructions.build_berge3(17)[0], constructions.build_berge3(7)[0]
    assert len(above.edge_array) >= forbidden._KERNEL_EDGES > len(below.edge_array)
    matrix = "csr" if above.m == 2 else "incidence"
    forbidden.check_pattern(above, pat)
    if pat.walk_test is None:
        assert runs == [] and matrix not in above.__dict__
    else:
        assert runs == [pat.walk_test[0]] and matrix in above.__dict__
    runs.clear()
    forbidden.check_pattern(below, pat)
    assert runs == [] and not {"csr", "incidence"} & below.__dict__.keys()


def c4_hosts():
    # seeded graphs of 256 edges or more, bipartite and not: C_4-free
    # ones (an edge is kept only if it closes no cycle of 4 or fewer
    # edges), the same with a planted C_4, and dense ones; then the
    # builders' hosts, free or not
    rng = random.Random(20261021)
    hosts = []
    for bipartite in (True, False):
        for _ in range(3):
            n = rng.randrange(110, 140)
            side = [rng.random() < 0.5 for _ in range(n)]
            adj = {v: set() for v in range(n)}
            edges = []
            while len(edges) < 280:
                u, v = rng.sample(range(n), 2)
                if (bipartite and side[u] == side[v]) or within(adj, u, v, 3):
                    continue
                adj[u].add(v)
                adj[v].add(u)
                edges.append((u, v))
            hosts.append(graph(n, edges))
            if bipartite:
                a, c = rng.sample([v for v in range(n) if side[v]], 2)
                b, d = rng.sample([v for v in range(n) if not side[v]], 2)
            else:
                a, b, c, d = rng.sample(range(n), 4)
            planted = {tuple(sorted(e)) for e in edges + [(a, b), (b, c), (c, d), (d, a)]}
            hosts.append(graph(n, sorted(planted)))
        n = rng.randrange(60, 70)
        if bipartite:
            hosts.append(graph(n, [(u, v) for u in range(n // 2) for v in range(n // 2, n)
                                   if rng.random() < 0.3]))
        else:
            hosts.append(random_graph(rng, n, 0.15))
    hosts += [constructions.partition_wenger(2, 5)[0], constructions.build_wenger(1, 8),
              constructions.build_wenger(2, 4),
              constructions.partition_norm_quotient(9, 2, 1, 4, 2, seed=7)[0],
              constructions.partition_norm_quotient(7, 3, 1, 3, 2, seed=3)[0]]
    return hosts


def test_c4_takes_the_walk_counts_and_keeps_the_ordered_witness():
    # C_4 and K_{2,2} share the A_2 proof above the cut; C_4's verdict
    # and witness are the ordered search's, and it is absent exactly
    # where K_{2,2} is
    C4 = parse_pattern("C_4")
    seen = set()
    for G in c4_hosts():
        assert len(G.edge_array) >= forbidden._KERNEL_EDGES
        got = forbidden.contains_cycle(G, 4)
        assert "csr" in G.__dict__
        ordered = next(forbidden._cycles(G.adj, 4), None)
        if ordered is None:
            assert got is None
        else:
            assert got == forbidden._emit(G, C4, ordered, list(zip(ordered, ordered[1:] + ordered[:1])))
        assert (got is None) == (forbidden.contains_kst(G, 2, 2) is None)
        seen.add((got is None, G.colouring is not None))
    assert seen == {(free, bip) for free in (True, False) for bip in (True, False)}


def test_girth():
    assert forbidden.girth(cycle_graph(6)) == 6
    assert forbidden.girth(cycle_graph(3)) == 3
    assert forbidden.girth(graph(4, [(0, 1), (1, 2)])) == float("inf")
    k4 = graph(4, list(itertools.combinations(range(4), 2)))
    assert forbidden.girth(k4) == 3
    petersen = graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    )
    assert forbidden.girth(petersen) == 5


# ------------------------------------------------------------------ theta


def test_theta_frozen_examples():
    th = theta_graph(3, 4)
    w = forbidden.contains_theta(th, 3, 4)
    assert w is not None
    check_theta_witness(th, w, 3, 4)
    c8 = cycle_graph(8)
    assert forbidden.contains_theta(c8, 3, 4) is None
    w2 = forbidden.contains_theta(c8, 2, 4)
    assert w2 is not None
    check_theta_witness(c8, w2, 2, 4)


def test_theta_k2_agrees_with_cycle():
    rng = random.Random(7)
    for _ in range(200):
        G = random_graph(rng, rng.randrange(4, 31), density=0.12)
        for ell in (2, 3):
            assert (forbidden.contains_theta(G, 2, ell) is not None) == (
                forbidden.contains_cycle(G, 2 * ell) is not None
            )


@pytest.mark.parametrize("K,ell", [(3, 2), (3, 3), (4, 2)])
def test_theta_matches_naive(K, ell):
    rng = random.Random(10 * K + ell)
    for _ in range(25):
        G = random_graph(rng, rng.randrange(5, 10), density=0.45)
        w = forbidden.contains_theta(G, K, ell)
        assert (w is not None) == naive_theta(G, K, ell)
        if w is not None:
            check_theta_witness(G, w, K, ell)


def test_theta_bipartite_fast_path_matches_naive():
    # random bipartite hosts of up to 20 vertices, their two sides
    # interleaved in index order, keep the exact 4-path filter honest
    rng = random.Random(314)
    hits = misses = 0
    for _ in range(36):
        nx, ny = rng.randrange(3, 11), rng.randrange(3, 11)
        perm = rng.sample(range(nx + ny), nx + ny)
        density = rng.choice((0.3, 0.4, 0.5))
        edges = [
            (perm[u], perm[nx + v])
            for u in range(nx)
            for v in range(ny)
            if rng.random() < density
        ]
        G = graph(nx + ny, edges)
        for K in (3, 4):
            w = forbidden.contains_theta(G, K, 4)
            assert (w is not None) == naive_theta(G, K, 4)
            if w is None:
                misses += 1
            else:
                hits += 1
                check_theta_witness(G, w, K, 4)
    assert hits >= 10 and misses >= 10


def path_counts(G, length):
    # (u, v) with u < v -> number of simple u-v paths of `length` edges
    counts = {}
    for u in range(G.n):
        stack = [(u,)]
        while stack:
            path = stack.pop()
            if len(path) <= length:
                stack.extend(path + (y,) for y in G.adj[path[-1]] if y not in path)
            elif path[-1] > u:
                counts[u, path[-1]] = counts.get((u, path[-1]), 0) + 1
    return counts


def test_theta_filter_keeps_the_generic_witness(monkeypatch):
    # random graphs and bipartite hosts of 6 to 22 vertices, the sides
    # interleaved in index order; every pair with K paths has an A_length
    # count of at least K, so the walk counts prove only free hosts free
    # and contains_theta returns _theta_generic's witness; the counts
    # equal the path counts for length <= 3 and for length 4 on
    # bipartite hosts; at the default cut every host here is below it
    # and takes _theta_generic alone
    rng = random.Random(7)
    seen = set()
    for i in range(60):
        if i % 2:
            G = random_graph(rng, rng.randrange(6, 23), rng.choice((0.15, 0.25, 0.35)))
        else:
            nx, ny = rng.randrange(3, 12), rng.randrange(3, 12)
            perm = rng.sample(range(nx + ny), nx + ny)
            density = rng.choice((0.3, 0.45, 0.6))
            G = graph(nx + ny, [(perm[u], perm[nx + v]) for u in range(nx)
                                for v in range(ny) if rng.random() < density])
        monkeypatch.setattr(forbidden, "_ROWS", rng.choice((4, 256)))
        for ell in (2, 3, 4):
            paths = path_counts(G, ell)
            walks = {}
            for row_of, block in forbidden._walk_blocks(G.csr, np.arange(G.n), ell):
                walks.update(((int(u), int(v)), int(c)) for u, v, c in
                             zip(row_of, block.indices, block.data) if v > u and c)
            if ell <= 3 or G.colouring is not None:
                assert walks == paths
            for K in (3, 4):
                assert {p for p, c in paths.items() if c >= K} <= \
                    {p for p, c in walks.items() if c >= K}
                want = forbidden._theta_generic(G, parse_pattern("theta_{%d,%d}" % (K, ell)))
                for _ in both_sides_of_the_cut(monkeypatch):
                    assert forbidden.contains_theta(G, K, ell) == want
                seen.add((K, ell, want is None))
    assert seen == {(K, ell, absent) for K in (3, 4) for ell in (2, 3, 4)
                    for absent in (True, False)}


def test_theta4_high_degree_host_takes_exact_filter(monkeypatch):
    # a star K_{1,300} has maximum degree 300, so its 4-walk counts are
    # far from int64's limit (D**4 < 2**63); the free bipartite hosts
    # must be proved free by the walk counts, never by the generic
    # search; with a disjoint K_{2,3}, A_2 reaches 3 and A_4 does not, so
    # only a proof that reads A_4 alone decides it
    star = [(0, leaf) for leaf in range(1, 301)]
    k23 = [(301 + h, 303 + leaf) for h in range(2) for leaf in range(3)]
    with_k23 = graph(306, star + k23)
    every = np.arange(with_k23.n)
    assert forbidden._walk_counts_reach(with_k23.csr, every, 2, 3)
    assert not forbidden._walk_counts_reach(with_k23.csr, every, 4, 3)
    reference = forbidden._theta_generic

    def no_generic(*args):
        raise AssertionError("free bipartite length-4 query reached _theta_generic")

    monkeypatch.setattr(forbidden, "_theta_generic", no_generic)
    assert forbidden.contains_theta(graph(301, star), 3, 4) is None
    assert forbidden.contains_theta(with_k23, 3, 4) is None
    monkeypatch.setattr(forbidden, "_theta_generic", reference)
    theta = theta_graph(3, 4)
    G = graph(301 + theta.n, star + [(301 + a, 301 + b) for a, b in theta.edges])
    w = forbidden.contains_theta(G, 3, 4)
    assert w is not None
    check_theta_witness(G, w, 3, 4)
    assert w == reference(G, parse_pattern("theta_{3,4}"))
    assert w["vertices"][:2] == [301, 302]


def test_theta4_without_candidates_builds_no_neighbour_lists():
    # every pair of C_300, and of the odd cycle C_301, has at most two
    # non-backtracking 4-walks, so the walk counts prove both free and
    # the path search never runs
    for G in (cycle_graph(300), cycle_graph(301)):
        assert forbidden.contains_theta(G, 3, 4) is None
        assert "csr" in G.__dict__ and "adj" not in G.__dict__


def test_theta_validation():
    G = cycle_graph(4)
    with pytest.raises(ValueError):
        forbidden.contains_theta(G, 1, 4)
    with pytest.raises(ValueError):
        forbidden.contains_theta(G, 3, 1)


# ------------------------------------------------------------ Berge cycles


def test_berge_frozen_examples():
    Hy = LabeledHypergraph(3, list("abcd"), [(0, 1, 2), (0, 1, 3)])
    w = forbidden.contains_berge_cycle(Hy, 2)
    assert w is not None
    check_berge_witness(Hy, w, 2)
    single = LabeledHypergraph(3, list("abc"), [(0, 1, 2)])
    assert forbidden.contains_berge_cycle(single, 2) is None
    fano = fano_plane()
    assert forbidden.contains_berge_cycle(fano, 2) is None  # lines meet once
    w3 = forbidden.contains_berge_cycle(fano, 3)
    assert w3 is not None  # any non-collinear point triple works
    check_berge_witness(fano, w3, 3)


def test_berge_validation():
    Hy = LabeledHypergraph(3, list("abc"), [(0, 1, 2)])
    with pytest.raises(ValueError):
        forbidden.contains_berge_cycle(Hy, 5)


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_berge_matches_naive(ell):
    rng = random.Random(60 + ell)
    for _ in range(30):
        n = rng.randrange(4, 9)
        edges = set()
        for _ in range(rng.randrange(1, 9)):
            edges.add(tuple(sorted(rng.sample(range(n), 3))))
        Hy = LabeledHypergraph(3, [f"v{i}" for i in range(n)], sorted(edges))
        w = forbidden.contains_berge_cycle(Hy, ell)
        assert (w is not None) == naive_berge(Hy, ell)
        if w is not None:
            check_berge_witness(Hy, w, ell)


def berge_kernel_hosts():
    # 3- and 4-uniform hosts of up to 30 vertices and 16 edges: dense
    # ones on few vertices hold Berge cycles of every length, sparse ones
    # on many vertices often hold none
    rng = random.Random(2003)
    hosts = [fano_plane()]
    for _ in range(60):
        m = rng.choice((3, 4))
        n = rng.randrange(m + 2, 31)
        edges = {tuple(sorted(rng.sample(range(n), m))) for _ in range(rng.randrange(2, 17))}
        hosts.append(LabeledHypergraph(m, [f"v{i}" for i in range(n)], sorted(edges)))
    return hosts


def incidence_graph(Hy):
    # vertex v is node v and edge i is node n + i, as in Hy.incidence
    return graph(Hy.n + len(Hy.edges),
                 [(v, Hy.n + i) for i, e in enumerate(Hy.edges) for v in e])


@pytest.mark.parametrize("rows", [256, 4])
def test_berge_walk_kernel_verdicts_match_ordered_search(monkeypatch, rows):
    # called on the incidence matrix directly, so these hosts below the
    # cut exercise it: the kernel scans the vertex rows only and answers
    # the first j at which walks enumerated from a vertex node reach 2;
    # where it answers None neither naive_berge nor the ordered search
    # finds a Berge cycle of the length asked for; for length 2 it is
    # exact, and for 3 and 4 its hits come with and without such a cycle
    monkeypatch.setattr(forbidden, "_ROWS", rows)
    seen = set()
    for Hy in berge_kernel_hosts():
        inc = incidence_graph(Hy)
        assert (Hy.incidence != inc.csr).nnz == 0
        walks = {(u, j): naive_nb_walks(inc, u, j) for u in range(Hy.n) for j in (2, 3, 4)}
        for L in (2, 3, 4):
            got = forbidden._walk_counts_reach(Hy.incidence, np.arange(Hy.n), L, 2)
            assert got is reaches_at_k(walks, Hy.n, L, 2)
            ordered = forbidden._berge_search(Hy, parse_pattern(f"bergeC_{L}"))
            if not got:
                assert ordered is None and not naive_berge(Hy, L)
            if L == 2:
                assert got == (ordered is not None)
            seen.add((L, got, ordered is not None))
    assert seen == {(L, hit, found) for L in (2, 3, 4)
                    for hit, found in ((False, False), (True, False), (True, True))} - {(2, True, False)}


def test_berge_walk_kernel_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    for Hy in berge_kernel_hosts():
        inc = nx.Graph()
        inc.add_nodes_from(range(Hy.n + len(Hy.edges)))
        inc.add_edges_from((v, Hy.n + i) for i, e in enumerate(Hy.edges) for v in e)
        for L in (2, 3, 4):
            want = any(len(c) == 2 * L for c in nx.simple_cycles(inc, length_bound=2 * L))
            assert (forbidden._berge_search(Hy, parse_pattern(f"bergeC_{L}")) is not None) == want
            assert want <= forbidden._walk_counts_reach(Hy.incidence, np.arange(Hy.n), L, 2)


def test_berge_cycles_are_incidence_graph_cycles(monkeypatch):
    # a Berge l-cycle is a cycle of 2l nodes in the incidence graph, and
    # the decider's witness is contains_cycle's first such cycle read
    # back: its vertex nodes are the core, its edge nodes the hyperedges
    rng = random.Random(1973)
    hosts = [constructions.build_berge3(9)[0]]
    for _ in range(40):
        m = rng.choice((3, 4))
        n = rng.randrange(m + 2, 13)
        edges = {tuple(sorted(rng.sample(range(n), m))) for _ in range(rng.randrange(2, 2 * n))}
        hosts.append(LabeledHypergraph(m, [f"v{i}" for i in range(n)], sorted(edges)))
    seen = set()
    for Hy in hosts:
        inc = incidence_graph(Hy)
        for L in (2, 3, 4):
            for _ in both_sides_of_the_cut(monkeypatch):
                cyc = forbidden.contains_cycle(inc, 2 * L)
                got = forbidden.contains_berge_cycle(Hy, L)
                if cyc is None:
                    assert got is None
                else:
                    assert got == {"pattern": "bergeC_%d" % L,
                                   "vertices": cyc["vertices"][0::2],
                                   "edges": [list(Hy.edges[i - Hy.n]) for i in cyc["vertices"][1::2]]}
                    check_berge_witness(Hy, got, L)
            seen.add((L, cyc is not None))
    assert seen == {(L, found) for L in (2, 3, 4) for found in (True, False)}


def test_berge_hits_above_the_cut_keep_the_ordered_witness():
    # berge3(17) holds no Berge cycle of length 2 to 4; five seeded
    # random triples on its last 30 vertices add every length, the kernel
    # reports a hit, and the decider returns the ordered search's witness;
    # its two-cycles lie on those last vertices, so a scan that skips
    # vertex rows misses them
    H = constructions.build_berge3(17)[0]
    rng = random.Random(5)
    edges = list(H.edges)
    for _ in range(5):
        edges.append(tuple(sorted(rng.sample(range(H.n - 30, H.n), 3))))
    Hy = LabeledHypergraph(3, H.vertices, edges)
    assert len(Hy.edges) >= forbidden._KERNEL_EDGES
    for L in (2, 3, 4):
        assert forbidden._walk_counts_reach(Hy.incidence, np.arange(Hy.n), L, 2)
        w = forbidden.contains_berge_cycle(Hy, L)
        assert w is not None and w == forbidden._berge_search(Hy, parse_pattern(f"bergeC_{L}"))
        check_berge_witness(Hy, w, L)


def test_hosts_below_the_cut_never_build_the_incidence_matrix(monkeypatch):
    # the oracle asks bergeC_2 and bergeC_3 of hosts with at most 18
    # vertices tens of thousands of times; they take the ordered search
    def refuse(self):
        raise AssertionError("incidence matrix built below the cut")

    monkeypatch.setattr(LabeledHypergraph, "incidence", property(refuse))
    res = oracle.exact_f(oracle.OracleQuery(
        4, 3, 2, (parse_pattern("bergeC_2"), parse_pattern("bergeC_3"))))
    assert res.status == "found"
    Hy = constructions.build_berge3(9)[0]
    assert len(Hy.edges) < forbidden._KERNEL_EDGES
    for L in (2, 3, 4):
        assert forbidden.contains_berge_cycle(Hy, L) is None


def test_berge_search_on_a_free_host_builds_no_edge_tuples():
    # the ordered search reads its edge nodes from the edge array, so
    # only a witness, rechecked by `_emit`, builds `edges`
    Hy = constructions.build_berge3(11)[0]
    assert len(Hy.edge_array) < forbidden._KERNEL_EDGES
    for L in (2, 3, 4):
        assert forbidden.contains_berge_cycle(Hy, L) is None
    assert "edges" not in Hy.__dict__


def test_graph_hosts_below_the_cut_never_build_the_adjacency_matrix(monkeypatch):
    # the oracle asks K_{2,t}, even cycles and theta of graphs with at
    # most 18 vertices thousands of times; they take the ordered search
    def refuse(self):
        raise AssertionError("adjacency matrix built below the cut")

    monkeypatch.setattr(LabeledHypergraph, "csr", property(refuse))
    for patterns in (["K_{2,2}"], ["C_4", "C_6"]):
        res = oracle.exact_f(oracle.OracleQuery(
            6, 2, 3, tuple(parse_pattern(p) for p in patterns)))
        assert res.status == "found" and res.value == 2
    G = theta_graph(3, 4)
    check_theta_witness(G, forbidden.contains_theta(G, 3, 4), 3, 4)
    assert forbidden.contains_theta(cycle_graph(10), 3, 4) is None


# -------------------------------------------------------- explicit pattern


def test_explicit_embedding():
    tri = cycle_graph(3)
    w = forbidden.contains_explicit(tri, [(0, 1), (1, 2)])
    assert w is not None
    k4_minus = graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    k4 = list(itertools.combinations(range(4), 2))
    assert forbidden.contains_explicit(k4_minus, k4) is None
    with pytest.raises(ValueError):
        forbidden.contains_explicit(tri, [(i, i + 1) for i in range(10)])


@pytest.mark.parametrize("edges, named", [
    (((0, 1), (1, 2), (2, 0), (1, 0)), "(1, 0)"),
    (((0, 1), (0, 1)), "(0, 1)"),
    (((0, 1, 2), (2, 3, 4), (4, 3, 2)), "(4, 3, 2)"),
], ids=["triangle-and-reversed-edge", "doubled-edge", "loose-path-and-reordered-edge"])
def test_explicit_pattern_refuses_a_repeated_edge(edges, named):
    # counted twice, a repeated edge would double its vertices' pattern
    # degree, and the degree cutoff would prune every host vertex: the
    # first pattern would read absent from a triangle, the third from the
    # loose path
    message = re.escape(f"pattern edge {named} appears twice")
    with pytest.raises(ValueError, match=message):
        ForbiddenPattern("explicit", (), edges)
    host = cycle_graph(3) if len(edges[0]) == 2 else LabeledHypergraph(
        3, "abcde", [(0, 1, 2), (2, 3, 4)])
    with pytest.raises(ValueError, match=message):
        forbidden.contains_explicit(host, edges)


def test_explicit_matches_naive():
    rng = random.Random(11)
    patterns = [
        [(0, 1), (1, 2), (2, 3)],
        [(0, 1), (1, 2), (2, 0), (2, 3)],
        list(itertools.combinations(range(4), 2)),
    ]
    for _ in range(25):
        G = random_graph(rng, rng.randrange(4, 10))
        for pat in patterns:
            got = forbidden.contains_explicit(G, pat)
            assert (got is not None) == naive_embed(G, pat)


def scan_embed(G, es, order, parent, pdeg, checks, phi, used, i):
    """`forbidden._embed` with every host vertex, ascending, as the
    candidates of every pattern vertex, as it searched before candidates
    came from a placed neighbour's ``adj``.  The reference for that cut."""
    if i == len(order):
        return True
    pv = order[i]
    for g in range(G.n):
        if g in used or G.degree(g) < pdeg[pv]:
            continue
        phi[pv] = g
        used.add(g)
        if all(
            tuple(sorted(phi[x] for x in e)) in es for e in checks[i]
        ) and scan_embed(G, es, order, parent, pdeg, checks, phi, used, i + 1):
            return True
        del phi[pv]
        used.remove(g)
    return False


# connected and disconnected patterns of each uniformity
EXPLICIT_PATTERNS = {
    2: [[(0, 1), (1, 2), (2, 3)], [(0, 1), (1, 2), (2, 0)], [(0, 1), (1, 2), (2, 3), (3, 0)],
        [(0, 1), (0, 2), (0, 3), (3, 4)], [(0, 1), (2, 3)], [(0, 1), (1, 2), (2, 0), (3, 4)],
        [(5, 6), (0, 1), (1, 2), (2, 3), (3, 0)]],
    3: [[(0, 1, 2), (2, 3, 4)], [(0, 1, 2), (0, 1, 3)], [(0, 1, 2), (2, 3, 4), (4, 5, 0)],
        [(0, 1, 2), (3, 4, 5)], [(0, 1, 2), (0, 1, 3), (4, 5, 6)]],
    4: [[(0, 1, 2, 3), (3, 4, 5, 6)], [(0, 1, 2, 3), (0, 1, 2, 4)], [(0, 1, 2, 3), (4, 5, 6, 7)]],
}


def explicit_hosts():
    # seeded random graphs and 3-uniform hypergraphs, then the frozen
    # witness records' hosts of up to 60 vertices
    from test_frozen_outputs import _bipartite_hosts, _random_hypergraph
    rng = random.Random(20261023)
    for _ in range(25):
        yield random_graph(rng, rng.randrange(4, 30), rng.choice((0.08, 0.15, 0.3)))
        n = rng.randrange(5, 20)
        pool = list(itertools.combinations(range(n), 3))
        yield LabeledHypergraph(3, [f"v{i}" for i in range(n)], rng.sample(pool, rng.randrange(1, 2 * n)))
    yield from (G for G in _bipartite_hosts(random.Random(20231018)) if G.n <= 60)
    rng = random.Random(20230831)
    for _ in range(40):
        m = rng.choice((3, 4))
        yield _random_hypergraph(rng, m, rng.randrange(m + 2, 13))


def test_explicit_witnesses_match_a_scan_of_every_vertex(monkeypatch):
    # taking candidates from a placed neighbour's adj leaves out only
    # vertices that no embedding can use there, so the first embedding
    # found, and its witness, stay the same
    found = {}
    for G in explicit_hosts():
        for pat in EXPLICIT_PATTERNS[G.m]:
            got = forbidden.contains_explicit(G, pat)
            with monkeypatch.context() as patch:
                patch.setattr(forbidden, "_embed", scan_embed)
                assert forbidden.contains_explicit(G, pat) == got
            connected = len(structures.components(LabeledHypergraph(
                G.m, range(1 + max(map(max, pat))), pat))) == 1
            found.setdefault((G.m, connected), set()).add(got is not None)
    assert all(verdicts == {True, False} for verdicts in found.values())
    assert set(found) == {(m, c) for m in (2, 3, 4) for c in (True, False)}


def test_theta_and_explicit_agree_with_networkx_vf2():
    # every verdict against VF2 subgraph monomorphisms (not induced), and
    # each witness is a copy: its edges are host edges on distinct vertices
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    rng = random.Random(2029)
    thetas = [(3, 2), (3, 3), (4, 2)]
    explicit = [
        [(0, 1), (1, 2), (2, 0), (2, 3)],
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)],
    ]
    seen = set()
    for _ in range(30):
        G = random_graph(rng, rng.randrange(6, 12), rng.choice((0.25, 0.4, 0.55)))
        host = nx.Graph()
        host.add_nodes_from(range(G.n))
        host.add_edges_from(G.edges)
        for label, pattern, got in (
                [(("theta", K, L), theta_graph(K, L).edges, forbidden.contains_theta(G, K, L))
                 for K, L in thetas]
                + [(("explicit", i), pat, forbidden.contains_explicit(G, pat))
                   for i, pat in enumerate(explicit)]):
            want = next(GraphMatcher(host, nx.Graph(pattern)).subgraph_monomorphisms_iter(), None)
            assert (got is not None) == (want is not None)
            if got is not None:
                assert all(host.has_edge(*e) for e in got["edges"])
                assert len(set(got["vertices"])) == len(got["vertices"])
            seen.add((label, got is not None))
    assert {found for _, found in seen} == {True, False}
    assert {label for label, found in seen if found} >= {("theta", 3, 2), ("theta", 3, 3), ("explicit", 0)}


# -------------------------------------------------------------- dispatcher


def test_check_pattern_dispatch():
    c6 = cycle_graph(6)
    assert forbidden.check_pattern(c6, "C_6") is not None
    assert forbidden.check_pattern(c6, "C_4") is None
    assert forbidden.check_pattern(c6, "K_{2,2}") is None
    assert forbidden.check_pattern(c6, parse_pattern("theta_{2,3}")) is not None
    fano = fano_plane()
    assert forbidden.check_pattern(fano, "bergeC_3") is not None
    with pytest.raises(ValueError):
        forbidden.check_pattern(c6, "bergeC_2")  # graph is not 3-uniform
    with pytest.raises(ValueError):
        forbidden.check_pattern(fano, "C_6")  # cycles need m=2
    pat = ForbiddenPattern(kind="explicit", params=(), edges=((0, 1), (1, 2)))
    assert forbidden.check_pattern(c6, pat) is not None


@pytest.mark.parametrize("host, pattern", [
    (lambda: complete_bipartite(2, 2), "K_{2,2}"),
    (lambda: cycle_graph(6), "C_6"),
    (lambda: theta_graph(3, 3), "theta_{3,3}"),
    (lambda: LabeledHypergraph(3, "abcd", [(0, 1, 2), (0, 1, 3)]), "bergeC_2"),
    (lambda: graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
     ForbiddenPattern("explicit", (), ((0, 1), (0, 2), (1, 2)))),
], ids=["K22", "C6", "theta33", "bergeC2", "triangle"])
def test_witness_gate_reads_the_edge_array_only(host, pattern):
    # the gate compares rows of `edge_array`; the tuple view `edges` stays unbuilt
    G = host()
    assert forbidden.check_pattern(G, pattern) is not None
    assert "edges" not in G.__dict__


def test_witness_gate_refuses_an_edge_the_host_lacks(monkeypatch):
    # a cycle search that proposes the non-edge (0, 2) of C_4
    monkeypatch.setattr(forbidden, "_cycles", lambda adj, length: iter([[0, 2, 1, 3]]))
    with pytest.raises(RuntimeError) as info:
        forbidden.contains_cycle(cycle_graph(4), 4)
    assert str(info.value) == "internal error: witness edge (0, 2) not present in host"
    # a Berge search that proposes (0, 1, 4): vertex 0 starts two host edges, neither this one
    Hy = LabeledHypergraph(3, "abcde", [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
    monkeypatch.setattr(forbidden, "_berge_search", lambda Hy, pat: forbidden._emit(
        Hy, pat, [0, 1], [(0, 1, 2), (1, 0, 4)]))
    with pytest.raises(RuntimeError) as info:
        forbidden.contains_berge_cycle(Hy, 2)
    assert str(info.value) == "internal error: witness edge (1, 0, 4) not present in host"


def test_recursive_searches_leave_no_reference_cycles():
    G = complete_bipartite(3, 4)
    calls = {
        "_pack_disjoint": lambda: forbidden._pack_disjoint(
            [(0, 1, 2), (0, 3, 2), (0, 1, 4, 2), (0, 5, 2)], 3),
        "contains_berge_cycle": lambda: forbidden.contains_berge_cycle(fano_plane(), 3),
        "contains_kst": lambda: forbidden.contains_kst(G, 3, 4),
        "contains_explicit": lambda: forbidden.contains_explicit(
            G, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        "property_B_check": lambda: structures.property_B_check(fano_plane(), (2, 1)),
        "exact_f": lambda: oracle.exact_f(oracle.OracleQuery(4, 2, 2, parse_pattern("C_4"))),
    }
    for call in calls.values():
        call()  # fills the graphs' cached layouts
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            for _ in range(100):
                call()
            assert gc.collect() == 0, name
    finally:
        gc.enable()
