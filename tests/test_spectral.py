"""Tests for splitforge.spectral.

Dense-path results are checked against graphs with known closed-form
spectra; the iterative path is checked against the cycle eigenvalue
formula 2*cos(2*pi*k/N).
"""

from __future__ import annotations

import gc
import json
import math
import random
import weakref
from collections import deque

import numpy as np
import pytest

from splitforge import forbidden, spectral
from splitforge.constructions import build_wenger
from splitforge.structures import LabeledHypergraph, verify_rk


def graph(n, edges):
    return LabeledHypergraph(2, [f"v{i}" for i in range(n)], edges)


def cycle_graph(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(s, t):
    return graph(s + t, [(i, s + j) for i in range(s) for j in range(t)])


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return graph(10, edges)


def circulant(n, steps):
    edges = set()
    for i in range(n):
        for s in steps:
            edges.add(tuple(sorted((i, (i + s) % n))))
    return graph(n, sorted(edges))


def bfs_distance(G, src, dst):
    if src == dst:
        return 0
    seen = {src}
    queue = deque([(src, 0)])
    while queue:
        u, dist = queue.popleft()
        for w in G.adj[u]:
            if w == dst:
                return dist + 1
            if w not in seen:
                seen.add(w)
                queue.append((w, dist + 1))
    return math.inf


# ---------------------------------------------------------------- spectrum


def test_spectrum_k33():
    s = spectral.spectrum(complete_bipartite(3, 3))
    assert s.n == 6 and s.d == 3 and s.bipartite
    expect = [3, 0, 0, 0, 0, -3]
    assert all(abs(a - b) < 1e-6 for a, b in zip(s.eigenvalues, expect))
    assert abs(s.rho) < 1e-6
    assert s.extremes is None


def test_spectrum_c4():
    s = spectral.spectrum(cycle_graph(4))
    expect = [2, 0, 0, -2]
    assert all(abs(a - b) < 1e-6 for a, b in zip(s.eigenvalues, expect))


def test_spectrum_petersen():
    s = spectral.spectrum(petersen())
    assert not s.bipartite
    expect = [3] + [1] * 5 + [-2] * 4
    assert all(abs(a - b) < 1e-6 for a, b in zip(s.eigenvalues, expect))
    assert abs(s.rho - 2) < 1e-6
    assert abs(s.rho1 - 3) < 1e-8


def test_spectrum_trace_identities():
    for G in [petersen(), complete_bipartite(4, 4), circulant(12, (1, 3)), cycle_graph(7)]:
        s = spectral.spectrum(G)
        assert abs(sum(s.eigenvalues)) < 1e-6
        sq = sum(x * x for x in s.eigenvalues)
        assert abs(sq - 2 * len(G.edges)) < 1e-6 * 2 * len(G.edges)
        assert abs(s.rho1 - s.d) < 1e-8  # all of these are connected


def test_spectrum_bipartite_symmetry():
    s = spectral.spectrum(build_wenger(1, 3))
    assert s.bipartite
    eig = s.eigenvalues
    assert all(abs(eig[i] + eig[len(eig) - 1 - i]) < 1e-6 for i in range(len(eig)))


def disjoint_union(*graphs):
    edges, off = [], 0
    for G in graphs:
        edges += [(u + off, v + off) for u, v in G.edge_array.tolist()]
        off += G.n
    return graph(off, edges)


def relabelled(G, rng):
    # the same graph with its vertices shuffled, so that the two sides
    # of a bipartite graph interleave
    perm = list(range(G.n))
    rng.shuffle(perm)
    return graph(G.n, [(perm[u], perm[v]) for u, v in G.edge_array.tolist()])


def matching_union(k, d, rng):
    # d random perfect matchings between two sides of k vertices, each
    # drawn again until it repeats no edge: a d-regular bipartite graph
    edges: set = set()
    for _ in range(d):
        while True:
            matching = {(i, k + p) for i, p in enumerate(rng.sample(range(k), k))}
            if not matching & edges:
                break
        edges |= matching
    return graph(2 * k, sorted(edges))


def bipartite_hosts():
    """Seeded bipartite regular graphs by name, built afresh on each call."""
    rng = random.Random(19)
    hosts = {f"C_{n}": cycle_graph(n) for n in (4, 6, 10, 16)}
    hosts.update({f"K_{d},{d}": complete_bipartite(d, d) for d in (1, 2, 3, 5)})
    hosts["C_4+C_6+C_10"] = relabelled(
        disjoint_union(cycle_graph(4), cycle_graph(6), cycle_graph(10)), rng)
    hosts["K_3,3+W_1(3)+K_3,3"] = relabelled(
        disjoint_union(complete_bipartite(3, 3), build_wenger(1, 3), complete_bipartite(3, 3)), rng)
    for k, d in ((7, 2), (9, 3), (12, 4), (20, 5)):
        hosts[f"matchings k={k} d={d}"] = relabelled(matching_union(k, d, rng), rng)
    hosts.update({f"edgeless {n}": graph(n, []) for n in (2, 5)})
    hosts.update({f"W_1({q})": build_wenger(1, q) for q in (3, 4, 5, 7)})
    hosts["W_2(3)"] = build_wenger(2, 3)
    return hosts


@pytest.mark.parametrize("name", sorted(bipartite_hosts()))
def test_bipartite_spectrum_matches_the_eigvalsh_oracle(name, solves):
    # test oracle: eigvalsh of the full dense adjacency matrix
    G = bipartite_hosts()[name]
    s = spectral.spectrum(G)
    assert s.bipartite and solves[1] == ["svd"]
    eig = s.eigenvalues
    n = len(eig)
    assert n == G.n
    want = np.linalg.eigvalsh(G.csr.toarray().astype(np.float64))[::-1]
    assert np.max(np.abs(np.array(eig) - want)) <= 1e-9
    assert all(a >= b for a, b in zip(eig, eig[1:]))
    assert all(eig[i] == -eig[n - 1 - i] for i in range(n))


def test_bipartite_spectrum_builds_no_neighbour_sets():
    # the colouring walks the `sadj` tuples, so `adj` is never built
    G = build_wenger(2, 5)
    s = spectral.spectrum(G)
    assert s.bipartite and G.colouring is not None
    assert "sadj" in G.__dict__ and "adj" not in G.__dict__


@pytest.mark.parametrize("G", [petersen(), cycle_graph(5)], ids=["Petersen", "C_5"])
def test_non_bipartite_spectrum_takes_eigvalsh(G, solves):
    s = spectral.spectrum(G)
    assert not s.bipartite and solves[1] == ["eigvalsh"]


def test_spectrum_iterative_path():
    n = 6000
    s = spectral.spectrum(cycle_graph(n))
    assert s.eigenvalues is None and s.extremes is not None
    assert s.bipartite
    assert abs(s.rho1 - 2) < 1e-6
    assert abs(s.rho2 - 2 * math.cos(2 * math.pi / n)) < 1e-6
    assert abs(s.rho_n + 2) < 1e-6
    assert abs(s.rho - s.rho2) < 1e-12


def test_spectrum_iterative_path_is_reproducible():
    # two graph objects with the same edges are solved separately and
    # must agree to the bit
    first, second = build_wenger(4, 5), build_wenger(4, 5)
    assert first is not second and first.edges == second.edges
    a, b = spectral.spectrum(first), spectral.spectrum(second)
    assert a is not b and a.eigenvalues is None
    assert a.extremes == b.extremes


def test_spectrum_shift_invert_fallback(monkeypatch):
    # with every Lanczos call stalled, shift-invert about d + 1e-3 and
    # -d - 1e-3 still finds the extremes of the 5002-cycle, 2,
    # 2 cos(2 pi / n) and -2; when it stalls too, spectrum raises
    # RuntimeError and caches nothing
    eigsh = spectral.eigsh
    calls = []

    def lanczos_stalls(A, **kw):
        calls.append((kw["which"], kw.get("sigma")))
        if kw.get("sigma") is None:
            raise spectral.ArpackNoConvergence("stalled", np.array([]), np.array([]))
        return eigsh(A, **kw)

    monkeypatch.setattr(spectral, "eigsh", lanczos_stalls)
    n = 5002
    s = spectral.spectrum(cycle_graph(n))
    assert calls == [("LA", None), ("LM", 2 + 1e-3), ("SA", None), ("LM", -2 - 1e-3)]
    assert abs(s.rho1 - 2) < 1e-8 and abs(s.rho_n + 2) < 1e-8
    assert abs(s.rho2 - 2 * math.cos(2 * math.pi / n)) < 1e-8

    def always_stalls(A, **kw):
        raise spectral.ArpackNoConvergence("stalled", np.array([]), np.array([]))

    monkeypatch.setattr(spectral, "eigsh", always_stalls)
    G = cycle_graph(n)
    with pytest.raises(RuntimeError, match="did not converge"):
        spectral.spectrum(G)
    assert G not in spectral._SPECTRA


def test_spectrum_validation():
    with pytest.raises(ValueError):
        spectral.spectrum(graph(3, [(0, 1)]))  # path, not regular
    with pytest.raises(ValueError):
        spectral.spectrum(LabeledHypergraph(3, ["a", "b", "c"], [(0, 1, 2)]))


@pytest.fixture
def solves(monkeypatch):
    """Counts dense solves, a symmetric eigensolve or an SVD: solves[0]
    is the total and solves[1] names the solver of each call in order."""
    count = [0, []]

    def counting(name):
        real = getattr(np.linalg, name)

        def counted(*args, **kw):
            count[0] += 1
            count[1].append(name)
            return real(*args, **kw)

        monkeypatch.setattr(np.linalg, name, counted)

    counting("eigvalsh")
    counting("svd")
    return count


def test_spectrum_solved_once_per_graph(solves):
    G = build_wenger(1, 7)
    s = spectral.spectrum(G)
    for U, W in (([0], [49]), (range(10), range(49, 60)), (range(49), range(49, 98))):
        assert spectral.mixing_check(G, U, W)["ok"]
    _, _, trace = spectral.greedy_split(G, 3, "K_{2,2}", sizes={"seed_size": 1})
    assert solves[0] == 1
    assert spectral.spectrum(G) is s
    assert trace.advisories["rho"] == s.rho


def test_spectrum_cache_keyed_by_graph_object(solves):
    G, H = build_wenger(1, 7), build_wenger(1, 7)
    assert G.edges == H.edges
    assert spectral.spectrum(G) == spectral.spectrum(H)
    assert solves[0] == 2


def test_spectrum_cache_entry_dies_with_graph():
    gc.collect()
    before = len(spectral._SPECTRA)
    G = build_wenger(1, 3)
    spectral.spectrum(G)
    assert len(spectral._SPECTRA) == before + 1
    ref = weakref.ref(G)
    del G
    gc.collect()
    assert ref() is None
    assert len(spectral._SPECTRA) == before


def test_spectrum_not_cached_for_irregular_graph(solves):
    G = graph(3, [(0, 1)])
    for _ in range(2):
        with pytest.raises(ValueError, match="not regular"):
            spectral.spectrum(G)
    assert G not in spectral._SPECTRA
    assert solves[0] == 0


# ------------------------------------------------------------ mixing_check


def test_mixing_k22_equality_case():
    out = spectral.mixing_check(complete_bipartite(2, 2), [0], [2], mode="bipartite")
    assert abs(out["lhs"]) < 1e-9
    assert abs(out["bound"]) < 1e-6
    assert out["ok"]


def test_mixing_petersen_full():
    G = petersen()
    out = spectral.mixing_check(G, range(10), range(10))
    assert abs(out["lhs"]) < 1e-9 and out["ok"]


def test_mixing_petersen_cut():
    G = petersen()
    out = spectral.mixing_check(G, range(5), range(5, 10))
    # e(outer, inner) = 5 spokes, expected 3*25/10 = 7.5, bound rho*5 = 10
    assert abs(out["lhs"] - 2.5) < 1e-9
    assert abs(out["bound"] - 10) < 1e-6
    assert out["ok"]


def test_mixing_bipartite_orientations():
    G = build_wenger(1, 3)
    a = spectral.mixing_check(G, [0, 1], [9, 10], mode="bipartite")
    b = spectral.mixing_check(G, [9, 10], [0, 1], mode="bipartite")
    assert a["ok"] and b["ok"]
    assert abs(a["lhs"] - b["lhs"]) < 1e-9


def test_mixing_random_pairs():
    rng = random.Random(11)
    for G in [petersen(), complete_bipartite(3, 3), build_wenger(1, 3), build_wenger(2, 3)]:
        n = G.n
        for _ in range(100):
            U = rng.sample(range(n), rng.randint(1, n))
            W = rng.sample(range(n), rng.randint(1, n))
            out = spectral.mixing_check(G, U, W)
            assert out["ok"], (G.n, sorted(U), sorted(W), out)


def test_mixing_validation():
    G = petersen()
    with pytest.raises(ValueError):
        spectral.mixing_check(G, [0], [1], mode="bipartite")  # not bipartite
    K = complete_bipartite(2, 2)
    with pytest.raises(ValueError):
        spectral.mixing_check(K, [0], [1], mode="bipartite")  # same class
    with pytest.raises(ValueError):
        spectral.mixing_check(K, [0, 2], [3], mode="bipartite")  # mixed
    with pytest.raises(ValueError):
        spectral.mixing_check(K, [0], [2], mode="typo")
    with pytest.raises(ValueError):
        spectral.mixing_check(K, [0], [99])


# ------------------------------------------------------------ greedy_split


def check_seed_distances(G_in, trace, parts):
    # step-2 seeds of the same part must be pairwise at distance >= 3 in
    # the input graph
    by_part: dict = {}
    for rec in trace.seeds:
        by_part.setdefault(rec["part"], []).append(rec["vertex"])
    assert sorted(by_part) == list(range(len(parts)))
    for vs in by_part.values():
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                assert bfs_distance(G_in, vs[i], vs[j]) >= 3


def test_greedy_split_wenger():
    G = build_wenger(1, 5)
    G2, P, trace = spectral.greedy_split(
        G, 8, "K_{2,2}", sizes={"seed_size": 2}, seed=None
    )
    rep = verify_rk(G2, P)
    assert rep.completeness_ok and rep.independence_ok
    assert forbidden.contains_kst(G2, 2, 2) is None
    check_seed_distances(G, trace, P.parts)

    # max s_i non-increasing, total s strictly decreasing across iterations
    maxes = [rec["max_s"] for rec in trace.iterations]
    assert all(a >= b for a, b in zip(maxes, maxes[1:]))
    totals = [
        sum(int(k) * v for k, v in rec["s_histogram"].items())
        for rec in trace.iterations
    ]
    assert all(a > b for a, b in zip(totals, totals[1:]))

    # step-4 vertices are fresh and have degree exactly 1
    for rec in trace.patches:
        v = rec["vertex"]
        assert v >= G.n
        assert G2.degree(v) == 1
        assert rec["attached_to"] < G.n
    assert trace.final_part_sizes == [len(part) for part in P.parts]

    records = trace.iteration_records()
    for rec in records:
        assert set(rec) == {"iter", "max_s", "added"}
    json.dumps(trace.to_json_dict())


def test_greedy_split_k88_seeding():
    G = complete_bipartite(8, 8)
    G2, P, trace = spectral.greedy_split(G, 4, "C_6", sizes={"seed_size": 1})
    rep = verify_rk(G2, P)
    assert rep.completeness_ok and rep.independence_ok
    assert all(len(part) >= 1 for part in P.parts)


def test_greedy_split_step4_only():
    G = complete_bipartite(8, 8)
    G2, P, trace = spectral.greedy_split(
        G, 4, "C_6", sizes={"seed_size": 1, "target_s": math.inf}
    )
    assert trace.iterations == []
    # parts are exactly the seeds plus one patch vertex per deficient pair
    assert len(trace.patches) == 6
    assert sum(len(part) for part in P.parts) == 4 + 6
    rep = verify_rk(G2, P)
    assert rep.completeness_ok and rep.independence_ok


def test_greedy_split_seed_size_zero_is_rejected():
    # an explicit 0 is not the default size (5 on W_1(5) with m = 3)
    with pytest.raises(ValueError, match="seed_size must be positive"):
        spectral.greedy_split(build_wenger(1, 5), 3, "K_{2,2}", sizes={"seed_size": 0})


def test_greedy_split_none_sizes_take_the_defaults():
    G = build_wenger(1, 7)

    def run(sizes):
        G2, P, trace = spectral.greedy_split(G, 3, "K_{2,2}", sizes=sizes, seed=1)
        return G2.edges, P.parts, trace.to_json_dict()

    want = run(None)
    keys = ("seed_size", "target_s", "max_iters")
    for sizes in [{k: None} for k in keys] + [dict.fromkeys(keys)]:
        assert run(sizes) == want


def test_greedy_split_h_freeness_invariant():
    G = build_wenger(1, 3)
    G2, P, trace = spectral.greedy_split(G, 3, "K_{2,2}", sizes={"seed_size": 2})
    assert forbidden.contains_kst(G2, 2, 2) is None
    rep = verify_rk(G2, P)
    assert rep.completeness_ok and rep.independence_ok

    W = build_wenger(2, 3)
    G3, P3, _ = spectral.greedy_split(W, 4, "C_6", sizes={"seed_size": 2})
    assert forbidden.contains_cycle(G3, 6) is None
    rep3 = verify_rk(G3, P3)
    assert rep3.completeness_ok and rep3.independence_ok


def test_greedy_split_seeding_infeasible():
    # the Petersen graph has diameter 2, so no two vertices are at
    # distance >= 3 and any part needing two seeds must fail
    with pytest.raises(RuntimeError):
        spectral.greedy_split(petersen(), 2, "C_5", sizes={"seed_size": 2})


def test_greedy_split_validation():
    G = build_wenger(1, 3)
    with pytest.raises(ValueError):
        spectral.greedy_split(G, 3, "K_{1,3}")  # degree-1 vertices in H
    with pytest.raises(ValueError):
        spectral.greedy_split(G, 3, "bergeC_3")
    with pytest.raises(ValueError):
        spectral.greedy_split(graph(3, [(0, 1)]), 2, "C_4")  # not regular
    with pytest.raises(ValueError):
        spectral.greedy_split(G, 9, "C_4", sizes={"seed_size": 2})  # m*seed > n/2
    with pytest.raises(ValueError):
        spectral.greedy_split(G, 3, "C_4", sizes={"seed_sise": 2})  # typo key


def test_greedy_split_determinism():
    G = build_wenger(1, 5)
    runs = [
        spectral.greedy_split(G, 8, "K_{2,2}", sizes={"seed_size": 2}, seed=42)
        for _ in range(2)
    ]
    a, b = runs
    assert a[0].to_json_dict() == b[0].to_json_dict()
    assert a[1].to_json_dict() == b[1].to_json_dict()
    assert a[2].to_json_dict() == b[2].to_json_dict()


def test_greedy_split_advisories():
    G = build_wenger(1, 5)
    _, _, trace = spectral.greedy_split(G, 8, "K_{2,2}", sizes={"seed_size": 2})
    adv = trace.advisories
    # n = 50, d = 5: a = log 5 / log 50 > 1/3, rho = sqrt(5) <= 2 sqrt(5)
    assert adv["a_lt_one_third"] is False
    assert adv["rho_le_two_sqrt_d"] is True
    assert abs(adv["rho"] - math.sqrt(5)) < 1e-6
