"""Tests for splitforge.constructions.

Oracles here avoid the gf tables wherever a prime field suffices: the
q = 3 and q = 5 instances are rebuilt with plain modular arithmetic and
compared edge for edge.  Over prime powers the oracles check each
family's equations with the field's scalar ops, never the builders'
array tables, and compare sets of edges, not their order.
"""

from __future__ import annotations

import json
import random
import re
import time
from itertools import combinations, product
from math import comb

import pytest

from splitforge import constructions as cons
from splitforge import forbidden, gf
from splitforge.structures import LabeledHypergraph, property_B_check, verify_rk


def label_map(G):
    return {lab: i for i, lab in enumerate(G.vertices)}


def degrees(G):
    return [G.degree(v) for v in range(G.n)]


def coords(label):
    """The coordinates of a label such as ``P:1,0,2``."""
    return tuple(map(int, label[2:].split(",")))


def field(q):
    return gf.make_field(*gf.prime_power(q))


def canonical_json(G, P, extra=None):
    payload = {"graph": G.to_json_dict(), "partition": P.to_json_dict()}
    if extra is not None:
        payload["stats"] = extra
    return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------- norm quotient


def test_norm_quotient_q3_matches_modular_oracle():
    G = cons.build_norm_quotient(3, 2, 1)
    assert G.n == 12
    # over F_3 the generator is 2, so coset index i encodes the element
    # 2^i; adjacency is x + y = 2^(i+j) with x + y nonzero
    expect = set()
    for x in range(3):
        for y in range(3):
            if (x + y) % 3 == 0:
                continue
            for i in range(2):
                for j in range(2):
                    if (x + y) % 3 == pow(2, i + j, 3):
                        expect.add(frozenset((f"P:{x},c{i}", f"L:{y},c{j}")))
    got = {
        frozenset((G.vertices[u], G.vertices[v])) for (u, v) in G.edges
    }
    assert got == expect
    assert set(degrees(G)) == {2}


@pytest.mark.parametrize("q, t, d", [(5, 3, 1), (3, 4, 1), (9, 2, 2), (7, 3, 3)])
def test_norm_quotient_labels_match_power_oracle(q, t, d):
    # N(z) = z^e by repeated multiplication, e = (q^(t-1) - 1)/(q - 1); its
    # label is k mod Q where N(z) = (theta^e)^k, found by stepping through
    # the powers of theta^e, with no log table
    p, s = gf.prime_power(q)
    F = gf.make_field(p, s * (t - 1))
    e = (F.q - 1) // (q - 1)
    Q = (q - 1) // d

    def power(x, k):
        acc = 1
        for _ in range(k):
            acc = F.mul(acc, x)
        return acc

    step, acc, exponent = power(F.theta, e), 1, {}
    for k in range(q - 1):
        exponent[acc] = k
        acc = F.mul(acc, step)
    assert acc == 1 and len(exponent) == q - 1
    # P:x,ci ~ L:y,cj when x + y != 0 and N(x + y) lies in coset i + j mod Q
    expect = set()
    for x in range(F.q):
        for y in range(F.q):
            z = F.add(x, y)
            if z == 0:
                continue
            c = exponent[power(z, e)] % Q
            for i in range(Q):
                expect.add(frozenset((f"P:{x},c{i}", f"L:{y},c{(c - i) % Q}")))
    G = cons.build_norm_quotient(q, t, d)
    assert {frozenset((G.vertices[u], G.vertices[v])) for u, v in G.edges} == expect


def test_norm_quotient_shapes():
    G = cons.build_norm_quotient(9, 2, 1)
    assert G.n == 144 and len(G.edges) == 576
    assert set(degrees(G)) == {8}
    assert forbidden.contains_kst(G, 2, 2) is None
    G2 = cons.build_norm_quotient(9, 2, 2)
    assert G2.n == 72 and len(G2.edges) == 288
    assert forbidden.contains_kst(G2, 2, 3) is None
    G3 = cons.build_norm_quotient(3, 3, 1)
    assert G3.n == 36 and len(G3.edges) == 144
    assert set(degrees(G3)) == {8}


def test_norm_quotient_validation():
    with pytest.raises(ValueError):
        cons.build_norm_quotient(4, 2, 1)
    with pytest.raises(ValueError):
        cons.build_norm_quotient(6, 2, 1)
    with pytest.raises(ValueError):
        cons.build_norm_quotient(9, 2, 5)
    with pytest.raises(ValueError):
        cons.build_norm_quotient(9, 1, 1)


def test_partition_norm_quotient_matching_q9():
    G, P, stats = cons.partition_norm_quotient(9, 2, 1, 4, 2)
    assert P.r == 18
    sizes = sorted(len(part) for part in P.parts)
    assert sizes == [8, 8] + [10] * 16
    assert P.declared_k == 10
    rep = verify_rk(G, P)
    assert rep.completeness_ok and rep.independence_ok
    assert forbidden.contains_kst(G, 2, 2) is None
    assert stats.strategy == "matching"
    assert stats.deficient_pairs == 36
    assert stats.skipped_merged_pairs == 2
    assert stats.patched_pairs == 34
    assert stats.fresh_vertices == 68
    assert stats.patch_edges == 34
    assert stats.internal_edges_deleted == 16
    assert stats.max_patch_per_part == 4
    assert stats.warnings == []


def test_partition_norm_quotient_greedy_q9():
    G, P, stats = cons.partition_norm_quotient(
        9, 2, 1, 4, 2, patch_strategy="greedy_reuse"
    )
    assert P.r == 18
    assert P.declared_k <= 10
    rep = verify_rk(G, P)
    assert rep.completeness_ok and rep.independence_ok
    assert forbidden.contains_kst(G, 2, 2) is None
    assert stats.patched_pairs + stats.reused_pairs == 34
    assert stats.reused_pairs > 0
    assert stats.fresh_vertices < 68


@pytest.mark.parametrize("t, count", [(2, 2), (2, 3), (3, 3)])
def test_patch_recheck_near_the_new_edge_matches_whole_graph(t, count):
    # random K_{t,count}-free patch graphs on scattered vertex ids, grown
    # one edge at a time; for every candidate edge between two of their
    # vertices the recheck on N(u) + N(v) gives the verdict of
    # contains_kst on the whole patch graph plus the edge
    rng = random.Random(11 * t + count)
    seen = set()
    for _ in range(12):
        ids = rng.sample(range(1000), rng.randrange(6, 15))
        adj = {x: set() for x in ids}

        def whole_free(u, v):
            index = {x: i for i, x in enumerate(ids)}
            edges = [(index[x], index[y]) for x in ids for y in adj[x] if x < y]
            G = LabeledHypergraph(2, ids, edges + [(index[u], index[v])])
            return forbidden.contains_kst(G, t, count) is None

        for _ in range(rng.randrange(10, 50)):
            u, v = rng.sample(ids, 2)
            if v in adj[u]:
                continue
            want = whole_free(u, v)
            assert cons._patch_graph_free(adj, u, v, t, count) == want
            seen.add(want)
            if want:
                adj[u].add(v)
                adj[v].add(u)
    assert seen == {True, False}


def test_partition_norm_quotient_other_instances():
    G, P, _ = cons.partition_norm_quotient(13, 2, 1, 4, 3)
    assert P.r == 39
    rep = verify_rk(G, P)
    assert rep.completeness_ok and rep.independence_ok
    assert forbidden.contains_kst(G, 2, 2) is None

    G2, P2, _ = cons.partition_norm_quotient(9, 2, 2, 2, 2)
    assert P2.r == 18
    rep2 = verify_rk(G2, P2)
    assert rep2.completeness_ok and rep2.independence_ok
    assert forbidden.contains_kst(G2, 2, 3) is None


def test_partition_norm_quotient_validation():
    with pytest.raises(ValueError):
        cons.partition_norm_quotient(9, 2, 1, 4, 3)  # h*a != 8
    with pytest.raises(ValueError):
        cons.partition_norm_quotient(9, 2, 1, 2, 4)  # a > h
    with pytest.raises(ValueError):
        cons.partition_norm_quotient(9, 2, 1, 4, 2, patch_strategy="bogus")


def test_partition_norm_quotient_determinism():
    a = cons.partition_norm_quotient(9, 2, 1, 4, 2, seed=7)
    b = cons.partition_norm_quotient(9, 2, 1, 4, 2, seed=7)
    assert canonical_json(a[0], a[1], a[2].to_json_dict()) == canonical_json(
        b[0], b[1], b[2].to_json_dict()
    )
    seeded = cons.partition_norm_quotient(9, 2, 1, 4, 2, seed=123)
    rep = verify_rk(seeded[0], seeded[1])
    assert rep.completeness_ok and rep.independence_ok


def test_norm_quotient_odd_power_warning():
    _, _, stats = cons.partition_norm_quotient(13, 2, 1, 4, 3)
    assert any("even power" in w for w in stats.warnings)
    _, _, stats9 = cons.partition_norm_quotient(9, 2, 1, 4, 2)
    assert stats9.warnings == []


# ----------------------------------------------------------------- wenger


def wenger_oracle_edges(M, q):
    # direct pairwise test of the defining equations, prime q only
    pts = list(product(range(q), repeat=M + 1))
    out = set()
    for p in pts:
        for l in pts:
            if all((l[j] + p[j]) % q == (l[j - 1] * p[0]) % q for j in range(1, M + 1)):
                lab_p = "P:" + ",".join(map(str, p))
                lab_l = "L:" + ",".join(map(str, l))
                out.add(frozenset((lab_p, lab_l)))
    return out


@pytest.mark.parametrize("M,q", [(1, 3), (2, 3), (2, 2)])
def test_wenger_matches_modular_oracle(M, q):
    G = cons.build_wenger(M, q)
    got = {frozenset((G.vertices[u], G.vertices[v])) for (u, v) in G.edges}
    assert got == wenger_oracle_edges(M, q)


@pytest.mark.parametrize("M,q", [(2, 4), (2, 8), (2, 9), (4, 4)])
def test_wenger_edges_satisfy_the_chain_over_prime_powers(M, q):
    # each (point, l_1) has one solution l, so q^(M+2) distinct edges that
    # all solve the chain are the whole solution set
    F = field(q)
    G = cons.build_wenger(M, q)
    assert len(G.edges) == q ** (M + 2)
    for u, v in G.edges:
        assert G.vertices[u][0] == "P" and G.vertices[v][0] == "L"
        p, l = coords(G.vertices[u]), coords(G.vertices[v])
        assert all(F.add(l[j], p[j]) == F.mul(l[j - 1], p[0]) for j in range(1, M + 1))


def test_wenger_shapes():
    G = cons.build_wenger(2, 3)
    assert G.n == 54 and len(G.edges) == 81
    assert set(degrees(G)) == {3}
    G2 = cons.build_wenger(2, 2)
    assert G2.n == 16 and set(degrees(G2)) == {2}
    G4 = cons.build_wenger(1, 4)
    assert G4.n == 32 and set(degrees(G4)) == {4}
    assert forbidden.contains_kst(G4, 2, 2) is None
    assert forbidden.contains_kst(cons.build_wenger(1, 3), 2, 2) is None
    with pytest.raises(ValueError):
        cons.build_wenger(0, 3)
    with pytest.raises(ValueError):
        cons.build_wenger(2, 6)


def test_partition_wenger_m2():
    G, P = cons.partition_wenger(2, 3)
    assert P.r == 9 and P.declared_k == 6
    assert len(G.edges) == 72
    rep = verify_rk(G, P)
    assert rep.completeness_ok and rep.independence_ok
    assert forbidden.contains_cycle(G, 6) is None
    # after removing the one internal edge per part, every pair of parts
    # is joined by exactly two edges (one in each orientation)
    part_of = {}
    for pi, part in enumerate(P.parts):
        for v in part:
            part_of[v] = pi
    counts = {}
    for (u, v) in G.edges:
        key = tuple(sorted((part_of[u], part_of[v])))
        counts[key] = counts.get(key, 0) + 1
    assert all(k[0] != k[1] for k in counts)
    assert set(counts.values()) == {2}
    assert len(counts) == comb(9, 2)


def test_partition_wenger_m2_q2():
    G, P = cons.partition_wenger(2, 2)
    assert P.r == 4 and P.declared_k == 4
    rep = verify_rk(G, P)
    assert rep.completeness_ok and rep.independence_ok


def test_partition_wenger_m4():
    G, P = cons.partition_wenger(4, 3)
    assert P.r == 27 and P.declared_k == 18
    assert G.n == 486 and len(G.edges) == 729 - 27
    rep = verify_rk(G, P)
    assert rep.completeness_ok and rep.independence_ok
    assert forbidden.contains_cycle(G, 10) is None


def test_partition_wenger_validation_and_seed():
    with pytest.raises(ValueError):
        cons.partition_wenger(3, 3)
    with pytest.raises(ValueError):
        cons.partition_wenger(1, 3)
    a = cons.partition_wenger(2, 3, seed=5)
    b = cons.partition_wenger(2, 3, seed=5)
    assert canonical_json(a[0], a[1]) == canonical_json(b[0], b[1])
    rep = verify_rk(a[0], a[1])
    assert rep.completeness_ok and rep.independence_ok


# ------------------------------------------------------------------ theta


def test_theta_q9():
    G, P = cons.build_theta(9)
    assert G.n == 13122
    assert P.r == 243 and P.declared_k == 54
    assert all(len(part) == 54 for part in P.parts)
    assert len(G.edges) == 9**5 - 243
    rep = verify_rk(G, P)
    assert rep.completeness_ok and rep.independence_ok

    full, P2 = cons.build_theta(9, reduce_parts=False)
    assert len(full.edges) == 9**5
    assert set(degrees(full)) == {9}
    # exactly one edge between every half-part pair: bucket by the final
    # merged parts and count
    part_of = {}
    for pi, part in enumerate(P2.parts):
        for v in part:
            part_of[v] = pi
    counts = {}
    for (u, v) in full.edges:
        key = tuple(sorted((part_of[u], part_of[v])))
        counts[key] = counts.get(key, 0) + 1
    diag = sum(1 for k in counts if k[0] == k[1])
    assert diag == 243
    off = {k: c for k, c in counts.items() if k[0] != k[1]}
    assert set(off.values()) == {2} and len(off) == comb(243, 2)


def test_theta_edges_satisfy_the_three_equations():
    # each (v, w1) has one solution w, so 9^5 distinct solving edges are
    # the whole solution set; the reduced graph keeps a subset of them
    F = field(9)
    full, _ = cons.build_theta(9, reduce_parts=False)
    assert len(full.edges) == 9**5
    for u, v in full.edges:
        assert full.vertices[u][0] == "P" and full.vertices[v][0] == "L"
        (v1, v2, v3, v4), (w1, w2, w3, w4) = coords(full.vertices[u]), coords(full.vertices[v])
        assert w2 == F.sub(F.mul(v1, w1), v2)
        assert w3 == F.sub(F.mul(F.mul(v1, v1), w1), v4)
        assert w4 == F.sub(F.mul(v1, F.mul(w1, w1)), v3)
    theta_edges = set(map(tuple, cons.build_theta(9)[0].edge_array.tolist()))
    assert theta_edges <= set(map(tuple, full.edge_array.tolist()))


def test_theta_determinism_and_validation():
    a = cons.build_theta(9)
    b = cons.build_theta(9)
    assert canonical_json(a[0], a[1]) == canonical_json(b[0], b[1])
    for bad in (3, 4, 2, 27, 12):
        with pytest.raises(ValueError):
            cons.build_theta(bad)


# ----------------------------------------------------------------- berge3


def test_berge3_q5_matches_modular_oracle():
    G, P = cons.build_berge3(5)
    assert G.n == 20 and len(G.edges) == comb(5, 3)
    inv2 = 3  # 2 * 3 = 6 = 1 mod 5
    banned = {(x, (inv2 * x * x) % 5) for x in range(5)}
    verts = [(x, y) for x in range(5) for y in range(5) if (x, y) not in banned]
    expect = set()
    for tri in combinations(verts, 3):
        firsts = {v[0] for v in tri}
        if len(firsts) != 3:
            continue
        if all(
            (x2 + y2) % 5 == (x1 * y1) % 5
            for (x1, x2), (y1, y2) in combinations(tri, 2)
        ):
            expect.add(frozenset(f"B:{a},{b}" for (a, b) in tri))
    got = {frozenset(G.vertices[v] for v in e) for e in G.edges}
    assert got == expect

    assert P.r == 5 and P.declared_k == 4
    rep = verify_rk(G, P)
    assert rep.completeness_ok and rep.independence_ok


@pytest.mark.parametrize("q", [9, 27])
def test_berge3_triples_satisfy_the_pair_relations(q):
    # in odd characteristic a triple of first coordinates fixes the
    # second ones, so one solving triple per 3-set is the solution set
    F = field(q)
    G, _ = cons.build_berge3(q)
    half = F.inv(2)
    assert all(x2 != F.mul(half, F.mul(x1, x1)) for x1, x2 in map(coords, G.vertices))
    triples = [sorted(coords(G.vertices[v]) for v in e) for e in G.edges]
    assert sorted(tuple(x1 for x1, _ in tri) for tri in triples) == list(combinations(range(q), 3))
    for tri in triples:
        for (x1, x2), (y1, y2) in combinations(tri, 2):
            assert F.add(x2, y2) == F.mul(x1, y1)


@pytest.mark.parametrize("q", [5, 9])
def test_berge3_freeness(q):
    G, P = cons.build_berge3(q)
    assert G.n == q * q - q and len(G.edges) == comb(q, 3)
    rep = verify_rk(G, P)
    assert rep.completeness_ok and rep.independence_ok
    for ell in (2, 3, 4):
        assert forbidden.contains_berge_cycle(G, ell) is None


def test_berge3_validation():
    for bad in (4, 8, 2, 6):
        with pytest.raises(ValueError):
            cons.build_berge3(bad)


# ----------------------------------------------------------------- designs


def test_design_catalog():
    fano = cons.design_catalog("fano")
    assert fano.m == 2 and fano.r == 7 and fano.t == 3
    assert len(fano.blocks) == 7
    ag = cons.design_catalog("AG(2,3)")
    assert ag.r == 9 and ag.t == 3 and len(ag.blocks) == 12
    assert cons.design_catalog("STS(9)").blocks == ag.blocks
    pg2 = cons.design_catalog("PG(2,2)")
    assert pg2.r == 7 and pg2.t == 3 and len(pg2.blocks) == 7
    pg4 = cons.design_catalog("PG(2,4)")
    assert pg4.r == 21 and pg4.t == 5 and len(pg4.blocks) == 21
    triv = cons.design_catalog("all-3-subsets(5,3)")
    assert triv.m == 3 and triv.t == 3 and len(triv.blocks) == 10
    for bad in ["PG(2,6)", "PG(2,37)", "AG(2,1)", "all-3-subsets(5,2)", "nope"]:
        with pytest.raises(ValueError):
            cons.design_catalog(bad)


@pytest.mark.parametrize("q", [4, 8])
def test_pg_blocks_are_the_projective_lines(q):
    F = field(q)
    # the catalog's point order
    points = ([(x, y, 1) for x in range(q) for y in range(q)]
              + [(x, 1, 0) for x in range(q)] + [(1, 0, 0)])
    lines = {
        frozenset(i for i, pt in enumerate(points)
                  if F.add(F.add(F.mul(a[0], pt[0]), F.mul(a[1], pt[1])), F.mul(a[2], pt[2])) == 0)
        for a in product(range(q), repeat=3) if any(a)
    }
    blocks = cons.design_catalog(f"PG(2,{q})").blocks
    assert len(blocks) == len(lines) == q * q + q + 1
    assert {frozenset(b) for b in blocks} == lines


def test_design_instance_validation():
    # a pair covered twice must be rejected
    with pytest.raises(ValueError):
        cons.DesignInstance(2, 4, 3, ((0, 1, 2), (0, 1, 3)))
    # a pair never covered must be rejected
    with pytest.raises(ValueError):
        cons.DesignInstance(2, 5, 3, ((0, 1, 2),))


def test_build_design_split_fano():
    fano = cons.design_catalog("fano")
    G, P = cons.build_design_split(fano, 2)
    assert G.n == 21 and len(G.edges) == 21
    assert P.r == 7 and P.declared_k == 3
    assert all(len(part) == 3 for part in P.parts)
    rep = verify_rk(G, P)
    assert rep.completeness_ok and rep.independence_ok
    from splitforge.structures import components

    assert max(map(len, components(G))) == 3


def test_build_design_split_more():
    ag = cons.design_catalog("AG(2,3)")
    G, P = cons.build_design_split(ag, 2)
    assert all(len(part) == 4 for part in P.parts)
    rep = verify_rk(G, P)
    assert rep.completeness_ok and rep.independence_ok

    triv = cons.design_catalog("all-3-subsets(5,3)")
    G3, P3 = cons.build_design_split(triv, 3)
    assert G3.m == 3 and G3.n == 30 and len(G3.edges) == 10
    assert all(len(part) == 6 for part in P3.parts)
    rep3 = verify_rk(G3, P3)
    assert rep3.completeness_ok and rep3.independence_ok

    with pytest.raises(ValueError):
        cons.build_design_split(ag, 3)


# ------------------------------------------------------------- property B


def test_property_b_bipartite():
    G, P = cons.build_property_B(2, (1, 1), 4)
    assert G.n == 8 and len(G.edges) == 6
    assert P.r == 4 and P.declared_k == 2
    rep = verify_rk(G, P)
    assert rep.completeness_ok and rep.independence_ok
    assert property_B_check(G, (1, 1)) is True


def test_property_b_profiles():
    G, P = cons.build_property_B(3, (2, 1), 4)
    assert P.r == 4 and P.declared_k == 2
    rep = verify_rk(G, P)
    assert rep.completeness_ok and rep.independence_ok
    color = {v: int(re.match(r"p\d+c(\d+)", G.vertices[v]).group(1)) for v in range(G.n)}
    for e in G.edges:
        cols = sorted(color[v] for v in e)
        assert cols == [0, 0, 1]
    assert property_B_check(G, (2, 1)) is True

    G3, P3 = cons.build_property_B(3, (1, 1, 1), 3)
    assert P3.r == 3 and P3.declared_k == 3 and len(G3.edges) == 1
    rep3 = verify_rk(G3, P3)
    assert rep3.completeness_ok and rep3.independence_ok


def test_property_b_validation():
    with pytest.raises(ValueError):
        cons.build_property_B(3, (2, 1), 2)  # r < m
    with pytest.raises(ValueError):
        cons.build_property_B(3, (2, 0, 1), 4)
    with pytest.raises(ValueError):
        cons.build_property_B(3, (2, 2), 4)


# ------------------------------------------------------------ size ceiling


@pytest.mark.parametrize("build, args, message", [
    (cons.build_wenger, (40, 2), "wenger W_40(2) would have 2^42 edges"),
    (cons.wenger_host, (40, 2), "wenger W_40(2) would have 2^42 edges"),
    (cons.build_wenger, (10**9, 3), "wenger W_1000000000(3) would have 3^1000000002 edges"),
    (cons.partition_wenger, (4, 13), "wenger W_4(13) would have 4826809 edges"),
    (cons.build_norm_quotient, (3, 12, 2), "norm-quotient q=3 t=12 d=2 would have "
                                           "31381059609 field-table cells"),
    (cons.build_norm_quotient, (1031, 2), "norm-quotient q=1031 t=2 d=1 would have "
                                          "1093787900 edges"),
    (cons.partition_norm_quotient, (1031, 2, 1, 1030, 1), "1093787900 edges"),
    (cons.build_theta, (25,), "theta q=25 would have 9765625 edges"),
    (cons.theta_host, (25,), "theta q=25 would have 9765625 edges"),
    (cons.build_berge3, (343,), "berge3 q=343 would have 6666891 edges"),
    (cons.design_catalog, ("all-10-subsets(60,10)",),
     "all-10-subsets(60,10) would have 75394027566 blocks"),
    (cons.design_catalog, ("all-5000000-subsets(10000000,5000000)",),
     "would have C(10000000,5000000) blocks"),
    (cons.build_property_B, (10, (5, 5), 60), "property-B m=10 r=60 would have 75394027566 edges"),
    (cons.build_property_B, (2, (1, 1), 10**8), "property-B m=2 r=100000000 would have "
                                                "C(100000000,2) edges"),
])
def test_oversized_hosts_are_refused_before_any_allocation(monkeypatch, build, args, message):
    def no_field(*_):
        raise AssertionError("a field was built for a refused host")

    monkeypatch.setattr(gf, "make_field", no_field)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        build(*args)
    assert time.perf_counter() - start < 1.0
    assert str(info.value).endswith(f"above the ceiling of {cons._MAX_EDGES}")


class _Admitted(Exception):
    pass


@pytest.mark.parametrize("build, args", [
    (cons.partition_wenger, (2, 27)),  # 531,441 edges, the largest host built anywhere
    (cons.partition_norm_quotient, (81, 2, 1, 10, 8)),
    (cons.build_theta, (9,)),
    (cons.build_berge3, (49,)),
])
def test_size_ceiling_admits_the_hosts_in_use(monkeypatch, build, args):
    # the size check passes and the builder goes on to build its field
    def admitted(*_):
        raise _Admitted

    monkeypatch.setattr(gf, "make_field", admitted)
    with pytest.raises(_Admitted):
        build(*args)
