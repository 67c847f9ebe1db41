"""Frozen outputs: payload digests and decider witnesses must not move.

A refactor keeps every payload byte and every witness.  A change to the
builders, the JSON layout or a decider's search order changes a digest
here; such a change must say why and re-record the value in the same
commit.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from itertools import combinations

import pytest

from splitforge import cli, constructions, forbidden, spectral
from splitforge.oracle import OracleQuery, exact_f
from splitforge.structures import LabeledHypergraph

# the construction recipes of acceptance test c11, plus a seeded and two
# even-characteristic Wenger splits, theta with its internal edges kept
# and a greedy norm-quotient patch against K_{3,3}, two norm-quotient
# splits over a proper subgroup (d > 1), the PG(2,4) and AG(2,4) designs,
# berge3 over GF(27), W_2(8), a t = 4 norm-quotient split, an unseeded
# norm-quotient split (psi takes the first a group labels), a greedy
# norm-quotient patch over GF(25), a seeded W_4(3) and the trivial design
# all-3-subsets(6,3), with their payload sha256 for the graph and the
# partition document
RECIPES = {
    "w2_3": (["wenger", "--M", "2", "--q", "3"],
            "e17cb8b592d24909c6cf79bb1d80dab8512929693ab38a8f3bfe4094f6b12914",
            "e1212a7e89a4b589d54d207d9c4416c152e0ab034fe9ca93b747609b22428f86"),
    "w2_9": (["wenger", "--M", "2", "--q", "9"],
            "4ecb8e561081cd6a86d385e11a02c17036b2879f5b7d1840a6b982b6b1d2db7a",
            "9610ee9f58a5cf7a152f4dc8652df47e71adf6bb8cb4a121526694e9f09b4912"),
    "w4_3": (["wenger", "--M", "4", "--q", "3"],
            "807df39da605bf85d48150ef3ba7a49358b3ea45024e1b8525df4820949e2e3c",
            "324358b2908dff0461006e27f8aaa8b407ba3ce27d90824878482a48a90e3c2e"),
    "nq_9": (["norm-quotient", "--q", "9", "--t", "2", "--d", "1",
              "--h", "4", "--a", "2", "--seed", "7"],
            "2b38bd482d03c5a698585871d64a519064ded526d02d07eb1317dd33bcf18ad7",
            "bd1e7536554c4060b70d0f666e30bc76db586375a66e37d48d7ddc18e0a358d6"),
    "nq_9_greedy": (["norm-quotient", "--q", "9", "--t", "2", "--d", "1",
                     "--h", "4", "--a", "2", "--seed", "7",
                     "--patch-strategy", "greedy_reuse"],
            "33de22e6e62bb15da9d90f6c808fbeffede9e35fe99f586de982cf595a19f92b",
            "071f958750b668fb63d27498a0b1a85601953b231b3f7b7bbaad14356d060653"),
    "nq_7_t3_greedy": (["norm-quotient", "--q", "7", "--t", "3", "--d", "1",
                        "--h", "3", "--a", "2", "--seed", "3",
                        "--patch-strategy", "greedy_reuse"],
            "6bf490f64a673b7d6c302465f0f3946d082eab478fe416277b7810e3f404350e",
            "9b1c138bb3d606797316491c9dc27f0fb8b2cdc71456d396bae617e09f00a64c"),
    "nq_9_d2": (["norm-quotient", "--q", "9", "--t", "2", "--d", "2",
                 "--h", "2", "--a", "2", "--seed", "7"],
            "1fa9c6ed90d54495c34d40e461279a9054b7bb0b1e559b1d7450adecfc678a61",
            "6fb72f670d8da62941cf8b062dd2123b87d59052badccb90f505bd02920c7890"),
    "nq_7_t3_d3_greedy": (["norm-quotient", "--q", "7", "--t", "3", "--d", "3",
                           "--h", "2", "--a", "1", "--seed", "3",
                           "--patch-strategy", "greedy_reuse"],
            "bcb71ddb8fc8bec2af7eb874b7af471b1a5d1e0af8488ab9dbdcf735c305133b",
            "c4e9641d4d7b8bb5728f8a032d19821db0f495bb726b42e07806054431c0efc6"),
    "nq_25":(["norm-quotient", "--q", "25", "--t", "2", "--d", "1",
               "--h", "6", "--a", "4", "--seed", "7"],
            "bbd7c690a7c1e980082f606e437db1a062754f6f74ce63ac332f43677a3ab6f0",
            "a966e662798f3f0c0080c19f060d4e454b6405f5cd24be821f4e376d222f4cf2"),
    "w2_5_seed3": (["wenger", "--M", "2", "--q", "5", "--seed", "3"],
            "c31ac78c5b06be06647012af09c4c49d7c1bfef8d0a3bc3934b37430f6be22e4",
            "7c28281b5ebc03c0a02663b11961b05a91cf77c0cf5788a8e972507597d4156b"),
    "w2_4": (["wenger", "--M", "2", "--q", "4"],
            "fe22e6213fae95794029e15820400cc0836ae9aa23d216e392e7f4c96ecf27d0",
            "e78c3acb28b296ef758e479359f958cca97f61b7bd896d9d60e638e2c6e5c574"),
    "w4_2": (["wenger", "--M", "4", "--q", "2"],
            "a29ab562d29ab23e45e658b28b7ebbaaac64810e0952a22ed40741dae2d37f73",
            "6dcf4c6094a117cc63a10298ba9658efffcbccc4b42bd1c06bbdaa8f34cc0d59"),
    "theta9": (["theta", "--q", "9"],
            "8ca7ae5fd945de94bf730c33a655788e126a1d78e7ed9aeba88cd9a9b0aa4e3d",
            "fb583951ddbd4e8d821b39a352749da771ea45c874e7bf3b3d4cc7c0204afafc"),
    "theta9_keep": (["theta", "--q", "9", "--keep-internal-edges"],
            "f820f7bcced7c1455e2c557846606b0b52b62899e54dbe11d8f1c870172017b8",
            "fb583951ddbd4e8d821b39a352749da771ea45c874e7bf3b3d4cc7c0204afafc"),
    "b3_9": (["berge3", "--q", "9"],
            "0483ba925e5d9f6e519cdcba4e9e1a826773761135e6ab489ea27a52bcd59d1f",
            "3595948c90e6e4319ac9f7d6dd493db016d6123f82d79c61b22c63117e21fc1e"),
    "b3_25": (["berge3", "--q", "25"],
            "b04c52e2bffd81e5a6b6c6cdd168cb7833ae6c42da55901de40cc4b31118ae5a",
            "678b478dd961ea31147d7383fbabf6f1c972e1b0cc8617074ac9f25465ea8940"),
    "fano": (["design", "--id", "fano"],
            "a2a502b79f9c9db5298c8b6c4a869646a396860049f5f7d412f482118b9f5643",
            "9040bae989a181276a135bc808ad490e2b57a8544d21a070fe2a5eca6d741e0d"),
    "ag23": (["design", "--id", "AG(2,3)"],
            "e7e9b3b7c7412b0a0ca1b0a6376071609c0a350711cb99ca702e74c5336da7a2",
            "b2ea30c7c47638ee79578c0885e4466470df040af4d9352c3e1f49b4e930a564"),
    "pb": (["property-B", "--m", "3", "--c", "2,1", "--r", "6"],
            "266216aeef67d3ddb71419671dfed66afa41ca3bf9ad763c8e4899d727ac66cf",
            "c82c848e84e711bb51a75e64db8794225d3f3e64bdf623ab4706ac0267b56629"),
    "pg24": (["design", "--id", "PG(2,4)"],
            "759fa68d7f41dc5227c8750c88be0dc1427402eb513b780439fc252e1cfd792a",
            "bc0b604ac94c80235426f4404e37f1e62b221840f4766b7c2ea931d5250b2724"),
    "ag24": (["design", "--id", "AG(2,4)"],
            "0748a2dfa6f89e219435ba6067f1dba7c8564de02953ffbf1a139e91e2f8ec61",
            "8fa7b200e657532daef873f28f9b743c56000f91a861517b28b89487f2e70dca"),
    "b3_27": (["berge3", "--q", "27"],
            "ece97dad838e94a8cfedc5c37477cb1360bed2af42b2329c88650e8b96cc8df1",
            "6d565f9a6ab9b627d4a4e2e6aec5f90dff28c305ac171fd33953068ba8d7b699"),
    "w2_8": (["wenger", "--M", "2", "--q", "8"],
            "8d961b3ad7e4efe3d6535a215afa297f55069357e8a34267d6b4b85f417b9ea2",
            "61c025c11fad5d24fdbc3f8cc429c5ffebfde863ae96c7038894fd5e3293e980"),
    "nq_5_t4": (["norm-quotient", "--q", "5", "--t", "4", "--d", "1",
                 "--h", "2", "--a", "2", "--seed", "1"],
            "48c82ddf9c2decc9255d3276d201023fc1b1bcf082658806e2c79d34c3a4bf19",
            "44b9f05fb71993ed5b6db0d78749930dd51b77f6b6c1ea8f60e151422698c9ed"),
    "nq_9_noseed": (["norm-quotient", "--q", "9", "--t", "2", "--d", "1",
                     "--h", "4", "--a", "2"],
            "769e6cf867f43825aeee8b0f64f4f0b196a4939773281bd2159b9be57340125e",
            "72aef8d3e60b9deea5ccdd92dda082b980d9e20867e8d534c9e3cd8144b6968b"),
    "nq_25_greedy": (["norm-quotient", "--q", "25", "--t", "2", "--d", "1",
                      "--h", "6", "--a", "4", "--seed", "7",
                      "--patch-strategy", "greedy_reuse"],
            "f1fb14e970753ae63ef807aa385575c63a412971a0121bfddc4f29c47a5867f6",
            "3ab3361a407efddd1b65442906e2f4879fdd34f76b225f78f7665232282fb0ff"),
    "w4_3_seed5": (["wenger", "--M", "4", "--q", "3", "--seed", "5"],
            "d5c7efe2cba1070da105ab5f9d5e6c7c87e17230edda8d03254e1dc7f4d527dd",
            "78e444f1a30111ed4e871edba7c16d818901dde19483b5bc30d126cf9de776af"),
    "all3_6": (["design", "--id", "all-3-subsets(6,3)"],
            "f2c3f9c0b8ca40fecf37fbd57958938296d95a6123ca074d8009ca0f7b9fb42b",
            "5609a919d7592abe8e4e0bfc17ffe2de88616740b5c746357e6ebe584a55075c"),
}

WITNESS_DIGEST = "5321f9bc661eb76aa5b717716224319bd5f985a62de51b62b6cd96a66a721576"

# sha256 of the Berge record's length-2 entries, then of its length-3 and
# length-4 entries
BERGE2_WITNESS_DIGEST = "fb1bc1cb5c02012cbc2a4403ee62a87162b9e0622e0bafe890e9d072bc7a8e93"
BERGE34_WITNESS_DIGEST = "0db295604d448a56395c5cbb9135c96a7554f58e2d584551923e4e67dea6b230"

# sha256 of `contains_explicit` on seeded random graphs and 3- and 4-uniform
# hypergraphs, each against its uniformity's `_EXPLICIT_PATTERNS`
EXPLICIT_WITNESS_DIGEST = "4be2e02cf77f0f39bdf206d1e25f88099d040405839bf9ee48fff81818978216"

BIPARTITE_WITNESS_DIGEST = "c2266c6039202edb9bfe82c9f08c73e861a192e9444de5b31d34a572a68ba4a3"

# re-recorded when dense bipartite spectra moved to the singular values of
# the biadjacency block: advisories["rho"] moved in its last bits
GREEDY_DIGEST = "97c70c2c0fdcc317a0373cb4739c714be9b2f85750fb8f03097efaa7c0a1ec48"
# the same record with each trace's advisories["rho"] dropped: the splits
# rest on no spectrum bit, so a change of eigensolver leaves this alone
GREEDY_NO_RHO_DIGEST = "4dcbcbfb1864ef64b8ee7d6af915ddbaf303b5821e3129a7c43551d4cc8fd433"

# sha256 of the iterative path's extremes triple, JSON-encoded, per Wenger host
EXTREMES_DIGEST = {
    (4, 5): "b6fd50b894cc9888bbf82f5893cf1a163f4df509a66b198ad61a262b5a6f1605",
    (2, 17): "ff905b5b30b157d426edf702236cb0ac364f1d76e84343d6f7628bf7cac05794",
}


def _payload_sha(path) -> str:
    return json.loads(path.read_text(encoding="utf-8"))["provenance"]["payload_sha256"]


def test_construct_payload_digests_frozen(tmp_path):
    got = {}
    for tag, (args, _, _) in RECIPES.items():
        g, p = tmp_path / f"{tag}_g.json", tmp_path / f"{tag}_p.json"
        assert cli.main(["construct", *args, "--out", str(g), "--partition", str(p)]) == 0
        got[tag] = (_payload_sha(g), _payload_sha(p))
    assert got == {tag: (gd, pd) for tag, (_, gd, pd) in RECIPES.items()}


@pytest.mark.parametrize("M, q, seed", [(2, 5, 3), (2, 4, None), (4, 2, None),
                                         (2, 9, 0), (4, 3, 1)])
def test_wenger_split_drops_one_edge_per_part(M, q, seed):
    G, P = constructions.partition_wenger(M, q, seed)
    assert len(constructions.build_wenger(M, q).edges) - len(G.edges) == P.r


def _random_graph(rng, n, density):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    return LabeledHypergraph(2, [f"v{i}" for i in range(n)], edges)


def _random_bipartite(rng, nx, ny, density):
    edges = [(u, nx + v) for u in range(nx) for v in range(ny) if rng.random() < density]
    return LabeledHypergraph(2, [f"v{i}" for i in range(nx + ny)], edges)


def _witness_record() -> list:
    rng = random.Random(20230831)
    out = []
    for _ in range(60):
        G = _random_graph(rng, rng.randrange(5, 15), rng.choice((0.15, 0.25, 0.35, 0.5)))
        for L in range(3, 8):
            out.append(["C", L, forbidden.contains_cycle(G, L)])
        for K, ell in ((3, 2), (3, 3), (4, 2)):
            out.append(["theta", K, ell, forbidden.contains_theta(G, K, ell)])
        for t in (2, 3, 4):
            out.append(["K2t", t, forbidden.contains_kst(G, 2, t)])
        g = forbidden.girth(G)
        out.append(["girth", None if g == float("inf") else g])
    for _ in range(60):
        G = _random_bipartite(rng, rng.randrange(3, 9), rng.randrange(3, 9),
                              rng.choice((0.35, 0.5, 0.65)))
        out.append(["theta", 3, 4, forbidden.contains_theta(G, 3, 4)])
    return out


def test_decider_witnesses_frozen():
    record = _witness_record()
    # the sample must exercise both verdicts of every decider
    for key in ("C", "theta", "K2t"):
        verdicts = {r[-1] is None for r in record if r[0] == key}
        assert verdicts == {True, False}, key
    blob = json.dumps(record, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == WITNESS_DIGEST


def _bipartite_hosts(rng) -> list:
    # seeded edge-subgraphs of three Wenger hosts (C_4-free; W_1(5) has
    # C_6s, W_2(5) has C_8s) and small random bipartite graphs whose two
    # sides interleave in index order
    hosts = []
    for M, q in ((1, 5), (1, 7), (2, 5)):
        W = constructions.build_wenger(M, q)
        for keep in (0.35, 0.6, 0.85, 1.0):
            edges = [e for e in W.edges if rng.random() < keep]
            hosts.append(LabeledHypergraph(2, list(W.vertices), edges))
    for _ in range(40):
        nx, ny = rng.randrange(3, 16), rng.randrange(3, 16)
        perm = rng.sample(range(nx + ny), nx + ny)
        density = rng.choice((0.15, 0.25, 0.4, 0.6))
        edges = [(perm[u], perm[nx + v]) for u in range(nx) for v in range(ny)
                 if rng.random() < density]
        hosts.append(LabeledHypergraph(2, [f"v{i}" for i in range(nx + ny)], edges))
    return hosts


def _bipartite_record() -> list:
    out = []
    for G in _bipartite_hosts(random.Random(20231018)):
        assert G.colouring is not None
        for L in (6, 8):
            out.append(["C", L, forbidden.contains_cycle(G, L)])
        for t in (2, 3):
            out.append(["K2t", t, forbidden.contains_kst(G, 2, t)])
    return out


def test_bipartite_witnesses_frozen():
    record = _bipartite_record()
    # both verdicts of every decider and size
    for key in (("C", 6), ("C", 8), ("K2t", 2), ("K2t", 3)):
        verdicts = {r[-1] is None for r in record if tuple(r[:2]) == key}
        assert verdicts == {True, False}, key
    blob = json.dumps(record, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == BIPARTITE_WITNESS_DIGEST


def _random_hypergraph(rng, m, n):
    pool = list(combinations(range(n), m))
    edges = rng.sample(pool, rng.randrange(2, min(len(pool), 2 * n)))
    return LabeledHypergraph(m, [f"v{i}" for i in range(n)], edges)


def _berge_record() -> list:
    rng = random.Random(20230831)
    hosts = []
    for _ in range(80):
        m = rng.choice((3, 4))
        hosts.append(_random_hypergraph(rng, m, rng.randrange(m + 2, 13)))
    hosts.append(constructions.build_berge3(9)[0])
    return [[L, forbidden.contains_berge_cycle(H, L)] for H in hosts for L in (2, 3, 4)]


def test_berge_witnesses_frozen():
    record = _berge_record()
    for L in (2, 3, 4):
        verdicts = {r[-1] is None for r in record if r[0] == L}
        assert verdicts == {True, False}, L
    for lengths, digest in (((2,), BERGE2_WITNESS_DIGEST), ((3, 4), BERGE34_WITNESS_DIGEST)):
        blob = json.dumps([r for r in record if r[0] in lengths], sort_keys=True).encode("utf-8")
        assert hashlib.sha256(blob).hexdigest() == digest, lengths


# explicit patterns per uniformity: connected, disconnected, and labelled
# from above 0, for `_explicit_record`
_EXPLICIT_PATTERNS = {
    2: [[(0, 1), (1, 2), (2, 3)], [(0, 1), (1, 2), (2, 0)], [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        [(0, 1), (0, 2), (0, 3), (3, 4)], [(0, 1), (2, 3)], [(0, 1), (1, 2), (2, 0), (3, 4)],
        [(5, 6), (0, 1), (1, 2), (2, 3), (3, 0)], [(7, 5), (5, 6), (6, 8)]],
    3: [[(0, 1, 2), (2, 3, 4)], [(0, 1, 2), (0, 1, 3)], [(0, 1, 2), (2, 3, 4), (4, 5, 0)],
        [(0, 1, 2), (3, 4, 5)], [(0, 1, 2), (0, 1, 3), (4, 5, 6)], [(5, 6, 7), (7, 8, 9)]],
    4: [[(0, 1, 2, 3), (3, 4, 5, 6)], [(0, 1, 2, 3), (0, 1, 2, 4)], [(0, 1, 2, 3), (4, 5, 6, 7)],
        [(3, 4, 5, 6), (6, 7, 8, 9), (3, 4, 8, 9)]],
}


def _explicit_record() -> list:
    rng = random.Random(20261021)
    hosts = [_random_graph(rng, rng.randrange(4, 31), rng.choice((0.1, 0.2, 0.35)))
             for _ in range(40)]
    for _ in range(40):
        m = rng.choice((3, 4))
        hosts.append(_random_hypergraph(rng, m, rng.randrange(m + 2, 14)))
    return [[G.m, i, forbidden.contains_explicit(G, pat)]
            for G in hosts for i, pat in enumerate(_EXPLICIT_PATTERNS[G.m])]


def test_explicit_witnesses_frozen():
    record = _explicit_record()
    for m in (2, 3, 4):
        verdicts = {r[-1] is None for r in record if r[0] == m}
        assert verdicts == {True, False}, m
    blob = json.dumps(record, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == EXPLICIT_WITNESS_DIGEST


def _greedy_record():
    """Every greedy split of the grid as [graph, partition, trace] JSON,
    the Wenger (M, q) of each, and the count of runs that raised."""
    ok, hosts, failed = [], [], 0
    for M, q in ((1, 3), (1, 5), (1, 7), (2, 3)):
        G = constructions.build_wenger(M, q)
        for m in (2, 3, 4, 8):
            for seed in (None, 0, 42):
                for sizes in (None, {"seed_size": 1}, {"seed_size": 2, "target_s": 1}):
                    try:
                        G2, P, trace = spectral.greedy_split(G, m, "K_{2,2}", sizes, seed)
                    except (ValueError, RuntimeError):
                        failed += 1
                        continue
                    ok.append([G2.to_json_dict(), P.to_json_dict(), trace.to_json_dict()])
                    hosts.append((M, q))
    return ok, hosts, failed


def test_greedy_splits_frozen():
    ok, _, failed = _greedy_record()
    assert (len(ok), failed) == (126, 18)
    blob = json.dumps(ok, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == GREEDY_DIGEST


def test_greedy_splits_frozen_without_rho():
    # rho is the one float the record carries; it must sit on the closed
    # form sqrt(Mq) of Cioaba-Lazebnik-Li, and everything else must not move
    ok, hosts, _ = _greedy_record()
    for (_, _, trace), (M, q) in zip(ok, hosts):
        assert abs(trace["advisories"].pop("rho") - math.sqrt(M * q)) <= 1e-12, (M, q)
    blob = json.dumps(ok, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == GREEDY_NO_RHO_DIGEST


def test_greedy_seed_budget_frozen():
    # the seed search spends its whole node budget here; the count of
    # seeds placed when it stops pins the order in which it tries vertices
    G = constructions.build_wenger(1, 5)
    with pytest.raises(RuntimeError, match=r"placed 16 of 18 seeds \(m=6, seed_size=3\)"):
        spectral.greedy_split(G, 6, "K_{2,2}", seed=0)


@pytest.mark.parametrize("M, q", sorted(EXTREMES_DIGEST))
def test_iterative_extremes_frozen(M, q):
    s = spectral.spectrum(constructions.build_wenger(M, q))
    assert s.eigenvalues is None
    blob = json.dumps(list(s.extremes)).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == EXTREMES_DIGEST[M, q]


# exact_f queries: the six of the oracle-sweep benchmark, then cheap ones
# that reach the fallback (K_{s,t}, theta, an explicit pattern: K_4 less
# an edge), Berge 4-cycles and mixed families; each maps (r, m, k_max, patterns)
# to (status, value, per_k_nodes, nodes_total, certificate sha256)
_DIAMOND = forbidden.ForbiddenPattern("explicit", (), ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))
ORACLE_RECORD = {
    "cycles345_r6": ((6, 2, 3, ("C_3", "C_4", "C_5")), ("found", 2, {1: 6, 2: 6572}, 6578,
                     "23c46f7111cb994abf747b9b4c4760d4b83afcb078510883585d0cfccdd7b9d8")),
    "bergeC2_r6": ((6, 3, 2, ("bergeC_2",)), ("exhausted", None, {1: 2, 2: 63145}, 63147, None)),
    "bergeC3_r5": ((5, 3, 3, ("bergeC_3",)), ("found", 3, {1: 4, 2: 8429, 3: 133}, 8566,
                   "19aa6def45192e6744fd6ca229bf0aeea383581b59a466404224c513a5cdb3cb")),
    "C4_r4": ((4, 2, 3, ("C_4",)), ("found", 2, {1: 5, 2: 9}, 14,
              "acfe74bd693dec6d796e0618dd9cca5df38684847504955e36a2b1676dc026fe")),
    "C4_r5": ((5, 2, 3, ("C_4",)), ("found", 2, {1: 6, 2: 17}, 23,
              "1090e8705c8d2ed3285546207007d1badff715bdeb3a4f1bb1dda8eb3969bd23")),
    "C4_r6": ((6, 2, 3, ("C_4",)), ("found", 2, {1: 7, 2: 79}, 86,
              "b2a14b2d5dda7263fa51e93e3301ffcda92ed550a341f05ab51a22af21e1d51f")),
    "K22_r4": ((4, 2, 3, ("K_{2,2}",)), ("found", 2, {1: 5, 2: 9}, 14,
               "acfe74bd693dec6d796e0618dd9cca5df38684847504955e36a2b1676dc026fe")),
    "K23_r6": ((6, 2, 3, ("K_{2,3}",)), ("found", 2, {1: 8, 2: 26}, 34,
               "4d0e70f399b72a0004a54954a1fa004517cc62d900612e73db64ad6e62ff2c88")),
    "K13_r4": ((4, 2, 3, ("K_{1,3}",)), ("found", 2, {1: 3, 2: 12}, 15,
               "a002532138db0bd5896aeb9f9e5205ea9b3e5f7b68e924a0ad585595b0649f53")),
    "theta23_r6": ((6, 2, 3, ("theta_{2,3}",)), ("found", 2, {1: 11, 2: 30}, 41,
                   "2ddff4d9937d03a2a82d1c9fa2ad70bcef389a80f11ba96b1e6556ec8e9bc489")),
    "diamond_r5": ((5, 2, 3, (_DIAMOND,)), ("found", 2, {1: 6, 2: 17}, 23,
                   "6348efcdd066eee38a77ae876da9a0959b799010a25450e2f227f98ab7f3e178")),
    "bergeC4_r4": ((4, 3, 3, ("bergeC_4",)), ("found", 2, {1: 4, 2: 7}, 11,
                   "57a5246fd9e32f6130c39c3b5b77432e77ed8d679cf79ab3b9a9f1194fca6d00")),
    "C4_K22_r5": ((5, 2, 3, ("C_4", "K_{2,2}")), ("found", 2, {1: 6, 2: 17}, 23,
                  "1090e8705c8d2ed3285546207007d1badff715bdeb3a4f1bb1dda8eb3969bd23")),
    "C3_theta32_r5": ((5, 2, 3, ("C_3", "theta_{3,2}")), ("found", 2, {1: 5, 2: 17}, 22,
                      "7ac6f296cf7bc1c80483e54f33de52617b1d9326d94e6ba0829e21cfa9cff17f")),
}


@pytest.mark.parametrize("tag", sorted(ORACLE_RECORD))
def test_oracle_outputs_frozen(tag):
    (r, m, k_max, specs), expected = ORACLE_RECORD[tag]
    patterns = tuple(p if isinstance(p, forbidden.ForbiddenPattern) else forbidden.parse_pattern(p)
                     for p in specs)
    res = exact_f(OracleQuery(r, m, k_max, patterns))
    cert = None
    if res.graph is not None:
        doc = {"graph": res.graph.to_json_dict(), "partition": res.partition.to_json_dict()}
        cert = hashlib.sha256(cli._canonical(doc).encode("utf-8")).hexdigest()
    assert (res.status, res.value, res.per_k_nodes, res.nodes_total, cert) == expected
