"""Explicit split constructions.

Each builder returns a labeled hypergraph, usually together with a
partition of its vertices into parts, engineered so that every m-set of
parts is hit by a rainbow edge while each part stays small and induces
no edge.  The families:

* ``norm_quotient``   bipartite graphs on field elements crossed with
  multiplicative coset indices, edges keyed by a norm condition.
* ``wenger``          bipartite graphs on coordinate vectors with a
  chain of bilinear adjacency equations.
* ``theta``           a four-equation variant over even-power fields
  whose parts are carved out by coordinate splitting.
* ``berge3``          a 3-uniform family on affine points avoiding a
  fixed parabola, one edge per triple of distinct first coordinates.
* ``design_split``    point-block incidence expansions of combinatorial
  designs with block intersection at most one m-subset.
* ``property_B``      color-profile hypergraphs certifying small
  two-or-more-color splits.

Builders are pure: identical parameters (and seed, where one is
accepted) produce identical objects, so serialized output is
byte-stable.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import asdict, dataclass, field as dc_field
from itertools import chain, combinations, product
from operator import itemgetter

import numpy as np

from . import forbidden
from . import gf
from .structures import LabeledHypergraph, SplitPartition, part_map

_PATCH_STRATEGIES = ("matching", "greedy_reuse")

# edges (or field-table cells) above which a builder refuses a host before
# it allocates anything for it; W_2(27), with 531,441 edges, is the
# largest host the tests, demos and benchmark build
_MAX_EDGES = 1 << 22


@dataclass
class PatchStats:
    """Bookkeeping for the completion step of a partitioned family.

    ``deficient_pairs`` counts part pairs that lost all their edges to
    the merge, including the ``skipped_merged_pairs`` that turned out to
    be a single part.  ``patched_pairs`` got a new edge,
    ``reused_pairs`` were already covered by an earlier patch edge.
    """

    strategy: str
    deficient_pairs: int = 0
    patched_pairs: int = 0
    reused_pairs: int = 0
    skipped_merged_pairs: int = 0
    fresh_vertices: int = 0
    patch_edges: int = 0
    internal_edges_deleted: int = 0
    max_patch_per_part: int = 0
    warnings: list = dc_field(default_factory=list)

    def to_json_dict(self) -> dict:
        return asdict(self)


def _prime_power(q: int):
    if q > gf._MAX_FIELD:  # no field is built above the cap; factoring a huge q takes minutes
        raise ValueError(f"q={q} exceeds the field-size cap {gf._MAX_FIELD}")
    pp = gf.prime_power(q)
    if pp is None:
        raise ValueError(f"q={q} is not a prime power")
    return pp


def _check_size(family: str, base: int, exp: int = 1, what: str = "edges") -> None:
    """Refuse a host of base ** exp edges (or table cells) above
    `_MAX_EDGES`.  For exp > 1, base >= 2, so an exponent of the ceiling's
    bit length or more is refused without evaluating a power that an
    absurd exponent would take minutes to form."""
    small = exp < _MAX_EDGES.bit_length()
    if small and base ** exp <= _MAX_EDGES:
        return
    count = base ** exp if small else f"{base}^{exp}"
    raise ValueError(f"{family} would have {count} {what}, above the ceiling of {_MAX_EDGES}")


def _check_comb(family: str, r: int, m: int, what: str = "edges") -> None:
    """`_check_size` for C(r, m), 0 <= m <= r.  With j = min(m, r - m) >= 1,
    C(r, m) >= r and C(r, m) >= 2^j, so a huge r or j is refused without
    evaluating the binomial."""
    j = min(m, r - m)
    if j >= 1 and (r > _MAX_EDGES or j >= _MAX_EDGES.bit_length()):
        raise ValueError(f"{family} would have C({r},{m}) {what}, above the ceiling of {_MAX_EDGES}")
    _check_size(family, math.comb(r, m), 1, what)


def _odd_prime_power(q: int):
    p, s = _prime_power(q)
    if p == 2:
        raise ValueError(f"q={q} has even characteristic")
    return p, s


def _tables(F):
    """F's q x q addition and multiplication tables and its negation
    vector as int64 arrays, built from F's own scalar ops, so the builders
    evaluate their equations on whole arrays with F's exact arithmetic."""
    els = range(F.q)
    add = np.array([[F.add(a, b) for b in els] for a in els], dtype=np.int64)
    mul = np.array([[F.mul(a, b) for b in els] for a in els], dtype=np.int64)
    return add, mul, np.array([F.neg(a) for a in els], dtype=np.int64)


def _merge_groups(coords, off: int, key_p, key_l, seed: int | None = None) -> list:
    """Parts of a point/line graph: point i and line off + i carry the
    coordinates coords[i]; points are grouped by key_p, lines by key_l,
    and the i-th point group merges with the i-th line group, both in
    sorted key order, into part i.  ``seed`` shuffles the line keys."""
    groups_p: dict = {}
    groups_l: dict = {}
    for idx, tp in enumerate(coords):
        groups_p.setdefault(key_p(tp), []).append(idx)
        groups_l.setdefault(key_l(tp), []).append(off + idx)
    keys_l = sorted(groups_l)
    if seed is not None:
        random.Random(seed).shuffle(keys_l)
    return [groups_p[kp] + groups_l[kl] for kp, kl in zip(sorted(groups_p), keys_l)]


def _drop_internal(edges, parts, n: int):
    """The rows of the (E, 2) edge array, in order, whose two ends lie in
    different parts; a vertex outside every part is a part of its own."""
    ends = part_map(parts, n)[edges]
    return edges[ends[:, 0] != ends[:, 1]]


def _translations(q: int, dim: int, moves) -> list:
    """Vertex permutations of a point/line graph on two copies of F_q^dim,
    points first, each indexed by its coordinates in row-major order.

    ``moves(pt, ln, a)`` rewrites the coordinate rows of every point and
    every line in place; it is called once per generator for each a in
    the additive basis 1, p, ..., p^(s-1) of F_q, q = p^s, and the
    permutation maps vertex v to entry v of the result."""
    p, s = _prime_power(q)
    shape = (q,) * dim
    coords = np.indices(shape).reshape(dim, -1)
    gens = []
    for move in moves:
        for a in (p ** i for i in range(s)):
            pt, ln = coords.copy(), coords.copy()
            move(pt, ln, a)
            gens.append(np.concatenate([np.ravel_multi_index(pt, shape),
                                        q ** dim + np.ravel_multi_index(ln, shape)]))
    return gens


# ------------------------------------------------------------------------
# norm quotient family
# ------------------------------------------------------------------------


def _norm_quotient(q: int, t: int, d: int):
    """Source field, coset count Q, labels and (E, 2) edge array of the
    norm-quotient graph, unvalidated.

    The coset of N(z) is read from the source field's log table: with
    e = (q^(t-1) - 1)/(q - 1), N(z) = z^e, and under the embedding
    theta_q -> theta_source^e, N(theta_source^i) = theta_q^(i mod (q-1)).
    The cosets of the order-d subgroup of F_q* are the residues of the
    exponent mod Q, and Q divides q - 1, so the label of z is log[z] % Q.
    """
    p, s = _odd_prime_power(q)
    if t < 2:
        raise ValueError("t must be at least 2")
    if d < 1 or (q - 1) % d != 0:
        raise ValueError(f"d={d} must divide q-1={q - 1}")
    Q = (q - 1) // d
    family = f"norm-quotient q={q} t={t} d={d}"
    _check_size(family, q, 2 * (t - 1), "field-table cells")
    nside = q ** (t - 1)
    _check_size(family, nside * (nside - 1) * Q)
    source = gf.make_field(p, s * (t - 1))

    labels = [f"P:{x},c{i}" for x in range(nside) for i in range(Q)]
    labels += [f"L:{y},c{j}" for y in range(nside) for j in range(Q)]
    off = nside * Q

    # (x, y) row-major over the pairs with z = x + y != 0 (log[0] is None), then i
    z = _tables(source)[0].ravel()
    x, y = np.divmod(np.flatnonzero(z), nside)
    c = np.array([0, *source.log[1:]])[z[z != 0]] % Q
    i = np.arange(Q)
    pts = x[:, None] * Q + i
    lines = off + y[:, None] * Q + (c[:, None] - i) % Q
    return source, Q, labels, np.stack([pts, lines], axis=-1).reshape(-1, 2)


def build_norm_quotient(q: int, t: int, d: int = 1) -> LabeledHypergraph:
    """Bipartite graph on ``(element, coset index)`` pairs.

    Vertices are ``P:<x>,c<i>`` and ``L:<y>,c<j>`` where x, y run over
    the degree-(t-1) extension of F_q and i, j over the Q = (q-1)/d
    cosets of the order-d subgroup K of F_q*.  The pair is adjacent when
    x + y is nonzero and the norm of x + y down to F_q lands in coset
    i + j mod Q.  Each vertex has degree q^(t-1) - 1.

    Parameters
    ----------
    q : odd prime power.
    t : arity parameter, at least 2; the source field is F_q^(t-1).
    d : divisor of q - 1 selecting the subgroup K.
    """
    return LabeledHypergraph(2, *_norm_quotient(q, t, d)[2:])


def _patch_graph_free(adj, u: int, v: int, t: int, count: int) -> bool:
    # exact K_{t,count} recheck of the patch graph `adj` (neighbour sets)
    # plus the edge uv; the patch vertices have no edges into the original
    # graph and the patch graph is free, so a new copy uses uv: its side
    # holding u lies in N(v) + u and the side holding v in N(u) + v, and
    # the subgraph on those vertices decides
    near = sorted(adj[u] | adj[v] | {u, v})
    index = {x: i for i, x in enumerate(near)}
    edges = [(index[x], index[y]) for x in near for y in adj[x] if x < y and y in index]
    local = LabeledHypergraph(2, near, edges + [(index[u], index[v])])
    return forbidden.contains_kst(local, t, count) is None


def partition_norm_quotient(
    q: int,
    t: int,
    d: int,
    h: int,
    a: int,
    patch_strategy: str = "matching",
    seed: int | None = None,
):
    """Merge the norm-quotient graph into q^(t-1) * a parts and patch.

    Coset indices are split as Z_Q = A + H with |A| = a, |H| = h and
    h * a = Q.  A P-side group ``(x, eta)`` collects the a vertices with
    index in eta + A; an L-side group ``(y, alpha)`` collects the h
    vertices with index in alpha + H.  A bijection psi maps each L-group
    label to a P-group label over the same element, the two are merged
    into one part, and unused P-groups are dropped.  Between any two
    parts over elements x, y with x + y nonzero the merge leaves exactly
    one edge; the pairs over x, -x lose all edges and are patched.

    ``patch_strategy`` is ``"matching"`` (a fresh degree-one edge per
    deficient pair) or ``"greedy_reuse"`` (reuse earlier patch vertices
    when an exact forbidden-structure recheck allows it, falling back to
    fresh vertices otherwise).  ``seed`` randomizes psi; with
    ``seed=None`` psi takes the first a group labels in order.

    Returns
    -------
    (graph, partition, stats) : the patched graph, the induced-edge-free
    partition covering every part pair, and a :class:`PatchStats`.
    """
    if patch_strategy not in _PATCH_STRATEGIES:
        raise ValueError(f"unknown patch strategy {patch_strategy!r}")
    source, Q, labels0, edges0 = _norm_quotient(q, t, d)
    if h < 1 or a < 1 or h * a != Q:
        raise ValueError(f"need h*a == (q-1)/d = {Q}, got {h}*{a}")
    if a > h:
        raise ValueError(f"need a <= h, got a={a} h={h}")

    warnings: list = []
    if gf.prime_power(q)[1] % 2 == 1:
        warnings.append(
            "q is an odd prime power; the forbidden-structure guarantee for "
            "this family is only established for even powers"
        )

    nside = source.q
    off = nside * Q

    # H is the order-h subgroup of Z_Q, the multiples of a, and A = [0, a)
    # a transversal: every index is uniquely eta + alpha, eta in H, alpha in A
    H_reps = range(0, Q, a)
    if seed is None:
        chosen = H_reps[:a]
    else:
        chosen = random.Random(seed).sample(H_reps, a)
    # eta of a merged P-group -> alpha; the part over (element, alpha) is
    # element * a + alpha
    eta_alpha = dict(zip(chosen, range(a)))
    r = nside * a

    new_index = np.full(2 * off, -1, dtype=np.int64)  # -1: dropped P vertex
    labels: list = []
    part_vertices: list = [[] for _ in range(r)]
    for x in range(nside):
        for i in range(Q):
            eta = i - i % a
            if eta not in eta_alpha:
                continue
            new_index[x * Q + i] = len(labels)
            part_vertices[x * a + eta_alpha[eta]].append(len(labels))
            labels.append(labels0[x * Q + i])
    for y in range(nside):
        for j in range(Q):
            new_index[off + y * Q + j] = len(labels)
            part_vertices[y * a + j % a].append(len(labels))
            labels.append(labels0[off + y * Q + j])

    stats = PatchStats(strategy=patch_strategy, warnings=warnings)
    kept = new_index[edges0]
    kept = kept[kept[:, 0] >= 0]
    edges = _drop_internal(kept, part_vertices, len(labels)).tolist()
    stats.internal_edges_deleted = len(kept) - len(edges)

    # deficient part pairs: kept P-group over x against L-group over -x
    pair_list = []
    for x in range(nside):
        negx = source.neg(x)
        for al in range(a):
            for al2 in range(a):
                stats.deficient_pairs += 1
                pa = x * a + al
                pb = negx * a + al2
                if pa == pb:
                    stats.skipped_merged_pairs += 1
                    continue
                pair_list.append((pa, pb))

    t_count = math.factorial(t - 1) * d ** (t - 1) + 1
    patch_count = [0] * r

    def patch_matching() -> None:
        for (pa, pb) in pair_list:
            u = len(labels)
            labels.append(f"patch:{stats.patched_pairs}:P")
            v = len(labels)
            labels.append(f"patch:{stats.patched_pairs}:L")
            edges.append((u, v))
            part_vertices[pa].append(u)
            part_vertices[pb].append(v)
            patch_count[pa] += 1
            patch_count[pb] += 1
            stats.patched_pairs += 1
            stats.fresh_vertices += 2
            stats.patch_edges += 1

    def patch_greedy() -> None:
        pool: list = [[] for _ in range(r)]  # patch vertices per part
        adj: dict = {}  # patch vertex -> its patch neighbours
        covered: set = set()

        def fresh_vertex(part: int) -> int:
            u = len(labels)
            labels.append(f"patch:{stats.fresh_vertices}")
            part_vertices[part].append(u)
            pool[part].append(u)
            patch_count[part] += 1
            adj[u] = set()
            stats.fresh_vertices += 1
            return u

        def try_commit(u, v, pa, pb) -> bool:
            # u or v None asks for a fresh vertex on that side
            if u is not None and v is not None and not _patch_graph_free(adj, u, v, t, t_count):
                return False
            gu = fresh_vertex(pa) if u is None else u
            gv = fresh_vertex(pb) if v is None else v
            edges.append((gu, gv))
            adj[gu].add(gv)
            adj[gv].add(gu)
            stats.patched_pairs += 1
            stats.patch_edges += 1
            return True

        for (pa, pb) in pair_list:
            key = (min(pa, pb), max(pa, pb))
            if key in covered:
                stats.reused_pairs += 1
                continue
            # existing patch vertices first, then one fresh end, then a
            # fresh edge; an edge with a fresh end leaves that end at
            # degree one and never closes a K_{t,t_count} (t >= 2,
            # t_count >= 2: every vertex of one has degree >= 2), so it
            # commits unchecked and the last candidate always commits
            cands = chain(product(pool[pa], pool[pb]), product(pool[pa], [None]),
                          product([None], pool[pb]), [(None, None)])
            if not any(try_commit(u, v, pa, pb) for u, v in cands):
                raise RuntimeError(
                    f"internal error: greedy patching could not certify pair {key}"
                )
            covered.add(key)

    if patch_strategy == "matching":
        patch_matching()
    else:
        patch_greedy()

    stats.max_patch_per_part = max(patch_count) if patch_count else 0
    G = LabeledHypergraph(2, labels, edges)
    k_eff = max(len(part) for part in part_vertices)
    P = SplitPartition(part_vertices, k_eff)
    return G, P, stats


# ------------------------------------------------------------------------
# wenger family
# ------------------------------------------------------------------------


def _wenger(M: int, q: int):
    """Labels and (E, 2) edge array of the Wenger graph W_M(q), unvalidated."""
    if M < 1:
        raise ValueError("M must be at least 1")
    pp = _prime_power(q)
    _check_size(f"wenger W_{M}({q})", q, M + 2)
    add, mul, neg = _tables(gf.make_field(*pp))
    pts = list(product(range(q), repeat=M + 1))
    nside = len(pts)

    labels = ["P:" + ",".join(map(str, tp)) for tp in pts]
    labels += ["L:" + ",".join(map(str, tp)) for tp in pts]
    # one row per (point, l_1) pair in index order; the chain
    # l_{j+1} = l_j p_1 - p_{j+1} builds the line's index digit by digit
    *p, l = np.indices((q,) * (M + 2)).reshape(M + 2, -1)
    rank = l
    for j in range(1, M + 1):
        l = add[mul[l, p[0]], neg[p[j]]]
        rank = rank * q + l
    return labels, np.column_stack([np.arange(len(l)) // q, nside + rank])


def build_wenger(M: int, q: int) -> LabeledHypergraph:
    """Bipartite graph on two copies of F_q^(M+1).

    A point p and line l are adjacent when l_{j+1} + p_{j+1} = l_j * p_1
    for j = 1..M (1-based coordinates).  Lines are generated from the
    free choice of l_1, so the graph is q-regular with q^(M+2) edges.
    Labels are ``P:<c1>,...,<c(M+1)>`` and ``L:...`` with coordinates in
    the integer encoding of F_q.
    """
    return LabeledHypergraph(2, *_wenger(M, q))


def wenger_host(M: int, q: int):
    """W_M(q) and vertex permutations that generate automorphisms of it,
    as int64 arrays g mapping vertex v to g[v] (see `_translations`).

    In 1-based coordinates, one generator for each j = 2..M+1 sets
    p_j += a, p_{j+1} -= a p_1 (when j <= M) and l_j -= a, and a last
    one sets l_1 += a and p_2 += a p_1; each keeps every equation
    l_{j+1} + p_{j+1} = l_j p_1.  Together they fix p_1 and are
    transitive on the rest, so the vertex orbits are the q point classes
    of p_1 and the lines: q + 1 orbits.
    """
    H = build_wenger(M, q)
    add, mul, neg = _tables(gf.make_field(*_prime_power(q)))

    def shift(j):  # 0-based coordinate j >= 1
        def move(pt, ln, a):
            pt[j] = add[pt[j], a]
            if j < M:
                pt[j + 1] = add[pt[j + 1], neg[mul[a, pt[0]]]]
            ln[j] = add[ln[j], neg[a]]
        return move

    def lift(pt, ln, a):
        ln[0] = add[ln[0], a]
        pt[1] = add[pt[1], mul[a, pt[0]]]

    return H, _translations(q, M + 1, [*map(shift, range(1, M + 1)), lift])


_WENGER_FIXED = {2: ((0, 2), (0, 1)), 4: ((0, 2, 4), (0, 1, 3))}


def partition_wenger(M: int, q: int, seed: int | None = None):
    """Partition the Wenger-type graph into q^(M/2+1) parts of size 2q^(M/2).

    Only M = 2 and M = 4 are supported.  Point groups fix the odd
    coordinates (p1, p3, ...), line groups fix (l1, l2, l4, ...); the
    adjacency chain then forces exactly one edge between any point group
    and line group.  Groups are paired by sorted key rank (``seed``
    shuffles the line ordering) and the internal edges, those inside a
    merged part (one per part), are deleted, which leaves exactly two
    edges between every pair of parts.
    """
    if M not in _WENGER_FIXED:
        raise ValueError("partitioned variant needs M in {2, 4}")
    labels, edges = _wenger(M, q)
    n = len(labels)
    fixed_p, fixed_l = _WENGER_FIXED[M]
    parts = _merge_groups(product(range(q), repeat=M + 1), n // 2,
                          itemgetter(*fixed_p), itemgetter(*fixed_l), seed)
    G2 = LabeledHypergraph(2, labels, _drop_internal(edges, parts, n))
    P = SplitPartition(parts, 2 * q ** (M // 2))
    return G2, P


# ------------------------------------------------------------------------
# theta family
# ------------------------------------------------------------------------


def _subfield_split(F) -> list:
    """(a, b) with x = a + mu*b for each x of F, over the subfield of
    index 2; mu is the least element outside the subfield, whose nonzero
    elements are the powers of theta^(root + 1), root = p^(n/2)."""
    sub = [0, *F.exp[::F.p ** (F.n // 2) + 1]]
    in_sub = set(sub)
    mu = next(x for x in range(F.q) if x not in in_sub)
    split = {F.add(a, F.mul(mu, b)): (a, b) for a in sub for b in sub}
    if len(split) != F.q:
        raise RuntimeError("quadratic subfield basis failed to span")
    return [split[x] for x in range(F.q)]


def build_theta(q: int, reduce_parts: bool = True):
    """Four-coordinate bipartite graph over an even-power field.

    Vertices are two copies of F_q^4 and (v, w) is adjacent when

        w2 = v1 w1 - v2,  w3 = v1^2 w1 - v4,  w4 = v1 w1^2 - v3.

    Writing x = A + B*mu over the subfield of index 2, point groups fix
    (v1, B(v3), v4) and line groups fix (w1, w2, A(w4)); each group pair
    carries exactly one edge, groups are merged in key order into
    q^(5/2) parts of size 2 q^(3/2), and with ``reduce_parts`` (default)
    the internal edges, those inside a merged part (one per part), are
    deleted.  With ``reduce_parts=False`` the graph is exactly q-regular
    but parts keep one internal edge each.
    """
    p, s = _odd_prime_power(q)
    if s % 2 == 1:
        raise ValueError(f"q={q} must be an even power")
    _check_size(f"theta q={q}", q, 5)
    F = gf.make_field(p, s)
    add, mul, neg = _tables(F)
    root = p ** (s // 2)
    n4 = q ** 4

    coords = list(product(range(q), repeat=4))
    labels = ["P:" + ",".join(map(str, tp)) for tp in coords]
    labels += ["L:" + ",".join(map(str, tp)) for tp in coords]

    v1, w1, v2, v3, v4 = np.indices((q,) * 5).reshape(5, -1)
    w2 = add[mul[v1, w1], neg[v2]]
    w3 = add[mul[mul[v1, v1], w1], neg[v4]]
    w4 = add[mul[v1, mul[w1, w1]], neg[v3]]
    edges = np.column_stack([((v1 * q + v2) * q + v3) * q + v4,
                             n4 + ((w1 * q + w2) * q + w3) * q + w4])

    ab = _subfield_split(F)
    parts = _merge_groups(coords, n4, lambda c: (c[0], ab[c[2]][1], c[3]),
                          lambda c: (c[0], c[1], ab[c[3]][0]))
    if reduce_parts:
        edges = _drop_internal(edges, parts, 2 * n4)
    G = LabeledHypergraph(2, labels, edges)
    P = SplitPartition(parts, 2 * q * root)
    return G, P


def theta_host(q: int):
    """The unsplit theta graph ``build_theta(q, reduce_parts=False)`` and
    vertex permutations that generate automorphisms of it, as int64
    arrays g mapping vertex v to g[v] (see `_translations`).

    The three translations v2 += a with w2 -= a, v4 += a with w3 -= a
    and v3 += a with w4 -= a keep the three equations.  They fix v1 and
    w1 and are transitive on the rest, so the vertex orbits are the q
    point classes of v1 and the q line classes of w1: 2q orbits.
    """
    H = build_theta(q, reduce_parts=False)[0]
    add, _, neg = _tables(gf.make_field(*_prime_power(q)))

    def move(v, w):
        def apply(pt, ln, a):
            pt[v] = add[pt[v], a]
            ln[w] = add[ln[w], neg[a]]
        return apply

    return H, _translations(q, 4, [move(1, 1), move(3, 2), move(2, 3)])


# ------------------------------------------------------------------------
# berge3 family
# ------------------------------------------------------------------------


def build_berge3(q: int):
    """3-uniform family on affine points off the parabola x2 = x1^2 / 2.

    For every triple a1 < b1 < c1 of first coordinates there is exactly
    one edge: second coordinates solve a2 + b2 = a1 b1 and its two
    cyclic mates.  Parts collect the q - 1 vertices sharing a first
    coordinate, so the split has q parts of size q - 1.
    """
    p, s = _odd_prime_power(q)
    _check_comb(f"berge3 q={q}", q, 3)
    F = gf.make_field(p, s)
    add, mul, neg = _tables(F)
    inv2 = F.inv(2)

    # vertex (x1, x2) off the parabola is vidx[x1, x2], row-major, so
    # each row x1 holds the q - 1 consecutive indices of part x1
    x1, x2 = np.indices((q, q))
    on = x2 == mul[inv2, mul[x1, x1]]
    vidx = np.cumsum(~on).reshape(q, q) - 1
    labels = [f"B:{a},{b}" for a, b in zip(x1[~on].tolist(), x2[~on].tolist())]

    a1, b1, c1 = np.array(list(combinations(range(q), 3))).T
    ab, bc, ca = mul[a1, b1], mul[b1, c1], mul[c1, a1]
    a2 = mul[inv2, add[add[ab, ca], neg[bc]]]
    b2 = add[ab, neg[a2]]
    c2 = add[ca, neg[a2]]
    edges = np.column_stack([vidx[a1, a2], vidx[b1, b2], vidx[c1, c2]])

    G = LabeledHypergraph(3, labels, edges)
    P = SplitPartition(np.arange(q * (q - 1)).reshape(q, q - 1).tolist(), q - 1)
    return G, P


# ------------------------------------------------------------------------
# designs
# ------------------------------------------------------------------------


@dataclass(frozen=True)
class DesignInstance:
    """A design on points 0..r-1 where every m-subset of points lies in
    exactly one block and every block has t points."""

    m: int
    r: int
    t: int
    blocks: tuple

    def __post_init__(self) -> None:
        if not (1 <= self.m <= self.t <= self.r):
            raise ValueError("need 1 <= m <= t <= r")
        norm = []
        for b in self.blocks:
            tb = tuple(sorted(b))
            if len(set(tb)) != self.t:
                raise ValueError(f"block {b} does not have {self.t} distinct points")
            if tb[0] < 0 or tb[-1] >= self.r:
                raise ValueError(f"block {b} leaves the point range")
            norm.append(tb)
        object.__setattr__(self, "blocks", tuple(sorted(norm)))
        seen = set()
        for b in self.blocks:
            for sub in combinations(b, self.m):
                if sub in seen:
                    raise ValueError(f"{self.m}-subset {sub} covered twice")
                seen.add(sub)
        if len(seen) != math.comb(self.r, self.m):
            raise ValueError(
                f"{math.comb(self.r, self.m) - len(seen)} {self.m}-subsets uncovered"
            )


_PG_RE = re.compile(r"^PG\(2,(\d+)\)$")
_AG_RE = re.compile(r"^AG\(2,(\d+)\)$")
_ALL_RE = re.compile(r"^all-(\d+)-subsets\((\d+),(\d+)\)$")


def _catalog_field(q: int) -> "gf.FieldSpec":
    if q > 32:
        raise ValueError(f"q={q} must be a prime power at most 32")
    return gf.make_field(*_prime_power(q))


def design_catalog(design_id: str) -> DesignInstance:
    """Fetch a named design.

    Known ids: ``fano``, ``PG(2,q)``, ``AG(2,q)`` for prime powers
    q <= 32, ``STS(9)`` (an alias of ``AG(2,3)``), and
    ``all-<m>-subsets(<r>,<m>)`` for the trivial design.
    """
    if design_id == "fano":
        blocks = tuple(
            tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)
        )
        return DesignInstance(2, 7, 3, blocks)
    if design_id == "STS(9)":
        return design_catalog("AG(2,3)")
    mm = _PG_RE.match(design_id)
    if mm:
        q = int(mm.group(1))
        add, mul, _ = _tables(_catalog_field(q))
        points = np.array(
            [(x, y, 1) for x in range(q) for y in range(q)]
            + [(x, 1, 0) for x in range(q)]
            + [(1, 0, 0)]
        )
        # block i holds the points on the line with coefficients points[i]
        terms = mul[points[:, None, :], points[None, :, :]]
        dots = add[add[terms[..., 0], terms[..., 1]], terms[..., 2]]
        blocks = [np.flatnonzero(row == 0).tolist() for row in dots]
        return DesignInstance(2, q * q + q + 1, q + 1, blocks)
    mm = _AG_RE.match(design_id)
    if mm:
        q = int(mm.group(1))
        add, mul, _ = _tables(_catalog_field(q))
        # the lines y = slope x + icpt, then the vertical lines x = c
        slope, icpt, x = np.indices((q, q, q))
        blocks = np.vstack([(x * q + add[mul[slope, x], icpt]).reshape(q * q, q),
                            np.arange(q * q).reshape(q, q)])
        return DesignInstance(2, q * q, q, blocks.tolist())
    mm = _ALL_RE.match(design_id)
    if mm:
        m_outer, r, m_inner = map(int, mm.groups())
        if m_outer != m_inner:
            raise ValueError(f"inconsistent arity in {design_id!r}")
        if not 1 <= m_outer <= r:
            raise ValueError(f"need 1 <= m <= r in {design_id!r}")
        _check_comb(design_id, r, m_outer, "blocks")
        return DesignInstance(
            m_outer, r, m_outer, tuple(combinations(range(r), m_outer))
        )
    raise ValueError(f"unknown design id {design_id!r}")


def build_design_split(design: DesignInstance, m: int):
    """Expand a design into a split: one vertex per (point, block)
    incidence, one part per point, and the m-subsets inside each block
    as edges.  Components have exactly t vertices, so parts meet each
    component at most once."""
    if m != design.m:
        raise ValueError(f"design covers {design.m}-subsets, requested m={m}")
    labels = []
    vidx: dict = {}
    parts: list = [[] for _ in range(design.r)]
    for j, block in enumerate(design.blocks):
        for pt in block:
            vidx[(pt, j)] = len(labels)
            parts[pt].append(len(labels))
            labels.append(f"D:{pt},b{j}")
    edges = []
    for j, block in enumerate(design.blocks):
        for sub in combinations(block, m):
            edges.append(tuple(vidx[(pt, j)] for pt in sub))
    G = LabeledHypergraph(m, labels, edges)
    k = math.comb(design.r - 1, m - 1) // math.comb(design.t - 1, m - 1)
    P = SplitPartition(parts, k)
    return G, P


# ------------------------------------------------------------------------
# property B profiles
# ------------------------------------------------------------------------


def build_property_B(m: int, c, r: int):
    """Color-profile hypergraph: parts 0..r-1 each hold one vertex per
    color class, and every ascending m-subset of parts contributes one
    edge whose color counts follow the profile c (first c[0] parts give
    color 0, the next c[1] give color 1, and so on)."""
    c = tuple(c)
    if m < 1 or r < m:
        raise ValueError(f"need r >= m >= 1, got m={m} r={r}")
    if not c or any(x < 1 for x in c) or sum(c) != m:
        raise ValueError(f"profile {c} must be positive and sum to m={m}")
    _check_comb(f"property-B m={m} r={r}", r, m)
    k = len(c)
    labels = [f"p{i}c{j}" for i in range(r) for j in range(k)]
    # each part of an m-subset, times k, plus the colour the profile gives its position
    edges = np.array(list(combinations(range(r), m))) * k + np.repeat(np.arange(k), c)
    parts = [tuple(i * k + j for j in range(k)) for i in range(r)]
    G = LabeledHypergraph(m, labels, edges)
    P = SplitPartition(parts, k)
    return G, P
