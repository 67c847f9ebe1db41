"""Exact forbidden-subgraph detection for graphs and uniform hypergraphs.

Deciders cover complete bipartite graphs K_{s,t}, cycles of a prescribed
length (plus girth), theta graphs (two endpoints joined by K internally
disjoint paths of equal length), short Berge cycles in uniform
hypergraphs, and arbitrary explicit patterns on at most 10 vertices.
A Berge l-cycle is a cycle of 2l nodes in the vertex-edge incidence
graph; lengths 2 to 4 are searched there by the graph cycles' enumerator.

Each fact about a pattern is stated once, in `ForbiddenPattern`: its
parameter rules, its spelling (the spec format, and the regex
`parse_pattern` reads it with) and the hosts it fits.  `parse_pattern`
is the one place a pattern string becomes a pattern.  Every decider
builds its pattern on entry, refuses a host the pattern does not fit,
and hands that one object to the walk-count gate and to the witness.

All deciders are exact and deterministic. When a copy of the pattern
exists, the first witness in the documented search order is returned as

    {"pattern": <string>, "vertices": [...], "edges": [...]}

with vertices given as integer indices into the host graph. Witnesses
are re-checked edge by edge against the host before being returned;
`None` means the pattern is absent, never "gave up".

The four named-pattern deciders share one gate, `_proved_absent`, which
each asks right after `check_host`: on a host of `_KERNEL_EDGES` edges
(hyperedges) or more, a pattern whose `ForbiddenPattern.walk_test` is
not None has its exact int64 walk counts formed on the adjacency or
incidence matrix, and when they prove it absent the decider returns
None at once.  Smaller hosts, patterns without a walk test and every
host the counts do not clear take the ordered search, which alone picks
the witness.

Explicit patterns have one embedding search, `_embed`, which reads a
host as neighbour lists, a degree lookup and an edge set:
`contains_explicit` runs it on a `LabeledHypergraph`, and the oracle,
through `_holds_through`, on its growing host, anchored on a new edge.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .structures import LabeledHypergraph, _bfs

# the spec format of each kind, and for the named kinds the regex that
# `parse_pattern` reads it with (cycles also as C_6); explicit patterns are
# built from their edges, never parsed
_SPELLINGS = {
    "complete_bipartite": ("K_{%d,%d}", re.compile(r"K_\{([1-9]\d*),([1-9]\d*)\}", re.ASCII)),
    "cycle": ("C_{%d}", re.compile(r"C_(?:\{([1-9]\d*)\}|([1-9]\d*))", re.ASCII)),
    "theta": ("theta_{%d,%d}", re.compile(r"theta_\{([1-9]\d*),([1-9]\d*)\}", re.ASCII)),
    "berge_cycle": ("bergeC_%d", re.compile(r"bergeC_([1-9]\d*)", re.ASCII)),
    "explicit": ("explicit", None),
}

_EXPLICIT_MAX_VERTICES = 10

# rows of walk counts `_walk_blocks` holds at once; its int64 counts are
# exact under `_counts_exact`
_ROWS = 256

# edges (hyperedges for Berge cycles) from which `_proved_absent` runs
# the walk counts before the ordered search; smaller hosts, the oracle's
# (at most 20 edges) among them, take the search alone, with the same
# verdict and witness.  Kernel against search on free hosts, a fresh
# host per call (2-core VM, best of 7):
# - berge3(q): lengths 3 and 4 cross near q = 11 (165 edges, 2.44 / 2.28
#   and 2.92 / 3.94 ms) and at q = 13 (286) take 2.6 / 4.8 and
#   3.6 / 8.3 ms; length 2, the same incidence search, crosses between
#   q = 7 (35 edges, 0.84 / 0.30 ms) and 11 (0.45 / 0.71); no workload
#   decides a host near the cut;
# - K_{2,2}: W_1(5) (125 edges) 0.81 / 0.39 ms, W_2(4) (256) 0.82 / 0.92,
#   W_1(8) (512) 1.27 / 2.76; on edge samples of W_2(5) up to 320 edges
#   the search leads;
# - C_4, the same A_2 proof (best of 9): W_2(4) 0.39 / 0.33 ms, W_1(8) 0.43 / 0.87,
#   W_2(5) (625) 0.41 / 0.81, the W_2(13) split (28392) 11 / 73;
# - C_6: W_2(4) 2.27 / 1.71 ms, W_2(5) (625) 3.14 / 6.04;
# - theta_{3,4}: BFS balls of theta(9) 1.5 / 7.1 ms at 135 edges, its
#   sparse edge samples (vertices renumbered) 3.9 / 1.8 ms at 600.
# A host that holds the pattern pays the kernel on top of the search.
_KERNEL_EDGES = 256


@dataclass(frozen=True)
class ForbiddenPattern:
    """A forbidden pattern, either named or given as an explicit edge list.

    Its parameter rules are checked on construction; `spec_string`
    and `parse_pattern` read its spelling from `_SPELLINGS`; `fits`
    says which hosts can hold it and `check_host` refuses the others.

    Parameters
    ----------
    kind:
        One of ``complete_bipartite``, ``cycle``, ``theta``,
        ``berge_cycle``, ``explicit``.
    params:
        Numeric parameters: (s, t) with s <= t, (length,), (K, length),
        (length,), or () for explicit patterns.
    edges:
        Edge list for ``explicit`` patterns, ignored otherwise.
    """

    kind: str
    params: tuple
    edges: tuple = ()

    def __post_init__(self):
        if self.kind not in _SPELLINGS:
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        p = self.params
        if self.kind == "complete_bipartite":
            if len(p) != 2 or not (1 <= p[0] <= p[1]):
                raise ValueError(f"bad K_(s,t) parameters {p}")
        elif self.kind == "cycle":
            if len(p) != 1 or p[0] < 3:
                raise ValueError(f"cycle length must be >= 3, got {p}")
        elif self.kind == "theta":
            if len(p) != 2 or p[0] < 2 or p[1] < 2:
                raise ValueError(f"theta needs K >= 2 and length >= 2, got {p}")
        elif self.kind == "berge_cycle":
            if len(p) != 1 or p[0] not in (2, 3, 4):
                raise ValueError(f"Berge cycle length must be 2, 3 or 4, got {p}")
        else:
            if p:
                raise ValueError(f"explicit patterns take no parameters, got {p}")
            rows = set()
            for e in self.edges:
                row = tuple(sorted(e))
                if len(set(e)) != len(e):
                    raise ValueError(f"pattern edge {e} repeats a vertex")
                if row in rows:
                    raise ValueError(f"pattern edge {e} appears twice")
                rows.add(row)
            if not self.edges:
                raise ValueError("explicit pattern needs a nonempty edge list")
            if len({v for e in self.edges for v in e}) > _EXPLICIT_MAX_VERTICES:
                raise ValueError(
                    f"explicit patterns are limited to {_EXPLICIT_MAX_VERTICES} vertices"
                )

    def spec_string(self) -> str:
        return _SPELLINGS[self.kind][0] % self.params

    def fits(self, m: int) -> bool:
        """Whether an m-uniform host can hold the pattern: a Berge cycle
        needs a hypergraph (m >= 3), an explicit pattern a host of its
        edges' arity, and every other pattern a graph (m = 2)."""
        if self.kind == "explicit":
            return all(len(e) == m for e in self.edges)
        return (self.kind == "berge_cycle") == (m > 2)

    def check_host(self, m: int) -> None:
        """Raise ValueError unless the pattern `fits` an m-uniform host."""
        if self.fits(m):
            return
        if self.kind == "berge_cycle":
            raise ValueError("Berge cycle detection expects a hypergraph with m >= 3")
        if self.kind == "explicit":
            e = next(e for e in self.edges if len(e) != m)
            raise ValueError(f"pattern edge {e} has arity {len(e)}, host is {m}-uniform")
        raise ValueError(f"this decider needs a 2-uniform graph, got m={m}")

    @property
    def walk_test(self):
        """The walk counts that prove the pattern absent, from every row
        in the deciders and from one row per vertex orbit in `verify`'s
        orbit route (`rows_prove_absent` runs them on A_k alone):
        (k, threshold) when every copy of the pattern, at each of its
        vertices u (for K_{2,t}, at each hub; for a theta, at each end),
        puts an off-diagonal count of at least `threshold` into row u of
        the non-backtracking walk counts A_k, since distinct paths of k
        edges are distinct such walks; None for other patterns.

        - C_{2k}, k >= 2, and theta_{2,k}: A_k, threshold 2 (u and the
          vertex opposite it are joined by two paths of k edges);
        - K_{2,t}: A_2, threshold t (the two hubs' codegree);
        - theta_{K,l}, K >= 3, l <= 4: A_l, threshold K;
        - bergeC_l: A_l of the vertex-edge incidence graph, threshold 2
          (the cycle is a C_{2l} there, through each of its core
          vertices).

        An automorphism s keeps the counts, A_k[s u, s w] = A_k[u, w],
        and maps a copy at u to a copy at s u, so a host whose orbit
        representatives' rows of A_k stay below the threshold holds no
        copy, and neither does any edge-subgraph of it.  A vertex
        permutation that maps a hypergraph's edges to edges moves the
        incidence graph's edge nodes with them, so one vertex row per
        orbit serves Berge cycles too.
        """
        kind, p = self.kind, self.params
        if kind == "cycle" and p[0] % 2 == 0:
            return p[0] // 2, 2
        if kind == "complete_bipartite" and p[0] == 2:
            return 2, p[1]
        if kind == "theta" and p[0] == 2:
            return p[1], 2
        if kind == "theta" and p[1] <= 4:
            return p[1], p[0]
        if kind == "berge_cycle":
            return p[0], 2
        return None

    @property
    def edge_list(self):
        """The pattern's edges as vertex tuples, for the kinds whose copy
        is one fixed (hyper)graph that the oracle embeds edge by edge: an
        explicit pattern's own edges; K_{s,t} with hubs 0..s-1 joined to
        leaves s..s+t-1; theta_{K,l} with ends 0 and 1, path j running
        0, 2 + j(l-1), .., 1 + (j+1)(l-1), 1.  None for a cycle or a
        Berge cycle, which the oracle decides by its path rules."""
        kind, p = self.kind, self.params
        if kind == "explicit":
            return tuple(map(tuple, self.edges))
        if kind == "complete_bipartite":
            return tuple((h, p[0] + x) for h in range(p[0]) for x in range(p[1]))
        if kind == "theta":
            K, step = p[0], p[1] - 1
            paths = ([0, *range(2 + j * step, 2 + (j + 1) * step), 1] for j in range(K))
            return tuple(e for path in paths for e in zip(path, path[1:]))
        return None


def parse_pattern(text) -> ForbiddenPattern:
    """Parse a pattern string such as ``K_{2,2}``, ``C_6``, ``C_{10}``,
    ``theta_{3,4}`` or ``bergeC_2``; a ForbiddenPattern is returned as
    it is, so every caller that takes either coerces here.

    K_(s,t) parameters are normalised so that s <= t.
    """
    if isinstance(text, ForbiddenPattern):
        return text
    for kind, (_, spelling) in _SPELLINGS.items():
        m = spelling and spelling.fullmatch(text)
        if m:
            params = tuple(int(g) for g in m.groups() if g is not None)
            if kind == "complete_bipartite":
                params = tuple(sorted(params))
            return ForbiddenPattern(kind, params)
    raise ValueError(f"unrecognised pattern string {text!r}")


# --------------------------------------------------------------- helpers


def _emit(G: LabeledHypergraph, pat: ForbiddenPattern, vertices, edges) -> dict:
    # final gate: every witness edge, sorted, must be a row of the host's
    # edge array; only the rows that start at its least vertex can be
    E = G.edge_array
    for e in edges:
        row = sorted(e)
        if len(row) != G.m or not (E[E[:, 0] == row[0]] == row).all(axis=1).any():
            raise RuntimeError(
                f"internal error: witness edge {tuple(e)} not present in host"
            )
    return {
        "pattern": pat.spec_string(),
        "vertices": [int(v) for v in vertices],
        "edges": [sorted(int(v) for v in e) for e in edges],
    }


def _paths_by_end(adj, root: int, length: int, floor: int) -> dict:
    """Simple paths of exactly `length` edges from `root` whose other
    vertices all exceed `floor`, bucketed by end vertex; each bucket lists
    its paths (vertex tuples) in lexicographic order.

    `adj` holds each vertex's neighbours in ascending order.  The search
    keeps a stack of neighbour iterators instead of recursing and closes
    paths in a plain loop over the last vertex's neighbours: on the large
    hosts most of the work is at that level.
    """
    buckets: dict[int, list[tuple]] = {}
    path = [root]
    stack = [iter(adj[root])]
    while path:
        if len(path) == length:
            for z in adj[path[-1]]:
                if z > floor and z not in path:
                    path.append(z)
                    buckets.setdefault(z, []).append(tuple(path))
                    path.pop()
            path.pop()
            continue
        for y in stack[-1]:
            if y > floor and y not in path:
                path.append(y)
                if len(path) < length:
                    stack.append(iter(adj[y]))
                break
        else:
            stack.pop()
            path.pop()
    return buckets


def _walk_blocks(A, rows, k: int):
    """Yield (row_of, walks) for each block of `_ROWS` rows of the int64
    index array `rows` of the symmetric 0/1 int64 CSR matrix A: `walks`
    holds those rows of the non-backtracking walk counts A_k in int64
    CSR and `row_of` the host row of each of its entries.

    The counts follow A_1 = A, A_2 = A^2 - D and
    A_j = A_{j-1} A - A_{j-2} (D - I), with D the degree matrix of A,
    the last as one product of the block pair [A_{j-1} A_{j-2}] with
    the stacked [A; I - D], so no full product is formed.  A block's
    rows of A_j need only the same rows of A_{j-1} and A_{j-2}, so any
    set of rows can be scanned alone.  Blocks go in the order of `rows`,
    and a block is formed only when the consumer asks for it.
    """
    deg = np.diff(A.indptr)
    if k > 2:
        step = sparse.vstack([A, sparse.diags(1 - deg, dtype=np.int64)], format="csr")
    for lo in range(0, len(rows), _ROWS):
        block = rows[lo:lo + _ROWS]
        older = A[block]
        D = sparse.csr_matrix((deg[block], block, np.arange(len(block) + 1)), shape=older.shape)
        walks = older @ A - D
        for _ in range(k - 2):
            older, walks = walks, sparse.hstack([walks, older], format="csr") @ step
        yield np.repeat(block, np.diff(walks.indptr)), walks


def _walk_counts_reach(A, rows, k: int, threshold: int) -> bool:
    """Whether an off-diagonal non-backtracking walk count A_k[u, w],
    u != w, u in the int64 index array `rows`, reaches `threshold`.  The
    blocks of `_walk_blocks` go in order, and the scan stops at the first
    block where some entry reaches it."""
    return any(np.any((walks.data >= threshold) & (walks.indices != row_of))
               for row_of, walks in _walk_blocks(A, rows, k))


def _counts_exact(A, k: int) -> bool:
    """True when the int64 counts `_walk_blocks` forms for A_k on the 0/1
    matrix A are exact: its maximum degree D has D**k < 2**63 (on the
    incidence matrix of an m-uniform host D is max(vertex degree, m)).

    Row u of A_j (j <= k) counts the non-backtracking walks of j steps
    out of u, at most D * (D - 1)**(j - 1) <= D**j in all.  A_2's entries
    are sums of at most D ones, less the degree.  For j >= 3 the entry
    A_j[u, w] is summed from the terms A_{j-1}[u, t] over the neighbours
    t of w, whose total is at most row u's sum of A_{j-1}, so at most
    D**(j - 1), and the one term A_{j-2}[u, w] * (1 - deg w), at most
    D**(j - 2) * D in absolute value.  So every product and every partial
    sum the recurrence forms lies within 2 * D**(j - 1) <= D**k for D >= 2
    (and within 2 for D <= 1), below 2**63.
    """
    return int(np.diff(A.indptr).max()) ** k < 2 ** 63


def _pack_disjoint(paths, K: int):
    """Pick K of the given u-v paths with pairwise disjoint interiors.

    Exact: a complete include/exclude search in path order, whose first
    descent is the greedy choice. Paths with identical interiors are
    collapsed (they can never coexist). Returns the chosen paths or None.
    """
    items = []
    seen = set()
    for p in paths:
        key = frozenset(p[1:-1])
        if key not in seen:
            seen.add(key)
            items.append((key, p))
    return _pack_from(items, K, 0, [], frozenset())


def _pack_from(items, K, i, acc, used):
    # module level: a nested function calling itself through its closure
    # would leave a reference cycle behind every call
    if len(acc) == K:
        return acc
    while i < len(items) and len(acc) + (len(items) - i) >= K:
        key, p = items[i]
        i += 1
        if not (used & key):
            r = _pack_from(items, K, i, acc + [p], used | key)
            if r is not None:
                return r
    return None


# ---------------------------------------------------------------- K_{s,t}


def contains_kst(G: LabeledHypergraph, s: int, t: int):
    """Find a K_{s,t} subgraph (s hub vertices totally joined to t others).

    Past the gate, for s = 2 a codegree counter scans vertices in
    ascending order and reports the first hub pair whose common
    neighbourhood reaches size t. For other s, hub sets are explored in
    ascending lexicographic order with intersection pruning.

    Returns a witness whose vertex list is the s hubs followed by the
    t leaves, or None.
    """
    pat = ForbiddenPattern("complete_bipartite", (s, t))
    pat.check_host(G.m)
    if _proved_absent(G, pat):
        return None
    if s == 2:
        found = _codegree_scan(G.adj, t)
    else:
        adj = G.adj
        cand = [v for v in range(G.n) if len(adj[v]) >= t]
        found = _kst_hubs(adj, cand, s, t, 0, [], set())
    if found is None:
        return None
    edges = [(h, x) for h in found[:s] for x in found[s:]]
    return _emit(G, pat, found, edges)


def _codegree_scan(adj, t):
    """Scan vertices w in ascending order, crediting w to every pair of its
    neighbours; returns the first pair to reach t common neighbours
    followed by those t neighbours, or None."""
    counts: dict[tuple[int, int], list[int]] = {}
    for w, nb in enumerate(adj):
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                key = (nb[i], nb[j])
                lst = counts.setdefault(key, [])
                lst.append(w)
                if len(lst) == t:
                    return list(key) + lst
    return None


def _kst_hubs(adj, cand, s, t, start, hubs, common):
    """Extend `hubs` by candidates from `start` on until s hubs share t
    neighbours; returns the hubs followed by the t least common
    neighbours, or None."""
    if len(hubs) == s:
        return hubs + sorted(common)[:t]
    for ii in range(start, len(cand)):
        v = cand[ii]
        if len(cand) - ii < s - len(hubs):
            break
        newc = common.intersection(adj[v]) if hubs else set(adj[v])
        if len(newc) >= t:
            r = _kst_hubs(adj, cand, s, t, ii + 1, hubs + [v], newc)
            if r is not None:
                return r
    return None


# ----------------------------------------------------------------- cycles


def _cycles(adj, length: int):
    """Yield every cycle with `length` vertices exactly once, as a vertex
    list starting at its minimum vertex and oriented so that its second
    vertex is smaller than its last.

    `adj` holds each vertex's neighbours in ascending order: a graph's
    `G.adj`, or the incidence graph `_berge_search` builds, where a root
    whose neighbours are all smaller than it yields nothing. Roots go in
    ascending order; the cycles whose minimum vertex is the root are
    assembled from two half-paths out of it that meet in the middle (for
    odd lengths the halves are joined across an edge), ordered by the
    far end (the smaller one for odd lengths), then by the half-paths.
    An even cycle comes out oriented: the paths of a bucket are in
    lexicographic order and their interiors are disjoint, so the first
    path's second vertex is the smaller.  An odd one is flipped where
    the second half-path starts lower.
    """
    half = length // 2
    for root in range(len(adj)):
        buckets = _paths_by_end(adj, root, half, root)
        if length % 2 == 0:
            for w in sorted(buckets):
                lst = buckets[w]
                for i in range(len(lst) - 1):
                    left = set(lst[i][1:-1])
                    for j in range(i + 1, len(lst)):
                        if left.isdisjoint(lst[j][1:-1]):
                            yield list(lst[i]) + list(reversed(lst[j][1:-1]))
        else:
            for x in sorted(buckets):
                for y in adj[x]:
                    if y <= x or y not in buckets:
                        continue
                    for p1 in buckets[x]:
                        tail1 = set(p1[1:])
                        for p2 in buckets[y]:
                            if tail1.isdisjoint(p2[1:]):
                                a, b = (p1, p2) if p1[1] < p2[1] else (p2, p1)
                                yield list(a) + list(reversed(b[1:]))


def contains_cycle(G: LabeledHypergraph, length: int):
    """Find a cycle with exactly `length` vertices.

    Returns the first cycle `_cycles` yields: roots in ascending order,
    and for root r only cycles whose minimum vertex is r. The returned
    vertex list is the cycle in traversal order, oriented so that its
    second entry is smaller than its last.  Past the gate, the ordered
    search decides and gives the witness.
    """
    pat = ForbiddenPattern("cycle", (length,))
    pat.check_host(G.m)
    if _proved_absent(G, pat):
        return None
    return _cycle_witness(G, pat, length)


def _cycle_witness(G, pat, length):
    # the first cycle `_cycles` yields, as the witness of `pat`
    if length <= G.n:
        for cyc in _cycles(G.adj, length):
            return _emit(G, pat, cyc, list(zip(cyc, cyc[1:] + cyc[:1])))
    return None


def girth(G: LabeledHypergraph):
    """Length of a shortest cycle, or math.inf for a forest.

    Runs one breadth-first search per root; the first non-tree edge seen
    from root r closes a cycle of length dist(u) + dist(w) + 1, and the
    minimum of these estimates over all roots is exact.
    """
    ForbiddenPattern("cycle", (3,)).check_host(G.m)
    best = math.inf
    adj = G.adj
    for root in range(G.n):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        depth = 0
        while frontier:
            if 2 * depth >= best:
                break
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w == parent[u]:
                        continue
                    if w in dist:
                        cand = dist[u] + dist[w] + 1
                        if cand < best:
                            best = cand
                    else:
                        dist[w] = depth + 1
                        parent[w] = u
                        nxt.append(w)
            frontier = nxt
            depth += 1
    return best


# ------------------------------------------------------------------ theta


def contains_theta(G: LabeledHypergraph, K: int, length: int):
    """Find a theta graph: K internally disjoint paths of exactly
    `length` edges between two common endpoints.

    Past the gate, K = 2 takes `contains_cycle`'s search (the pattern
    is a 2*length cycle).  Otherwise the ordered search
    (`_theta_generic`) decides and gives the witness: pairs u < v go in
    row-major order, with one `_paths_by_end` search per root u, and the
    first pair whose u-v paths hold K with disjoint interiors is
    returned.
    """
    pat = ForbiddenPattern("theta", (K, length))
    pat.check_host(G.m)
    if _proved_absent(G, pat):
        return None
    if K == 2:
        return _cycle_witness(G, pat, 2 * length)
    return _theta_generic(G, pat)


def _theta_generic(G, pat):
    K, length = pat.params
    for u in range(G.n):
        buckets = _paths_by_end(G.adj, u, length, -1)
        for v in sorted(buckets):
            if v <= u:
                continue
            chosen = _pack_disjoint(buckets[v], K)
            if chosen is not None:
                return _theta_witness(G, pat, u, v, chosen)
    return None


def _theta_witness(G, pat, u, v, chosen):
    vertices = [u, v]
    edges = []
    for p in chosen:
        vertices.extend(p[1:-1])
        edges.extend(zip(p, p[1:]))
    return _emit(G, pat, vertices, edges)


# ------------------------------------------------------------ Berge cycles


def contains_berge_cycle(Hy: LabeledHypergraph, length: int):
    """Find a Berge cycle of the given length (2, 3 or 4): a core cycle
    v_1 .. v_l together with l distinct hyperedges e_i covering the
    consecutive pairs {v_i, v_{i+1}}.

    A Berge l-cycle is exactly a cycle of 2l nodes in the vertex-edge
    incidence graph, vertex v as node v and edge i as node n + i; the
    gate reads the vertex rows of `Hy.incidence`.  Past it, the ordered
    search picks the witness: the first cycle `_cycles` yields on
    the incidence graph's ascending neighbour tuples, oriented as
    `contains_cycle` orients its witness (the hyperedge after v_1 has a
    smaller index than the one before it).  Its vertex nodes are the
    core and its edge nodes, in slot order, the hyperedges; so the
    witness is `contains_cycle`'s witness on the incidence graph, read
    back.  For length 2 that is the lexicographically least vertex pair
    covered twice, with its two least hyperedges.
    """
    pat = ForbiddenPattern("berge_cycle", (length,))
    pat.check_host(Hy.m)
    if _proved_absent(Hy, pat):
        return None
    return _berge_search(Hy, pat)


def _berge_search(Hy, pat):
    n = Hy.n
    nbrs = tuple(tuple(n + i for i in inc) for inc in Hy.incident) + \
        tuple(map(tuple, Hy.edge_array.tolist()))
    for cyc in _cycles(nbrs, 2 * pat.params[0]):
        return _emit(Hy, pat, cyc[0::2], [nbrs[i] for i in cyc[1::2]])
    return None


# -------------------------------------------------------- explicit pattern


def contains_explicit(G: LabeledHypergraph, pattern_edges):
    """Find an injective embedding of an explicit pattern (subgraph
    containment, not induced). Patterns are limited to 10 vertices;
    edge arity must match the host, and an edge listed twice is refused.

    Pattern vertices are matched in the order of `_explicit_plan`, built
    once per pattern, candidates tried in ascending host order with a
    degree cutoff: a vertex reached from a placed pattern neighbour takes
    its candidates from the image's ``adj`` (every image of it lies
    there), the first vertex of each pattern component from all host
    vertices.
    """
    pat = ForbiddenPattern("explicit", (), tuple(map(tuple, pattern_edges)))
    pat.check_host(G.m)
    rows, order, parent, deg, checks = _explicit_plan(pat.edges)
    es = set(map(tuple, G.edge_array.tolist()))
    phi: dict[int, int] = {}
    if not _embed(G.adj, G.degree, es, order, parent, deg, checks, phi, set(), 0):
        return None
    return _emit(G, pat, [phi[v] for v in range(len(deg))], [[phi[x] for x in e] for e in rows])


def _holds_through(pattern_edges: tuple, edge: tuple, adj, degree, es) -> bool:
    """Whether the host plus `edge` holds a copy of the pattern
    `pattern_edges` (a tuple of vertex tuples) that uses `edge`.  The
    host is given as `_embed` reads it: its neighbour lists `adj`, its
    `degree` lookup and its set `es` of sorted edges; `edge` is sorted,
    on host vertices, and not in `es`.

    Each pattern edge in turn is mapped onto `edge` in every order of
    its vertices, which come first in the plan anchored on it, and
    `_embed` extends the map.  The map is injective, so every other
    pattern edge lands on another edge, one in `es`; only the anchor's
    vertices gain a degree from `edge`.
    """
    used = set(edge)
    m = len(edge)
    for a in range(len(pattern_edges)):
        rows, order, parent, pdeg, checks = _explicit_plan(pattern_edges, a)
        anchor = order[:m]
        for image in itertools.permutations(edge):
            if all(degree(g) >= pdeg[pv] - 1 for pv, g in zip(anchor, image)) and _embed(
                    adj, degree, es, order, parent, pdeg, checks, dict(zip(anchor, image)), used, m):
                return True
    return False


@functools.lru_cache(maxsize=None)
def _explicit_plan(edges: tuple, anchor=None) -> tuple:
    """The search plan of the explicit pattern `edges`, its vertex labels
    renumbered 0..k-1 in ascending order: its edges as sorted rows, the
    match order, for each vertex in it a pattern neighbour earlier in
    the order (None at a component's first vertex), each vertex's
    degree, and the edges checkable once order[i] is placed.

    The pattern is a LabeledHypergraph, and the order is `_bfs` of its
    ``adj``, each component rooted at its highest-degree (then least)
    vertex.  With `anchor`, the index of an edge, the search is rooted
    at that edge's vertices instead, which are moved to the front of the
    order; every other vertex keeps a parent one BFS level up, so before
    it.  Memoised, so callers only read it.
    """
    labels = sorted({v for e in edges for v in e})
    P = LabeledHypergraph(len(edges[0]), labels, [[labels.index(v) for v in e] for e in edges])
    deg = tuple(map(P.degree, range(P.n)))
    rows = tuple(map(tuple, P.edge_array.tolist()))
    roots = sorted(range(P.n), key=lambda v: (-deg[v], v))
    head = () if anchor is None else rows[anchor]
    order, dist = _bfs(P.adj, [*head, *roots])
    order = [*head, *(v for v in order if v not in head)]
    rank = {v: i for i, v in enumerate(order)}
    parent = tuple(None if dist[v] == 0 else next(u for u in P.adj[v] if dist[u] < dist[v])
                   for v in order)
    # pattern edges become checkable once their last vertex is placed
    checks = tuple(tuple(e for e in rows if max(map(rank.get, e)) == i) for i in range(P.n))
    return rows, tuple(order), parent, deg, checks


def _embed(adj, degree, es, order, parent, pdeg, checks, phi, used, i):
    """Map pattern vertices order[i:] to unused host vertices, extending
    phi (whose images are `used`) so that each pattern edge lands in the
    host's edge set `es`; True once every vertex is placed.  order[i]
    takes its candidates from ``adj`` of phi[parent[i]], the host
    neighbours of a placed pattern neighbour, or from every host vertex
    when parent[i] is None, and only those whose `degree` reaches its
    pattern degree."""
    if i == len(order):
        return True
    pv = order[i]
    for g in range(len(adj)) if parent[i] is None else adj[phi[parent[i]]]:
        if g in used or degree(g) < pdeg[pv]:
            continue
        phi[pv] = g
        used.add(g)
        if all(
            tuple(sorted(phi[x] for x in e)) in es for e in checks[i]
        ) and _embed(adj, degree, es, order, parent, pdeg, checks, phi, used, i + 1):
            return True
        del phi[pv]
        used.remove(g)
    return False


# -------------------------------------------------------------- dispatcher


def check_pattern(G: LabeledHypergraph, pattern):
    """Dispatch a ForbiddenPattern (or pattern string) to its decider,
    which refuses a host the pattern does not fit (`ForbiddenPattern.fits`).
    """
    pattern = parse_pattern(pattern)
    if pattern.kind == "complete_bipartite":
        return contains_kst(G, *pattern.params)
    if pattern.kind == "cycle":
        return contains_cycle(G, *pattern.params)
    if pattern.kind == "theta":
        return contains_theta(G, *pattern.params)
    if pattern.kind == "berge_cycle":
        return contains_berge_cycle(G, *pattern.params)
    return contains_explicit(G, pattern.edges)


# ------------------------------------------------------------ orbit rows


def rows_prove_absent(H: LabeledHypergraph, rows, pattern) -> bool:
    """True when the walk counts of `ForbiddenPattern.walk_test` prove
    `pattern` (a ForbiddenPattern or pattern string) absent from H: for
    its (k, threshold), no off-diagonal count of A_k in the rows `rows`
    (an int64 index array of vertices) of H's adjacency matrix (``csr``,
    m = 2) or vertex-edge incidence matrix (``incidence``, m >= 3)
    reaches the threshold.  The deciders pass every vertex on an edge and
    `verify`'s orbit route one vertex per orbit.  False on a hit, for a
    pattern with no walk test or that does not fit H (a Berge cycle on a
    graph, a graph pattern on a hypergraph), and where `_counts_exact`
    fails for A_k."""
    pattern = parse_pattern(pattern)
    test = pattern.walk_test
    if test is None or not pattern.fits(H.m):
        return False
    A = H.csr if H.m == 2 else H.incidence
    return _counts_exact(A, test[0]) and not _walk_counts_reach(A, rows, *test)


def _proved_absent(H: LabeledHypergraph, pat: ForbiddenPattern) -> bool:
    """The deciders' one gate: True when H has `_KERNEL_EDGES` edges or
    more, `pat` has a `walk_test`, and `rows_prove_absent` proves `pat`
    absent on the rows of every vertex that lies on an edge (an edgeless
    vertex's row of A_k is zero, so leaving it out changes no verdict).
    The first two are checked before any row array is formed."""
    E = H.edge_array
    return len(E) >= _KERNEL_EDGES and pat.walk_test is not None and rows_prove_absent(
        H, np.flatnonzero(np.bincount(E.ravel(), minlength=H.n)), pat)
