"""Hypergraph, partition, and certification data model.

A LabeledHypergraph is an m-uniform edge list over string-labeled
vertices, held as one (E, m) int array that every reader uses; vertex
indices, not labels, are the API currency.  A SplitPartition carries r
pairwise-disjoint parts plus the declared part size cap, and verify_rk
certifies whether the pair is rainbow complete: for every m-subset of
parts there is an edge meeting each chosen part in exactly one vertex.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain, combinations, count
from math import comb

import numpy as np
from scipy import sparse

__all__ = [
    "BudgetExceededError",
    "LabeledHypergraph",
    "SplitPartition",
    "VerificationReport",
    "part_map",
    "verify_rk",
    "property_B_check",
    "components",
    "orbit_representatives",
]


class BudgetExceededError(RuntimeError):
    """An exhaustive search hit its node budget before deciding."""


# Checks for documents read from JSON.  They run in from_json_dict only,
# so the builders and the oracle, which make their objects directly, pay
# nothing.  `type(x) is int` rather than isinstance: JSON true is a bool,
# and bool subclasses int.


def _json_fields(d, kind: str, keys) -> list:
    if type(d) is not dict:
        raise ValueError(f"{kind} document must be a JSON object, got {type(d).__name__}")
    for key in keys:
        if key not in d:
            raise ValueError(f"{kind} document has no {key!r} field")
    return [d[key] for key in keys]


def _json_int(x, kind: str, key: str) -> None:
    if type(x) is not int:
        raise ValueError(f"{kind} field {key!r} must be an integer, got {x!r}")


def _json_index_rows(rows, kind: str, key: str) -> None:
    """Raise unless rows is an array of arrays of integers."""
    if type(rows) is not list or set(map(type, rows)) - {list}:
        raise ValueError(f"{kind} field {key!r} must be an array of arrays")
    if set(map(type, chain.from_iterable(rows))) - {int}:
        bad = next(x for x in chain.from_iterable(rows) if type(x) is not int)
        raise ValueError(f"{kind} field {key!r} holds {bad!r}, not a vertex index")


def _reject(rows, bad, message: str) -> None:
    """Raise ValueError(message) naming the first row of `rows` marked in `bad`."""
    if bad.any():
        raise ValueError(message.format(tuple(np.ravel(rows[int(np.argmax(bad))]).tolist())))


class LabeledHypergraph:
    """Immutable m-uniform hypergraph held as one (E, m) int array.

    Parameters
    ----------
    m : int
        Uniformity, at least 2.  m=2 is the ordinary graph case.
    vertices : sequence of str
        Labels in construction order; edges refer to their indices.
    edges : (E, m) int array, or iterable of iterables of int
        Each edge must have exactly m distinct in-range vertices.
        Duplicate edges are rejected rather than merged, since the
        builders in this package never produce them intentionally.
        ``edge_array`` keeps a read-only int64 copy, each row sorted;
        ``edges``, its rows as int tuples, is built on first use.
    """

    __slots__ = ("m", "vertices", "edge_array", "__dict__", "__weakref__")

    def __init__(self, m: int, vertices, edges) -> None:
        if m < 2:
            raise ValueError(f"uniformity must be >= 2, got {m}")
        self.m = m
        self.vertices = tuple(str(v) for v in vertices)
        n = len(self.vertices)
        if isinstance(edges, np.ndarray):
            width = np.full(len(edges), edges.shape[1] if edges.ndim == 2 else 0)
        else:
            edges = list(edges)
            width = np.fromiter(map(len, edges), np.int64, len(edges))
        distinct = "edge {} does not have %d distinct vertices" % m
        _reject(edges, width != m, distinct)
        try:  # a copy: changing the caller's array later leaves the graph as it is
            E = np.array(edges, dtype=np.int64).reshape(len(edges), m)
        except OverflowError:  # an index of 2**63 or more, which the range check names
            E = np.array(edges, dtype=object).reshape(len(edges), m)
        E = np.sort(E, axis=1)
        _reject(E, (E[:, 1:] == E[:, :-1]).any(axis=1), distinct)
        _reject(E, (E[:, 0] < 0) | (E[:, -1] >= n), "edge {} references a vertex outside [0, %d)" % n)
        S = E[np.lexsort(E.T)]  # equal rows end up adjacent
        _reject(S[1:], (S[1:] == S[:-1]).all(axis=1), "duplicate edge {}")
        E.flags.writeable = False
        self.edge_array = E

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def edges(self) -> tuple:
        """The rows of ``edge_array`` as a tuple of int tuples."""
        pool = np.arange(self.n).astype(object)  # one int object per vertex, shared by every tuple
        return tuple(zip(*pool[self.edge_array.T].tolist()))

    @cached_property
    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    @cached_property
    def adj(self) -> tuple:
        """Neighbor sets: vertices sharing at least one edge."""
        return tuple(map(set, self.sadj))

    @cached_property
    def sadj(self) -> tuple:
        """Neighbours of each vertex as an ascending tuple; for m >= 3 the
        lists of the shadow graph."""
        E, n = self.edge_array, self.n
        i, j = np.nonzero(~np.eye(self.m, dtype=bool))  # every ordered pair of columns
        pairs = np.sort(E[:, i] * n + E[:, j], axis=None)  # the pairs (u, v) as u * n + v
        pairs = pairs[np.diff(pairs, prepend=-1) > 0]  # each once, however many edges cover it
        ends = np.searchsorted(pairs, np.arange(n + 1) * n).tolist()
        nbrs = np.arange(n).astype(object)[pairs % n].tolist()  # one int object per vertex
        return tuple(tuple(nbrs[a:b]) for a, b in zip(ends, ends[1:]))

    @cached_property
    def csr(self):
        """Symmetric 0/1 int64 adjacency matrix in canonical CSR format.
        Graphs (m = 2) only; callers must not modify it."""
        if self.m != 2:
            raise ValueError(f"an adjacency matrix needs a 2-uniform graph, got m={self.m}")
        E = self.edge_array
        A = sparse.csr_matrix((np.ones(len(E), dtype=np.int64), E.T), shape=(self.n, self.n))
        return (A + A.T).tocsr()

    @cached_property
    def incidence(self):
        """Symmetric 0/1 int64 matrix of the vertex-edge incidence graph in
        canonical CSR format, on n + |E| nodes: vertex v is node v and edge
        i is node n + i.  Hypergraphs (m >= 3) only; callers must not
        modify it."""
        if self.m < 3:
            raise ValueError(f"an incidence matrix needs m >= 3, got m={self.m}")
        E = self.edge_array
        N = self.n + len(E)
        nodes = np.repeat(np.arange(self.n, N), self.m)
        B = sparse.csr_matrix((np.ones(E.size, dtype=np.int64), (E.ravel(), nodes)), shape=(N, N))
        return (B + B.T).tocsr()

    @cached_property
    def colouring(self):
        """2-colouring by breadth-first search, starting each component at
        its least vertex with colour 0: a tuple of 0/1 per vertex, or None
        when an odd cycle obstructs.  Computed once per graph, from
        ``sadj``: the colours do not depend on the neighbour order."""
        color = [-1] * self.n
        sadj = self.sadj
        for s in range(self.n):
            if color[s] != -1:
                continue
            color[s] = 0
            frontier = [s]
            while frontier:
                nxt = []
                for u in frontier:
                    cu = color[u]
                    for w in sadj[u]:
                        if color[w] == -1:
                            color[w] = 1 - cu
                            nxt.append(w)
                        elif color[w] == cu:
                            return None
                frontier = nxt
        return tuple(color)

    @cached_property
    def incident(self) -> tuple:
        """Edge-index lists per vertex."""
        out = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            for v in e:
                out[v].append(i)
        return tuple(tuple(lst) for lst in out)

    def degree(self, v: int) -> int:
        return len(self.incident[v])

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "vertices": list(self.vertices),
            "edges": self.edge_array.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LabeledHypergraph":
        m, vertices, edges = _json_fields(d, "graph", ("m", "vertices", "edges"))
        _json_int(m, "graph", "m")
        if type(vertices) is not list or set(map(type, vertices)) - {str}:
            raise ValueError("graph field 'vertices' must be an array of strings")
        _json_index_rows(edges, "graph", "edges")
        return cls(m, vertices, edges)

    def __repr__(self) -> str:
        return f"LabeledHypergraph(m={self.m}, n={self.n}, edges={len(self.edge_array)})"


class SplitPartition:
    """Ordered list of disjoint vertex-index parts with a declared cap."""

    __slots__ = ("parts", "declared_k")

    def __init__(self, parts, declared_k: int) -> None:
        norm = []
        seen = set()
        for part in parts:
            part = tuple(sorted(part))
            for v in part:
                if v < 0:
                    raise ValueError(f"negative vertex index {v}")
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two parts")
                seen.add(v)
            if len(part) > declared_k:
                raise ValueError(
                    f"part of size {len(part)} exceeds declared k={declared_k}"
                )
            norm.append(part)
        self.parts = tuple(norm)
        self.declared_k = declared_k

    @property
    def r(self) -> int:
        return len(self.parts)

    def to_json_dict(self) -> dict:
        return {"k": self.declared_k, "parts": [list(p) for p in self.parts]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SplitPartition":
        k, parts = _json_fields(d, "partition", ("k", "parts"))
        _json_int(k, "partition", "k")
        _json_index_rows(parts, "partition", "parts")
        return cls(parts, k)

    def __repr__(self) -> str:
        return f"SplitPartition(r={self.r}, k={self.declared_k})"


@dataclass
class VerificationReport:
    r: int
    k_effective: int
    completeness_ok: bool
    missing_tuples: list
    independence_ok: bool
    forbidden_witness: dict | None = None
    wall_time: float = 0.0

    def to_json_dict(self) -> dict:
        return asdict(self)


def part_map(parts, n: int):
    """The vertex-to-part array of n vertices: v maps to the index of its
    part, or to -1 - v when it lies in no part, so two vertices share a
    value exactly when they share a part."""
    flat = list(chain.from_iterable(parts))  # Python ints, so an index >= 2**63 is named too
    if flat and max(flat) >= n:
        raise ValueError(f"partition references vertex {max(flat)}, graph has {n}")
    out = -1 - np.arange(n, dtype=np.int64)
    out[flat] = np.repeat(np.arange(len(parts)), [len(part) for part in parts])
    return out


def verify_rk(G: LabeledHypergraph, P: SplitPartition) -> VerificationReport:
    """Certify that (G, P) is an (r, k)-hypergraph.

    Every edge contributes the sorted row of its vertices' entries in
    :func:`part_map`.  An m-subset of parts is covered when some edge
    meets each of the m parts in exactly one vertex: its row starts at a
    part index (>= 0, so every vertex is assigned) and strictly
    increases.  Vertices outside every part are allowed and such edges
    never cover a tuple.  An edge lies inside one part when its row's
    first and last entries are equal.

    Returns
    -------
    VerificationReport
        With r, k_effective = max part size, the sorted list of
        uncovered part m-subsets, and the independence flag (no edge
        entirely inside one part).
    """
    t0 = time.monotonic()
    r, m = P.r, G.m
    rows = np.sort(part_map(P.parts, G.n)[G.edge_array], axis=1)
    independent = not (rows[:, 0] == rows[:, -1]).any()
    rainbow = rows[(rows[:, 0] >= 0) & (np.diff(rows, axis=1) > 0).all(axis=1)]
    rainbow = rainbow[np.lexsort(rainbow.T)]  # equal rows end up adjacent
    distinct = len(rainbow) and 1 + (rainbow[1:] != rainbow[:-1]).any(axis=1).sum()
    k_eff = max((len(p) for p in P.parts), default=0)
    if distinct == comb(r, m):
        missing = []
    else:
        covered = set(map(tuple, rainbow.tolist()))
        missing = [c for c in combinations(range(r), m) if c not in covered]
    return VerificationReport(
        r=r,
        k_effective=k_eff,
        completeness_ok=not missing,
        missing_tuples=missing,
        independence_ok=independent,
        wall_time=time.monotonic() - t0,
    )


def property_B_check(H: LabeledHypergraph, c, budget: int = 1_000_000) -> bool:
    """Decide whether H admits a coloring with color profile c.

    A k-coloring has profile c = (c_1, ..., c_k) when every edge
    carries exactly c_i vertices of color i; profile (1, 1) on a graph
    is bipartiteness.  Exhaustive backtracking over edge-connected
    vertices in BFS order, so isolated vertices cost nothing.

    Raises
    ------
    BudgetExceededError
        When the search is cut off before a decision; never guesses.
    """
    c = tuple(int(x) for x in c)
    if len(c) < 2:
        raise ValueError("color profile needs at least two colors")
    if any(x <= 0 for x in c):
        raise ValueError(f"color profile must be positive, got {c}")
    if sum(c) != H.m:
        raise ValueError(f"profile {c} sums to {sum(c)}, uniformity is {H.m}")
    if H.n > 24:
        raise ValueError(f"{H.n} vertices exceeds the exhaustive limit of 24")
    incident = H.incident
    order = []
    seen = [False] * H.n
    for s in range(H.n):
        if seen[s] or not incident[s]:
            continue
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in H.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    counts = [[0] * len(c) for _ in H.edges]
    return _colour_from(order, incident, counts, c, budget, count(1), 0)


def _colour_from(order, incident, counts, c, budget, nodes, pos) -> bool:
    """Colour order[pos:] on top of the per-edge colour counts; `nodes`
    numbers the search nodes across the whole search."""
    if pos == len(order):
        return True
    v = order[pos]
    for col in range(len(c)):
        if next(nodes) > budget:
            raise BudgetExceededError(
                f"property B check undecided at budget ({budget} nodes)"
            )
        ok = True
        touched = []
        for ei in incident[v]:
            counts[ei][col] += 1
            touched.append(ei)
            if counts[ei][col] > c[col]:
                ok = False
                break
        if ok and _colour_from(order, incident, counts, c, budget, nodes, pos + 1):
            return True
        for ei in touched:
            counts[ei][col] -= 1
    return False


def components(G: LabeledHypergraph) -> list:
    """Connected components (vertices share a component when they share
    an edge), as sorted index lists ordered by least vertex."""
    from scipy.sparse import csgraph  # here, not at the top: its import takes ~0.1 s and 11 MB
    E = G.edge_array
    first = np.repeat(E[:, 0], G.m - 1)  # each edge links its least vertex to the others
    links = sparse.coo_matrix((np.ones(first.size), (first, E[:, 1:].ravel())), shape=(G.n, G.n))
    ncomp, label = csgraph.connected_components(links, directed=False)
    groups = [[] for _ in range(ncomp)]
    for v, c in enumerate(label.tolist()):
        groups[c].append(v)
    return sorted(groups, key=lambda g: g[0])


def orbit_representatives(G: LabeledHypergraph, gens, name: str) -> np.ndarray:
    """The least vertex of each orbit of the group that the vertex
    permutations `gens` (int arrays g, vertex v to g[v]) generate on the
    graph G, ascending.

    Each generator is first checked to be a permutation of the n
    vertices that maps G's edge set onto itself; a RuntimeError names
    the first that is not by `name` and its index, and no orbit is
    formed.  The orbits come from min-label propagation: every vertex
    keeps the least label among itself and its images, then looks its
    label's label up, until nothing changes.
    """
    if G.m != 2:
        raise ValueError(f"orbit representatives need a 2-uniform graph, got m={G.m}")
    n = G.n
    E = G.edge_array
    codes = E @ (n, 1)  # edge (u, v), u < v, as u * n + v
    gens = [np.asarray(g) for g in gens]
    for i, g in enumerate(gens):
        if g.shape != (n,) or g.dtype.kind not in "iu" or \
                not np.array_equal(np.sort(g), np.arange(n)):
            raise RuntimeError(f"{name} generator {i} is not a permutation of the {n} vertices")
        u, v = g[E].T
        # g is a permutation, so mapping the edges into the edges maps them onto them
        if not np.isin(np.minimum(u, v) * n + np.maximum(u, v), codes, assume_unique=True).all():
            raise RuntimeError(f"{name} generator {i} does not map the host's edges to edges")
    label = np.arange(n)
    while True:
        new = label
        for g in gens:
            new = np.minimum(new, new[g])
        new = new[new]
        if np.array_equal(new, label):
            return np.flatnonzero(label == np.arange(n))
        label = new
