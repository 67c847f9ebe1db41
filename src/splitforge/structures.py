"""Hypergraph, partition, and certification data model.

A LabeledHypergraph is an m-uniform edge list over string-labeled
vertices, held as one (E, m) int array that every reader uses; vertex
indices, not labels, are the API currency.  A SplitPartition carries r
pairwise-disjoint parts plus the declared part size cap, and verify_rk
certifies whether the pair is rainbow complete: for every m-subset of
parts there is an edge meeting each chosen part in exactly one vertex.
The array passes over edge rows live here: `_sort_rows`, `edge_codes`,
and `_int_rows`, the digit writer that the CLI's graph documents and the
builders' coordinate labels share.
"""

from __future__ import annotations

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
    "edge_codes",
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
    """Raise unless rows is an array of arrays of integers: lists, or a
    2-D int64 array, as the CLI reads the edges of a canonical document."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.int64:
        return
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
        ``edges``, its rows as int tuples, is built on first use and
        read by no code in this package.
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
        try:
            E = np.asarray(edges, dtype=np.int64).reshape(len(edges), m)
        except OverflowError:  # an index of 2**63 or more, which the range check names
            E = np.array(edges, dtype=object).reshape(len(edges), m)
        E = _sort_rows(E)  # a new array: changing the caller's later leaves the graph as it is
        _reject(E, (E[:, 1:] == E[:, :-1]).any(axis=1), distinct)
        _reject(E, (E[:, 0] < 0) | (E[:, -1] >= n), "edge {} references a vertex outside [0, %d)" % n)
        repeats, first = _repeats(E, n)
        if repeats:
            raise ValueError(f"duplicate edge {first}")
        E.flags.writeable = False
        self.edge_array = E

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def edges(self) -> tuple:
        """The rows of ``edge_array`` as a tuple of int tuples."""
        return tuple(map(tuple, self.edge_array.tolist()))

    @cached_property
    def adj(self) -> tuple:
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
        when an odd cycle obstructs (for m >= 3, whenever there is an
        edge).  Computed once per graph, from ``adj``."""
        colour = np.array(_bfs(self.adj)[1], dtype=np.int64) % 2
        if (np.diff(_sort_rows(colour[self.edge_array]), axis=1) == 0).any():  # an edge in one colour
            return None
        return tuple(colour.tolist())

    @cached_property
    def incident(self) -> tuple:
        """The indices of the edges at each vertex, ascending."""
        E = self.edge_array
        order = (np.argsort(E.ravel(), kind="stable") // self.m).tolist()
        ends = np.cumsum(np.bincount(E.ravel(), minlength=self.n)).tolist()
        return tuple(tuple(order[a:b]) for a, b in zip([0] + ends, ends))

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
        norm = tuple(tuple(sorted(part)) for part in parts)
        flat = list(chain.from_iterable(norm))
        try:
            V = np.array(flat, dtype=np.int64)
        except OverflowError:  # an index of 2**63 or more
            V = np.array(flat, dtype=object)
        # the checks run part by part, each part ascending: a vertex is
        # named where it is negative or where it occurs a second time,
        # and a part's size after its vertices
        bad = (V < 0).astype(bool)
        S = np.sort(V)
        if (S[1:] == S[:-1]).any():  # a repeat: flag each occurrence after the first
            repeat = np.ones(len(V), dtype=bool)
            repeat[np.unique(V, return_index=True)[1]] = False
            bad |= repeat
        sizes = [len(part) for part in norm]
        over = next((j for j, size in enumerate(sizes) if size > declared_k), len(norm))
        if bad[:sum(sizes[:over + 1])].any():
            v = flat[int(np.argmax(bad))]
            if v < 0:
                raise ValueError(f"negative vertex index {v}")
            raise ValueError(f"vertex {v} appears in two parts")
        if over < len(norm):
            raise ValueError(f"part of size {sizes[over]} exceeds declared k={declared_k}")
        self.parts = norm
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
    r, m = P.r, G.m
    rows = _sort_rows(part_map(P.parts, G.n)[G.edge_array])
    independent = not (rows[:, 0] == rows[:, -1]).any()
    rainbow = rows[(rows[:, 0] >= 0) & (np.diff(rows, axis=1) > 0).all(axis=1)]
    distinct = len(rainbow) - _repeats(rainbow, r)[0]
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
    order = [v for v in _bfs(H.adj)[0] if incident[v]]
    counts = [[0] * len(c) for _ in range(len(H.edge_array))]
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
    order, dist = _bfs(G.adj)
    starts = [i for i, v in enumerate(order) if dist[v] == 0] + [len(order)]
    return [sorted(order[a:b]) for a, b in zip(starts, starts[1:])]


def _bfs(adj, roots=None) -> tuple:
    """Breadth-first search of every component from its first vertex in
    `roots` (all vertices; ascending when None), the components taken in
    that order: the vertices in the order visited, and each vertex's
    distance from its component's root."""
    order: list = []
    dist = [-1] * len(adj)
    i = 0  # order[i:] is the queue; it is empty whenever a component is done
    for s in range(len(adj)) if roots is None else roots:
        if dist[s] >= 0:
            continue
        dist[s] = 0
        order.append(s)
        while i < len(order):
            u = order[i]
            i += 1
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    order.append(w)
    return order, dist


def _repeats(rows, base: int) -> tuple:
    """How many rows of the (R, m) int array `rows`, entries in [0, base),
    equal the row before them once the rows are sorted in
    `np.lexsort(rows.T)` order (R less that count is the number of
    distinct rows), and the first of them as an int tuple, or None when
    no row repeats.  The rows are sorted as `edge_codes` of the reversed
    rows, whose last column weighs most, as in lexsort; only where base^m
    reaches 2^63, and a code could overflow, by np.lexsort itself."""
    m = rows.shape[1]
    if base ** m >= 2 ** 63:
        S = rows[np.lexsort(rows.T)]
        same = (S[1:] == S[:-1]).all(axis=1)
    else:
        S = np.sort(edge_codes(rows[:, ::-1], base))
        same = S[1:] == S[:-1]
    count = int(np.count_nonzero(same))
    if not count:
        return 0, None
    first = S[1 + int(np.argmax(same))]
    if S.ndim == 1:  # a code: the row is its digits in base `base`, least first
        first = first // base ** np.arange(m) % base
    return count, tuple(first.tolist())


def edge_codes(rows, n: int) -> np.ndarray:
    """Each row of the (E, m) int array `rows`, entries in [0, n), as the
    int64 code sum of row[i] * n^(m-1-i), so two rows are equal exactly
    when their codes are.  Raises ValueError when n^m reaches 2^63, where
    a code could overflow."""
    m = rows.shape[1]
    if n ** m >= 2 ** 63:
        raise ValueError(f"edge codes of {m} vertices out of {n} overflow int64")
    return rows @ n ** np.arange(m - 1, -1, -1, dtype=np.int64)


def orbit_representatives(G: LabeledHypergraph, gens, name: str, codes=None) -> np.ndarray:
    """The least vertex of each orbit of the group that the vertex
    permutations `gens` (int arrays g, vertex v to g[v]) generate on the
    hypergraph G, ascending.

    Each generator is first checked to be a permutation of the n
    vertices (every entry in [0, n), each value once) that maps G's edge
    set onto itself: the sorted `edge_codes` of its image rows must equal
    G's, which `codes` gives when the caller has them.  A RuntimeError
    names the first that is not by `name` and its index, and no orbit is
    formed.  The orbits come from min-label propagation: every vertex
    keeps the least label among itself and its images, then looks its
    label's label up, until nothing changes.
    """
    n = G.n
    E = G.edge_array
    if codes is None:
        codes = np.sort(edge_codes(E, n))
    gens = [np.asarray(g) for g in gens]
    for i, g in enumerate(gens):
        if g.shape != (n,) or g.dtype.kind not in "iu" or \
                (n and (g.min() < 0 or g.max() >= n)) or \
                not (np.bincount(g.astype(np.intp, copy=False), minlength=n) == 1).all():
            raise RuntimeError(f"{name} generator {i} is not a permutation of the {n} vertices")
        # a permutation maps distinct rows to distinct rows, so equal code
        # lists mean it maps the edges onto the edges
        if not np.array_equal(np.sort(edge_codes(_sort_rows(g[E]), n)), codes):
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


def _sort_rows(E) -> np.ndarray:
    """A new array of the rows of the (R, m) array E, m >= 1, each sorted
    ascending, as `np.sort(E, axis=1)` gives them.  The rows are sorted
    together by compare-exchange of whole columns (np.minimum and
    np.maximum, m(m - 1)/2 exchanges in bubble-sort order), so object
    arrays of Python ints sort too."""
    cols = [E[:, j] for j in range(E.shape[1])]
    for top in range(len(cols) - 1, 0, -1):
        for j in range(top):
            a, b = cols[j], cols[j + 1]
            cols[j], cols[j + 1] = np.minimum(a, b), np.maximum(a, b)
    return np.stack(cols, axis=1)


# the digits of 0..9999 as 4-byte items, "0000" to "9999" (built in
# uint8, so the import's peak memory grows by the table alone), and the
# powers 10..10**18, whose count below a value is its digit count less one
_DIGIT_GROUPS = np.ascontiguousarray(
    np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")).view("V4").ravel()
_POWERS_OF_10 = 10 ** np.arange(1, 19, dtype=np.int64)


def _int_rows(rows: np.ndarray) -> str:
    """The canonical JSON text of an (R, w) array of nonnegative int64,
    w >= 1, as `json.dumps` with separators (",", ":") writes its lists.

    Each row is laid out as "[", then per value g groups of four digits
    and a ",", then one more ","; g is the fewest groups that hold the
    longest value, so 2**63 - 1 takes five.  The digits are gathered from
    `_DIGIT_GROUPS`, the last value's "," becomes the row's "]", and one
    boolean mask, gathered per value by its digit count, drops the
    leading zeros; the last row's "," is cut."""
    R, w = rows.shape
    values = rows.ravel()
    short = np.searchsorted(_POWERS_OF_10, values, side="right")  # digit count less one
    g = int(short.max(initial=0)) // 4 + 1
    digits, slot = 4 * g, 4 * g + 1
    groups = np.empty((len(values), g), np.int64)  # most significant first
    for j in range(g - 1, 0, -1):
        values, groups[:, j] = np.divmod(values, 10000)
    groups[:, 0] = values
    text = np.empty((R, w * slot + 2), np.uint8)
    cells = text[:, 1:-1].reshape(R, w, slot)  # a view: the value slots of each row
    cells[..., :digits] = _DIGIT_GROUPS[groups].view(np.uint8).reshape(R, w, digits)
    cells[..., digits] = ord(",")
    text[:, 0], text[:, -2], text[:, -1] = ord("["), ord("]"), ord(",")
    # row d of `kept` keeps the last d + 1 of the digits
    kept = np.arange(digits) >= digits - 1 - np.arange(digits)[:, None]
    keep = np.ones(text.shape, bool)
    keep[:, 1:-1].reshape(R, w, slot)[..., :digits] = \
        kept.view("V%d" % digits).ravel()[short].view(bool).reshape(R, w, digits)
    return "[" + str(text[keep][:-1].data, "ascii") + "]"
