"""Exhaustive computation of exact split thresholds on tiny instances.

Ground truth for the rest of the package: given r parts, uniformity m and
a forbidden pattern (or family), find the least k such that a pattern-free
complete (r, k)-split exists, by searching every minimal edge assignment.
Minimal assignments place exactly one rainbow edge per m-tuple of parts;
removing edges never creates a forbidden pattern, so feasibility at k is
equivalent to feasibility with a minimal assignment.

The search grows one host per level, `_PatternState`, and asks it at
each placement only whether the new edge closes a forbidden copy: the
host before the edge is free and every pattern is monotone, so a new
copy uses the new edge.  Cycles on graphs and Berge cycles on
hypergraphs are decided incrementally: a Berge 2-cycle from the covered
pairs, any other cycle through the new edge as a path between two of its
vertices, which `_reaches` looks for in the neighbour lists with a stack
search that stops at the first one.  Any other pattern, or one whose
kind does not fit m, takes the named fallback, which builds the host and
runs the full decider (`check_pattern`), so its errors and messages are the
deciders' own.  The placements a part tuple offers depend only on how
many vertices its parts have used and on k, so `_placements` is
memoised on those and each list is formed once.  A found certificate
is rechecked with `verify_rk` and the full deciders.

The feasibility envelope is deliberately small (r <= 6, k <= 3, m in
{2, 3}); beyond it the node budget cuts the search off with an explicit
failure rather than an unreliable verdict.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .forbidden import ForbiddenPattern, check_pattern
from .structures import (
    BudgetExceededError,
    LabeledHypergraph,
    SplitPartition,
    verify_rk,
)

__all__ = ["OracleQuery", "OracleResult", "exact_f"]


@dataclass(frozen=True)
class OracleQuery:
    """Parameters of one exact-threshold computation.

    Parameters
    ----------
    r : int
        Number of parts, m <= r <= 6.
    m : int
        Edge uniformity, 2 or 3.
    k_max : int
        Largest part size to try, 1 <= k_max <= 3.
    pattern : ForbiddenPattern or sequence of ForbiddenPattern
        Pattern(s) the witness must avoid.  Stored as a tuple even when a
        single pattern is given.
    budget : int, optional
        Node limit across all k levels; a node is one attempted edge
        placement.  Exceeding it raises BudgetExceededError.
    """

    r: int
    m: int
    k_max: int
    pattern: Tuple[ForbiddenPattern, ...]
    budget: int = 2_000_000

    def __post_init__(self) -> None:
        if self.m not in (2, 3):
            raise ValueError(f"uniformity m must be 2 or 3, got {self.m!r}")
        if not isinstance(self.r, int) or not (self.m <= self.r <= 6):
            raise ValueError(f"r must be an integer with m <= r <= 6, got {self.r!r}")
        if not isinstance(self.k_max, int) or not (1 <= self.k_max <= 3):
            raise ValueError(f"k_max must lie in 1..3, got {self.k_max!r}")
        pats = self.pattern
        if isinstance(pats, ForbiddenPattern):
            pats = (pats,)
        else:
            try:
                pats = tuple(pats)
            except TypeError:
                raise ValueError("pattern must be a ForbiddenPattern or a sequence of them")
        if not pats or not all(isinstance(p, ForbiddenPattern) for p in pats):
            raise ValueError("pattern must be one or more ForbiddenPattern instances")
        object.__setattr__(self, "pattern", pats)
        if not isinstance(self.budget, int) or self.budget < 1:
            raise ValueError(f"budget must be a positive integer, got {self.budget!r}")


@dataclass(frozen=True)
class OracleResult:
    """Outcome of exact_f.

    ``status`` is "found" with the least feasible k in ``value`` and a
    re-verified certificate in ``graph``/``partition``, or "exhausted"
    when every k up to k_max was searched completely without a witness
    (so the true threshold exceeds k_max).  ``per_k_nodes`` records how
    many edge placements each level attempted; together with a budget
    that was never hit it is the exhaustion evidence.  ``paths`` maps
    each pattern's spec string to the check its placements took,
    "incremental" or "fallback".
    """

    status: str
    value: Optional[int]
    graph: Optional[LabeledHypergraph]
    partition: Optional[SplitPartition]
    per_k_nodes: Dict[int, int]
    nodes_total: int
    paths: Dict[str, str]


def _patterns_absent(G: LabeledHypergraph, patterns: Tuple[ForbiddenPattern, ...]) -> bool:
    return all(check_pattern(G, pat) is None for pat in patterns)


def _route(pattern: ForbiddenPattern, m: int) -> str:
    """"incremental" when `_PatternState` decides the pattern on an
    m-uniform host by itself, else "fallback" (a fresh host and the full
    decider, whose errors and messages the search then raises)."""
    return "incremental" if pattern.kind in ("cycle", "berge_cycle") and pattern.fits(m) else "fallback"


class _PatternState:
    """The host of one level's search, grown and shrunk one edge at a
    time, that tells whether the next edge would close a forbidden copy.

    ``nb`` holds one neighbour list per node: vertex v is node v, and on
    m >= 3 hosts the i-th placed edge is node n + i, so the lists are the
    graph's adjacency (m = 2) or its vertex-edge incidence graph.  Edges
    are popped in the reverse order of their adding, so every list grows
    and shrinks at its end.

    `closes` is exact only while the host is free of every pattern, as
    it is at each node of the search: patterns are monotone, so a new
    copy uses the new edge, and each incremental rule looks for one
    through it.  ``routes`` pairs each pattern with its `_route`; a
    "fallback" one is decided on a fresh host.
    """

    def __init__(self, m: int, labels, routes: List[Tuple[ForbiddenPattern, str]]):
        self.m = m
        self.labels = labels
        self.edges: List[tuple] = []
        self.nb: List[list] = [[] for _ in labels]
        self.covered: Dict[tuple, int] = {}  # placed edges over each vertex pair (m >= 3)
        self.tests = [(pat, route == "incremental") for pat, route in routes]

    def add(self, edge: tuple) -> None:
        self.edges.append(edge)
        nb = self.nb
        if self.m == 2:
            u, v = edge
            nb[u].append(v)
            nb[v].append(u)
        else:
            for v in edge:
                nb[v].append(len(nb))
            nb.append(list(edge))
            cov = self.covered
            for pair in itertools.combinations(edge, 2):
                cov[pair] = cov.get(pair, 0) + 1

    def pop(self) -> None:
        edge = self.edges.pop()
        nb = self.nb
        if self.m == 2:
            u, v = edge
            nb[u].pop()
            nb[v].pop()
        else:
            nb.pop()
            for v in edge:
                nb[v].pop()
            for pair in itertools.combinations(edge, 2):
                self.covered[pair] -= 1

    def closes(self, edge: tuple) -> bool:
        """Whether the free host plus `edge` (sorted, not yet placed)
        holds a forbidden pattern; patterns go in the query's order, so
        a fallback raises exactly where the full deciders would."""
        host = None
        for pat, incremental in self.tests:
            if incremental:
                hit = self._closes(pat, edge)
            else:
                if host is None:
                    host = LabeledHypergraph(self.m, self.labels, self.edges + [edge])
                hit = check_pattern(host, pat) is not None
            if hit:
                return True
        return False

    def _closes(self, pat: ForbiddenPattern, edge: tuple) -> bool:
        nb = self.nb
        if pat.kind == "cycle":
            # a C_L through uv is uv plus a u-v path of L - 1 edges
            u, v = edge
            return _reaches(nb, u, pat.params[0] - 1, (v,))
        # a Berge l-cycle through the edge is a 2l-cycle of the incidence
        # graph through its node: two of its vertices a, b and an a-b
        # path of 2l - 2 edges among the placed edges; for l = 2 the path
        # is one placed edge that already covers the pair a, b
        if pat.params[0] == 2:
            return any(self.covered.get(pair) for pair in itertools.combinations(edge, 2))
        length = 2 * pat.params[0] - 2
        return any(_reaches(nb, a, length, edge[i + 1:]) for i, a in enumerate(edge[:-1]))


def _reaches(adj, root: int, length: int, targets) -> bool:
    """Whether a simple path of exactly `length` >= 1 edges runs from
    `root` to a vertex of `targets`; `adj` holds each node's neighbours.

    A stack of neighbour iterators walks the paths depth first and
    returns at the first hit.  The last edge is never walked: from each
    path one edge short, a target t is reached when t is a neighbour of
    the path's last vertex and not on the path, one membership test per
    target instead of a loop over the last vertex's neighbours.
    """
    if length == 1:
        nbrs = adj[root]
        return any(t in nbrs and t != root for t in targets)
    depth = length - 1  # vertices on a path one edge short, root excluded
    path = [root]
    stack = [iter(adj[root])]
    while stack:
        for y in stack[-1]:
            if y in path:
                continue
            if len(path) < depth:
                path.append(y)
                stack.append(iter(adj[y]))
                break
            nbrs = adj[y]
            for t in targets:
                if t in nbrs and t != y and t not in path:
                    return True
        else:
            stack.pop()
            path.pop()
    return False


@functools.lru_cache(maxsize=None)
def _placements(parts: tuple, used: tuple, k: int) -> list:
    """The placements one part tuple offers when its parts have used
    ``used`` vertices: (edge, parts the edge opens) pairs in the
    lexicographic order of the vertex choices.

    Part p offers its used vertices and, while it has one, the least
    unused one (vertex used[p]); choosing that vertex opens it.  The
    list is keyed by ``used``, not by the offered ranges, since used[p]
    = k - 1 and used[p] = k offer the same vertices but only the first
    opens one.  Memoised, so callers only read the list; the r <= 6,
    k <= 3 envelope bounds the keys to a few thousand.
    """
    return [
        (tuple(p * k + v for p, v in zip(parts, combo)),
         tuple(p for p, v, u in zip(parts, combo, used) if v == u))
        for combo in itertools.product(*(range(min(u + 1, k)) for u in used))
    ]


def _search_k(query: OracleQuery, k: int, routes, counter: List[int]):
    r, m = query.r, query.m
    flat = [f"p{i}v{j}" for i in range(r) for j in range(k)]
    part_tuples = list(itertools.combinations(range(r), m))
    # part p uses vertices 0..used[p]-1: vertices never used before are
    # interchangeable under relabeling within their part, so only the
    # least unused one is offered, and backtracking frees them in LIFO order
    state = _PatternState(m, flat, routes)
    G = _assign(query, k, part_tuples, state, [0] * r, counter, 0)
    if G is None:
        return None
    P = SplitPartition([range(i * k, (i + 1) * k) for i in range(r)], declared_k=k)
    return G, P


def _assign(query, k, part_tuples, state, used, counter, idx):
    """Place one edge for each part tuple from idx on, growing `state`;
    the finished pattern-free host, or None when no placement works."""
    if idx == len(part_tuples):
        return LabeledHypergraph(query.m, state.labels, state.edges)
    parts = part_tuples[idx]
    for edge, opens in _placements(parts, tuple([used[p] for p in parts]), k):
        counter[0] += 1
        if counter[0] > query.budget:
            raise BudgetExceededError(
                f"unknown within budget: {query.budget} edge placements "
                f"exhausted at r={query.r}, m={query.m}, k={k}"
            )
        # patterns are monotone under edge addition, so a hit here
        # rules out the entire subtree
        if state.closes(edge):
            continue
        for p in opens:
            used[p] += 1
        state.add(edge)
        witness = _assign(query, k, part_tuples, state, used, counter, idx + 1)
        if witness is not None:
            return witness
        state.pop()
        for p in opens:
            used[p] -= 1
    return None


def exact_f(query: OracleQuery) -> OracleResult:
    """Least k admitting a pattern-free complete (r, k)-split, exactly.

    Searches k = 1..k_max in order.  Within each k, parts are fixed as r
    groups of k vertices and only minimal assignments (one cross-part
    edge per m-tuple of parts) are enumerated, with within-part vertex
    interchangeability pruning.  Every placement asks the level's
    `_PatternState` whether the edge closes a forbidden copy: an
    incremental rule for the kinds it knows, the named fallback (a fresh
    host and `check_pattern`) for the rest.  The found certificate is
    rechecked with `verify_rk` and the full deciders.

    Parameters
    ----------
    query : OracleQuery

    Returns
    -------
    OracleResult
        status "found" with value and a certificate already re-verified
        for completeness, independence and pattern absence, or status
        "exhausted" when the threshold provably exceeds k_max.

    Raises
    ------
    BudgetExceededError
        If the node budget runs out before a verdict; no value is
        reported in that case.
    """
    counter = [0]
    per_k: Dict[int, int] = {}
    routes = [(pat, _route(pat, query.m)) for pat in query.pattern]
    paths = {pat.spec_string(): route for pat, route in routes}
    for k in range(1, query.k_max + 1):
        before = counter[0]
        outcome = _search_k(query, k, routes, counter)
        per_k[k] = counter[0] - before
        if outcome is not None:
            G, P = outcome
            report = verify_rk(G, P)
            if not (report.completeness_ok and report.independence_ok):
                raise RuntimeError("internal error: witness failed split re-verification")
            if not _patterns_absent(G, query.pattern):
                raise RuntimeError("internal error: witness contains a forbidden pattern")
            return OracleResult("found", k, G, P, per_k, counter[0], paths)
    return OracleResult("exhausted", None, None, None, per_k, counter[0], paths)
