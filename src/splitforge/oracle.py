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
copy uses the new edge, and every rule looks only for copies through
it.  The state picks each pattern's rule once, when the level starts,
and binds the rules into one `closes(edge)` callable that asks them in
the query's order; no placement looks at a pattern's kind again.  The
rule table holds four rules:

* a cycle on a graph: the new edge uv and a u-v path of L - 1 edges,
  which `_reaches` looks for in the neighbour lists with a stack search
  that stops at the first one;
* a Berge 2-cycle on a hypergraph: a pair of the new edge's vertices
  that a placed edge already covers;
* any other Berge cycle: the same path query on the vertex-edge
  incidence lists, between two of the new edge's vertices;
* every other pattern (K_{s,t}, theta and explicit patterns, through
  `ForbiddenPattern.edge_list`): each pattern edge mapped onto the new
  edge in every order of its vertices and the map extended by the
  deciders' embedding search (`forbidden._holds_through`), over the
  neighbour lists of a graph or, on a hypergraph, the shadow lists
  built from the incidence lists once per call.

A pattern that does not fit m is refused when the query is built, with
the deciders' own message.

The placements a part tuple offers depend only on how many vertices its
parts have used and on k, so `_placements` is memoised on those and each
list is formed once; each edge's vertex pairs, which the covered-pair
counts and the Berge 2-cycle rule read, are memoised the same way
(`_pairs`).  No placement builds a host or asks a full decider; a found
certificate is rechecked with `verify_rk` and the full deciders.

The feasibility envelope is deliberately small (r <= 6, k <= 3, m in
{2, 3}); beyond it the node budget cuts the search off with an explicit
failure rather than an unreliable verdict.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .forbidden import ForbiddenPattern, _holds_through, check_pattern
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
        single pattern is given; each must fit an m-uniform host
        (`ForbiddenPattern.check_host`, asked in this order).
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
        # `type(x) is not int` also refuses bool, which would pass as 0 or 1
        if type(self.m) is not int or self.m not in (2, 3):
            raise ValueError(f"uniformity m must be 2 or 3, got {self.m!r}")
        if type(self.r) is not int or not (self.m <= self.r <= 6):
            raise ValueError(f"r must be an integer with m <= r <= 6, got {self.r!r}")
        if type(self.k_max) is not int or not (1 <= self.k_max <= 3):
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
        if type(self.budget) is not int or self.budget < 1:
            raise ValueError(f"budget must be a positive integer, got {self.budget!r}")
        for pat in pats:
            pat.check_host(self.m)


@dataclass(frozen=True)
class OracleResult:
    """Outcome of exact_f.

    ``status`` is "found" with the least feasible k in ``value`` and a
    re-verified certificate in ``graph``/``partition``, or "exhausted"
    when every k up to k_max was searched completely without a witness
    (so the true threshold exceeds k_max).  ``per_k_nodes`` records how
    many edge placements each level attempted; together with a budget
    that was never hit it is the exhaustion evidence.  ``paths`` maps
    each pattern's spec string to the check its placements took, always
    "incremental": a rule that looks only for copies through the new
    edge.
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


class _PatternState:
    """The host of one level's search, grown and shrunk one edge at a
    time, with the level's rule table: `closes(edge)` tells whether the
    next edge would close a forbidden copy.

    ``nb`` holds one neighbour list per node: vertex v is node v, and on
    m >= 3 hosts the i-th placed edge is node n + i, so the lists are the
    graph's adjacency (m = 2) or its vertex-edge incidence graph.  Edges
    are popped in the reverse order of their adding, so every list grows
    and shrinks at its end.

    The table is built here, once per level: `_rule` turns each of
    `patterns` into one callable over the state's lists, with the
    pattern's kind, length or edge list read once, and `closes` asks
    the rules in the query's order.  It is exact only while the host is
    free of every pattern, as it is at each node of the search: patterns
    are monotone, so a new copy uses the new edge, and each rule looks
    for one through it.
    """

    def __init__(self, m: int, labels, patterns):
        self.m = m
        self.labels = labels
        self.edges: List[tuple] = []
        self.nb: List[list] = [[] for _ in labels]
        self.covered: Dict[tuple, int] = {}  # placed edges over each vertex pair (m >= 3)
        rules = [self._rule(pat) for pat in patterns]
        if len(rules) == 1:  # one frame fewer per placement
            self.closes = rules[0]
        else:
            def closes(edge: tuple) -> bool:
                for rule in rules:
                    if rule(edge):
                        return True
                return False
            self.closes = closes

    def _rule(self, pat: ForbiddenPattern):
        """The rule of `pat`: whether the free host plus `edge` (sorted,
        not yet placed) holds a copy through `edge`."""
        nb = self.nb
        pattern_edges = pat.edge_list
        if pattern_edges is not None:
            # the host without `edge`, as `_embed` reads it: a vertex's
            # degree is the length of its list (its neighbours, or on a
            # hypergraph its placed edges), and a hypergraph's neighbour
            # lists are its shadow's, built from the incidence lists; a
            # vertex lies in its own, which the search reads only once
            # that vertex is used
            placed, graph, vertices = self.edges, self.m == 2, range(len(self.labels))

            def degree(g: int) -> int:
                return len(nb[g])

            def anchored(edge: tuple) -> bool:
                adj = nb if graph else [{x for e in nb[v] for x in nb[e]} for v in vertices]
                return _holds_through(pattern_edges, edge, adj, degree, set(placed))
            return anchored
        if pat.kind == "cycle":
            # a C_L through uv is uv plus a u-v path of L - 1 edges
            length = pat.params[0] - 1

            def cycle(edge: tuple) -> bool:
                return _reaches(nb, edge[0], length, (edge[1],))
            return cycle
        # a Berge l-cycle through the edge is a 2l-cycle of the incidence
        # graph through its node: two of its vertices a, b and an a-b
        # path of 2l - 2 edges among the placed edges; for l = 2 the path
        # is one placed edge that already covers the pair a, b
        if pat.params[0] == 2:
            covered = self.covered.get

            def berge2(edge: tuple) -> bool:
                for pair in _pairs(edge):
                    if covered(pair):
                        return True
                return False
            return berge2
        length = 2 * pat.params[0] - 2

        def berge(edge: tuple) -> bool:
            for i in range(len(edge) - 1):
                if _reaches(nb, edge[i], length, edge[i + 1:]):
                    return True
            return False
        return berge

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
            for pair in _pairs(edge):
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
            cov = self.covered
            for pair in _pairs(edge):
                cov[pair] -= 1


@functools.lru_cache(maxsize=None)
def _pairs(edge: tuple) -> tuple:
    """The vertex pairs of `edge` in `itertools.combinations` order,
    formed once per edge: memoised as `_placements` is, and read by
    `_PatternState.add`, `pop` and the Berge 2-cycle rule.  The oracle's
    hosts have at most 18 vertices, so the keys are a few hundred edges."""
    return tuple(itertools.combinations(edge, 2))


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


def _search_k(query: OracleQuery, k: int, counter: List[int]):
    r, m = query.r, query.m
    flat = [f"p{i}v{j}" for i in range(r) for j in range(k)]
    part_tuples = list(itertools.combinations(range(r), m))
    # part p uses vertices 0..used[p]-1: vertices never used before are
    # interchangeable under relabeling within their part, so only the
    # least unused one is offered, and backtracking frees them in LIFO order
    state = _PatternState(m, flat, query.pattern)
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
    closes, budget = state.closes, query.budget
    for edge, opens in _placements(parts, tuple([used[p] for p in parts]), k):
        counter[0] += 1
        if counter[0] > budget:
            raise BudgetExceededError(
                f"unknown within budget: {budget} edge placements "
                f"exhausted at r={query.r}, m={query.m}, k={k}"
            )
        # patterns are monotone under edge addition, so a hit here
        # rules out the entire subtree
        if closes(edge):
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
    `_PatternState` whether the edge closes a forbidden copy, through the
    rule table the state built when the level started: each pattern's
    rule looks only for copies through the new edge.  The found
    certificate is rechecked with `verify_rk` and the full deciders.

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
    paths = {pat.spec_string(): "incremental" for pat in query.pattern}
    for k in range(1, query.k_max + 1):
        before = counter[0]
        outcome = _search_k(query, k, counter)
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
