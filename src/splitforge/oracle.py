"""Exhaustive computation of exact split thresholds on tiny instances.

Ground truth for the rest of the package: given r parts, uniformity m and
a forbidden pattern (or family), find the least k such that a pattern-free
complete (r, k)-split exists, by searching every minimal edge assignment.
Minimal assignments place exactly one rainbow edge per m-tuple of parts;
removing edges never creates a forbidden pattern, so feasibility at k is
equivalent to feasibility with a minimal assignment.

The feasibility envelope is deliberately small (r <= 6, k <= 3, m in
{2, 3}); beyond it the node budget cuts the search off with an explicit
failure rather than an unreliable verdict.
"""

from __future__ import annotations

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
    that was never hit it is the exhaustion evidence.
    """

    status: str
    value: Optional[int]
    graph: Optional[LabeledHypergraph]
    partition: Optional[SplitPartition]
    per_k_nodes: Dict[int, int]
    nodes_total: int


def _patterns_absent(G: LabeledHypergraph, patterns: Tuple[ForbiddenPattern, ...]) -> bool:
    return all(check_pattern(G, pat) is None for pat in patterns)


def _search_k(query: OracleQuery, k: int, counter: List[int]):
    r, m = query.r, query.m
    flat = [f"p{i}v{j}" for i in range(r) for j in range(k)]
    part_tuples = list(itertools.combinations(range(r), m))
    # part p uses vertices 0..used[p]-1: vertices never used before are
    # interchangeable under relabeling within their part, so only the
    # least unused one is offered, and backtracking frees them in LIFO order
    G = _assign(query, k, flat, part_tuples, [], [0] * r, counter, 0)
    if G is None:
        return None
    P = SplitPartition([range(i * k, (i + 1) * k) for i in range(r)], declared_k=k)
    return G, P


def _assign(query, k, flat, part_tuples, edges, used, counter, idx):
    """Place one edge for each part tuple from idx on, extending `edges`;
    the finished pattern-free host, or None when no placement works."""
    if idx == len(part_tuples):
        return LabeledHypergraph(query.m, flat, edges)
    parts = part_tuples[idx]
    for combo in itertools.product(*(range(min(used[p] + 1, k)) for p in parts)):
        counter[0] += 1
        if counter[0] > query.budget:
            raise BudgetExceededError(
                f"unknown within budget: {query.budget} edge placements "
                f"exhausted at r={query.r}, m={query.m}, k={k}"
            )
        edges.append(tuple(p * k + v for p, v in zip(parts, combo)))
        marks = [p for p, v in zip(parts, combo) if v == used[p]]
        for p in marks:
            used[p] += 1
        # patterns are monotone under edge addition, so a hit here
        # rules out the entire subtree
        if _patterns_absent(LabeledHypergraph(query.m, flat, edges), query.pattern):
            witness = _assign(query, k, flat, part_tuples, edges, used, counter, idx + 1)
            if witness is not None:
                return witness
        edges.pop()
        for p in marks:
            used[p] -= 1
    return None


def exact_f(query: OracleQuery) -> OracleResult:
    """Least k admitting a pattern-free complete (r, k)-split, exactly.

    Searches k = 1..k_max in order.  Within each k, parts are fixed as r
    groups of k vertices and only minimal assignments (one cross-part
    edge per m-tuple of parts) are enumerated, with within-part vertex
    interchangeability pruning and pattern checks after every placement.

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
            return OracleResult("found", k, G, P, per_k, counter[0])
    return OracleResult("exhausted", None, None, None, per_k, counter[0])
