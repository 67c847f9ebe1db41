"""Adjacency spectra, mixing certification, and greedy partitioning.

``spectrum`` computes the adjacency eigenvalues of a regular graph once
per graph object and keeps them while the graph lives: up to 5000
vertices all of them (the singular values of the biadjacency block on a
bipartite graph, a dense symmetric solve otherwise), above that the
Lanczos extremes;
``mixing_check`` certifies the edge-distribution inequality
|e(U,W) - expected| <= rho * sqrt(|U||W|), and ``greedy_split`` runs
the seeded partition-growing algorithm whose output always passes
verify_rk: seed each part with vertices pairwise far apart, greedily
add high-coverage vertices until every part sees almost every other,
then patch the leftovers with fresh degree-one vertices.
"""

from __future__ import annotations

import math
import random
import weakref
from collections import Counter
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from . import forbidden
from .structures import (
    BudgetExceededError,
    LabeledHypergraph,
    SplitPartition,
    verify_rk,
)

_DENSE_LIMIT = 5000
# Lanczos restarts before the shift-invert fallback: W_2(17) and W_4(5)
# give the same extremes bits with as few as 5 restarts as uncapped.  On
# the 6000-cycle, whose top gap is about 1e-6, both calls stall: LA and SA
# run out 100 restarts in 0.20 and 0.13 s (600 took 1.28 and 0.83 s, no
# cap 42 s) and shift-invert then solves each end in 0.06 and 0.03 s
# (2-core VM, one BLAS thread).  Shift-invert stays the fallback: its LU
# factor of W_2(17) took 22 s there.
_MAXITER = 100
_SHIFT = 1e-3
_SEED_NODE_BUDGET = 100_000

# A graph never changes after construction, so its spectrum is computed
# once; the entry goes when the graph is collected.
_SPECTRA: "weakref.WeakKeyDictionary[LabeledHypergraph, SpectrumSummary]" = (
    weakref.WeakKeyDictionary()
)


@dataclass(frozen=True)
class SpectrumSummary:
    """Adjacency spectrum of a d-regular graph.

    ``eigenvalues`` holds the full spectrum sorted descending on the
    dense path (n <= 5000) and is None on the iterative path, where
    ``extremes`` = (rho1, rho2, rho_n) instead.  ``rho`` is rho2 for
    bipartite graphs and max(rho2, -rho_n) otherwise.
    """

    n: int
    d: int
    bipartite: bool
    rho: float
    eigenvalues: tuple | None = None
    extremes: tuple | None = None

    @property
    def rho1(self) -> float:
        return self.eigenvalues[0] if self.eigenvalues is not None else self.extremes[0]

    @property
    def rho2(self) -> float:
        return self.eigenvalues[1] if self.eigenvalues is not None else self.extremes[1]

    @property
    def rho_n(self) -> float:
        return self.eigenvalues[-1] if self.eigenvalues is not None else self.extremes[2]


def _require_regular(G: LabeledHypergraph) -> int:
    if G.m != 2:
        raise ValueError("spectral routines need a 2-uniform graph")
    if G.n < 2:
        raise ValueError("need at least 2 vertices")
    degs = np.unique(np.bincount(G.edge_array.ravel(), minlength=G.n))
    if len(degs) != 1:
        raise ValueError(f"graph is not regular: degrees {degs.tolist()}")
    return int(degs[0])


def _extremes(A, k: int, which: str, sigma: float, v0):
    """The k eigenvalues of A at the `which` end of its spectrum: Lanczos
    capped at `_MAXITER` restarts, then, if that stalls, shift-invert
    about `sigma`, a point just beyond that end, where the wanted
    eigenvalues are the ones nearest sigma."""
    try:
        return eigsh(A, k=k, which=which, tol=1e-8, v0=v0, maxiter=_MAXITER,
                     return_eigenvectors=False)
    except ArpackNoConvergence:
        pass
    try:
        return eigsh(A, k=k, sigma=sigma, which="LM", tol=1e-8, v0=v0, maxiter=_MAXITER,
                     return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise RuntimeError("eigenvalue iteration did not converge") from exc


def _bipartite_eigenvalues(A, colouring):
    """Descending eigenvalues of a bipartite adjacency matrix A from the
    singular values of its block B = A[side 0][:, side 1]: A is
    [[0, B], [B^T, 0]] up to a permutation, so its spectrum is sigma,
    |n0 - n1| zeros and -sigma."""
    side = np.asarray(colouring, dtype=bool)
    B = A[~side][:, side].toarray()
    sigma = np.linalg.svd(B, compute_uv=False)
    zeros = np.zeros(abs(B.shape[0] - B.shape[1]))
    return np.concatenate((sigma, zeros, -sigma[::-1]))


def spectrum(G: LabeledHypergraph) -> SpectrumSummary:
    """Eigenvalues of the adjacency matrix of a regular graph.

    For n <= 5000 the whole spectrum: on a bipartite graph from the
    singular values sigma of the block of A between the two colour
    classes (sigma, |n0 - n1| zeros, -sigma, so it is exactly symmetric),
    on any other graph by a dense symmetric solve.  Above that, Lanczos
    iteration for the extreme triple (rho1, rho2, rho_n), relative tolerance
    1e-8, started from a seeded vector so that equal graphs give equal
    bits.  Lanczos stops after `_MAXITER` restarts; an end of the
    spectrum it leaves unsolved is solved again by shift-invert about
    d + 1e-3 (rho1 and rho2) or -d - 1e-3 (rho_n).  The summary is
    computed once per graph object and returned again on later calls.
    Raises ValueError on non-regular input and RuntimeError if the
    shift-invert solve does not converge either; neither is cached.
    """
    cached = _SPECTRA.get(G)
    if cached is not None:
        return cached
    d = _require_regular(G)
    n = G.n
    bip = G.colouring is not None
    A = G.csr.astype(np.float64)
    if n <= _DENSE_LIMIT:
        if bip:
            eig = _bipartite_eigenvalues(A, G.colouring)
        else:
            eig = np.linalg.eigvalsh(A.toarray())[::-1]
        eigenvalues = tuple(float(x) for x in eig)
        rho2, rho_n = eigenvalues[1], eigenvalues[-1]
        extremes = None
    else:
        v0 = np.random.default_rng(0).standard_normal(n)
        top = _extremes(A, 2, "LA", d + _SHIFT, v0)
        bot = _extremes(A, 1, "SA", -d - _SHIFT, v0)
        rho1, rho2 = sorted((float(x) for x in top), reverse=True)
        rho_n = float(bot[0])
        eigenvalues = None
        extremes = (rho1, rho2, rho_n)
    rho = rho2 if bip else max(rho2, -rho_n)
    summary = _SPECTRA[G] = SpectrumSummary(
        n=n, d=d, bipartite=bip, rho=float(rho),
        eigenvalues=eigenvalues, extremes=extremes,
    )
    return summary


def mixing_check(G: LabeledHypergraph, U, W, mode: str = "general") -> dict:
    """Certify the mixing inequality for vertex sets U, W.

    e(U, W) counts ordered adjacent pairs.  In ``general`` mode the
    expected count is (d/n)|U||W|; in ``bipartite`` mode it is
    (2d/n)|U||W| and U, W must lie in opposite classes of the
    bipartition.  Returns {"lhs", "bound", "ok"} with
    ok = lhs <= rho*sqrt(|U||W|) + 1e-9.
    """
    if mode not in ("general", "bipartite"):
        raise ValueError(f"unknown mode {mode!r}")
    summary = spectrum(G)
    n = G.n
    setU = set(U)
    setW = set(W)
    for v in setU | setW:
        if not (0 <= v < n):
            raise ValueError(f"vertex {v} out of range")
    if mode == "bipartite":
        color = G.colouring
        if color is None:
            raise ValueError("bipartite mode needs a bipartite graph")
        cU = {color[v] for v in setU}
        cW = {color[v] for v in setW}
        if not (cU <= {0} and cW <= {1} or cU <= {1} and cW <= {0}):
            raise ValueError("U and W must lie in opposite bipartition classes")
        expected = 2 * summary.d / n * len(setU) * len(setW)
        rho = summary.rho2
    else:
        expected = summary.d / n * len(setU) * len(setW)
        rho = max(summary.rho2, -summary.rho_n)
    xU, xW = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    xU[list(setU)] = 1
    xW[list(setW)] = 1
    e = int(xU @ (G.csr @ xW))
    lhs = abs(e - expected)
    bound = rho * math.sqrt(len(setU) * len(setW))
    return {"lhs": lhs, "bound": bound, "ok": lhs <= bound + 1e-9}


@dataclass
class GreedySplitTrace:
    """Execution record of greedy_split.

    ``iterations`` has one entry per growth pass with the max and
    histogram of the deficiency counts s_i at the start of the pass and
    the vertices added; ``seeds`` and ``patches`` record the other two
    phases.  ``advisories`` flags the asymptotic hypotheses (a < 1/3,
    rho <= 2 sqrt d) without enforcing them.
    """

    seeds: list = dc_field(default_factory=list)
    iterations: list = dc_field(default_factory=list)
    patches: list = dc_field(default_factory=list)
    final_part_sizes: list = dc_field(default_factory=list)
    stagnated: bool = False
    advisories: dict = dc_field(default_factory=dict)
    diagnostics: list = dc_field(default_factory=list)

    def iteration_records(self) -> list:
        return [
            {"iter": rec["iter"], "max_s": rec["max_s"], "added": rec["added"]}
            for rec in self.iterations
        ]

    def to_json_dict(self) -> dict:
        return asdict(self)


def _pattern_for_split(H) -> "forbidden.ForbiddenPattern":
    pattern = forbidden.parse_pattern(H)
    if not pattern.fits(2):
        raise ValueError("Berge patterns describe hypergraph hosts, not graphs")
    if pattern.kind == "complete_bipartite" and pattern.params[0] < 2:
        raise ValueError("pattern has degree-1 vertices")
    if pattern.kind == "explicit" and min(Counter(v for e in pattern.edges for v in e).values()) < 2:
        raise ValueError("pattern has degree-1 vertices")
    return pattern


def greedy_split(G: LabeledHypergraph, m: int, H, sizes=None, seed=None):
    """Grow an m-part split of a regular H-free graph.

    Seeds every part with ``seed_size`` vertices pairwise at distance
    at least 3 (backtracking search), then repeatedly adds to each
    still-deficient part the unused vertex outside the part's distance-2
    ball covering the most parts it lacks an edge to, and finally
    attaches one fresh degree-one vertex per still-uncovered part pair
    (degree-one additions cannot create H, hence the precondition that
    H has no degree-one vertex).  On bipartite input, seeds come from
    the side of vertex 0 and growth vertices from the other side.

    The phases work on arrays.  The distance-2 balls are gathered from
    one (n, d) neighbour table, the rows of ``G.csr``, and held as
    bitmasks, so each part's exclusion zone is one int.  The seed search
    leaves a slot as soon as its candidates are fewer than the seeds its
    part still needs, which cuts only subtrees without a solution and so
    finds the same seeds.  The growth step keeps a bool (n, m) table of
    the parts each vertex has a neighbour in and scores every candidate
    at once by its row sum over the parts still lacking.

    ``sizes`` may override {"seed_size", "target_s", "max_iters"}; keys
    absent or None default to seed_size = ceil(sqrt(n/m)), target_s =
    seed_size, max_iters = 4*seed_size.  ``seed`` randomizes ties only.

    Returns (augmented graph, partition, GreedySplitTrace).  Raises
    RuntimeError with diagnostics when seeding is infeasible, and
    BudgetExceededError when the seed search stops undecided after
    100000 placements (of the cut search).
    """
    _pattern_for_split(H)
    d = _require_regular(G)
    n = G.n
    if m < 2:
        raise ValueError("need at least 2 parts")
    sizes = dict(sizes or {})
    unknown = set(sizes) - {"seed_size", "target_s", "max_iters"}
    if unknown:
        raise ValueError(f"unknown sizes keys {sorted(unknown)}")
    sizes = {key: v for key, v in sizes.items() if v is not None}
    seed_size = int(sizes.get("seed_size", math.ceil(math.sqrt(n / m))))
    if seed_size < 1:
        raise ValueError("seed_size must be positive")
    target_s = sizes.get("target_s", seed_size)
    max_iters = int(sizes.get("max_iters", 4 * seed_size))
    if m * seed_size > n // 2:
        raise ValueError(
            f"m*seed_size = {m * seed_size} exceeds half the vertex count {n // 2}"
        )
    rng = random.Random(seed) if seed is not None else None

    color = G.colouring
    if color is not None:
        color = np.asarray(color)
        in_seed_pool = color == color[0]
        grow_pool = np.flatnonzero(~in_seed_pool)
    else:
        in_seed_pool = np.ones(n, dtype=bool)
        grow_pool = np.arange(n)

    trace = GreedySplitTrace()

    summary = None
    try:
        summary = spectrum(G)
    except RuntimeError as exc:
        trace.diagnostics.append(f"spectrum unavailable: {exc}")
    a_exp = math.log(d) / math.log(n) if d >= 2 else None
    trace.advisories = {
        "n": n,
        "d": d,
        "a": a_exp,
        "a_lt_one_third": (a_exp < 1 / 3) if a_exp is not None else None,
        "rho": summary.rho if summary is not None else None,
        "rho_le_two_sqrt_d": (
            summary.rho <= 2 * math.sqrt(d) + 1e-9 if summary is not None else None
        ),
    }

    parts: list = [[] for _ in range(m)]
    # the host is d-regular and its canonical CSR rows are ascending, so
    # row v of this table holds the neighbours of v
    nbr = G.csr.indices.reshape(n, d)
    nbytes = (n + 7) // 8

    def bits(mask) -> int:
        """The bitmask of a bool vertex mask."""
        return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")

    def unbits(z: int):
        """The bool vertex mask of a bitmask."""
        raw = np.frombuffer(z.to_bytes(nbytes, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=n, bitorder="little").view(bool)

    balls: dict = {}

    def ball_of(v):
        """Bitmask of the vertices at distance < 3 from v."""
        if v not in balls:
            mask = np.zeros(n, dtype=bool)
            mask[v] = True
            mask[nbr[v]] = True
            mask[nbr[nbr[v]]] = True
            balls[v] = bits(mask)
        return balls[v]

    # ---- step 2: backtracking seed placement on bitmasks.  Slot s holds
    # seed s % seed_size of part s // seed_size; a slot's candidates are
    # the pool vertices above the last one it tried, outside every placed
    # seed and outside its part's zone (the union of its seeds' distance-2
    # balls).  Lowest first, so the search visits the same nodes as a walk
    # over the ascending seed pool.  A slot whose candidates are fewer than
    # the seeds its part still needs, itself included, is a dead end: the
    # part's later slots choose only among them, since `free` only shrinks
    # and `zone[i]` only grows.  Candidates below the cursor need no case
    # of their own: the seed constraints depend only on the set of seeds,
    # so a completion that used one at a later slot reorders a subtree
    # this slot has already exhausted.  The cut thus drops only subtrees
    # without a solution, and the first seeding found stays the same.
    total = m * seed_size
    free = bits(in_seed_pool)  # pool vertices not yet placed
    zone = [0] * m  # per part, the union of its vertices' balls: its exclusion zone
    above = [-1] * (total + 1)  # per slot, the bits at or above its cursor
    chosen = [0] * total
    zone_before = [0] * total
    slot = 0
    budget = _SEED_NODE_BUDGET
    while 0 <= slot < total:
        i = slot // seed_size
        cand = free & ~zone[i] & above[slot]
        if cand.bit_count() >= seed_size - slot % seed_size:
            budget -= 1
            if budget < 0:
                raise BudgetExceededError(
                    f"seed search undecided within {_SEED_NODE_BUDGET} search nodes: "
                    f"placed {slot} of {total} seeds (m={m}, seed_size={seed_size})"
                )
            bit = cand & -cand
            v = bit.bit_length() - 1
            chosen[slot] = v
            zone_before[slot] = zone[i]
            zone[i] |= ball_of(v)
            free ^= bit
            above[slot] = -(bit << 1)
            slot += 1
            above[slot] = -1
        else:
            slot -= 1
            if slot >= 0:
                free |= 1 << chosen[slot]
                zone[slot // seed_size] = zone_before[slot]
    if slot < 0:
        raise RuntimeError(
            f"seeding infeasible: no placement of {seed_size} vertices per part "
            f"at pairwise distance >= 3 exists for m={m} "
            f"(pool size {int(in_seed_pool.sum())})"
        )

    lacking = [set(range(m)) - {i} for i in range(m)]  # per part, the parts it has no edge to
    near = np.zeros((n, m), dtype=bool)  # near[v, j]: v has a neighbour in part j
    unplaced = np.ones(n, dtype=bool)

    def add_vertex(v: int, i: int) -> None:
        unplaced[v] = False
        parts[i].append(v)
        zone[i] |= ball_of(v)
        for j in np.flatnonzero(near[v]).tolist():
            if j != i:
                lacking[i].discard(j)
                lacking[j].discard(i)
        near[nbr[v], i] = True

    # zone[i] already holds the seeds' balls; placing them flags the
    # part pairs their edges cover
    for slot, v in enumerate(chosen):
        add_vertex(v, slot // seed_size)
        trace.seeds.append({"part": slot // seed_size, "vertex": v})

    # ---- step 3: greedy growth
    it_count = 0
    while it_count < max_iters:
        s_list = [len(lack) for lack in lacking]
        if all(s < target_s for s in s_list):
            break
        record = {
            "iter": it_count,
            "max_s": max(s_list),
            "s_histogram": {str(k): v for k, v in sorted(Counter(s_list).items())},
            "added": [],
        }
        for i in range(m):
            lack = lacking[i]
            if len(lack) < target_s or not lack:
                continue
            # each unplaced pool vertex outside the zone, with the count of
            # lacking parts it has a neighbour in
            pool = grow_pool[unplaced[grow_pool] & ~unbits(zone[i])[grow_pool]]
            hits = near[np.ix_(pool, sorted(lack))].sum(axis=1)
            if not hits.any():
                continue
            best = pool[hits == hits.max()].tolist()
            v = best[0] if rng is None else rng.choice(best)
            add_vertex(v, i)
            record["added"].append({"part": i, "vertex": v})
        if not record["added"]:
            trace.stagnated = True
            trace.diagnostics.append(
                f"stagnation at iteration {it_count}: no vertex reduces any s_i; "
                "remaining pairs go to the patch step"
            )
            break
        trace.iterations.append(record)
        it_count += 1

    # ---- step 4: fresh degree-one patch vertices
    labels = list(G.vertices)
    existing = set(labels)
    patch = []
    counter = 0
    for i in range(m):
        for j in range(i + 1, m):
            if j not in lacking[i]:
                continue
            # attach to the least vertex of the higher part: patch vertices
            # join only parts up to i, so all of part j's are original
            w = min(parts[j])
            while f"aug:{counter}" in existing:
                counter += 1
            fresh = len(labels)
            labels.append(f"aug:{counter}")
            counter += 1
            patch.append((w, fresh))
            parts[i].append(fresh)
            trace.patches.append({"pair": [i, j], "vertex": fresh, "attached_to": w})

    edges = np.concatenate([G.edge_array, np.array(patch, dtype=np.int64).reshape(-1, 2)])
    G2 = LabeledHypergraph(2, labels, edges)
    P = SplitPartition(parts, max(len(part) for part in parts))
    trace.final_part_sizes = [len(part) for part in parts]
    report = verify_rk(G2, P)
    if not (report.completeness_ok and report.independence_ok):
        raise RuntimeError("internal error: greedy_split output failed verification")
    return G2, P, trace
