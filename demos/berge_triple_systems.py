#!/usr/bin/env python3
"""A 3-uniform split hitting every triple of parts, Berge-cycle-free.

Vertices are pairs over GF(q); each of the C(q,3) triples of parts
contributes exactly one hyperedge, and the algebra rules out Berge
cycles of length 2, 3 and 4 (two hyperedges never share two vertices,
and shorter certified chains cannot close up).
"""

from __future__ import annotations

import math

from splitforge.constructions import build_berge3
from splitforge.forbidden import contains_berge_cycle
from splitforge.structures import verify_rk

q = 9
G, P = build_berge3(q)
rep = verify_rk(G, P)
print(f"q={q}: n={G.n}, hyperedges={len(G.edge_array)} (C({q},3)={math.comb(q, 3)})")
print(f"parts={P.r}, max part={rep.k_effective}, complete={rep.completeness_ok}")
for length in (2, 3, 4):
    print(f"Berge C_{length}: {contains_berge_cycle(G, length)}")
