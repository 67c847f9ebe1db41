#!/usr/bin/env python3
"""Split a Wenger graph into few small parts without losing C6-freeness.

W_2(q) is q-regular bipartite on 2q^3 vertices and has no 6-cycle.  The
point of the split is that q^2 parts of size 2q already see every pair:
for any two parts there is an edge with one endpoint in each.  Contracting
the parts therefore yields a complete graph minor while the host graph
stays C6-free, which is exactly what makes the pair (q^2, 2q) useful.
"""

from __future__ import annotations

from splitforge.constructions import partition_wenger
from splitforge.forbidden import contains_cycle
from splitforge.structures import verify_rk


def main() -> None:
    for q in (3, 5):
        G, P = partition_wenger(2, q)
        rep = verify_rk(G, P)
        witness = contains_cycle(G, 6)
        print(f"W_2({q}): n={G.n}, edges={len(G.edge_array)}")
        print(f"  parts={P.r} (want {q * q}), max part={rep.k_effective} (want {2 * q})")
        print(f"  complete={rep.completeness_ok}, parts independent={rep.independence_ok}")
        print(f"  C_6 witness: {witness}")
        assert rep.completeness_ok and witness is None

    # the same machinery at M=4 dodges C10 instead, with parts of size 2q^2
    G, P = partition_wenger(4, 3)
    rep = verify_rk(G, P)
    print(f"W_4(3): n={G.n}, parts={P.r}, max part={rep.k_effective}, "
          f"C_10 witness: {contains_cycle(G, 10)}")


if __name__ == "__main__":
    main()
