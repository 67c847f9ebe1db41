"""Numeric bound calculators for split thresholds.

Lower bounds come from counting: a complete (r, k)-split needs one rainbow
edge per part m-tuple, so any edge-count ceiling for H-free hypergraphs on
r*k vertices forces a minimum k.  Upper-bound helpers package the number
theory behind the K_{2,d+1} constructions: admissible divisor pairs
(D, D+1) with their prime progressions, the resulting coefficient, and the
reference table of small-d constants.

All rational outputs are exact ``fractions.Fraction`` values; nothing in
the lower-bound path rounds through floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .gf import MR_EXACT_BELOW, is_prime

_MAX_E_DENOMINATOR = 1000  # exact ceiling checks raise to e's denominator
_MAX_STEPS = 1_000_000  # progression steps the admissible prime search may take

__all__ = [
    "TuranEnvelope",
    "AdmissiblePair",
    "min_k_lower",
    "min_k_lower_relaxed",
    "berge_path_k_lb",
    "admissible_pair_for",
    "k2d_upper_coeff",
    "small_d_table",
    "tree_bound",
]


def _as_fraction(value, name: str) -> Fraction:
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{name} is not a rational value: {value!r}") from exc


@dataclass(frozen=True)
class TuranEnvelope:
    """Edge-count ceiling ``C * N**e`` for H-free m-uniform hypergraphs.

    Parameters
    ----------
    C : rational
        Leading constant, must be positive.  Stored exactly as a Fraction.
    e : rational
        Exponent with ``1 < e <= m`` and a reduced denominator of at most
        1000.  Float inputs are converted exactly, so pass Fractions or
        strings for values like 5/3 or 1.1 that floats cannot represent.
    m : int
        Uniformity of the hypergraphs the ceiling applies to.
    """

    C: Fraction
    e: Fraction
    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "C", _as_fraction(self.C, "C"))
        object.__setattr__(self, "e", _as_fraction(self.e, "e"))
        if not isinstance(self.m, int) or self.m < 2:
            raise ValueError(f"uniformity m must be an integer >= 2, got {self.m!r}")
        if self.C <= 0:
            raise ValueError(f"leading constant C must be positive, got {self.C}")
        if not (1 < self.e <= self.m):
            raise ValueError(f"exponent e must lie in (1, m] = (1, {self.m}], got {self.e}")
        if self.e.denominator > _MAX_E_DENOMINATOR:
            raise ValueError(f"exponent e = {self.e} has a denominator above {_MAX_E_DENOMINATOR}")


def _ceiling_holds(required: Fraction, env: TuranEnvelope, n_vertices: int) -> bool:
    # required <= C * n^e with fractional e, decided exactly by raising
    # both positive sides to the denominator of e.
    ratio = required / env.C
    if ratio <= 0:
        return True
    en, ed = env.e.numerator, env.e.denominator
    return ratio**ed <= Fraction(n_vertices) ** en


def _least_k(required: Fraction, r: int, env: TuranEnvelope) -> int:
    if _ceiling_holds(required, env, r):
        return 1
    hi = 2
    while not _ceiling_holds(required, env, r * hi):
        hi *= 2
        if hi > 1 << 60:
            raise ValueError("no feasible k below 2^60; check the envelope")
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _ceiling_holds(required, env, r * mid):
            hi = mid
        else:
            lo = mid
    return hi


def _check_r_m(r: int, m: int, env: TuranEnvelope) -> None:
    if not isinstance(r, int) or not isinstance(m, int):
        raise ValueError("r and m must be integers")
    if m != env.m:
        raise ValueError(f"uniformity mismatch: m={m} but the envelope covers m={env.m}")
    if r <= m:
        raise ValueError(f"need r > m, got r={r}, m={m}")


def min_k_lower(r: int, m: int, env: TuranEnvelope) -> int:
    """Least k at which the edge-count ceiling stops forbidding a split.

    A complete H-free (r, k)-split carries at least C(r, m) edges on r*k
    vertices, so every k' with ``C(r, m) > C * (r*k')**e`` is impossible
    and the returned k is a lower bound on the split threshold.  The
    comparison is carried out in exact rational arithmetic.

    Parameters
    ----------
    r : int
        Number of parts, r > m.
    m : int
        Uniformity; must agree with ``env.m``.
    env : TuranEnvelope
        Edge-count ceiling for the forbidden pattern.

    Returns
    -------
    int
        Smallest k with ``C(r, m) <= C * (r*k)**e``.
    """
    _check_r_m(r, m, env)
    return _least_k(Fraction(math.comb(r, m)), r, env)


def min_k_lower_relaxed(r: int, m: int, env: TuranEnvelope) -> int:
    """Same threshold computed from the weaker count (r-m)^m / m!.

    This is the closed-form relaxation of the binomial; it never exceeds
    C(r, m), so the result is at most ``min_k_lower(r, m, env)``.
    """
    _check_r_m(r, m, env)
    return _least_k(Fraction((r - m) ** m, math.factorial(m)), r, env)


def berge_path_k_lb(r: int, m: int, t: int) -> Fraction:
    """Exact part-size lower bound C(r-1, m-1) / C(t-1, m-1).

    This is the replication-number bound: each part must meet enough
    edges to cover all (m-1)-subsets of the remaining parts when edges
    span at most t parts.  It equals the replication number of any
    m-(r, t, 1) design, when one exists.

    Parameters
    ----------
    r : int
        Number of parts, r > t.
    m : int
        Cover uniformity, m >= 2.
    t : int
        Edge spread, t >= m.

    Returns
    -------
    Fraction
        Exact rational bound.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if t < m:
        raise ValueError(f"need t >= m, got t={t}, m={m}")
    if r <= t:
        raise ValueError(f"need r > t, got r={r}, t={t}")
    return Fraction(math.comb(r - 1, m - 1), math.comb(t - 1, m - 1))


def tree_bound(r: int, t: int) -> Fraction:
    """Exact ratio (r-1)/(t-1), the graph specialisation of berge_path_k_lb."""
    return berge_path_k_lb(r, 2, t)


_PATTERN_NAMES = ("plus_minus", "minus_plus", "both")


def _congruence_pattern(p: int, d1: int, d2: int) -> str | None:
    plus = (p + 1) % d1 == 0 and (p - 1) % d2 == 0
    minus = (p - 1) % d1 == 0 and (p + 1) % d2 == 0
    if plus and minus:
        return "both"
    if plus:
        return "plus_minus"
    if minus:
        return "minus_plus"
    return None


@dataclass(frozen=True)
class AdmissiblePair:
    """Divisor pair (d1, d2) with sample primes from its progression.

    Every sample prime must satisfy ``d1 | p+1 and d2 | p-1`` (pattern
    "plus_minus"), the swap ("minus_plus"), or both; the recorded pattern
    is re-verified on construction, as is primality of every entry.

    Fields
    ------
    d1, d2 : int
        The pair, 1 <= d1 <= d2.
    x0 : int
        Residue class mod d1*d2 that the canonical prime search walks.
    modulus : int
        d1 * d2.
    primes : tuple of int
        Sample primes, ascending.
    patterns : tuple of str
        Per-prime congruence pattern.
    r_values : tuple of int
        Part count p^2 (p -+ 1) / d2 served by each sample prime.
    coefficient : Fraction
        1/d1 + 1/d2, the leading constant of the resulting upper bound.
    """

    d1: int
    d2: int
    x0: int
    modulus: int
    primes: Tuple[int, ...]
    patterns: Tuple[str, ...]
    r_values: Tuple[int, ...]
    coefficient: Fraction

    def __post_init__(self) -> None:
        if not (1 <= self.d1 <= self.d2):
            raise ValueError(f"need 1 <= d1 <= d2, got ({self.d1}, {self.d2})")
        if self.modulus != self.d1 * self.d2:
            raise ValueError(f"modulus must be d1*d2 = {self.d1 * self.d2}, got {self.modulus}")
        if not (0 <= self.x0 < self.modulus):
            raise ValueError(f"x0 must be a least residue mod {self.modulus}, got {self.x0}")
        if not (len(self.primes) == len(self.patterns) == len(self.r_values)):
            raise ValueError("primes, patterns and r_values must have equal length")
        for p, pat, rv in zip(self.primes, self.patterns, self.r_values):
            if not is_prime(p):
                raise ValueError(f"sample entry {p} is not prime")
            actual = _congruence_pattern(p, self.d1, self.d2)
            if actual is None:
                raise ValueError(f"prime {p} fits neither congruence pattern for ({self.d1}, {self.d2})")
            if pat not in _PATTERN_NAMES:
                raise ValueError(f"unknown pattern name {pat!r}")
            if pat != actual:
                raise ValueError(f"prime {p} satisfies pattern {actual!r}, recorded as {pat!r}")
            if rv <= 0:
                raise ValueError(f"r_value for prime {p} must be positive, got {rv}")
        if self.coefficient <= 0:
            raise ValueError("coefficient must be positive")


_SMALL_D_MSG = "no divisor pair is computed for d < 12; use small_d_table() instead"


def admissible_pair_for(d: int, *, max_primes: int = 4) -> AdmissiblePair:
    """Divisor pair (D, D+1) for degree parameter d, with sample primes.

    D is the unique integer with ``D(D+1) < d <= (D+1)(D+2)``; it always
    satisfies ``sqrt(d) - 3/2 < D < sqrt(d) - 1/2``.  The residue x0 is
    the unique solution of ``x == -1 (mod D)``, ``x == 1 (mod D+1)``, and
    the sample primes are the first ``max_primes`` primes in that residue
    class (Dirichlet guarantees infinitely many, since x0 is coprime to
    the modulus).  Candidates are filtered by trial division over small
    primes and settled by deterministic Miller-Rabin; no probabilistic
    verdicts.  A d whose search could test a candidate at or above
    `gf.MR_EXACT_BELOW`, where that test is no longer proven exact (d
    above about 3.2 * 10**17), is refused, as is a search that takes
    more than 10^6 progression steps.

    Parameters
    ----------
    d : int
        Degree parameter, d >= 12.
    max_primes : int, optional
        How many progression primes to collect (default 4).

    Returns
    -------
    AdmissiblePair
        With per-prime r_values ``p^2 (p-1) / (D+1)`` and coefficient
        ``(2D+1) / (D(D+1))``.

    Raises
    ------
    ValueError
        For d < 12, a refused d or a search past its step cap.
    """
    if not isinstance(d, int) or d < 12:
        raise ValueError(_SMALL_D_MSG)
    if max_primes < 0:
        raise ValueError(f"max_primes must be nonnegative, got {max_primes}")

    # x = D + 1 has (x - 1) x < d <= x (x + 1): isqrt(d) or the next integer
    x = math.isqrt(d)
    if x * (x + 1) < d:
        x += 1
    D = x - 1
    modulus = D * (D + 1)
    # the search below tests candidates below (_MAX_STEPS + 2) * modulus
    if (_MAX_STEPS + 2) * modulus > MR_EXACT_BELOW:
        raise ValueError(
            f"d={d} is too large: its prime search could pass {MR_EXACT_BELOW}, "
            "beyond which primality tests are not proven exact"
        )

    # x = -1 + D*t with D*t == 2 (mod D+1); invert D mod D+1
    t = 2 * pow(D, -1, D + 1) % (D + 1)
    x0 = (D * t - 1) % modulus

    primes = []
    patterns = []
    r_values = []
    candidate = x0 if x0 > 1 else x0 + modulus
    steps = 0
    while len(primes) < max_primes:
        if is_prime(candidate):
            primes.append(candidate)
            patterns.append(_congruence_pattern(candidate, D, D + 1))
            r_values.append(candidate * candidate * (candidate - 1) // (D + 1))
        candidate += modulus
        steps += 1
        if steps > _MAX_STEPS:
            raise ValueError(f"prime search for d={d} exceeded {_MAX_STEPS} progression steps")

    return AdmissiblePair(
        d1=D,
        d2=D + 1,
        x0=x0,
        modulus=modulus,
        primes=tuple(primes),
        patterns=tuple(patterns),
        r_values=tuple(r_values),
        coefficient=Fraction(2 * D + 1, modulus),
    )


def k2d_upper_coeff(d: int) -> float:
    """Coefficient 2 d^{-1/3} (1 - 1.5 d^{-1/2})^{-5/3} of the d >= 12 upper bound.

    Tends to 2 d^{-1/3} from above as d grows.  For d < 12 the formula
    is not used; consult small_d_table() instead.
    """
    if not isinstance(d, int) or d < 12:
        raise ValueError(_SMALL_D_MSG)
    return 2.0 * d ** (-1.0 / 3.0) * (1.0 - 1.5 * d**-0.5) ** (-5.0 / 3.0)


_SMALL_D_TABLE = {
    2: 1.89,
    3: 1.89,
    4: 1.26,
    5: 1.26,
    6: 1.21,
    7: 1.21,
    8: 1.20,
    9: 1.20,
    10: 1.20,
    11: 1.20,
    12: 0.93,
    13: 0.93,
    14: 0.93,
}


def small_d_table() -> Dict[int, float]:
    """Reference constants c_d with f-threshold growth below c_d * r^{1/3}.

    Returns a fresh copy; keys run from d = 2 to d = 14.
    """
    return dict(_SMALL_D_TABLE)
