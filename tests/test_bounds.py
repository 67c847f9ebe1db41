from __future__ import annotations

import math
import random
import time
from collections import Counter
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
import sympy

from splitforge import bounds
from splitforge.bounds import (
    AdmissiblePair,
    TuranEnvelope,
    admissible_pair_for,
    berge_path_k_lb,
    k2d_upper_coeff,
    min_k_lower,
    min_k_lower_relaxed,
    small_d_table,
    tree_bound,
)
from splitforge.constructions import design_catalog
from splitforge.gf import MR_EXACT_BELOW


def envelope(C, e, m=2):
    return TuranEnvelope(C=C, e=e, m=m)


def edge_ceiling_ok(required: Fraction, env: TuranEnvelope, n: int) -> bool:
    # Test-side restatement of the defining inequality required <= C * n^e,
    # cleared of the fractional exponent by cross-raising both sides.
    lhs = required / env.C
    en, ed = env.e.numerator, env.e.denominator
    return lhs**ed <= Fraction(n) ** en


# ---------------------------------------------------------------------------
# TuranEnvelope


def test_envelope_fields_are_exact_fractions():
    env = envelope(Fraction(1, 2), 2)
    assert env.C == Fraction(1, 2)
    assert env.e == Fraction(2)
    env2 = envelope(1.5, 1.5)
    assert env2.C == Fraction(3, 2)
    assert env2.e == Fraction(3, 2)


def test_envelope_validation():
    with pytest.raises(ValueError):
        envelope(0, 2)
    with pytest.raises(ValueError):
        envelope(-1, 2)
    with pytest.raises(ValueError):
        envelope(1, 1)  # exponent must exceed 1
    with pytest.raises(ValueError):
        envelope(1, Fraction(5, 2), m=2)  # exponent above uniformity
    with pytest.raises(ValueError):
        TuranEnvelope(C=1, e=2, m=1)
    # boundary e == m is allowed
    assert envelope(1, 2, m=2).e == 2


def test_envelope_zero_denominator_names_the_field():
    with pytest.raises(ValueError, match="C is not a rational value"):
        TuranEnvelope(C="1/0", e=2, m=2)
    with pytest.raises(ValueError, match="e is not a rational value"):
        TuranEnvelope(C=1, e="1/0", m=2)


def test_envelope_rejects_exponents_with_huge_denominators():
    # the exact ceiling check raises to e's denominator: 10**10 for the
    # first, 2**51 for the float 1.1
    for e in ("1.0000000001", 1.1, Fraction(1501, 1001)):
        with pytest.raises(ValueError, match="exponent e = .* denominator above 1000"):
            envelope(1, e)
    for e in (Fraction(3, 2), Fraction(4, 3), Fraction(5, 3), Fraction(7, 4), "1.1"):
        assert envelope(1, e).e == Fraction(e)


# ---------------------------------------------------------------------------
# min_k_lower


def test_min_k_lower_sparse_envelope_frozen():
    # C(100,2) = 4950 <= (100k)^{3/2}  <=>  4950^2 <= (100k)^3
    assert math.comb(100, 2) ** 2 > (100 * 2) ** 3
    assert math.comb(100, 2) ** 2 <= (100 * 3) ** 3
    assert min_k_lower(100, 2, envelope(1, Fraction(3, 2))) == 3


def test_min_k_lower_dense_envelope_is_trivial():
    # 45 <= (10k)^2 / 2 already at k = 1
    assert min_k_lower(10, 2, envelope(Fraction(1, 2), 2)) == 1


def test_min_k_lower_relaxed_variant():
    env = envelope(1, Fraction(3, 2))
    assert min_k_lower_relaxed(100, 2, env) == 3
    # (r-m)^m / m! never exceeds the true binomial, so the relaxed
    # threshold can only be met at the same k or earlier.
    rng = random.Random(20240)
    for _ in range(40):
        m = rng.choice([2, 3])
        r = rng.randrange(m + 1, 120)
        C = rng.choice([Fraction(1, 3), Fraction(1, 2), 1, 2])
        e = rng.choice([f for f in (Fraction(4, 3), Fraction(3, 2), 2, 3) if f <= m])
        env = envelope(C, e, m=m)
        assert min_k_lower_relaxed(r, m, env) <= min_k_lower(r, m, env)


def test_min_k_lower_postcondition_exact():
    # Returned k satisfies the ceiling inequality and k-1 violates it.
    rng = random.Random(5151)
    for _ in range(60):
        m = rng.choice([2, 3])
        r = rng.randrange(m + 1, 200)
        C = rng.choice([Fraction(1, 5), Fraction(1, 2), 1, 3])
        e = rng.choice([f for f in (Fraction(4, 3), Fraction(3, 2), Fraction(5, 3), 2, 3) if f <= m])
        env = envelope(C, e, m=m)
        k = min_k_lower(r, m, env)
        required = Fraction(math.comb(r, m))
        assert k >= 1
        assert edge_ceiling_ok(required, env, r * k)
        if k > 1:
            assert not edge_ceiling_ok(required, env, r * (k - 1))


def test_min_k_lower_monotone_in_r_and_C():
    env = envelope(1, Fraction(3, 2))
    values = [min_k_lower(r, 2, env) for r in range(3, 400, 7)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    ks = [min_k_lower(150, 2, envelope(C, Fraction(3, 2))) for C in (Fraction(1, 4), Fraction(1, 2), 1, 2, 4)]
    assert all(a >= b for a, b in zip(ks, ks[1:]))


def test_min_k_lower_validation():
    env = envelope(1, Fraction(3, 2))
    with pytest.raises(ValueError):
        min_k_lower(2, 2, env)
    with pytest.raises(ValueError):
        min_k_lower(10, 3, env)  # uniformity disagrees with the envelope
    with pytest.raises(ValueError):
        min_k_lower_relaxed(2, 2, env)


# ---------------------------------------------------------------------------
# berge_path_k_lb


def test_berge_path_frozen_values():
    v = berge_path_k_lb(7, 2, 3)
    assert isinstance(v, Fraction)
    assert v == 3
    assert berge_path_k_lb(5, 3, 3) == 6
    for t in range(2, 8):
        assert berge_path_k_lb(t + 1, 2, t) == Fraction(t, t - 1)


def test_berge_path_formula_against_binomials():
    rng = random.Random(99)
    for _ in range(50):
        m = rng.randrange(2, 5)
        t = rng.randrange(m, m + 5)
        r = rng.randrange(t + 1, t + 40)
        assert berge_path_k_lb(r, m, t) == Fraction(math.comb(r - 1, m - 1), math.comb(t - 1, m - 1))


def test_berge_path_validation():
    with pytest.raises(ValueError):
        berge_path_k_lb(3, 2, 3)  # r must exceed t
    with pytest.raises(ValueError):
        berge_path_k_lb(9, 3, 2)  # t below m
    with pytest.raises(ValueError):
        berge_path_k_lb(9, 1, 3)


def test_berge_path_matches_design_replication():
    # The same quantity must show up as the replication number of any
    # matching design in the catalog: count actual point memberships.
    for name in ["fano", "AG(2,3)", "PG(2,3)", "all-3-subsets(5,3)"]:
        design = design_catalog(name)
        counts = Counter(p for block in design.blocks for p in block)
        expected = berge_path_k_lb(design.r, design.m, design.t)
        assert expected.denominator == 1
        assert set(counts.values()) == {int(expected)}
        assert len(counts) == design.r


# ---------------------------------------------------------------------------
# admissible_pair_for


def test_admissible_pair_d12_frozen():
    pair = admissible_pair_for(12)
    assert (pair.d1, pair.d2) == (2, 3)
    assert pair.modulus == 6
    assert pair.x0 == 1
    assert pair.primes == (7, 13, 19, 31)
    assert pair.patterns == ("plus_minus",) * 4
    assert pair.r_values == (98, 676, 2166, 9610)
    assert pair.coefficient == Fraction(5, 6)


def test_admissible_pair_d13_frozen():
    pair = admissible_pair_for(13, max_primes=5)
    assert (pair.d1, pair.d2) == (3, 4)
    assert pair.x0 == 5
    assert pair.primes == (5, 17, 29, 41, 53)
    assert pair.r_values[0] == 5 * 5 * 4 // 4
    assert pair.coefficient == Fraction(7, 12)


def test_admissible_pair_crt_by_brute_force():
    for d in (12, 13, 20, 21, 57, 101, 977):
        pair = admissible_pair_for(d, max_primes=0)
        sols = [
            x
            for x in range(pair.modulus)
            if (x + 1) % pair.d1 == 0 and (x - 1) % pair.d2 == 0
        ]
        assert sols == [pair.x0]


def test_admissible_pair_primes_verified_and_gapless():
    rng = random.Random(733)
    for d in rng.sample(range(12, 10_001), 25):
        pair = admissible_pair_for(d, max_primes=3)
        assert len(pair.primes) == 3
        for p in pair.primes:
            assert sympy.isprime(p)
            assert p % pair.modulus == pair.x0
            assert (p + 1) % pair.d1 == 0
            assert (p - 1) % pair.d2 == 0
        # no prime in the progression below the last returned one is skipped
        hits = [
            c
            for c in range(pair.x0, pair.primes[-1] + 1, pair.modulus)
            if c > 1 and sympy.isprime(c)
        ]
        assert tuple(hits) == pair.primes


def test_admissible_pair_interval_property_full_range():
    # sqrt(d) - 3/2 < D < sqrt(d) - 1/2, checked exactly as
    # (2D+1)^2 < 4d and 4d < (2D+3)^2 over the whole supported range.
    for d in range(12, 10_001):
        pair = admissible_pair_for(d, max_primes=0)
        D = pair.d1
        assert pair.d2 == D + 1
        assert D * (D + 1) < d <= (D + 1) * (D + 2)
        assert (2 * D + 1) ** 2 < 4 * d
        assert 4 * d < (2 * D + 3) ** 2


def test_admissible_pair_r_values_formula():
    pair = admissible_pair_for(30, max_primes=4)
    for p, rv in zip(pair.primes, pair.r_values):
        assert rv == p * p * (p - 1) // pair.d2
        assert (p - 1) % pair.d2 == 0


def test_admissible_pair_validation_and_reverification():
    with pytest.raises(ValueError):
        admissible_pair_for(11)
    with pytest.raises(ValueError):
        admissible_pair_for(0)
    with pytest.raises(ValueError):
        admissible_pair_for(12, max_primes=-1)
    # direct construction re-checks every prime and its recorded pattern
    with pytest.raises(ValueError):
        AdmissiblePair(
            d1=2, d2=3, x0=1, modulus=6,
            primes=(9,), patterns=("plus_minus",), r_values=(216,),
            coefficient=Fraction(5, 6),
        )
    with pytest.raises(ValueError):
        AdmissiblePair(
            d1=2, d2=3, x0=1, modulus=6,
            primes=(7,), patterns=("minus_plus",), r_values=(98,),
            coefficient=Fraction(5, 6),
        )
    with pytest.raises(ValueError):
        AdmissiblePair(
            d1=3, d2=2, x0=1, modulus=6,
            primes=(), patterns=(), r_values=(),
            coefficient=Fraction(5, 6),
        )


def test_admissible_pair_both_pattern_accepted():
    # With d1 = 1 both divisibility patterns hold for any odd prime, and
    # the recorded pattern must say so.
    pair = AdmissiblePair(
        d1=1, d2=2, x0=1, modulus=2,
        primes=(5, 7), patterns=("both", "both"), r_values=(50, 147),
        coefficient=Fraction(3, 2),
    )
    assert pair.patterns == ("both", "both")


def test_admissible_pair_deterministic():
    assert admissible_pair_for(200) == admissible_pair_for(200)


def test_admissible_pair_D_matches_the_linear_scan():
    for d in range(12, 20_001):
        D = 1
        while (D + 1) * (D + 2) < d:
            D += 1
        assert admissible_pair_for(d, max_primes=0).d1 == D


def test_admissible_pair_refuses_a_search_past_the_exact_prime_test():
    # every candidate the search tests lies below (steps + 2) * D (D + 1)
    last = admissible_pair_for(318_665_221_570_890_812, max_primes=2)
    assert (bounds._MAX_STEPS + 2) * last.modulus <= MR_EXACT_BELOW
    for d in (318_665_221_570_890_813, 10**18, 10**40):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="too large"):
            admissible_pair_for(d)
        assert time.perf_counter() - start < 1.0


def test_admissible_pair_step_cap_is_a_value_error(monkeypatch):
    monkeypatch.setattr(bounds, "_MAX_STEPS", 5)
    with pytest.raises(ValueError, match="exceeded 5 progression steps"):
        admissible_pair_for(12, max_primes=100)


def test_least_k_without_a_feasible_k_is_a_value_error():
    # C(10^10, 3) edges need (r k)^(101/100) >= 1.6 * 10^29, so k > 2^60
    with pytest.raises(ValueError, match="no feasible k below 2\\^60"):
        min_k_lower(10**10, 3, envelope(1, "101/100", m=3))


# ---------------------------------------------------------------------------
# k2d_upper_coeff and small_d_table


def test_k2d_coefficient_frozen_d12():
    # high-precision evaluation of 2 d^{-1/3} (1 - 1.5 d^{-1/2})^{-5/3}
    getcontext().prec = 50
    d = Decimal(12)
    oracle = 2 * (-d.ln() / 3).exp() * (-(Decimal(5) / 3) * (1 - Decimal("1.5") / d.sqrt()).ln()).exp()
    got = k2d_upper_coeff(12)
    assert abs(got - float(oracle)) < 1e-12
    assert round(got, 2) == 2.25


def test_k2d_coefficient_limit():
    # d^{1/3}-normalised coefficient decreases to 2
    vals = [k2d_upper_coeff(d) * d ** (1 / 3) for d in (100, 10**4, 10**6, 10**12)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 2 for v in vals)
    assert abs(vals[-1] - 2) < 1e-5


def test_k2d_coefficient_validation():
    with pytest.raises(ValueError):
        k2d_upper_coeff(11)
    with pytest.raises(ValueError):
        k2d_upper_coeff(2)


def test_small_d_table_frozen():
    expected = {
        2: 1.89, 3: 1.89,
        4: 1.26, 5: 1.26,
        6: 1.21, 7: 1.21,
        8: 1.20, 9: 1.20, 10: 1.20, 11: 1.20,
        12: 0.93, 13: 0.93, 14: 0.93,
    }
    assert small_d_table() == expected
    vals = [small_d_table()[d] for d in range(2, 15)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_small_d_table_returns_a_copy():
    t = small_d_table()
    t[2] = -1.0
    assert small_d_table()[2] == 1.89


def test_small_d_beats_formula_where_both_apply():
    for d in (12, 13, 14):
        assert small_d_table()[d] < k2d_upper_coeff(d)


# ---------------------------------------------------------------------------
# tree_bound


def test_tree_bound_values():
    assert tree_bound(7, 3) == 3
    assert tree_bound(9, 3) == 4
    assert tree_bound(8, 3) == Fraction(7, 2)
    # r = t+1 sits just above 1 and approaches it as t grows
    for t in range(2, 9):
        assert tree_bound(t + 1, t) == Fraction(t, t - 1)
    assert isinstance(tree_bound(8, 3), Fraction)


def test_tree_bound_agrees_with_berge_path_at_m2():
    rng = random.Random(4242)
    for _ in range(30):
        t = rng.randrange(2, 10)
        r = rng.randrange(t + 1, t + 50)
        assert tree_bound(r, t) == berge_path_k_lb(r, 2, t)


def test_tree_bound_validation():
    with pytest.raises(ValueError):
        tree_bound(3, 3)
    with pytest.raises(ValueError):
        tree_bound(5, 1)
