"""Tests for splitforge.gf.

The oracle helpers in this file (trial-factorization irreducibility,
repeated-multiplication orders, a prime sieve) are written from scratch
and deliberately share no code with the module under test.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from splitforge import gf
from splitforge.constructions import _subfield_split


# --------------------------------------------------------------- oracles


def sieve_primes(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
    return {i for i, f in enumerate(flags) if f}


def poly_mul_naive(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


def all_monic(p, deg):
    for lower in itertools.product(range(p), repeat=deg):
        yield tuple(lower) + (1,)


def poly_is_irreducible_naive(poly, p):
    # monic, degree >= 1; irreducible iff it is not a product of two
    # monic polynomials of degree in [1, n-1]
    n = len(poly) - 1
    if n == 1:
        return True
    for d in range(1, n // 2 + 1):
        for f in all_monic(p, d):
            for g in all_monic(p, n - d):
                if poly_mul_naive(f, g, p) == poly:
                    return False
    return True


def poly_reduce_naive(c, poly, p):
    # remainder of c modulo the monic poly, as exactly n coefficients
    c, n = list(c), len(poly) - 1
    for k in range(len(c) - 1, n - 1, -1):
        t = c[k]
        for i in range(n + 1):
            c[k - n + i] = (c[k - n + i] - t * poly[i]) % p
    return (c + [0] * n)[:n]


def mult_order_naive(spec, x):
    assert x != 0
    k, acc = 1, x
    while acc != 1:
        acc = spec.mul(acc, x)
        k += 1
    return k


def digits_of(x, p, n):
    return [x // p**i % p for i in range(n)]


def from_digits(ds, p):
    return sum(d * p**i for i, d in enumerate(ds))


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def embed_subfield(source, target, y):
    # the embedding the module documents: theta_target -> theta_source^e
    if y == 0:
        return 0
    e = (source.q - 1) // (target.q - 1)
    return source.exp[(e * target.log[y]) % (source.q - 1)]


# ----------------------------------------------------- field construction


def test_make_field_frozen_polys():
    assert gf.make_field(2, 1).poly == (0, 1)
    assert gf.make_field(3, 1).poly == (0, 1)
    assert gf.make_field(3, 2).poly == (1, 0, 1)
    assert gf.make_field(5, 2).poly == (2, 0, 1)
    assert gf.make_field(2, 2).poly == (1, 1, 1)
    assert gf.make_field(2, 3).poly == (1, 1, 0, 1)


@pytest.mark.parametrize(
    "p,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)]
)
def test_least_irreducible_matches_naive_scan(p, n):
    poly = gf.least_irreducible(p, n)
    assert poly_is_irreducible_naive(poly, p)
    first = None
    for idx in range(p**n):
        digits, v = [], idx
        for _ in range(n):
            digits.append(v % p)
            v //= p
        cand = tuple(digits) + (1,)
        if poly_is_irreducible_naive(cand, p):
            first = cand
            break
    assert poly == first


def test_make_field_is_cached():
    assert gf.make_field(3, 2) is gf.make_field(3, 2)


def test_make_field_rejects_bad_input():
    for p, n in [(4, 2), (1, 1), (0, 1), (9, 1), (3, 0), (2, 21)]:
        with pytest.raises(ValueError):
            gf.make_field(p, n)


# ------------------------------------------------------------ arithmetic

SMALL_FIELDS = [
    (2, 1),
    (3, 1),
    (5, 1),
    (7, 1),
    (2, 2),
    (2, 3),
    (3, 2),
    (2, 4),
    (5, 2),
    (3, 3),
    (7, 2),
]


@pytest.mark.parametrize("p,n", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, n):
    spec = gf.make_field(p, n)
    q = spec.q
    for a in range(q):
        assert spec.add(a, 0) == a
        assert spec.mul(a, 1) == a
        assert spec.add(a, spec.neg(a)) == 0
        assert spec.sub(a, a) == 0
        if a:
            assert spec.mul(a, spec.inv(a)) == 1
    for a in range(q):
        for b in range(q):
            assert spec.add(a, b) == spec.add(b, a)
            assert spec.mul(a, b) == spec.mul(b, a)
    for a in range(q):
        for b in range(q):
            for c in range(q):
                assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))
                assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
                assert spec.mul(a, spec.add(b, c)) == spec.add(
                    spec.mul(a, b), spec.mul(a, c)
                )


@pytest.mark.parametrize("p,n", [(3, 4), (2, 7), (11, 2)])
def test_field_axioms_random_large(p, n):
    spec = gf.make_field(p, n)
    rng = random.Random(20260816)
    for _ in range(10_000):
        a = rng.randrange(spec.q)
        b = rng.randrange(spec.q)
        c = rng.randrange(spec.q)
        assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))
        assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
        assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b), spec.mul(a, c))
        if a:
            assert spec.mul(a, spec.inv(a)) == 1


def test_frozen_arithmetic_values():
    f7 = gf.make_field(7, 1)
    assert f7.inv(3) == 5
    assert f7.inv(1) == 1
    f9 = gf.make_field(3, 2)
    mu = 3  # the adjoined root: coefficient vector (0, 1)
    assert f9.mul(mu, mu) == 2
    assert f9.inv(f9.inv(2)) == 2


def test_operand_validation():
    f9 = gf.make_field(3, 2)
    with pytest.raises(ValueError):
        f9.inv(0)
    with pytest.raises(ValueError):
        f9.mul(9, 1)
    with pytest.raises(ValueError):
        f9.add(-1, 1)
    with pytest.raises(ValueError):
        f9.neg(12)


def test_pow_conventions():
    f9 = gf.make_field(3, 2)
    assert f9.pow(0, 0) == 1
    assert f9.pow(0, 5) == 0
    with pytest.raises(ValueError):
        f9.pow(0, -1)
    rng = random.Random(7)
    for _ in range(300):
        a = rng.randrange(1, 9)
        e = rng.randrange(-20, 40)
        acc = 1
        for _ in range(e % 8):
            acc = f9.mul(acc, a)
        assert f9.pow(a, e) == acc
    assert f9.pow(5, -1) == f9.inv(5)


FIELDS_UP_TO_81 = sorted(
    (p, n) for p in sieve_primes(81) for n in range(1, 7) if p**n <= 81
)


def check_against_digits(spec, pairs):
    p, n = spec.p, spec.n
    for a, b in pairs:
        da, db = digits_of(a, p, n), digits_of(b, p, n)
        assert spec.add(a, b) == from_digits([(x + y) % p for x, y in zip(da, db)], p)
        assert spec.sub(a, b) == from_digits([(x - y) % p for x, y in zip(da, db)], p)
        assert spec.neg(a) == from_digits([-x % p for x in da], p)


def test_add_neg_sub_match_digit_arithmetic():
    # the encoding: base-p digits of an element, least significant first,
    # are its coefficients, so 5 in GF(9) is 2 + x with the root x = 3
    f9 = gf.make_field(3, 2)
    assert f9.add(2, 3) == 5
    assert f9.neg(5) == 7  # 1 + 2x
    assert f9.add(1, 1) == 2  # constants are 0 .. p-1
    assert f9.add(5, 7) == 0
    f8 = gf.make_field(2, 3)
    for a in range(8):
        for b in range(8):
            assert f8.add(a, b) == a ^ b
    for p, n in FIELDS_UP_TO_81:
        spec = gf.make_field(p, n)
        check_against_digits(spec, itertools.product(range(spec.q), repeat=2))


@pytest.mark.parametrize("p,n", [(2, 16), (3, 12)])
def test_add_neg_sub_match_digit_arithmetic_random(p, n):
    spec = gf.make_field(p, n)
    rng = random.Random(20261018)
    check_against_digits(
        spec, [(rng.randrange(spec.q), rng.randrange(spec.q)) for _ in range(20_000)]
    )


def test_exp_log_are_inverse_maps():
    for p, n in [(3, 2), (7, 1), (2, 4), (5, 2)]:
        spec = gf.make_field(p, n)
        assert spec.log[0] is None
        for i in range(spec.q - 1):
            assert spec.log[spec.exp[i]] == i
        for x in range(1, spec.q):
            assert spec.exp[spec.log[x]] == x


@pytest.mark.parametrize("p,n", [(2, 1), (5, 1), (2, 4), (3, 2), (2, 13), (3, 8)])
def test_exp_is_the_powers_of_theta(p, n):
    # one polynomial product per step, against tables built in blocks
    spec = gf.make_field(p, n)
    theta = digits_of(spec.theta, p, n)
    acc = 1
    for i in range(spec.q - 1):
        assert spec.exp[i] == acc
        prod = poly_mul_naive(digits_of(acc, p, n), theta, p)
        acc = from_digits(poly_reduce_naive(prod, spec.poly, p), p)
    assert acc == 1


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5), (5, 3), (7, 2), (2, 13)])
def test_field_matches_sympy(p, n):
    # sympy's dense GF(p)[x] arithmetic on big-endian coefficient lists
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_add, gf_irreducible_p, gf_mul, gf_rem, gf_strip

    spec = gf.make_field(p, n)
    modulus = [ZZ(c) for c in reversed(spec.poly)]
    assert gf_irreducible_p(modulus, p, ZZ)

    def to_poly(x):
        return gf_strip([ZZ(c) for c in reversed(digits_of(x, p, n))])

    def from_poly(c):
        return from_digits([int(v) for v in reversed(c)], p)

    rng = random.Random(1000 * p + n)
    for _ in range(500):
        a, b = rng.randrange(spec.q), rng.randrange(spec.q)
        fa, fb = to_poly(a), to_poly(b)
        assert spec.mul(a, b) == from_poly(gf_rem(gf_mul(fa, fb, p, ZZ), modulus, p, ZZ))
        assert spec.add(a, b) == from_poly(gf_add(fa, fb, p, ZZ))


# ------------------------------------------------------------- primitives


def test_find_primitive_frozen():
    assert gf.make_field(2, 1).theta == 1
    assert gf.make_field(3, 1).theta == 2
    assert gf.make_field(7, 1).theta == 3
    assert gf.make_field(3, 2).theta == 4


@pytest.mark.parametrize("p,n", SMALL_FIELDS + [(3, 4)])
def test_primitive_has_full_order(p, n):
    spec = gf.make_field(p, n)
    theta = spec.theta
    if spec.q == 2:
        assert theta == 1
        return
    assert mult_order_naive(spec, theta) == spec.q - 1
    # least: nothing smaller generates
    for g in range(1, theta):
        assert mult_order_naive(spec, g) < spec.q - 1


# ------------------------------------------- norms, cosets and subfields
# gf has no helpers for these: callers read them from exp/log, and these
# tests check the identities those reads rest on against repeated
# multiplication


TOWERS = [(2, 3), (2, 4), (3, 3), (3, 4), (3, 5), (4, 3), (5, 3), (9, 3)]


def tower_specs(q, t):
    p, n = gf.prime_power(q)
    return gf.make_field(p, n * (t - 1)), gf.make_field(p, n)


def power_naive(spec, x, e):
    acc = 1
    for _ in range(e):
        acc = spec.mul(acc, x)
    return acc


def test_norm_frozen():
    f9 = gf.make_field(3, 2)
    mu = 3
    assert power_naive(f9, mu, 4) == 1  # N(mu) = mu^4 with mu^2 = -1
    assert f9.log[mu] % 2 == 0  # the label log[mu] mod (3-1) names theta_3^0 = 1


@pytest.mark.parametrize("q,t", TOWERS)
def test_norm_is_the_power_map_under_embedding(q, t):
    # N(theta_source^i) = theta_target^(i mod (q-1)) under the embedding
    source, target = tower_specs(q, t)
    e = (source.q - 1) // (target.q - 1)
    for x in range(1, source.q):
        y = target.exp[source.log[x] % (target.q - 1)]
        assert embed_subfield(source, target, y) == power_naive(source, x, e)


@pytest.mark.parametrize("q,t", TOWERS)
def test_norm_multiplicative_surjective_equal_fibers(q, t):
    source, target = tower_specs(q, t)
    e = (source.q - 1) // (target.q - 1)
    norm = [0] + [power_naive(source, x, e) for x in range(1, source.q)]
    for x in range(1, source.q):
        for y in range(1, source.q):
            assert norm[source.mul(x, y)] == source.mul(norm[x], norm[y])
    # onto the image of the target's nonzero elements, the subfield's
    fibers = Counter(norm[1:])
    assert set(fibers) == {embed_subfield(source, target, y) for y in range(1, target.q)}
    assert set(fibers) == set(source.exp[::e])
    assert all(c == e for c in fibers.values())


def test_subgroup_frozen():
    f7 = gf.make_field(7, 1)
    assert sorted(f7.exp[::2]) == [1, 2, 4]  # order 3, quotient order 2
    f9 = gf.make_field(3, 2)
    assert f9.exp[::8] == [1]


@pytest.mark.parametrize("p,n", [(7, 1), (3, 2), (5, 2), (13, 1)])
def test_subgroup_and_coset_properties(p, n):
    # the order-d subgroup is exp[::Q], Q = (q-1)/d, and log[x] % Q labels
    # the coset of x
    spec = gf.make_field(p, n)
    for d in divisors(spec.q - 1):
        Q = (spec.q - 1) // d
        elems = spec.exp[::Q]
        assert len(set(elems)) == d
        assert mult_order_naive(spec, elems[1 % d]) == d
        assert {spec.mul(x, y) for x in elems for y in elems} == set(elems)
        for x in range(1, spec.q):
            cx = spec.log[x] % Q
            assert 0 <= cx < Q
            for k in elems:
                assert spec.log[spec.mul(x, k)] % Q == cx
        assert {spec.log[x] % Q for x in range(1, spec.q)} == set(range(Q))


def test_subfield_is_a_stride_of_exp():
    # GF(p^m) in GF(p^n) is 0 plus every ((q-1)/(p^m-1))-th power of
    # theta: the fixed points of x -> x^(p^m)
    for (p, n, m) in [(3, 2, 1), (3, 4, 2), (2, 6, 3), (2, 6, 2), (5, 2, 1)]:
        spec = gf.make_field(p, n)
        pm = p**m
        sub = [0, *spec.exp[:: (spec.q - 1) // (pm - 1)]]
        assert sorted(sub) == [x for x in range(spec.q) if power_naive(spec, x, pm) == x]
        s = set(sub)
        assert all(spec.add(a, b) in s and spec.mul(a, b) in s for a in sub for b in sub)


def check_quadratic_split(p):
    # constructions._subfield_split: x = a + mu*b over GF(p) in GF(p^2),
    # with mu = p, the least element outside GF(p) = [0, p)
    spec = gf.make_field(p, 2)
    ab = _subfield_split(spec)
    assert len(ab) == spec.q
    for x in range(spec.q):
        a, b = ab[x]
        assert 0 <= a < p and 0 <= b < p
        assert spec.add(a, spec.mul(p, b)) == x


def test_quadratic_split_gf9():
    check_quadratic_split(3)
    assert _subfield_split(gf.make_field(3, 2))[3] == (0, 1)


def test_quadratic_split_gf25():
    check_quadratic_split(5)


def test_quadratic_split_gf49():
    check_quadratic_split(7)


# ---------------------------------------------------------- integer utils


def test_is_prime_against_sieve():
    primes = sieve_primes(10_000)
    for n in range(10_001):
        assert gf.is_prime(n) == (n in primes)


def test_prime_factors():
    assert gf.prime_factors(12) == [2, 3]
    assert gf.prime_factors(8) == [2]
    assert gf.prime_factors(1) == []
    assert gf.prime_factors(97) == [97]
    assert gf.prime_factors(360) == [2, 3, 5]


def test_prime_power():
    assert gf.prime_power(9) == (3, 2)
    assert gf.prime_power(8) == (2, 3)
    assert gf.prime_power(7) == (7, 1)
    assert gf.prime_power(1024) == (2, 10)
    assert gf.prime_power(12) is None
    assert gf.prime_power(1) is None
    assert gf.prime_power(0) is None
