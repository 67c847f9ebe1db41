"""Exact arithmetic in small prime-power fields GF(p^n).

Field elements are plain integers in ``[0, p^n)``: the base-``p``
digits of the integer, least significant first, are the coefficients
of the residue polynomial in the adjoined root.  The zero polynomial
is ``0``, the constants are ``0 .. p-1``, and the adjoined root itself
is the integer ``p``.  Every operation after construction is a lookup
in three tables over a deterministically chosen primitive element
theta: ``exp`` and ``log`` for multiplication, inversion and powering,
and the Zech logarithms ``zech[i] = log(1 + theta**i)`` for addition,
since ``theta**i + theta**j = theta**(i + zech[j - i])``
(Lidl and Niederreiter, *Finite Fields*, 1997).

The defining polynomial is the monic irreducible of degree ``n`` whose
lower-coefficient encoding (same digit convention) is least, which
keeps element encodings and every vertex label derived from them
reproducible across runs.

The module has no subgroup, coset, norm or subfield helpers: each is one
read of the tables, made where it is used.  The order-d subgroup of
GF(q)^* is the powers of ``theta**((q-1)/d)``, so the coset of x is
``log[x] % ((q-1)/d)``; the subfield GF(p^m) is 0 plus
``exp[::(q-1)/(p^m-1)]``; and the norm down to a subfield is the power
``x**((q-1)/(p^m-1))``, which maps ``theta**i`` to the subfield element
``theta**(i (q-1)/(p^m-1))``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "FieldSpec",
    "make_field",
    "least_irreducible",
    "is_prime",
    "prime_factors",
    "prime_power",
]

# Hard cap on field size; exp/log are dense lists indexed by element.
_MAX_FIELD = 2**20

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the fixed witness set is exact for
    every n below 3.3 * 10**24, far beyond the field-size cap."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors in increasing order, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def prime_power(q: int) -> tuple[int, int] | None:
    """Return ``(p, n)`` with ``q == p**n`` and p prime, else None."""
    if q < 2:
        return None
    fs = prime_factors(q)
    if len(fs) != 1:
        return None
    p, n, rest = fs[0], 0, q
    while rest > 1:
        rest //= p
        n += 1
    return (p, n)


# ------------------------------------------------------------------
# polynomial helpers over GF(p); coefficient tuples, little-endian
# ------------------------------------------------------------------


def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mod(num, den, p):
    """Remainder of num by monic den."""
    num = [c % p for c in num]
    dd = len(den) - 1
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            for i in range(dd + 1):
                num[k - dd + i] = (num[k - dd + i] - c * den[i]) % p
    return _poly_trim(num[:dd])


def _monic_polys(p, deg):
    for idx in range(p**deg):
        digits, v = [], idx
        for _ in range(deg):
            digits.append(v % p)
            v //= p
        yield tuple(digits) + (1,)


def _is_irreducible(poly, p):
    n = len(poly) - 1
    if n == 1:
        return True
    # a reducible monic polynomial of degree n has a monic factor of
    # degree at most n // 2
    for d in range(1, n // 2 + 1):
        for f in _monic_polys(p, d):
            if not _poly_mod(poly, f, p):
                return False
    return True


def least_irreducible(p: int, n: int) -> tuple[int, ...]:
    """First monic irreducible of degree n over GF(p) in encoding order."""
    for cand in _monic_polys(p, n):
        if _is_irreducible(cand, p):
            return cand
    raise RuntimeError(f"no irreducible polynomial of degree {n} over GF({p})")


# ------------------------------------------------------------------
# the field itself
# ------------------------------------------------------------------


class FieldSpec:
    """Arithmetic tables for GF(p^n).

    Parameters
    ----------
    p : int
        Prime characteristic.
    n : int
        Extension degree, at least 1.

    Attributes
    ----------
    q : int
        Field size ``p**n``.
    poly : tuple of int
        The defining polynomial, `least_irreducible(p, n)`, little-endian.
    theta : int
        The least primitive element; its order is verified exactly
        against the prime factorization of ``q - 1``.
    exp, log : list
        ``exp[i] == theta**i`` for ``0 <= i < q-1`` and ``log`` is its
        inverse with ``log[0] is None``.
    zech : list
        ``zech[i] == log[1 + theta**i]``, None where ``theta**i == -1``.
    """

    def __init__(self, p: int, n: int) -> None:
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if n < 1:
            raise ValueError(f"extension degree must be >= 1, got {n}")
        q = p**n
        if q > _MAX_FIELD:
            raise ValueError(f"field size {q} exceeds the table cap {_MAX_FIELD}")
        self.p = p
        self.n = n
        self.q = q
        self.poly = least_irreducible(p, n)
        self.theta = self._find_generator()
        powers = self._theta_powers()
        if powers.pop() != 1:
            raise RuntimeError("primitive element failed the closure check")
        log: list = [None] * q
        for i, x in enumerate(powers):
            log[x] = i
        self.exp = powers
        self.log = log
        # 1 + theta**i only changes the constant digit of theta**i
        self.zech = [log[e - e % p + (e + 1) % p] for e in powers]
        self._log_minus_one = log[p - 1]

    # ------------------------------------------------------ raw layer
    # used only while bootstrapping the tables

    def _digits(self, x):
        p, out = self.p, []
        for _ in range(self.n):
            out.append(x % p)
            x //= p
        return out

    def _mul_raw(self, a, b):
        p = self.p
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.n - 1)
        for i, ai in enumerate(da):
            for j, bj in enumerate(db):
                prod[i + j] += ai * bj
        v = 0
        for c in reversed(_poly_mod(prod, self.poly, p)):
            v = v * p + c
        return v

    def _pow_raw(self, a, e):
        acc = 1
        while e:
            if e & 1:
                acc = self._mul_raw(acc, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return acc

    def _theta_powers(self):
        """theta**i for 0 <= i <= q-1.  Multiplication by theta is a linear
        map on coefficient vectors, so its matrix power M**k takes a block
        of k consecutive powers, one column each, to the next block.  Under
        the field-size cap every dot product stays below n * p**2 < 2**41,
        so int64 is exact."""
        p, n, q = self.p, self.n, self.q
        # column i holds the coefficients of theta * x^i
        step = np.array([self._digits(self._mul_raw(p**i, self.theta)) for i in range(n)]).T
        cols = np.eye(n, 1, dtype=np.int64)
        while cols.shape[1] < min(q, 4096):
            cols = np.hstack([cols, step @ cols % p])
            step = step @ step % p
        out, weights = [], p ** np.arange(n)
        while len(out) < q:
            out.extend((weights @ cols).tolist())
            cols = step @ cols % p
        return out[:q]

    def _find_generator(self):
        if self.q == 2:
            return 1
        order = self.q - 1
        checks = [order // f for f in prime_factors(order)]
        for g in range(2, self.q):
            if all(self._pow_raw(g, c) != 1 for c in checks):
                return g
        raise RuntimeError(f"no primitive element in GF({self.q})")

    # ----------------------------------------------------- public ops

    def _check(self, x):
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.q:
            raise ValueError(f"{x!r} is not an element of GF({self.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if a == 0:
            return b
        if b == 0:
            return a
        la = self.log[a]
        z = self.zech[(self.log[b] - la) % (self.q - 1)]
        if z is None:
            return 0
        return self.exp[(la + z) % (self.q - 1)]

    def neg(self, a: int) -> int:
        self._check(a)
        if a == 0:
            return 0
        return self.exp[(self.log[a] + self._log_minus_one) % (self.q - 1)]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ValueError("zero has no multiplicative inverse")
        return self.exp[-self.log[a] % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        """a**e with integer e; e may be negative for nonzero a, and
        pow(0, 0) == 1 by the empty-product convention."""
        self._check(a)
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ValueError("zero has no multiplicative inverse")
            return 0
        return self.exp[self.log[a] * e % (self.q - 1)]

    def __repr__(self) -> str:
        return f"FieldSpec(GF({self.p}^{self.n}), poly={self.poly})"


@lru_cache(maxsize=None)
def make_field(p: int, n: int) -> FieldSpec:
    """GF(p^n) with the least defining polynomial, cached per (p, n)."""
    return FieldSpec(p, n)
