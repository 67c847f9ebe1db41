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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "FieldSpec",
    "SubgroupHandle",
    "QuadraticSplit",
    "make_field",
    "subgroup",
    "coset_of",
    "coset_reps",
    "norm_map",
    "subfield_elements",
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
    poly : sequence of int, optional
        Monic irreducible of degree n over GF(p), little-endian.  When
        omitted the least irreducible in encoding order is used, so
        `make_field(p, n)` is reproducible.

    Attributes
    ----------
    q : int
        Field size ``p**n``.
    theta : int
        The least primitive element; its order is verified exactly
        against the prime factorization of ``q - 1``.
    exp, log : list
        ``exp[i] == theta**i`` for ``0 <= i < q-1`` and ``log`` is its
        inverse with ``log[0] is None``.
    zech : list
        ``zech[i] == log[1 + theta**i]``, None where ``theta**i == -1``.
    """

    def __init__(self, p: int, n: int, poly=None) -> None:
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
        if poly is None:
            poly = least_irreducible(p, n)
        else:
            poly = tuple(c % p for c in poly)
            if len(poly) != n + 1 or poly[-1] != 1:
                raise ValueError("defining polynomial must be monic of degree n")
            if not _is_irreducible(poly, p):
                raise ValueError(f"polynomial {poly} is reducible over GF({p})")
        self.poly = poly
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
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        # x^n = -(poly[0] + poly[1] x + ... + poly[n-1] x^{n-1})
        for k in range(len(prod) - 1, self.n - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i in range(self.n):
                    prod[k - self.n + i] = (prod[k - self.n + i] - c * self.poly[i]) % p
        v = 0
        for c in reversed(prod[: self.n]):
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


# ------------------------------------------------------------------
# multiplicative subgroups and coset labels
# ------------------------------------------------------------------


@dataclass(frozen=True)
class SubgroupHandle:
    """The subgroup K_d = <theta^((q-1)/d)> of GF(q)^*, of order d."""

    spec: FieldSpec
    d: int
    generator: int

    @property
    def quotient_order(self) -> int:
        return (self.spec.q - 1) // self.d

    def elements(self) -> list[int]:
        out, acc = [], 1
        for _ in range(self.d):
            out.append(acc)
            acc = self.spec.mul(acc, self.generator)
        return sorted(out)


def subgroup(spec: FieldSpec, d: int) -> SubgroupHandle:
    """Handle for the unique subgroup of GF(q)^* with d elements."""
    if d < 1 or (spec.q - 1) % d != 0:
        raise ValueError(f"subgroup order {d} does not divide {spec.q - 1}")
    gen = spec.pow(spec.theta, (spec.q - 1) // d) if spec.q > 2 else 1
    return SubgroupHandle(spec=spec, d=d, generator=gen)


def coset_of(x: int, K: SubgroupHandle) -> int:
    """Label in [0, Q) of the coset x*K_d in the cyclic quotient.

    Label c stands for the coset theta^c * K_d, so two elements get the
    same label exactly when their ratio lies in K_d.
    """
    spec = K.spec
    spec._check(x)
    if x == 0:
        raise ValueError("0 is not in the multiplicative group")
    return spec.log[x] % K.quotient_order


def coset_reps(K: SubgroupHandle, h: int) -> tuple[list[int], list[int]]:
    """Order-h subgroup H of the quotient plus a transversal A.

    Both are returned as coset-label lists.  With a = Q/h, H is the set
    of multiples of a in Z_Q and A = [0, a); every label decomposes
    uniquely as alpha + eta with alpha in A and eta in H, which is the
    tiling the quotient-based constructions rely on.
    """
    Q = K.quotient_order
    if h < 1 or Q % h != 0:
        raise ValueError(f"order {h} does not divide the quotient order {Q}")
    a = Q // h
    return [i * a for i in range(h)], list(range(a))


# ------------------------------------------------------------------
# norm map and subfields
# ------------------------------------------------------------------


def norm_map(source: FieldSpec, x: int, t: int, target: FieldSpec) -> int:
    """Field norm GF(q^{t-1}) -> GF(q): x -> x^(1 + q + ... + q^{t-2}).

    The value lands in the embedded copy of the target field and is
    returned as a target element, pulled back along the canonical
    embedding that sends the target's primitive element to
    theta_source^e with e = (q^{t-1} - 1)/(q - 1).  N(0) = 0 and the
    restriction to nonzero elements is multiplicative and surjective
    with all fibers of size e.
    """
    if t < 2:
        raise ValueError(f"tower height t must be >= 2, got {t}")
    if source.p != target.p or source.q != target.q ** (t - 1):
        raise ValueError(
            f"incompatible field tower: GF({source.q}) is not "
            f"GF({target.q})^{t - 1}"
        )
    source._check(x)
    if t == 2:
        return x
    if x == 0:
        return 0
    e = (source.q - 1) // (target.q - 1)
    j = source.log[x] * e % (source.q - 1)
    if j % e:
        raise RuntimeError("norm image escaped the embedded subfield")
    return target.exp[j // e]


def subfield_elements(spec: FieldSpec, m: int) -> list[int]:
    """Elements of the subfield GF(p^m) inside GF(p^n), ascending.

    These are exactly the fixed points of the p^m-power map.
    """
    if m < 1 or spec.n % m != 0:
        raise ValueError(
            f"GF({spec.p}^{m}) is not a subfield of GF({spec.p}^{spec.n})"
        )
    pm = spec.p**m
    return [x for x in range(spec.q) if spec.pow(x, pm) == x]


class QuadraticSplit:
    """Coordinates of GF(q) over its index-2 subfield.

    Every x factors uniquely as ``x = a + mu*b`` with a, b in the
    subfield and mu the least element outside it; `split` recovers
    (a, b) from x by table lookup.
    """

    def __init__(self, spec: FieldSpec) -> None:
        if spec.n % 2:
            raise ValueError(
                f"GF({spec.q}) has odd degree {spec.n} over its prime field"
            )
        self.spec = spec
        self.sub = subfield_elements(spec, spec.n // 2)
        in_sub = set(self.sub)
        self.mu = next(x for x in range(spec.q) if x not in in_sub)
        self._split_table = {}
        for a in self.sub:
            for b in self.sub:
                self._split_table[spec.add(a, spec.mul(self.mu, b))] = (a, b)
        if len(self._split_table) != spec.q:
            raise RuntimeError("quadratic subfield basis failed to span")

    def split(self, x: int) -> tuple[int, int]:
        self.spec._check(x)
        return self._split_table[x]
