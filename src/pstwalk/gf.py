"""Finite fields F_{p^k}, p odd, with deterministic tables, and quadratic towers.

Elements are encoded as integers in [0, q): the base-p digits of the
encoding are the coefficients of the residue polynomial, least-significant
digit = constant term.  All arithmetic beyond addition goes through
discrete-log tables built once per field, which keeps group enumeration
and character evaluation fast and makes every representative choice
reproducible:

* the modulus is the monic irreducible polynomial of degree k whose
  non-leading coefficient encoding sum(c_i * p^i) is smallest;
* the multiplicative generator is the element with the smallest integer
  encoding among those of order q-1;
* square roots return the root with the smaller discrete log;
* the canonical non-square ``delta`` is the generator itself (smallest
  odd discrete log).

A :class:`FieldTower` packages a base field F_q together with F_{q^2},
an embedding of the former into the latter, norms, and the norm-one
subgroup -- the data every construction downstream consumes.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

__all__ = [
    "FiniteField",
    "FieldTower",
    "make_field",
    "make_tower",
]


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient lists, low degree first)


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_rem(out, mod, p)


def _poly_rem(a: list[int], mod: list[int], p: int) -> list[int]:
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], -1, p)
    for i in range(len(a) - 1, dm - 1, -1):
        coef = a[i]
        if coef:
            f = (coef * inv_lead) % p
            for j, mj in enumerate(mod):
                a[i - dm + j] = (a[i - dm + j] - f * mj) % p
    del a[dm:]
    return a


def _poly_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_rem(list(a), mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a = _poly_trim(_poly_rem(a, b, p))
        a, b = b, a
    return a


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(mod: list[int], p: int) -> bool:
    """Rabin test for a monic polynomial over F_p."""
    k = len(mod) - 1
    if k == 1:
        return True
    x = [0, 1]
    if _poly_trim(_poly_powmod(x, p**k, mod, p)) != x:
        return False
    for ell in _prime_factors(k):
        xq = _poly_powmod(x, p ** (k // ell), mod, p)
        diff = list(xq) + [0] * max(0, 2 - len(xq))
        diff[1] = (diff[1] - 1) % p
        if len(_poly_gcd(mod, diff, p)) > 1:
            return False
    return True


def _lowest_modulus(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible of degree k minimizing the encoding of its tail."""
    if k == 1:
        return (0, 1)
    for enc in range(p**k):
        tail = _digits(enc, p, k)
        mod = list(tail) + [1]
        if _is_irreducible(mod, p):
            return tuple(mod)
    raise RuntimeError(f"no irreducible of degree {k} over F_{p}")  # pragma: no cover


def _digits(n: int, p: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(k):
        out.append(n % p)
        n //= p
    return tuple(out)


def _encode(c: list[int] | tuple[int, ...], p: int) -> int:
    n = 0
    for d in reversed(list(c)):
        n = n * p + d
    return n


# ---------------------------------------------------------------------------


class FiniteField:
    """F_{p^k} with integer-encoded elements and discrete-log tables."""

    def __init__(self, p: int, k: int):
        if k < 1 or p < 2:
            raise ValueError("need p prime and k >= 1")
        for ell in _prime_factors(p):
            if ell != p:
                raise ValueError(f"{p} is not prime")
        if p == 2:
            raise ValueError("only odd characteristic is supported")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus: tuple[int, ...] = _lowest_modulus(p, k)
        self._mod_list = list(self.modulus)
        self.exp: list[int] = []
        self.log: list[int] = [-1] * self.q
        self._build_tables()
        self.generator: int = self.exp[1]
        self._add_table: list[list[int]] | None = None
        if self.k > 1 and self.q <= 256:
            self._add_table = [
                [self._add_digits(a, b) for b in range(self.q)] for a in range(self.q)
            ]
        self._tables: tuple[np.ndarray, np.ndarray] | None = None

    # -- construction -----------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        pa = list(_digits(a, self.p, self.k))
        pb = list(_digits(b, self.p, self.k))
        return _encode(_poly_mulmod(pa, pb, self._mod_list, self.p) + [0] * self.k, self.p)

    def _order_raw(self, a: int) -> int:
        n = self.q - 1
        order = n
        for ell in _prime_factors(n):
            while order % ell == 0:
                cand = order // ell
                x, e, acc = a, cand, 1
                while e:
                    if e & 1:
                        acc = self._mul_raw(acc, x)
                    x = self._mul_raw(x, x)
                    e >>= 1
                if acc == 1:
                    order = cand
                else:
                    break
        return order

    def _build_tables(self) -> None:
        n = self.q - 1
        gen = 1
        for cand in range(2, self.q):
            if self._order_raw(cand) == n:
                gen = cand
                break
        self.exp = [1] * n
        for i in range(1, n):
            self.exp[i] = self._mul_raw(self.exp[i - 1], gen)
        for i, v in enumerate(self.exp):
            self.log[v] = i

    def _add_digits(self, a: int, b: int) -> int:
        p = self.p
        out, mult = 0, 1
        for _ in range(self.k):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    # -- arithmetic on integer encodings ----------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._add_digits(a, b)

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        p = self.p
        out, mult = 0, 1
        for _ in range(self.k):
            out += ((-a) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        n = self.q - 1
        return self.exp[(self.log[a] + self.log[b]) % n]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        n = self.q - 1
        return self.exp[(n - self.log[a]) % n]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0 if e else 1
        return self.exp[(self.log[a] * e) % (self.q - 1)]

    def dlog(self, a: int) -> int:
        if a == 0:
            raise ValueError("dlog of 0")
        return self.log[a]

    def order(self, a: int) -> int:
        if a == 0:
            raise ValueError("order of 0")
        n = self.q - 1
        return n // gcd(n, self.log[a])

    def frobenius(self, a: int, m: int = 1) -> int:
        """x -> x^(p^m)."""
        return self.pow(a, self.p**m) if a else 0

    def is_square(self, a: int) -> bool:
        return a == 0 or self.log[a] % 2 == 0

    def sqrt(self, a: int) -> int | None:
        """Square root with the smaller discrete log, or None."""
        if a == 0:
            return 0
        d = self.log[a]
        if d % 2:
            return None
        return self.exp[d // 2]

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The q x q int64 multiplication and addition tables of encodings.

        Built on first use and cached: products from the exp/log tables,
        sums digit by digit in base p.  Only array code that multiplies many
        elements at once needs them, so a field that never meets such code
        never pays for them.
        """
        if self._tables is None:
            q, n = self.q, self.q - 1
            exp = np.asarray(self.exp, dtype=np.int64)
            log = np.asarray(self.log, dtype=np.int64)
            mul = np.zeros((q, q), dtype=np.int64)
            mul[1:, 1:] = exp[(log[1:, None] + log[None, 1:]) % n]
            place = self.p ** np.arange(self.k, dtype=np.int64)
            digits = np.arange(q, dtype=np.int64)[:, None] // place % self.p
            add = (digits[:, None, :] + digits[None, :, :]) % self.p @ place
            self._tables = (mul, add)
        return self._tables

    # -- coefficient views -------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        return _digits(a, self.p, self.k)

    def __repr__(self) -> str:  # pragma: no cover
        return f"FiniteField(p={self.p}, k={self.k})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteField) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self) -> int:
        return hash(("FiniteField", self.p, self.k))


@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> FiniteField:
    """The field F_{p^k} with canonical modulus/generator (cached)."""
    return FiniteField(p, k)


# ---------------------------------------------------------------------------


class FieldTower:
    """F_q inside F_{q^2}: embedding, norms, and the norm-one subgroup E."""

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.base = make_field(p, k)
        self.ext = make_field(p, 2 * k)
        self.q = self.base.q
        self.embed_map: tuple[int, ...] = self._build_embedding()
        self.section = {v: i for i, v in enumerate(self.embed_map)}
        # canonical non-square of the base field and its root upstairs
        self.delta: int = self.base.generator
        s = self.ext.sqrt(self.embed_map[self.delta])
        if s is None:  # pragma: no cover - impossible: F_q^x lands in squares
            raise RuntimeError("delta has no square root in the quadratic extension")
        self.sqrt_delta: int = s
        # norm-one subgroup E = ker(z -> z^(q+1)), listed by E-discrete-log
        n = self.ext.q - 1
        self.E: list[int] = [self.ext.exp[((self.q - 1) * i) % n] for i in range(self.q + 1)]
        self.E_set = frozenset(self.E)
        self.E_log = {v: i for i, v in enumerate(self.E)}

    def _build_embedding(self) -> tuple[int, ...]:
        base, ext = self.base, self.ext
        if self.k == 1:
            return tuple(range(base.q))
        # root of the base modulus in the extension with the smallest dlog
        roots = []
        for d in range(ext.q - 1):
            r = ext.exp[d]
            acc = 0
            for c in reversed(base.modulus):
                acc = ext.add(ext.mul(acc, r), c % ext.p)
            if acc == 0:
                roots.append(r)
                if len(roots) == self.k:
                    break
        root = roots[0]
        out = []
        for a in range(base.q):
            acc = 0
            for c in reversed(base.coeffs(a)):
                acc = ext.add(ext.mul(acc, root), c)
            out.append(acc)
        return tuple(out)

    def embed(self, a: int) -> int:
        """Base-field encoding -> extension encoding."""
        return self.embed_map[a]

    def in_base(self, z: int) -> bool:
        return z in self.section

    def project(self, z: int) -> int:
        """Extension encoding -> base encoding (must lie in the image)."""
        return self.section[z]

    def norm(self, z: int) -> int:
        """Nm(z) = z^(q+1), returned as a base-field encoding."""
        if z == 0:
            return 0
        n = self.ext.q - 1
        return self.section[self.ext.exp[(self.ext.log[z] * (self.q + 1)) % n]]

    def conj(self, z: int) -> int:
        """The q-power Frobenius z -> z^q on the extension."""
        return self.ext.frobenius(z, self.k)

    def norm_fiber(self, x: int) -> list[int]:
        """All z in F_{q^2} with z^(q+1) = x (x a nonzero base encoding)."""
        if x == 0:
            raise ValueError("norm fiber of 0")
        n = self.ext.q - 1
        L = self.ext.log[self.embed_map[x]]
        if L % (self.q + 1):  # pragma: no cover - norms of units cover F_q^x
            return []
        m = L // (self.q + 1)
        return [self.ext.exp[(m + (self.q - 1) * j) % n] for j in range(self.q + 1)]

    def __repr__(self) -> str:  # pragma: no cover
        return f"FieldTower(F_{self.q} < F_{self.q**2})"


@lru_cache(maxsize=None)
def make_tower(p: int, k: int) -> FieldTower:
    """The tower F_{p^k} < F_{p^(2k)} (cached)."""
    return FieldTower(p, k)
