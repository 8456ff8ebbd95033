"""Finite fields F_{p^k}, p odd, with deterministic tables, and quadratic towers.

Elements are encoded as integers in [0, q): the base-p digits of the
encoding are the coefficients of the residue polynomial, least-significant
digit = constant term.  All arithmetic but sums in F_p goes through
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

The tables are built the same way for every k.  The generator is the
first candidate g with g^((q-1)/l) != 1 for every prime l dividing q-1,
each power taken by square-and-multiply mod the modulus, so no table is
built for a rejected candidate.  Multiplying by g is a k x k matrix M over
F_p, and one of two builders makes ``exp``, ``log`` and ``zech`` from it,
both as plain lists of Python ints.  A field of at most
``PURE_TABLE_LIMIT`` elements multiplies the digit vector of g^i by M one
power at a time in pure Python; a larger one lets the digit rows of
g^0 ... g^(q-2) double in number with each numpy product by M^(2^m).  The
pure loop costs less than importing numpy on every field a character-sum
target reads and far more on the frontier's large fields, so numpy is
loaded only by those fields, by :meth:`FiniteField.tables` and by the array
layers above (explicit graphs, components, the walk).
A sum in F_p is one reduction mod p, cheaper than any table read.  In an
extension field a digit loop would cost k divisions per sum, so a sum
reads the Zech list, g^zech[d] = 1 + g^d (-1 where that is 0), made from
``exp`` by bumping the constant digit:  a + b = g^(log a + zech[log b - log a]).

A :class:`FieldTower` packages a base field F_q together with F_{q^2},
an embedding of the former into the latter, norms, and the norm-one
subgroup -- the data every construction downstream consumes.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import TYPE_CHECKING

if TYPE_CHECKING:
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


def _times_g(g: int, p: int, modulus: tuple[int, ...]) -> list[list[int]]:
    """The k x k matrix M over F_p of multiplication by g: row i holds the digits of x^i g."""
    k = len(modulus) - 1
    rows = [list(_digits(g, p, k))]
    for _ in range(1, k):
        prev = rows[-1]
        top = prev[-1]
        rows.append([(lo - top * t) % p for lo, t in zip([0] + prev[:-1], modulus)])
    return rows


def _pure_tables(g: int, p: int, modulus: tuple[int, ...]) -> tuple[list[int], list[int], list[int]]:
    """``(exp, log, zech)`` by multiplying the digit vector of g^i by M, one power at a time."""
    k = len(modulus) - 1
    q = p**k
    cols = list(zip(*_times_g(g, p, modulus)))
    place = [p**j for j in range(k)]
    exp, digits = [], [1] + [0] * (k - 1)
    for _ in range(q - 1):
        exp.append(sum(map(mul, digits, place)))
        digits = [sum(map(mul, digits, col)) % p for col in cols]
    log = [-1] * q
    for d, e in enumerate(exp):
        log[e] = d
    # adding 1 bumps the constant digit, which wraps without a carry
    zech = [log[e + 1 - p if e % p == p - 1 else e + 1] for e in exp]
    return exp, log, zech


def _numpy_tables(g: int, p: int, modulus: tuple[int, ...]) -> tuple[list[int], list[int], list[int]]:
    """``(exp, log, zech)`` with the digit rows of g^0 ... g^(q-2) doubling in number.

    The rows of g^(2^m) ... g^(2^(m+1)-1) are those of g^0 ... g^(2^m - 1)
    times M^(2^m): log2(q) array products.
    """
    import numpy as np

    k = len(modulus) - 1
    n = p**k - 1
    place = p ** np.arange(k, dtype=np.int64)
    step = np.array(_times_g(g, p, modulus), dtype=np.int64)
    rows = np.zeros((n, k), dtype=np.int64)
    rows[0, 0] = 1
    size = 1
    while size < n:
        m = min(size, n - size)
        rows[size : size + m] = rows[:m] @ step % p
        step = step @ step % p
        size += m
    exp = rows @ place
    del rows  # n x k int64s, freed before log and zech are built
    log = np.full(n + 1, -1, dtype=np.int64)
    log[exp] = np.arange(n)
    zech = log[exp + np.where(exp % p == p - 1, 1 - p, 1)]
    return exp.tolist(), log.tolist(), zech.tolist()


# Fields up to this order build their tables in pure Python, larger ones with
# numpy, whose import alone takes 0.1-0.15 s.  The pure loop costs k^2 steps
# per power (2-vCPU x86 host, Python 3.11, numpy 2.4): F_{23^2} 1.5 ms,
# F_{5^4} 2.7 ms, F_{3^6} 4.3 ms, F_{31^2} 2.6 ms, but F_{7^4} 8.3 ms,
# F_{3^8} 48 ms, F_{211^2} 120 ms and F_{1019^2} 3.1 s against 0.9, 2.3, 10
# and 270 ms for the doubling.  Every field of the benchmark's character-sum
# targets (q <= 625) lies below, and every field a frontier target reads
# beyond its base field (F_{7^4} for gl/gu 49 upwards) stays above.
PURE_TABLE_LIMIT = 1024


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
        # g has order q - 1 iff g^((q-1)/l) != 1 for every prime l | q - 1
        n, mod = self.q - 1, self.modulus
        cofactors = [n // ell for ell in _prime_factors(n)]
        g = next(
            g
            for g in range(2, self.q)
            if all(_poly_trim(_poly_powmod(_digits(g, p, k), e, mod, p)) != [1] for e in cofactors)
        )
        build = _pure_tables if self.q <= PURE_TABLE_LIMIT else _numpy_tables
        # g^zech[d] = 1 + g^d, or -1 where that sum is 0 (read by add when k > 1)
        self.exp, self.log, self._zech = build(g, p, self.modulus)
        if min(self.log[1:]) < 0:  # pragma: no cover - g was tested primitive
            raise RuntimeError(f"the powers of {g} miss a unit of F_{self.q}")
        self.generator: int = g
        self._tables: tuple[np.ndarray, np.ndarray] | None = None

    # -- arithmetic on integer encodings ----------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if a == 0 or b == 0:
            return a or b
        la, n = self.log[a], self.q - 1
        z = self._zech[(self.log[b] - la) % n]
        return self.exp[(la + z) % n] if z >= 0 else 0

    def neg(self, a: int) -> int:
        return self.exp[(self.log[a] + self.q // 2) % (self.q - 1)] if a else 0

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
            import numpy as np

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
        self.E_log = {v: i for i, v in enumerate(self.E)}

    def _build_embedding(self) -> tuple[int, ...]:
        base, ext = self.base, self.ext
        if self.k == 1:
            return tuple(range(base.q))
        # root of the base modulus with the smallest dlog; every root lies in
        # the copy of F_q, whose units are the powers of g^((Q-1)/(q-1))
        step = (ext.q - 1) // (base.q - 1)
        for root in (ext.exp[j * step] for j in range(base.q - 1)):
            acc = 0
            for c in reversed(base.modulus):
                acc = ext.add(ext.mul(acc, root), c % ext.p)
            if acc == 0:
                break
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
