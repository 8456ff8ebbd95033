"""Exact sums of roots of unity.

Spectra downstream are integer linear combinations of n-th roots of
unity, and the certificates need them *exactly*.  :class:`CycSum` is a
sparse element of Z[zeta_n] (exponent -> integer coefficient);
:meth:`CycSum.reduced` rewrites it in a fixed basis, one prime of n at a
time, so zero and integer sums are recognized exactly, with no floating
point and no cyclotomic polynomial; it reads the prime powers of n from
one cache.  :func:`integer_part` reads an integer sum off that form.
:func:`cyclotomic_polynomial` stays as the dense reference the tests
compare the reduction against.
"""

from __future__ import annotations

from functools import lru_cache
from math import cos, lcm, pi, sin

from .gf import _prime_factors

__all__ = [
    "CycSum",
    "NonIntegralError",
    "InexactDivisionError",
    "integer_part",
    "cyclotomic_polynomial",
]


class NonIntegralError(ValueError):
    """Raised when a cyclotomic sum expected to be an integer is not."""


class InexactDivisionError(ArithmeticError):
    """Raised when a polynomial division expected to be exact leaves a remainder."""


# ---------------------------------------------------------------------------
# cyclotomic polynomials (exact integer coefficients, low degree first)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _exact_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials, denominator monic."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num):
        remainder = num[: len(den) - 1]
        while remainder and remainder[-1] == 0:
            remainder.pop()
        raise InexactDivisionError(
            f"division by a degree-{len(den) - 1} polynomial leaves the nonzero "
            f"remainder {remainder}"
        )
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial (constant first)."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        poly = _exact_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _prime_powers(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (p, p^a), one per prime power p^a exactly dividing n."""
    out = []
    for p in _prime_factors(n):
        pa = p
        while n % (pa * p) == 0:
            pa *= p
        out.append((p, pa))
    return tuple(out)


# ---------------------------------------------------------------------------


class CycSum:
    """An exact integer combination of n-th roots of unity."""

    __slots__ = ("n", "c")

    def __init__(self, n: int, coeffs: dict[int, int] | None = None):
        self.n = n
        self.c: dict[int, int] = {}
        if coeffs:
            for e, v in coeffs.items():
                if v:
                    e %= n
                    nv = self.c.get(e, 0) + v
                    if nv:
                        self.c[e] = nv
                    else:
                        self.c.pop(e, None)

    @classmethod
    def zero(cls, n: int) -> "CycSum":
        return cls(n)

    @classmethod
    def from_int(cls, n: int, v: int) -> "CycSum":
        return cls(n, {0: v})

    @classmethod
    def monomial(cls, n: int, e: int, coeff: int = 1) -> "CycSum":
        return cls(n, {e: coeff})

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other: "CycSum | int") -> "CycSum":
        if isinstance(other, int):
            return CycSum.from_int(self.n, other)
        if other.n != self.n:
            raise ValueError(f"mixed root orders {self.n} and {other.n}")
        return other

    def __add__(self, other: "CycSum | int") -> "CycSum":
        o = self._coerce(other)
        out = dict(self.c)
        for e, v in o.c.items():
            nv = out.get(e, 0) + v
            if nv:
                out[e] = nv
            else:
                out.pop(e, None)
        s = CycSum(self.n)
        s.c = out
        return s

    __radd__ = __add__

    def __neg__(self) -> "CycSum":
        s = CycSum(self.n)
        s.c = {e: -v for e, v in self.c.items()}
        return s

    def __sub__(self, other: "CycSum | int") -> "CycSum":
        return self + (-self._coerce(other))

    def __rsub__(self, other: int) -> "CycSum":
        return (-self) + other

    def __mul__(self, other: "CycSum | int") -> "CycSum":
        if isinstance(other, int):
            s = CycSum(self.n)
            if other:
                s.c = {e: v * other for e, v in self.c.items()}
            return s
        o = self._coerce(other)
        n = self.n
        out: dict[int, int] = {}
        for e1, v1 in self.c.items():
            for e2, v2 in o.c.items():
                e = e1 + e2
                if e >= n:
                    e -= n
                nv = out.get(e, 0) + v1 * v2
                if nv:
                    out[e] = nv
                else:
                    out.pop(e, None)
        s = CycSum(n)
        s.c = out
        return s

    __rmul__ = __mul__

    def conjugate(self) -> "CycSum":
        s = CycSum(self.n)
        s.c = {(-e) % self.n: v for e, v in self.c.items()}
        return s

    def rescale_to(self, m: int) -> "CycSum":
        """Rewrite over Z[zeta_m] where n | m."""
        if m % self.n:
            raise ValueError(f"cannot embed root order {self.n} into {m}")
        f = m // self.n
        s = CycSum(m)
        s.c = {e * f: v for e, v in self.c.items()}
        return s

    # -- evaluation and exact reduction --------------------------------------

    def evaluate(self) -> complex:
        n = self.n
        re = sum(v * cos(2 * pi * e / n) for e, v in self.c.items())
        im = sum(v * sin(2 * pi * e / n) for e, v in self.c.items())
        return complex(re, im)

    def reduced(self) -> dict[int, int]:
        """Canonical sparse coefficients in a fixed basis of Z[zeta_n].

        For each prime power p^a exactly dividing n, the digit of an
        exponent e is (e mod p^a) // p^(a-1).  The p roots zeta^(e + k n/p)
        sum to zero, run through every digit and keep every other residue,
        so the term whose digit is p-1 is rewritten as minus the other p-1;
        n/p is a multiple of every other prime power, so one pass per prime
        leaves no digit p-1 behind.  The surviving exponents number phi(n)
        and span Z[zeta_n], so they form a basis (in the spirit of the
        Zumbroich basis, Breuer 1997) that contains zeta^0 = 1.
        """
        n = self.n
        c = dict(self.c)
        for p, pa in _prime_powers(n):
            last, step = pa - pa // p, n // p
            for e in [e for e in c if e % pa >= last]:
                v = c.pop(e)
                for k in range(1, p):
                    f = (e + k * step) % n
                    nv = c.get(f, 0) - v
                    if nv:
                        c[f] = nv
                    else:
                        del c[f]
        return c

    def is_zero(self) -> bool:
        return not self.reduced()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return (self - other).is_zero()
        if not isinstance(other, CycSum):
            return NotImplemented
        m = lcm(self.n, other.n)
        return (self.rescale_to(m) - other.rescale_to(m)).is_zero()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover
        if not self.c:
            return f"CycSum({self.n}, 0)"
        terms = " + ".join(f"{v}*z{self.n}^{e}" for e, v in sorted(self.c.items()))
        return f"CycSum({self.n}, {terms})"


def integer_part(v: CycSum) -> int:
    """The integer a cyclotomic sum equals, read from its reduced form.

    v is the integer c exactly when :meth:`CycSum.reduced` is empty
    (c = 0) or ``{0: c}``.  Otherwise raises :class:`NonIntegralError`
    naming the root order and up to three surviving basis terms.
    """
    r = v.reduced()
    if not r:
        return 0
    if len(r) == 1 and 0 in r:
        return r[0]
    terms = " ".join(f"{c:+d}*z^{e}" for e, c in sorted(r.items())[:3])
    more = f" and {len(r) - 3} more" if len(r) > 3 else ""
    raise NonIntegralError(
        f"sum over Z[zeta_{v.n}] is not an integer: its reduced form keeps "
        f"{terms}{more}, value about {v.evaluate():.6g}"
    )
