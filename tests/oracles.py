"""Independent brute-force references used to pin library outputs.

Everything here is deliberately naive and self-contained: polynomial
arithmetic written out directly (no shared tables with the library),
exhaustive searches, dense numpy spectra.  Tests freeze values produced
by these references and require the library to reproduce them.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

import numpy as np

from pstwalk.chars import cyclotomic_polynomial
from pstwalk.groups import Mat2


# ---------------------------------------------------------------------------
# naive polynomial-basis field (same encoding convention, independent ops)


class BruteField:
    """F_p[x]/(modulus) with direct polynomial arithmetic, no log tables."""

    def __init__(self, p: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = len(modulus) - 1
        self.q = p**self.k
        self.modulus = modulus

    def to_poly(self, n: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            out.append(n % self.p)
            n //= self.p
        return tuple(out)

    def to_int(self, c) -> int:
        n = 0
        for d in reversed(list(c)):
            n = n * self.p + d
        return n

    def add(self, a: int, b: int) -> int:
        pa, pb = self.to_poly(a), self.to_poly(b)
        return self.to_int([(x + y) % self.p for x, y in zip(pa, pb)])

    def neg(self, a: int) -> int:
        return self.to_int([(-x) % self.p for x in self.to_poly(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        pa, pb = self.to_poly(a), self.to_poly(b)
        prod = [0] * (2 * self.k)
        for i, x in enumerate(pa):
            for j, y in enumerate(pb):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce by the monic modulus
        for i in range(len(prod) - 1, self.k - 1, -1):
            c = prod[i]
            if c:
                for j in range(self.k + 1):
                    prod[i - self.k + j] = (prod[i - self.k + j] - c * self.modulus[j]) % self.p
        return self.to_int(prod[: self.k])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        if e < 0:
            return self.pow(self.inv(a), -e)
        out, base = 1, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, a: int) -> int:
        return self.pow(a, self.q - 2)

    def order(self, a: int) -> int:
        assert a != 0
        x, n = a, 1
        while x != 1:
            x = self.mul(x, a)
            n += 1
        return n


def all_monic_irreducibles(p: int, k: int) -> list[tuple[int, ...]]:
    """Every monic irreducible of degree k over F_p, by trial division."""
    if k == 1:
        return [(c, 1) for c in range(p)]
    lower: list[tuple[int, ...]] = []
    for d in range(1, k // 2 + 1):
        lower.extend(all_monic_irreducibles(p, d))

    def divides(div: tuple[int, ...], f: list[int]) -> bool:
        f = list(f)
        dd = len(div) - 1
        for i in range(len(f) - 1, dd - 1, -1):
            c = f[i]
            if c:
                for j in range(dd + 1):
                    f[i - dd + j] = (f[i - dd + j] - c * div[j]) % p
        return all(c == 0 for c in f[:dd])

    out = []
    for tail in product(range(p), repeat=k):
        f = list(tail) + [1]
        if all(not divides(g, f) for g in lower):
            out.append(tuple(f))
    return out


# ---------------------------------------------------------------------------
# matrices over a BruteField (tuples (a, b, c, d) read row-major)


def bmat_mul(bf: BruteField, m1, m2):
    a, b, c, d = m1
    e, f, g, h = m2
    return (
        bf.add(bf.mul(a, e), bf.mul(b, g)),
        bf.add(bf.mul(a, f), bf.mul(b, h)),
        bf.add(bf.mul(c, e), bf.mul(d, g)),
        bf.add(bf.mul(c, f), bf.mul(d, h)),
    )


def bmat_det(bf: BruteField, m):
    a, b, c, d = m
    return bf.sub(bf.mul(a, d), bf.mul(b, c))


def bmat_inv(bf: BruteField, m):
    a, b, c, d = m
    di = bf.inv(bmat_det(bf, m))
    return (bf.mul(d, di), bf.mul(bf.neg(b), di), bf.mul(bf.neg(c), di), bf.mul(a, di))


def bmat_order(bf: BruteField, m) -> int:
    ident = (1, 0, 0, 1)
    x, n = m, 1
    while x != ident:
        x = bmat_mul(bf, x, m)
        n += 1
    return n


def brute_gl2(bf: BruteField):
    """All invertible 2x2 matrices, in lexicographic entry order."""
    out = []
    for m in product(range(bf.q), repeat=4):
        if bmat_det(bf, m) != 0:
            out.append(m)
    return out


def brute_sl2(bf: BruteField):
    return [m for m in brute_gl2(bf) if bmat_det(bf, m) == 1]


def brute_gu2(bf: BruteField, k_base: int):
    """Isometries of the conjugate-transpose form over F_{p^(2k)}.

    Membership: M^dagger M = I with dagger = transpose then entrywise
    x -> x^(p^k).  Brute filter over all of GL(2, q^2); only sane for
    q = 3.
    """
    qbase = bf.p**k_base

    def bar(x):
        return bf.pow(x, qbase)

    ident = (1, 0, 0, 1)
    out = []
    for m in brute_gl2(bf):
        a, b, c, d = m
        dag = (bar(a), bar(c), bar(b), bar(d))
        if bmat_mul(bf, dag, m) == ident:
            out.append(m)
    return out


def brute_conjugacy_classes(elements, mul, inv):
    """Partition a group (element list) into conjugacy classes."""
    elems = list(elements)
    seen: set = set()
    classes = []
    for g in elems:
        if g in seen:
            continue
        orbit = {mul(x, mul(g, inv(x))) for x in elems}
        seen |= orbit
        classes.append(orbit)
    return classes


# ---------------------------------------------------------------------------
# numeric spectra


def numeric_spectrum(adj: np.ndarray, decimals: int = 6) -> Counter:
    """Eigenvalue multiset of a symmetric 0/1 matrix, rounded."""
    vals = np.linalg.eigvalsh(adj.astype(float))
    return Counter(round(float(v), decimals) for v in vals)


def integer_spectrum(adj: np.ndarray) -> Counter:
    """Eigenvalue multiset rounded to integers (asserting integrality)."""
    vals = np.linalg.eigvalsh(adj.astype(float))
    out: Counter = Counter()
    for v in vals:
        r = round(float(v))
        assert abs(v - r) < 1e-8, f"non-integral eigenvalue {v}"
        out[r] += 1
    return out


# ---------------------------------------------------------------------------
# dense cyclotomic reduction


def dense_cyclotomic_reduction(n: int, coeffs: dict[int, int]) -> tuple[int, ...]:
    """Coefficients of sum_e coeffs[e] x^e modulo the n-th cyclotomic polynomial.

    Dense long division, O(n * phi(n)), in the power basis: the reference
    for the sparse ``CycSum.reduced``.  Phi_n comes from the library's
    ``cyclotomic_polynomial``, which test_chars pins by known values and
    by the product over the divisors of n.
    """
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    a = [0] * n
    for e, v in coeffs.items():
        a[e % n] += v
    for i in range(n - 1, deg - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(deg):
                a[i - deg + j] -= c * phi[j]
    return tuple(a[:deg])


# ---------------------------------------------------------------------------
# literal explicit graphs, by membership over the enumerated group
#
# These take the matrix product from the library's group family, but none of
# its graph construction: every edge is a membership test.


def literal_double_coset(space, g) -> frozenset:
    """HgH as the set of all |H|^2 products h g h'."""
    group = space.group
    left = [group.mul(h, g) for h in space.h_elements]
    return frozenset(group.mul(x, h) for x in left for h in space.h_elements)


def literal_cayley_adjacency(family, members) -> np.ndarray:
    """g ~ h iff h g^(-1) lies in ``members``, vertices in enumeration order."""
    elements = list(family.enumerate_group())
    connection = frozenset(members)
    out = np.zeros((len(elements), len(elements)), dtype=np.int64)
    for i, g in enumerate(elements):
        g_inv = family.inv(g)
        out[i] = [family.mul(h, g_inv) in connection for h in elements]
    return out


def literal_orbital_adjacency(space) -> tuple[np.ndarray, np.ndarray]:
    """rH ~ sH iff r^(-1) s lies in HzH or a diagonal HmH; and the HzH part.

    The double cosets are built from all |H|^2 products; the second matrix
    is the relation of HzH alone, the pairing of rH with (z r)H.
    """
    group, q = space.group, space.q
    z_coset = literal_double_coset(space, space.z)
    edge_set = set(z_coset)
    for a in range(q + 1):
        for b in range(a + 1, q + 1):
            m = Mat2(space.rep_set[a], 0, 0, space.rep_set[b])
            edge_set |= literal_double_coset(space, m)
    n = len(space.reps)
    adjacency = np.zeros((n, n), dtype=np.int64)
    involution = np.zeros((n, n), dtype=np.int64)
    for i, r in enumerate(space.reps):
        r_inv = group.inv(r)
        for j, s in enumerate(space.reps):
            prod = group.mul(r_inv, s)
            adjacency[i, j] = i != j and prod in edge_set
            involution[i, j] = i != j and prod in z_coset
    return adjacency, involution


# ---------------------------------------------------------------------------
# explicit-graph builder, one Python product at a time


def translation_adjacency_reference(reps, vertex_of, mul, connection) -> np.ndarray:
    """Row i marks ``vertex_of[mul(reps[i], s)]`` for every s in ``connection``."""
    out = np.zeros((len(reps), len(reps)), dtype=np.int64)
    for i, r in enumerate(reps):
        out[i, [vertex_of[mul(r, s)] for s in connection]] = 1
    return out


def translation_partner_reference(reps, vertex_of, mul, t) -> np.ndarray:
    """The vertex permutation i -> ``vertex_of[mul(t, reps[i])]``."""
    return np.array([vertex_of[mul(t, r)] for r in reps], dtype=np.int64)
