"""Independent references used to pin library outputs.

Everything here is deliberately naive and self-contained: polynomial
arithmetic written out directly (no shared tables with the library),
exhaustive searches, dense numpy spectra.  Tests freeze values produced
by these references and require the library to reproduce them.  It also
holds the references no CLI run, script or benchmark reaches, so that
``src/`` ships one transfer criterion and no test-only code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd, pi
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from pstwalk.chars import (
    CycSum,
    NonIntegralError,
    cyclotomic_polynomial,
    integer_part,
)
from pstwalk import ctqw, scheme
from pstwalk.ctqw import WalkSystem, integer_eigenvalues
from pstwalk.groups import ClassLabel, GLGroup, IrrLabel, Mat2
from pstwalk.orbital import CosetSpace, build_coset_space


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


def determinant_log_standard_labels(fam) -> list[ClassLabel]:
    """The standard GL/GU set by its determinant rule, written against ``det_log``.

    The split class of diag(1, -1), every jordan class, then each nonsplit class whose
    determinant's torus log is 0 or odd: 1 or a non-square of the torus (of even order
    q - eps).  ``groups`` keeps the nonsplit classes by their F_{q^2} log instead.
    """
    labels = [ClassLabel(fam.family, "split", tuple(sorted((1, fam.field.neg(1)))))]
    labels += [lab for lab in fam.classes() if lab.kind == "jordan"]
    for lab in fam.classes():
        if lab.kind == "nonsplit":
            d = fam.det_log(lab.params[0])
            if d == 0 or d % 2:
                labels.append(lab)
    return labels


def trivial_character(family) -> IrrLabel:
    """The trivial character: ``linear(0)`` for GL and GU, ``trivial`` for SL."""
    if family.family == "sl":
        return IrrLabel("sl", "trivial", ())
    return IrrLabel(family.family, "linear", (0,))


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
# the coset space, one element at a time


class LiteralCosetSpace(NamedTuple):
    """A coset space with G and H enumerated, one representative per coset and every element's coset.

    The first seven fields are :class:`~pstwalk.orbital.CosetSpace`'s; the
    listed ones are ``None`` above ``EXPLICIT_LIMIT``.
    """

    q: int
    group: object
    hsize: int
    zeta: int
    z: Mat2
    rep_set: tuple
    explicit: bool
    elements: tuple | None
    h_elements: tuple | None
    reps: tuple | None
    coset_index: dict | None

    @property
    def n_cosets(self) -> int:
        return self.group.order // self.hsize


@lru_cache(maxsize=None)
def literal_coset_space(q: int) -> LiteralCosetSpace:
    """The coset space by the literal loop: G in enumeration order, a new coset
    at each element not yet labelled, and its |H| products g h labelled with it.

    H is GL(2, q) enumerated and carried into G by the tower's embedding.
    """
    space = build_coset_space(q)
    if not space.explicit:
        return LiteralCosetSpace(**space._asdict(), elements=None, h_elements=None, reps=None, coset_index=None)
    group, sub = space.group, GLGroup(q)
    h_elements = tuple(Mat2(*map(sub.tower.embed, h)) for h in sub.enumerate_group())
    assert len(h_elements) == space.hsize
    elements = tuple(group.enumerate_group())
    coset_index: dict[Mat2, int] = {}
    reps: list[Mat2] = []
    for g in elements:
        if g in coset_index:
            continue
        reps.append(g)
        for h in h_elements:
            coset_index[group.mul(g, h)] = len(reps) - 1
    assert len(reps) * space.hsize == group.order
    return LiteralCosetSpace(
        **space._asdict(), elements=elements, h_elements=h_elements, reps=tuple(reps), coset_index=coset_index
    )


def literal_connection(space: LiteralCosetSpace) -> list[Mat2]:
    """One element of each left H-coset inside HzH and the diagonal HmH: the
    first of the products h m, H in enumeration order, in each coset."""
    group, q = space.group, space.q
    starts = [space.z] + [
        Mat2(space.rep_set[a], 0, 0, space.rep_set[b]) for a in range(q + 1) for b in range(a + 1, q + 1)
    ]
    out = []
    for m in starts:
        cosets: dict[int, Mat2] = {}
        for h in space.h_elements:
            hm = group.mul(h, m)
            cosets.setdefault(space.coset_index[hm], hm)
        out += cosets.values()
    return out


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


def translation_adjacency(lookup, connection) -> np.ndarray:
    """The dense reference of the row blocks: the n x n ``uint8`` matrix marking ``reps[i] s`` in row i.

    The whole matrix at once, as the builder made it before it gave rows on
    demand: each product's two row ids come from the lookup's row table and
    its vertex from the vertex table, a block of rows at a time.  A product
    that is no vertex raises ``KeyError`` naming it.
    """
    products = scheme._row_table(lookup, connection)
    out = np.zeros((lookup.size, lookup.size), dtype=np.uint8)
    step = max(1, (1 << 17) // max(1, len(connection)))
    for start in range(0, lookup.size, step):
        block = slice(start, start + step)
        at = products[lookup.top[block]].astype(np.intp) * lookup.width + products[lookup.bottom[block]]
        cols = lookup.table[at]
        if (cols < 0).any():
            k = int((cols < 0).argmax()) % cols.shape[1]
            scheme.translation_map(lookup, Mat2(1, 0, 0, 1), connection[k])
        out[np.arange(start, start + len(cols))[:, None], cols] = 1
    return out


class RegularRows:
    """A 0/1 matrix read as a graph's rows are read for graph.edges: ``neighbours``
    gives each row's columns, padded to n with the row's own index."""

    def __init__(self, adjacency):
        a = np.asarray(adjacency)
        self.connection = range(len(a))
        self.cols = np.tile(np.arange(len(a))[:, None], (1, len(a)))
        for i, row in enumerate(a):
            found = np.flatnonzero(row)
            self.cols[i, : len(found)] = found

    def __len__(self) -> int:
        return len(self.cols)

    def neighbours(self, vertices) -> np.ndarray:
        return self.cols[vertices]


def dense_adjacency(graph) -> np.ndarray:
    """The n x n ``uint8`` adjacency of an explicit graph, or of its :class:`~pstwalk.scheme.Translates`:
    row x marks each of ``neighbours([x])``, once, a block of rows at a time."""
    rows = getattr(graph, "translates", graph)
    n = len(rows)
    out = np.zeros((n, n), dtype=np.uint8)
    step = max(1, (1 << 17) // max(1, len(rows.connection)))
    for start in range(0, n, step):
        vertices = np.arange(start, min(start + step, n))
        out[vertices[:, None], rows.neighbours(vertices)] = 1
    return out


def dense_scan_automorphism(adjacency, symmetry, order: int) -> None:
    """Refuse a sigma with A[sigma x, sigma y] != A[x, y], naming the first vertex x whose row
    moves: the dense reference of the neighbour-list scan in ``graph_stack``."""
    a, s = np.asarray(adjacency), np.asarray(symmetry)
    for start in range(0, len(s), 128):
        bad = (a[s[start : start + 128]][:, s] != a[start : start + 128]).any(axis=1)
        if bad.any():
            raise ctqw._not_an_automorphism(order, f"it moves the edges of vertex {start + int(bad.argmax())}")


def dense_walk(adjacency, symmetry=None) -> WalkSystem:
    """:meth:`~pstwalk.ctqw.WalkSystem.from_stack` on the stack B[d] = A[lo, sigma^d lo]
    gathered from a matrix A: the dense reference of ``graph_stack``.

    ``symmetry`` is sigma, a free cyclic automorphism of even order c, checked
    on the permutation by ``ctqw._orbits`` and on every row of A; a pairing P
    is the case c = 2 and gives the two real blocks A+ and A-.  Without it
    the stack is A itself, with no copy.  Integer input, signed or unsigned,
    is read as it is, with no float copy of A.  Raises
    :class:`~pstwalk.ctqw.PairingError`, and ``ValueError`` when A is not
    square or not symmetric or the decomposition drifts by more than ``TOL``.
    """
    a = np.asarray(adjacency)
    if a.dtype.kind not in "uif":
        a = a.astype(float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    if symmetry is None:
        orbits, stack = np.arange(len(a))[None], a[None]
    else:
        orbits = ctqw._orbits(symmetry, len(a))
        dense_scan_automorphism(a, symmetry, len(orbits))
        stack = a[orbits[0][None, :, None], orbits[:, None, :]]
    ctqw.check_symmetric(orbits, stack)
    return WalkSystem.from_stack(orbits, stack)


def dense_component_count(adjacency) -> int:
    """Number of connected components, by breadth-first search one level at a time over a dense matrix.

    Each level marks every unseen vertex that a frontier vertex's row
    reaches, 128 frontier rows at a time; a component ends with an empty
    level, and the next one starts at the first unseen vertex.
    """
    a = np.asarray(adjacency)
    n = a.shape[0]
    seen = np.zeros(n, dtype=bool)
    count = 0
    while not seen.all():
        count += 1
        frontier = np.array([np.argmin(seen)])
        seen[frontier] = True
        while len(frontier):
            reach = np.zeros(n, dtype=bool)
            for start in range(0, len(frontier), 128):
                reach |= a[frontier[start : start + 128]].any(axis=0)
            frontier = np.flatnonzero(reach & ~seen)
            seen[frontier] = True
    return count


def translation_map_reference(reps, vertex_of, mul, left, right) -> np.ndarray:
    """The vertex map i -> ``vertex_of[mul(mul(left, reps[i]), right)]``."""
    return np.array([vertex_of[mul(mul(left, r), right)] for r in reps], dtype=np.int64)


def central_jordan(family) -> Mat2:
    """eps u: the jordan class rep whose eigenvalue eps generates the centre Z, of order |Z| p."""
    tag = family.family
    if tag == "sl":
        return family.class_rep(ClassLabel(tag, "jordan", (family.field.neg(1), 1)))
    eps = family.field.exp[1] if tag == "gl" else family.torus[1]
    return family.class_rep(ClassLabel(tag, "jordan", (eps,)))


def central_jordan_symmetry(family) -> np.ndarray:
    """Right translation by :func:`central_jordan` on the enumerated group, one product per vertex.

    The walk symmetry of the Cayley graphs before x -> s x u^-1: free of order
    c = |Z| p, with power c/2 the pairing x -> -x, so its Fourier blocks have
    size n/c (48 at gl 7, 240 at gl 9).
    """
    elements = family.enumerate_group()
    index = {m: i for i, m in enumerate(elements)}
    return translation_map_reference(elements, index, family.mul, family.identity(), central_jordan(family))


# ---------------------------------------------------------------------------
# the eigenvalue-parity transfer test
#
# With g the gcd of all differences from the top eigenvalue theta0, transfer
# happens at time pi/g exactly when (theta0 - theta)/g is even on every +1
# eigenspace of the pairing involution and odd on every -1 eigenspace.  The
# library's mod-4 certificate accepts exactly what this accepts with
# g = 2 (mod 4).


class EigenRow(NamedTuple):
    """An integer eigenvalue, the involution's sign on its eigenspace, and
    the eigenspace dimension."""

    theta: int
    sign: int
    multiplicity: int = 1


@dataclass(frozen=True)
class PSTCertificate:
    """Outcome of an eigenvalue-parity test.

    ``g`` is the gcd of the differences from the top eigenvalue, ``time``
    the transfer time pi/g, and ``residue`` the common residue mod 4 of
    the +1-side eigenvalues when that formulation applies (v2(g) = 1).
    """

    ok: bool
    reason: str
    g: int | None = None
    time: float | None = None
    residue: int | None = None


def _clean_rows(rows: Iterable) -> list[EigenRow]:
    out = []
    for r in rows:
        row = EigenRow(*r)
        if row.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {row.sign}")
        if row.multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        if row.theta != int(row.theta):
            raise ValueError("eigenvalues must be integers")
        out.append(EigenRow(int(row.theta), row.sign, int(row.multiplicity)))
    if not out:
        raise ValueError("no eigenvalue rows given")
    return out


def pst_test(rows: Iterable) -> PSTCertificate:
    """Parity test for perfect state transfer at time pi/g.

    ``rows`` are (theta, sign, multiplicity) triples (multiplicity
    optional) for *all* eigenspaces, with sign the eigenvalue of the
    order-2 relation T on that eigenspace.  Transfer holds iff
    (theta0 - theta)/g is even exactly on the +1 side.
    """
    rows = _clean_rows(rows)
    theta0 = max(r.theta for r in rows)
    g = gcd(*(theta0 - r.theta for r in rows))
    if g == 0:
        return PSTCertificate(False, "all eigenvalues are equal; there is no walk")
    for r in rows:
        ratio = (theta0 - r.theta) // g
        if ratio % 2 != (0 if r.sign == 1 else 1):
            side = "+1" if r.sign == 1 else "-1"
            want = "even" if r.sign == 1 else "odd"
            return PSTCertificate(
                False,
                f"eigenvalue {r.theta} on the {side} side has "
                f"(theta0 - theta)/g = {ratio}, expected {want}",
                g=g,
            )
    residue = theta0 % 4 if g % 4 == 2 else None
    return PSTCertificate(True, "", g=g, time=pi / g, residue=residue)


def spectrum_of(rows: Sequence) -> scheme.Spectrum:
    """A :class:`~pstwalk.scheme.Spectrum` holding ``rows`` (``SpectrumRow`` values) as columns."""
    theta, sign, multiplicity = (scheme.column(code, len(rows)) for code in "qbq")
    for i, r in enumerate(rows):
        theta[i], sign[i], multiplicity[i] = r.theta, r.sign, r.multiplicity
    return scheme.Spectrum(tuple(r.irr for r in rows), theta, sign, multiplicity)


def transfer_certificate_rows(rows: Sequence, transfer_rule: str) -> scheme.TransferCertificate:
    """The mod-4 certificate read row by row from ``SpectrumRow`` values, as it was before the columns."""
    theta0 = max(r.theta for r in rows)
    top_mult = sum(r.multiplicity for r in rows if r.theta == theta0)
    base = dict(degree=theta0, transfer_rule=transfer_rule, connected=top_mult == 1)
    gap = gcd(*(theta0 - r.theta for r in rows))
    if gap == 0:
        return scheme.TransferCertificate(
            ok=False, reason="all eigenvalues are equal; there is no walk", **base
        )
    a = theta0 % 4
    base.update(residue=a, gap=gap, time=pi / gap)
    if all(r.sign == 1 for r in rows):
        return scheme.TransferCertificate(
            ok=False,
            reason="the pairing involution has no -1 eigenspace, so it fixes every vertex",
            **base,
        )
    for r in rows:
        want = a if r.sign == 1 else (a + 2) % 4
        if r.theta % 4 != want:
            side = "+1" if r.sign == 1 else "-1"
            return scheme.TransferCertificate(
                ok=False,
                reason=(
                    f"eigenvalue {r.theta} of {scheme.render_irr(r.irr)} on the {side} side "
                    f"is {r.theta % 4} mod 4, expected {want}"
                ),
                **base,
            )
    return scheme.TransferCertificate(
        ok=True,
        reason=(
            f"all eigenvalues are congruent to {a} mod 4 on the +1 side and "
            f"{(a + 2) % 4} on the -1 side; transfer time pi/{gap}"
        ),
        **base,
    )


def notices_rows(checks: Iterable) -> list[str]:
    """The CLI's notice lines from every row's ``FormulaCheck``, as they were made before the counts."""
    first, count = {}, {}
    for c in checks:
        if not c.agrees:
            first.setdefault(c.formula, c)
            count[c.formula] = count.get(c.formula, 0) + 1
    return [
        (
            f"hand-derived closed form '{f}' for {c.row} gives {c.hand_value} where the exact "
            f"value is {c.exact_value}, "
            + ("the only disagreeing row" if count[f] == 1 else f"the first of {count[f]} disagreeing rows")
            + "; the hand form is retained as an audit record and the congruence "
            "conclusion is unaffected"
        )
        for f, c in first.items()
    ]


def inverse_label_by_matrix(family, label: ClassLabel) -> ClassLabel:
    """The class of the inverse of the label's representative: ``classify(inv(class_rep(label)))``."""
    return family.classify(family.inv(family.class_rep(label)))


def spectrum_trace(rows: Sequence) -> int:
    """Sum of eigenvalues weighted by multiplicity (zero for a loopless graph)."""
    return sum(r.theta * r.multiplicity for r in rows)


def eigenvectors(walk: WalkSystem) -> np.ndarray:
    """The walk's n x n eigenvectors in the vertex basis, columns in ``eigenvalues`` order.

    All c Fourier blocks are written out: block c - j is the conjugate of
    block j, and vertex x enters row ``rows[x]`` of block j with coefficient
    omega^(j offsets[x]) / sqrt(c).  Real when c <= 2, complex otherwise.
    """
    c = walk.order
    columns, values = [], []
    for j in range(c):
        v, lam = walk.block_vectors[min(j, c - j)], walk.block_eigenvalues[min(j, c - j)]
        phase = np.exp(2j * np.pi * (j * walk.offsets % c) / c)
        if c <= 2:
            phase = phase.real
        columns.append((v if 2 * j <= c else v.conj())[walk.rows] * phase[:, None] / np.sqrt(c))
        values.append(lam)
    order = np.argsort(np.concatenate(values), kind="stable")
    return np.concatenate(columns, axis=1)[:, order]


def integer_rows_with_signs(adjacency, permutation: Sequence[int]) -> list[EigenRow]:
    """Numeric eigenvalue rows (theta, sign, multiplicity) for an involution.

    The permutation must be an order-2 automorphism T; on each
    eigenspace it acts with eigenvalues +/-1 and the two multiplicities
    are read off the trace of T restricted to the eigenprojector.  An
    eigenvalue whose eigenspace carries both signs produces two rows.
    """
    walk = dense_walk(adjacency)
    perm, a = np.asarray(permutation, dtype=int), np.asarray(adjacency, dtype=float)
    if sorted(perm.tolist()) != list(range(len(walk))):
        raise ValueError("permutation must be a bijection on the vertices")
    if not np.array_equal(perm[perm], np.arange(len(walk))):
        raise ValueError("permutation must have order at most 2")
    if np.abs(a[np.ix_(perm, perm)] - a).max() > 1e-12:
        raise ValueError("permutation is not an automorphism of the graph")
    ints, vectors = integer_eigenvalues(walk), eigenvectors(walk)
    rows: list[EigenRow] = []
    for theta in sorted(set(ints.tolist()), reverse=True):
        cols = vectors[:, ints == theta]
        mult = cols.shape[1]
        # trace of T P for P the eigenprojector: sum_i P[perm(i), i]
        t_trace = float(np.einsum("ij,ij->", cols[perm], cols))
        m_plus = round((mult + t_trace) / 2)
        if abs((mult + t_trace) / 2 - m_plus) > 1e-6:
            raise ValueError(
                f"involution trace {t_trace} on the eigenspace of {theta} "
                f"is not consistent with a +/-1 splitting"
            )
        if m_plus:
            rows.append(EigenRow(theta, 1, m_plus))
        if mult - m_plus:
            rows.append(EigenRow(theta, -1, mult - m_plus))
    return rows


# ---------------------------------------------------------------------------
# association scheme axioms, and the relations and idempotents of a
# conjugacy scheme


def _exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # float64 BLAS is exact here: entries stay far below 2**53
    return (a.astype(np.float64) @ b.astype(np.float64)).round().astype(np.int64)


def scheme_axiom_witness(matrices: Sequence[np.ndarray]) -> str | None:
    """Check the axioms of a commutative association scheme.

    Returns None if ``matrices`` (square 0/1 arrays) contain the
    identity, sum to the all-ones matrix, are closed under transpose,
    and have pairwise commuting products lying in their integer span;
    otherwise returns a description of the first failure.
    """
    mats = [np.asarray(m, dtype=np.int64) for m in matrices]
    if not mats:
        return "no relations given"
    n = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape != (n, n):
            return f"relation {i} is not {n}x{n}"
        if not np.isin(m, (0, 1)).all():
            return f"relation {i} has entries outside 0/1"
    ident = [i for i, m in enumerate(mats) if np.array_equal(m, np.eye(n, dtype=np.int64))]
    if len(ident) != 1:
        return f"expected exactly one identity relation, found {len(ident)}"
    if not np.array_equal(sum(mats), np.ones((n, n), dtype=np.int64)):
        return "relations do not partition the vertex pairs"
    keys = {m.tobytes(): i for i, m in enumerate(mats)}
    for i, m in enumerate(mats):
        if m.T.copy().tobytes() not in keys:
            return f"transpose of relation {i} is not a relation"
    anchors = [tuple(np.argwhere(m)[0]) for m in mats]
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            prod = _exact_matmul(a, b)
            if i < j and not np.array_equal(prod, _exact_matmul(b, a)):
                return f"relations {i} and {j} do not commute"
            recon = sum(int(prod[u, v]) * mk for (u, v), mk in zip(anchors, mats))
            if not np.array_equal(prod, recon):
                return f"product of relations {i} and {j} leaves the span"
    return None


def _class_of(family) -> dict:
    """Every group element mapped to its conjugacy class, via the partition."""
    return {m: lab for lab, elems in family.class_partition().items() for m in elems}


def label_of(scheme, element):
    """Conjugacy class of an element of a :class:`ConjugacyScheme`'s group."""
    return _class_of(scheme.family)[element]


def relation_matrices(scheme) -> list[np.ndarray]:
    """One relation per conjugacy class, in class order."""
    return [dense_adjacency(scheme.adjacency([c])) for c in scheme.family.classes()]


def idempotent(scheme, irr) -> np.ndarray:
    """Numeric primitive idempotent: E(g, h) = chi(1)/|G| chi(h g^{-1})."""
    fam = scheme.family
    class_of = _class_of(fam)
    values = {lab: complex(fam.char_value(irr, lab).evaluate()) for lab in fam.classes()}
    scale = fam.degree(irr) / fam.order
    out = np.empty((fam.order, fam.order), dtype=complex)
    for gi, g in enumerate(scheme.elements):
        ginv = fam.inv(g)
        for hi, h in enumerate(scheme.elements):
            out[gi, hi] = scale * values[class_of[fam.mul(h, ginv)]]
    return out


# ---------------------------------------------------------------------------
# multiplicative characters of cyclic groups


@dataclass(frozen=True)
class MultChar:
    """Character a -> zeta_n^(j a) of a cyclic group written in dlogs."""

    n: int
    j: int

    def __post_init__(self):
        object.__setattr__(self, "j", self.j % self.n)

    def __call__(self, a: int) -> CycSum:
        return CycSum.monomial(self.n, self.j * a)

    def at(self, a: int, root_order: int | None = None) -> CycSum:
        """Value as a CycSum, optionally over a larger root order."""
        if root_order is None or root_order == self.n:
            return self(a)
        if root_order % self.n:
            raise ValueError("root order must be a multiple of the character order group")
        return CycSum.monomial(root_order, self.j * a * (root_order // self.n))


# ---------------------------------------------------------------------------
# the GL/GU character table, one branch per (character kind, class kind)


def linear_or_unitary_char_value(fam, irr: IrrLabel, cls: ClassLabel) -> CycSum:
    """GL/GU character values written kind by kind, one branch per value.

    The reference for ``_LinearOrUnitary.char_value``, which reads the same
    table as a list of affine forms; ``fam`` is a GL or GU family.
    """
    q, n, eps = fam.q, fam.root_order, fam.eps
    kind, ck = irr.kind, cls.kind
    tlog = fam.torus_log

    if kind in ("linear", "steinberg"):
        # lambda(det), times the Steinberg value for steinberg
        lam = MultChar(q - eps, irr.params[0])
        if ck in ("central", "jordan"):
            v = lam.at(2 * tlog[cls.params[0]], n)
            if kind == "steinberg":
                return v * q if ck == "central" else CycSum.zero(n)
            return v
        if ck == "split":
            x, y = cls.params
            v = lam.at(tlog[x] + tlog[y], n)
            return -v if kind == "steinberg" and eps < 0 else v
        v = lam.at(fam.det_log(cls.params[0]), n)
        return -v if kind == "steinberg" and eps > 0 else v

    if kind == "principal":
        i, j = irr.params
        if ck in ("central", "jordan"):
            v = MultChar(q - eps, i + j).at(tlog[cls.params[0]], n)
            if ck == "central":
                return v * (q + eps)
            return v if eps > 0 else -v
        if ck == "split":
            dx, dy = tlog[cls.params[0]], tlog[cls.params[1]]
            ci, cj = MultChar(q - eps, i), MultChar(q - eps, j)
            v = ci.at(dx, n) * cj.at(dy, n) + ci.at(dy, n) * cj.at(dx, n)
            return v if eps > 0 else -v
        return CycSum.zero(n)

    # cuspidal, indexed by a character of F_{q^2}^x
    mu = MultChar(n, irr.params[0])
    if ck in ("central", "jordan"):
        v = mu(fam.torus_ext_log[cls.params[0]])
        if ck == "central":
            return v * (q - eps)
        return -v if eps > 0 else v
    if ck == "split":
        return CycSum.zero(n)
    dz = fam.tower.ext.log[cls.params[0]]
    v = mu(dz) + mu(eps * q * dz)
    return -v if eps > 0 else v


# ---------------------------------------------------------------------------
# the SL character table, one branch per (character kind, class kind)


@lru_cache(maxsize=None)
def davenport_hasse_periods(p: int, k: int) -> tuple[CycSum, CycSum]:
    """The Gauss periods of F_{p^k}, squares then non-squares, lifted from F_p's.

    With G = eta0 - eta1 and eta0 + eta1 = -1 in either field, Davenport-Hasse
    gives -G_q = (-G_p)^k for G_p from :func:`residue_periods`; then
    eta0 = (G_q - 1)/2 and eta1 = (-G_q - 1)/2, halved in the basis
    zeta_p, ..., zeta_p^(p-1) of Z[zeta_p], where -1 is the sum of the basis.
    """
    eta0, eta1 = residue_periods(p)
    power = eta1 - eta0
    for _ in range(k - 1):
        power = power * (eta1 - eta0)
    out = []
    for twice in (-power - 1, power - 1):
        c0 = twice.c.get(0, 0)
        coeffs = [twice.c.get(e, 0) - c0 for e in range(1, p)]
        assert all(v % 2 == 0 for v in coeffs), (p, k)
        out.append(CycSum(p, {e: v // 2 for e, v in enumerate(coeffs, 1)}))
    return out[0], out[1]


def sl_char_value(fam, irr: IrrLabel, cls: ClassLabel) -> CycSum:
    """SL(2, q) character values written kind by kind, one branch per value.

    The reference for ``SLGroup.char_value``, which reads GL(2, q)'s table
    by restriction; ``fam`` is an SL family.  The half-degree values on
    split/nonsplit classes (zero, the quadratic character, or the order-2
    torus character) are forced by orthogonality against the other rows;
    the test suite verifies that the resulting table is orthonormal.  The
    values (const + sgn G_q)/2 on the jordan classes are built from
    :func:`davenport_hasse_periods`, not from the family's own periods.
    """
    q, n = fam.q, fam.root_order
    F, tw = fam.field, fam.tower
    kind, ck = irr.kind, cls.kind

    def half(const: int, sgn: int) -> CycSum:
        """(const + sgn G_q)/2 for const, sgn in {1, -1}."""
        eta = davenport_hasse_periods(fam.p, fam.k)[0 if sgn == 1 else 1].rescale_to(n)
        return eta + 1 if const == 1 else eta

    if kind == "trivial":
        return CycSum.from_int(n, 1)

    if kind == "steinberg":
        if ck == "central":
            return CycSum.from_int(n, q)
        if ck == "jordan":
            return CycSum.zero(n)
        return CycSum.from_int(n, 1 if ck == "split" else -1)

    if kind == "principal":
        j = irr.params[0]
        lam = MultChar(q - 1, j)
        if ck == "central":
            return lam.at(F.dlog(cls.params[0]), n) * (q + 1)
        if ck == "jordan":
            return lam.at(F.dlog(cls.params[0]), n)
        if ck == "split":
            dx = F.dlog(cls.params[0])
            return lam.at(dx, n) + lam.at(-dx, n)
        return CycSum.zero(n)

    if kind == "cuspidal":
        m = irr.params[0]
        mu = MultChar(q + 1, m)
        if ck == "central":
            e = tw.E_log[tw.embed(cls.params[0])]
            return mu.at(e, n) * (q - 1)
        if ck == "jordan":
            e = tw.E_log[tw.embed(cls.params[0])]
            return -mu.at(e, n)
        if ck == "split":
            return CycSum.zero(n)
        e = tw.E_log[cls.params[0]]
        return -(mu.at(e, n) + mu.at(-e, n))

    # half-degree characters: values on the four jordan classes are
    # (const +/- g)/2 for the quadratic Gauss sum g of F_q, with
    # const = 1 (principal), -1 (cuspidal) at eps = +1, and the
    # quadratic character at -1 for eps = -1.
    s = irr.params[0]
    if kind == "principal_half":
        if ck == "central":
            v = (q + 1) // 2
            return CycSum.from_int(n, v if cls.params[0] == 1 else fam._sign_m1 * v)
        if ck == "jordan":
            eps, c = cls.params
            const = 1 if eps == 1 else fam._sign_m1
            return half(const, s if c == 1 else -s)
        if ck == "split":
            # derived: the quadratic character of the eigenvalue
            return CycSum.from_int(n, 1 if F.dlog(cls.params[0]) % 2 == 0 else -1)
        return CycSum.zero(n)

    # cuspidal_half
    if ck == "central":
        v = (q - 1) // 2
        return CycSum.from_int(n, v if cls.params[0] == 1 else -fam._sign_m1 * v)
    if ck == "jordan":
        eps, c = cls.params
        if eps == 1:
            return half(-1, s if c == 1 else -s)
        return half(fam._sign_m1, -s if c == 1 else s)
    if ck == "split":
        return CycSum.zero(n)
    # derived: minus the order-2 character of the norm-one torus
    e = tw.E_log[cls.params[0]]
    return CycSum.from_int(n, -1 if e % 2 == 0 else 1)


# ---------------------------------------------------------------------------
# character sums over a set of discrete logs


def char_sum(chi: MultChar, exponents, root_order: int | None = None) -> CycSum:
    """Sum of character values over a subset given by discrete logs."""
    m = root_order or chi.n
    f = m // chi.n
    if m % chi.n:
        raise ValueError("root order must be a multiple of the character group order")
    out = CycSum(m)
    acc: dict[int, int] = {}
    for a in exponents:
        e = (chi.j * a * f) % m
        acc[e] = acc.get(e, 0) + 1
    out.c = {e: v for e, v in acc.items() if v}
    return out


def _total(n: int, values: Iterable[CycSum]) -> CycSum:
    """The sum of ``values`` over Z[zeta_n], accumulated into one dict.

    ``acc = acc + v`` would copy the running sum once per term.
    """
    acc: dict[int, int] = {}
    for value in values:
        if value.n != n:
            raise ValueError(f"mixed root orders {n} and {value.n}")
        for e, v in value.c.items():
            acc[e] = acc.get(e, 0) + v
    out = CycSum(n)
    out.c = {e: v for e, v in acc.items() if v}
    return out


def class_sum_eigenvalue_loop(family, irr: IrrLabel, labels) -> int:
    """``scheme.class_sum_eigenvalue`` from the branching character tables.

    Sums ``chi(C) * |C|`` over the labels as cyclotomic sums, with chi read
    from :func:`sl_char_value` or :func:`linear_or_unitary_char_value`
    rather than ``family.char_value``, reads the total with ``integer_part``
    and divides it by the degree, raising what the production path raises.
    """
    value = sl_char_value if family.family == "sl" else linear_or_unitary_char_value
    terms = (value(family, irr, lab) * family.class_size(lab) for lab in labels)
    total = integer_part(_total(family.root_order, terms))
    d = family.degree(irr)
    if total % d:
        raise NonIntegralError(f"character sum {total} is not divisible by the degree {d}")
    return total // d


def linear_or_unitary_class_sum_blocks(
    fam, blocks: Iterable[Sequence[IrrLabel]], labels: Sequence[ClassLabel]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """GL/GU class-sum terms on arrays, from the form table ``char_value`` reads.

    The terms of ``sum_C |C| chi(C)`` over ``labels``, one block of characters
    at a time, as int64 arrays (row, exponent, coefficient): each term adds
    coefficient * zeta^exponent to the sum of the character ``block[row]``,
    and equal (row, exponent) pairs may repeat.  Each form of ``fam._forms``
    becomes one (characters x labels) block of exponents, with each class log
    read once per label, and coefficient c * |C|.  Reduced by
    :func:`reduced_rows`, it is the batch reference for the period sums of
    ``standard_theta``.
    """
    n, forms, log = fam.root_order, fam._forms, fam._label_log
    kinds = ("central", "jordan", "split", "nonsplit")
    of_kind = {k: [lab for lab in labels if lab.kind == k] for k in kinds}
    sizes = {
        k: np.array([fam.class_size(lab) for lab in labs], dtype=np.int64)
        for k, labs in of_kind.items()
    }
    logs = {
        (k, name): np.array([log(name, lab.params) for lab in of_kind[k]], dtype=np.int64) % n
        for kind_forms in forms.values() for k, parts, _ in kind_forms for _, name in parts
    }
    for block in blocks:
        pieces = [np.zeros((3, 0), dtype=np.int64)]
        for kind, kind_forms in forms.items():
            rows = [r for r, irr in enumerate(block) if irr.kind == kind]
            if not rows:
                continue
            p = np.array([block[r].params for r in rows], dtype=np.int64).T
            for class_kind, parts, c in kind_forms:
                size = sizes[class_kind]
                exps = sum(p[i, :, None] * logs[class_kind, name] for i, name in parts) % n
                pieces.append(np.stack((
                    np.repeat(rows, len(size)), exps.ravel(), np.tile(c * size, len(rows))
                )))
        yield tuple(np.concatenate(pieces, axis=1))


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """The pairs (p, p^a), one per prime power p^a exactly dividing n, by trial division."""
    out, p = [], 2
    while n > 1:
        if p * p > n:
            p = n
        if n % p == 0:
            pa = 1
            while n % p == 0:
                n, pa = n // p, pa * p
            out.append((p, pa))
        p += 1
    return out


def _merged(keys: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys, each with the sum of its coefficients; zero sums dropped."""
    if not len(keys):
        return keys, coeffs
    order = np.argsort(keys, kind="stable")
    keys, coeffs = keys[order], coeffs[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = np.add.reduceat(coeffs, starts)
    keep = sums != 0
    return keys[starts][keep], sums[keep]


def reduced_rows(n: int, keys: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`CycSum.reduced` of many sums at once, on int64 arrays.

    Term i adds ``coeffs[i] * zeta_n^e`` to row r, where ``keys[i] = r n + e``
    and 0 <= e < n.  Returns the reduced terms of every row the same way,
    keys sorted and distinct, coefficients nonzero: for each prime power
    p^a exactly dividing n, the terms whose digit is p-1 become minus their
    p-1 partners e + k n/p, and equal keys merge again.  A row is the
    integer c exactly when its only surviving key is r n (c its
    coefficient) or it has none (c = 0).  Coefficients stay int64 and must
    fit in it.
    """
    keys, coeffs = _merged(np.asarray(keys, dtype=np.int64), np.asarray(coeffs, dtype=np.int64))
    for p, pa in _prime_powers(n):
        e = keys % n
        hit = e % pa >= pa - pa // p
        if not hit.any():
            continue
        partners = keys[hit, None] - e[hit, None] + (e[hit, None] + np.arange(1, p) * (n // p)) % n
        keys, coeffs = _merged(
            np.concatenate((keys[~hit], partners.ravel())),
            np.concatenate((coeffs[~hit], np.repeat(-coeffs[hit], p - 1))),
        )
    return keys, coeffs


def central_sign_via_char_value(family, irr: IrrLabel, x: int) -> int:
    """chi(x I)/chi(1) through ``char_value`` and ``integer_part``: the checked CycSum route.

    The reference for ``central_sign``, which reads the exponent of one central
    form instead.  Raises :class:`NonIntegralError` where the value is no integer
    or not +-chi(1).
    """
    value = integer_part(family.char_value(irr, ClassLabel(family.family, "central", (x,))))
    d = family.degree(irr)
    if value not in (d, -d):
        raise NonIntegralError(
            f"character {irr.kind}{irr.params} of {family.family}(2,{family.q}) takes "
            f"value {value} at the scalar {x}; expected +-{d}"
        )
    return value // d


# ---------------------------------------------------------------------------
# the coset space of GL(2, q) inside GL(2, q^2): subfield, Frobenius
# invariant, monomial representation and kernel-condition closed forms


def in_subfield(space, x: int) -> bool:
    """Whether a field encoding of F_{q^2} lies in F_q."""
    return space.group.field.frobenius(x, space.group.k // 2) == x


def in_h(space, m: Mat2) -> bool:
    """Membership of an invertible matrix in the subfield subgroup H."""
    return all(in_subfield(space, e) for e in m)


def subfield_matrices(space) -> frozenset:
    """H found by scanning F_{q^2} for the Frobenius-fixed subfield F_q."""
    field = space.group.field
    sub = [x for x in range(field.q) if in_subfield(space, x)]
    assert len(sub) == space.q
    return frozenset(
        Mat2(a, b, c, d)
        for a, b, c, d in product(sub, repeat=4)
        if field.sub(field.mul(a, d), field.mul(b, c)) != 0
    )


def double_coset_of(space, g: Mat2):
    """The conjugacy class of g^(-1) F(g), constant on double cosets HgH.

    F raises every entry to the q-th power.
    """
    group, k = space.group, space.group.k // 2
    image = Mat2(*(group.field.frobenius(x, k) for x in g))
    return group.classify(group.mul(group.inv(g), image))


# The principal-series character I[theta] induced from the pair
# theta = (theta1, theta2) of multiplicative characters of F_{q^2}^x acts on
# the projective line PP = F_{q^2} + {oo} by a monomial matrix P_theta(g):
# column alpha carries theta(t1, t2) in row sigma_g(alpha), where sigma is
# the Moebius action of g and (t1, t2) the diagonal of its triangular part.
# Summing P_theta over H gives a matrix M_theta with three-case entries, and
# coset sums reduce to traces: I[theta](gH) = Tr(P_theta(g) M_theta).


def coset_action(space, g: Mat2, alpha: int) -> tuple[int, int, int]:
    """(sigma_g(alpha), t1, t2) for the projective action with its cocycle.

    ``alpha`` is a PP index: a field encoding, or q^2 for the point oo.
    The cocycle pair (t1, t2) is the diagonal of the upper-triangular part
    of g relative to the coset representatives of the stabilizer of 0.
    """
    field = space.group.field
    oo = field.q
    a, b, c, d = g
    if alpha != oo:
        t = field.add(a, field.mul(b, alpha))
        num = field.add(c, field.mul(d, alpha))
        if t != 0:
            sigma = field.div(num, t)
            return sigma, t, field.sub(d, field.mul(sigma, b))
        return oo, num, b
    if b != 0:
        sigma = field.div(d, b)
        return sigma, b, field.sub(c, field.mul(sigma, a))
    return oo, d, a


def cocycle_value(space, theta: tuple[int, int], t1: int, t2: int) -> CycSum:
    """theta1(t1) theta2(t2) over the group's root order."""
    group = space.group
    n, root, dlog = group.q - 1, group.root_order, group.field.dlog
    return MultChar(n, theta[0]).at(dlog(t1), root) * MultChar(n, theta[1]).at(dlog(t2), root)


def p_theta_trace(space, theta: tuple[int, int], g: Mat2) -> CycSum:
    """Character of the induced monomial representation at a single element."""
    fixed = []
    for alpha in range(space.group.field.q + 1):
        sigma, t1, t2 = coset_action(space, g, alpha)
        if sigma == alpha:
            fixed.append(cocycle_value(space, theta, t1, t2))
    return _total(space.group.root_order, fixed)


def m_theta(space, theta: tuple[int, int]) -> list[list[CycSum]]:
    """The H-sum of the induced monomial representation, in closed form.

    Rows and columns are indexed by the projective line: field encodings
    0 .. q^2 - 1 followed by the point at infinity.  Entries vanish unless
    both points lie in the same H-orbit; the orbit of the subfield line
    carries the constant triangular-subgroup sum, and the outside orbit
    carries torus sums twisted by the subfield coordinate d with
    row = c + d * column.
    """
    group = space.group
    field = group.field
    q, n, root = space.q, group.q - 1, group.root_order
    oo = field.q
    chi1, chi2 = MultChar(n, theta[0]), MultChar(n, theta[1])
    fq_units = [(q + 1) * u for u in range(q - 1)]  # dlogs of F_q^x
    triangular = q * char_sum(chi1, fq_units, root) * char_sum(chi2, fq_units, root)
    torus = char_sum(MultChar(n, (theta[0] + q * theta[1]) % n), range(n), root)
    zero = CycSum.zero(root)
    size = oo + 1
    out = [[zero] * size for _ in range(size)]
    line1 = [x for x in range(oo) if in_subfield(space, x)] + [oo]
    in_line1 = [x in line1 for x in range(size)]
    for row in line1:
        r = out[row]
        for col in line1:
            r[col] = triangular
    k = group.k // 2
    for row in range(oo):
        if in_line1[row]:
            continue
        row_gap = field.sub(row, field.frobenius(row, k))
        for col in range(oo):
            if in_line1[col]:
                continue
            col_gap = field.sub(col, field.frobenius(col, k))
            d = field.div(row_gap, col_gap)  # row = c + d*col with c, d in F_q
            out[row][col] = chi2.at(field.dlog(d), root) * torus
    return out


# Closed-form coset character sums over the diagonal cosets, summed by
# ``orbital`` as integer period sums.  The principal-series character
# I[theta] induced from the pair theta = (theta1, theta2) of multiplicative
# characters of F_{q^2}^x has a closed-form sum over each diagonal coset;
# its reference is the trace through M_theta above.


def _induced_coset_sum(space: CosetSpace, theta: tuple[int, int], g: Mat2) -> CycSum:
    """I[theta](gH) for diagonal g = m_{x,y} with x, y in distinct cosets.

    Closed form: (theta1(x) theta2(y) + theta1(y) theta2(x)) * T
    + (q-1) * theta1(x) theta2(y) * C * theta2(F_q^x), where T is the
    triangular-subgroup sum and C the torus sum.
    """
    q, n = space.q, space.group.q - 1
    field = space.group.field
    root = space.group.root_order
    i, j = theta
    chi1, chi2 = MultChar(n, i), MultChar(n, j)
    dx, dy = field.dlog(g.a), field.dlog(g.d)
    t_sum = q * (q - 1) ** 2 if i % (q - 1) == 0 and j % (q - 1) == 0 else 0
    c_sum = n if (i + q * j) % n == 0 else 0
    chi2_fq = (q - 1) if j % (q - 1) == 0 else 0
    xy = chi1.at(dx, root) * chi2.at(dy, root)
    yx = chi1.at(dy, root) * chi2.at(dx, root)
    return (xy + yx) * t_sum + xy * ((q - 1) * c_sum * chi2_fq)


def _is_valid_diagonal(space: CosetSpace, g: Mat2) -> bool:
    if g.b != 0 or g.c != 0 or g.a == 0 or g.d == 0:
        return False
    field = space.group.field
    return (field.dlog(g.d) - field.dlog(g.a)) % (space.q + 1) != 0


def coset_char_sum(space: CosetSpace, chi: IrrLabel, g: Mat2) -> CycSum:
    """The coset sum chi(gH) = sum over h in H of chi(g h), exactly.

    ``chi`` is an irreducible label of GL(2, q^2).  Supported cosets: the
    diagonal cosets m_{x,y} H with x, y in distinct cosets of F_q^x, the
    only ones the eigenvalue computation needs.  (The central involution
    coset zH enters the spectrum through the central character alone; see
    :meth:`~pstwalk.groups.GLGroup.central_sign`.)
    """
    group = space.group
    root = group.root_order
    n = group.q - 1
    if not _is_valid_diagonal(space, g):
        raise ValueError(
            "coset character sums are tabulated only for diagonal matrices "
            f"with entries in distinct subfield cosets; got {g}"
        )
    field = group.field
    kind, params = chi.kind, chi.params
    if kind == "linear":
        j = params[0]
        d = (field.dlog(g.a) + field.dlog(g.d)) % n
        return MultChar(n, j).at(d, root) * space.hsize
    if kind == "steinberg":
        j = params[0]
        full = _induced_coset_sum(space, (j, j), g)
        d = (field.dlog(g.a) + field.dlog(g.d)) % n
        return full - MultChar(n, j).at(d, root) * space.hsize
    if kind == "principal":
        return _induced_coset_sum(space, params, g)
    raise ValueError(f"no closed-form coset sum for a {kind} character")


def _transversal_power_sum(space, index: int) -> CycSum:
    n = space.group.q - 1
    return char_sum(MultChar(n, index % n), range(space.q + 1), space.group.root_order)


def induced_energy_closed(q: int, theta: tuple[int, int]) -> int:
    """Energy of I[theta] via the kernel-condition form of the double sum."""
    space = build_coset_space(q)
    n = q * q - 1
    i, j = theta
    prefactor = 0
    if i % (q - 1) == 0 and j % (q - 1) == 0:
        prefactor += q
    if (i + q * j) % n == 0 and j % (q - 1) == 0:
        prefactor += n // 2
    if prefactor == 0:
        return 0
    # a nonzero prefactor forces both characters trivial on F_q^x, making
    # the transversal sums rational
    s1 = _transversal_power_sum(space, i)
    s2 = _transversal_power_sum(space, j)
    s12 = _transversal_power_sum(space, i + j)
    return prefactor * integer_part(s1 * s2 - s12)


def linear_energy_closed(q: int, j: int) -> int:
    """Energy of the linear character lambda_j via the pair-sum identity."""
    space = build_coset_space(q)
    t1 = _transversal_power_sum(space, j)
    t2 = _transversal_power_sum(space, 2 * j)
    return (q * (q + 1) // 2) * integer_part(t1 * t1 - t2)


# ---------------------------------------------------------------------------
# the SL connection set by element orders, and the quadratic Gauss sum


def sl_order_based_elements(family) -> frozenset:
    """The SL connection set described by element orders alone.

    The class-based set (central involution plus the four Jordan
    classes) should coincide with "the central involution together with
    every element of order p or 2p"; this enumerates the latter so the
    coincidence can be checked rather than assumed.
    """
    p = family.p
    out = {family.central_involution()}
    for m in family.enumerate_group():
        o = family.element_order(m)
        if o == p or o == 2 * p:
            out.add(m)
    return frozenset(out)


def residue_periods(p: int) -> tuple[CycSum, CycSum]:
    """The two Gaussian periods of F_p: sums of zeta_p over the squares / non-squares."""
    squares = {pow(a, 2, p) for a in range(1, p)}
    eta0 = CycSum(p, {e: 1 for e in squares})
    eta1 = CycSum(p, {e: 1 for e in range(1, p) if e not in squares})
    return eta0, eta1


def quadratic_gauss_sum(p: int) -> CycSum:
    """sum_a legendre(a) zeta_p^a; squares to (-1)^((p-1)/2) p."""
    eta0, eta1 = residue_periods(p)
    return eta0 - eta1
