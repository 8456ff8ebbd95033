"""What the three matrix-group families share: matrices, labels and class machinery.

A matrix is a :class:`Mat2` of four integer encodings into the family's
``field`` -- the base field for GL/SL, the quadratic extension for GU.
Conjugacy classes and irreducible characters are identified by frozen
:class:`ClassLabel` / :class:`IrrLabel` values, and character values are
exact cyclotomic sums (:class:`~pstwalk.chars.CycSum`) sharing a single
root order per family (``q^2 - 1`` for GL/GU, ``lcm(q^2 - 1, q)`` for
SL), so spectra assembled from them never leave exact arithmetic.

Class kinds
-----------
``central``
    scalar matrices x*I, parameter ``(x,)``.
``jordan``
    one repeated eigenvalue on a nontrivial Jordan block; parameter
    ``(x,)`` for GL/GU, ``(eps, c)`` with ``c in {1, delta}`` for the
    four SL classes (``delta`` the canonical non-square).
``split``
    two distinct eigenvalues inside the relevant torus (F_q^x for GL,
    the norm-one subgroup E for GU, an inverse pair {x, 1/x} for SL);
    pairs are stored sorted by encoding, inverse pairs by the member
    with the smaller discrete log.
``nonsplit``
    an eigenvalue pair outside that torus, stored via the orbit member
    with the smaller discrete log.

Character kinds
---------------
``linear`` (degree 1), ``steinberg`` (degree q), ``principal`` (induced
from a split torus character pair; degree q+1 for GL/SL, q-1 for GU) and
``cuspidal`` (indexed by characters of the nonsplit torus; degree q-1
for GL/SL, q+1 for GU).  SL's ``trivial`` is GL's ``linear`` (0,).  SL
additionally has two half-degree pairs, ``principal_half`` of degree
(q+1)/2 and ``cuspidal_half`` of degree (q-1)/2, with parameter +1 or -1.
Orthogonality of the full table is checked in the test suite.
"""

from __future__ import annotations

from functools import cached_property
from operator import ge, gt, le, lt
from typing import NamedTuple

from .gf import FieldTower, FiniteField, _prime_factors
from .record import Record, _set

__all__ = ["Mat2", "ClassLabel", "IrrLabel"]


class Mat2(NamedTuple):
    """A 2x2 matrix ``[[a, b], [c, d]]`` of integer field encodings."""

    a: int
    b: int
    c: int
    d: int


def _ordered(op):
    """A comparison of two labels of one type by ``op`` on their fields."""

    def compare(self, other):
        if other.__class__ is self.__class__:
            return op((self.family, self.kind, self.params), (other.family, other.kind, other.params))
        return NotImplemented

    return compare


class _Label(Record):
    """Family tag, kind and canonical parameters; ordered as that tuple.

    ``==``, ``hash`` and the order read ``(family, kind, params)`` within
    one label type: a class label never equals a character label, and
    ordering the two raises ``TypeError``.  The labels are the keys of
    every class and character table, so these are written out for speed.
    """

    __slots__ = _fields = ("family", "kind", "params")

    family: str
    kind: str
    params: tuple[int, ...]

    def __init__(self, family: str, kind: str, params: tuple[int, ...]):
        _set(self, "family", family)
        _set(self, "kind", kind)
        _set(self, "params", params)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.family, self.kind, self.params) == (other.family, other.kind, other.params)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.family, self.kind, self.params))

    __lt__, __le__, __gt__, __ge__ = map(_ordered, (lt, le, gt, ge))


class ClassLabel(_Label):
    """A conjugacy class: family tag, kind, and canonical parameters."""

    __slots__ = ()


class IrrLabel(_Label):
    """An irreducible character: family tag, kind, canonical parameters."""

    __slots__ = ()


# (classes, irreducibles, standard connection set), built once per family
_Tables = tuple[tuple[ClassLabel, ...], tuple[IrrLabel, ...], tuple[ClassLabel, ...]]


def _prime_power(q: int) -> tuple[int, int]:
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = primes[0]
    if p == 2:
        raise ValueError(f"{q} is even; only odd characteristic is supported")
    k = 1
    while p**k < q:
        k += 1
    return p, k


# ---------------------------------------------------------------------------


class _Family:
    """Shared machinery; subclasses fill in the family-specific pieces.

    They are ``_build_tables`` (the label tuples of the classes, the
    irreducibles and the standard connection set), ``enumerate_group``,
    ``classify``, ``class_size``, ``class_rep``, ``inverse_label`` (the
    class of the inverses, on parameters), ``degree``, ``char_value``
    and ``central_sign``.
    """

    family: str
    q: int
    order: int
    field: FiniteField
    tower: FieldTower
    root_order: int

    # -- matrix arithmetic on encodings in the family's coefficient field ----

    def identity(self) -> Mat2:
        return Mat2(1, 0, 0, 1)

    def mul(self, m: Mat2, n: Mat2) -> Mat2:
        F = self.field
        return Mat2(
            F.add(F.mul(m.a, n.a), F.mul(m.b, n.c)),
            F.add(F.mul(m.a, n.b), F.mul(m.b, n.d)),
            F.add(F.mul(m.c, n.a), F.mul(m.d, n.c)),
            F.add(F.mul(m.c, n.b), F.mul(m.d, n.d)),
        )

    def inv(self, m: Mat2) -> Mat2:
        F = self.field
        di = F.inv(self.det(m))
        return Mat2(
            F.mul(di, m.d),
            F.mul(di, F.neg(m.b)),
            F.mul(di, F.neg(m.c)),
            F.mul(di, m.a),
        )

    def det(self, m: Mat2) -> int:
        F = self.field
        return F.sub(F.mul(m.a, m.d), F.mul(m.b, m.c))

    def trace(self, m: Mat2) -> int:
        return self.field.add(m.a, m.d)

    def element_order(self, m: Mat2) -> int:
        ident = self.identity()
        acc, k = m, 1
        while acc != ident:
            acc = self.mul(acc, m)
            k += 1
            if k > self.order:  # pragma: no cover - not a group element
                raise ValueError("element order exceeds the group order")
        return k

    # -- class machinery ----------------------------------------------------

    # built on first read: the coset space over GL(2, q^2) reads no label
    @cached_property
    def _tables(self) -> _Tables:
        return self._build_tables()

    def classes(self) -> tuple[ClassLabel, ...]:
        return self._tables[0]

    def irreducibles(self) -> tuple[IrrLabel, ...]:
        return self._tables[1]

    @cached_property
    def _partition(self) -> dict[ClassLabel, tuple[Mat2, ...]]:
        part: dict[ClassLabel, list[Mat2]] = {c: [] for c in self.classes()}
        for m in self.enumerate_group():
            part[self.classify(m)].append(m)
        return {c: tuple(v) for c, v in part.items()}

    def class_partition(self) -> dict[ClassLabel, tuple[Mat2, ...]]:
        """Group elements bucketed by conjugacy class (built once)."""
        return self._partition

    def class_elements(self, label: ClassLabel) -> tuple[Mat2, ...]:
        return self.class_partition()[label]

    def central_involution(self) -> Mat2:
        """The central order-2 element -I."""
        minus_one = self.field.neg(1)
        return Mat2(minus_one, 0, 0, minus_one)

    def central_involution_class(self) -> ClassLabel:
        """The class of -I, labelled directly (scalars are their own class)."""
        return ClassLabel(self.family, "central", (self.field.neg(1),))

    def walk_symmetry(self) -> tuple[Mat2, Mat2]:
        """(s, u) for the walk symmetry x -> s x u^-1 of every class-union Cayley graph.

        s is the nonsplit class rep whose parameter generates the torus
        (F_{q^2}^x for GL and GU, the norm-one E for SL), so s^(|s|/2) = -I;
        u is the jordan rep of eigenvalue 1, of order p.  Conjugation by u
        keeps a class union, so the map is an automorphism; s^k x = x u^k only
        when s^k = u^k = I, so it is free of order c = p |s|, and its power c/2
        is x -> (-I)^p x = -x.
        """
        tw, fam = self.tower, self.family
        z, unipotent = (tw.E[1], (1, 1)) if fam == "sl" else (tw.ext.exp[1], (1,))
        s = self.class_rep(ClassLabel(fam, "nonsplit", (z,)))
        return s, self.class_rep(ClassLabel(fam, "jordan", unipotent))

    def standard_labels(self) -> tuple[ClassLabel, ...]:
        """The standard connection set, built with the class tables: the same tuple every call.

        GL/GU: the split class of diag(1, -1), every jordan class, and the nonsplit classes
        whose F_{q^2} log k has k mod (q - eps) equal to 0 or odd.  That residue is the torus
        log of the determinant z^(q+1) (GL) or z^(1-q) (GU) up to a unit, so these are the
        classes of determinant 1 or a non-square of the torus.  SL: the class of -I, then
        the four jordan classes.  Each part is in ``classes()`` order.
        """
        return self._tables[2]

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(q={self.q})"
