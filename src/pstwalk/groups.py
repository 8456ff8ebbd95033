"""Conjugacy classes and exact character tables for 2x2 matrix groups.

Three families over odd finite fields:

* :class:`GLGroup` -- invertible matrices over F_q;
* :class:`SLGroup` -- determinant-one matrices over F_q;
* :class:`GUGroup` -- unitary matrices over F_{q^2}: matrices M with
  ``M* M = I``, where ``M*`` is the transpose with every entry raised
  to the q-th power.

A matrix is a :class:`Mat2` of four integer encodings into the family's
``field`` -- the base field for GL/SL, the quadratic extension for GU.
Conjugacy classes and irreducible characters are identified by frozen
:class:`ClassLabel` / :class:`IrrLabel` values, and character values are
exact cyclotomic sums (:class:`~pstwalk.chars.CycSum`) sharing a single
root order per family (``q^2 - 1`` for GL/GU, ``lcm(q^2 - 1, q)`` for
SL), so spectra assembled from them never leave exact arithmetic.

Every family exposes the same surface: ``classes()``, ``class_size``,
``class_rep``, ``classify``, ``irreducibles()``, ``degree``,
``char_value``, ``enumerate_group``, ``class_partition``,
``central_involution``, ``central_sign`` and ``standard_labels()``; a
class sum reads ``char_value`` once per character and label.  The family
owns its standard connection set: ``standard_labels()`` states the rule
and returns one tuple, built with the class labels.  GL and GU add
``standard_theta``, each row of that set as closed period sums, and read
``central_sign`` off one form of their table: neither builds a CycSum.

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

SL: GL's table, restricted
--------------------------
Every SL(2, q) character is a constituent of a GL(2, q) character restricted
to SL (Clifford theory), so :class:`SLGroup` lifts each character and class
to GL(2, q) and reads GL's degree and value.  Trivial, steinberg, principal
(j,) and cuspidal (m,) lift to linear (0,), steinberg (0,), principal (0, j)
and cuspidal (m,); the half pairs to principal (0, (q-1)/2) and cuspidal
((q+1)/2,).  A jordan class (eps, c) maps to jordan (eps,), a split class
(x,) to split sorted (x, 1/x); central and nonsplit classes keep their
parameters.  Conjugation by GL swaps the two halves of a pair and the two
jordan classes of each eigenvalue and fixes every other SL class, so off
the jordan classes each half is half the restricted value.  Only the eight
half values on the jordan classes are SL's own: (c +- G_q)/2 for the
quadratic Gauss sum G_q of F_q, read off its two trace periods.

GL and GU: one table, q -> -q
-----------------------------
The class list, class sizes, irreducible list, degrees and character
values of GU(2, q) are those of GL(2, q) with q replaced by -q (Ennola
duality: V. Ennola, *On the characters of the finite unitary groups*,
1963).  :class:`_LinearOrUnitary` writes them once with a sign ``eps``,
+1 for GL and -1 for GU; the torus has order q - eps.  Each family
supplies only what really differs:

* ``eps``, its field and its order;
* ``torus``, the torus elements in discrete-log order (F_q^x for GL,
  E for GU), with ``torus_log`` (element -> index) and ``torus_ext_log``
  (element -> discrete log in F_{q^2});
* :meth:`~_LinearOrUnitary.det_log`, the torus log of the determinant
  of the nonsplit class of an eigenvalue z (Nm z = z^(q+1) for GL,
  z^(1-q) for GU);
* its matrix code: ``classify``, ``class_rep``, ``enumerate_group`` and,
  for GU, ``is_member``.

Every family builds its class and irreducible labels on first use, when
``classes()`` or ``irreducibles()`` is first read, and its class partition
when ``class_partition()`` is.  GL reads only F_q at construction: it
builds its tower F_q < F_{q^2} and ``torus_ext_log`` on first use, since
only nonsplit classes and cuspidal characters read them, so the coset
space over GL(2, q^2) never builds F_{q^4}.  GU's matrix entries already
live in F_{q^2}, so it takes its tower up front, and so does SL, whose
nonsplit labels are elements of F_{q^2}.  SL builds the GL(2, q)
whose table it reads on first use; that GL builds no labels and gets SL's
tower from the ``make_tower`` cache.

Every constructor refuses a q that is not an odd prime power.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from operator import ge, gt, le, lt
from typing import Mapping, NamedTuple, Sequence

from .chars import CycSum, NonIntegralError
from .gf import FieldTower, FiniteField, _prime_factors, make_field, make_tower
from .record import Record, _set

__all__ = [
    "Mat2",
    "ClassLabel",
    "IrrLabel",
    "GLGroup",
    "GUGroup",
    "SLGroup",
]


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
    ``classify``, ``class_size``, ``class_rep``, ``degree``, ``char_value``
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


# ---------------------------------------------------------------------------


class _LinearOrUnitary(_Family):
    """The class list and character table GL(2, q) and GU(2, q) share.

    ``eps`` is +1 for GL and -1 for GU, and the root order is q^2 - 1 for
    both.  A family sets the hooks listed in the module docstring and its
    root order.
    """

    eps: int
    torus: Sequence[int]
    torus_log: Mapping[int, int] | Sequence[int]
    torus_ext_log: Mapping[int, int] | Sequence[int]

    def det_log(self, z: int) -> int:  # pragma: no cover - abstract
        """Torus log of the determinant of the nonsplit class of z."""
        raise NotImplementedError

    def _build_tables(self) -> _Tables:
        q, eps, fam, T, s = self.q, self.eps, self.family, self.torus, self.q - self.eps
        n = self.root_order
        ext = self.tower.ext
        jordan = [ClassLabel(fam, "jordan", (x,)) for x in T]
        classes = [ClassLabel(fam, "central", (x,)) for x in T] + jordan
        classes += [
            ClassLabel(fam, "split", tuple(sorted((T[i], T[j]))))
            for i in range(s)
            for j in range(i + 1, s)
        ]
        # z off the torus (q + eps does not divide dlog); orbit {z, z^(eps q)}
        nonsplit = {
            dz: ClassLabel(fam, "nonsplit", (ext.exp[dz],))
            for dz in range(n)
            if dz % (q + eps) and (eps * q * dz) % n >= dz
        }
        classes += nonsplit.values()
        standard = [ClassLabel(fam, "split", tuple(sorted((1, self.field.neg(1))))), *jordan]
        standard += [lab for dz, lab in nonsplit.items() if dz % s == 0 or dz % s % 2]
        irr = [IrrLabel(fam, "linear", (j,)) for j in range(q - eps)]
        irr += [IrrLabel(fam, "steinberg", (j,)) for j in range(q - eps)]
        irr += [
            IrrLabel(fam, "principal", (i, j))
            for i in range(q - eps)
            for j in range(i + 1, q - eps)
        ]
        irr += [
            IrrLabel(fam, "cuspidal", (m,))
            for m in range(1, n)
            if m % (q + eps) and (eps * m * q) % n > m
        ]
        return tuple(classes), tuple(irr), tuple(standard)

    def class_size(self, label: ClassLabel) -> int:
        q, eps = self.q, self.eps
        return {
            "central": 1,
            "jordan": q * q - 1,
            "split": q * (q + eps),
            "nonsplit": q * (q - eps),
        }[label.kind]

    @cached_property
    def _degrees(self) -> dict[str, int]:
        q, eps = self.q, self.eps
        return {"linear": 1, "steinberg": q, "principal": q + eps, "cuspidal": q - eps}

    def degree(self, irr: IrrLabel) -> int:
        return self._degrees[irr.kind]

    @cached_property
    def _forms(self) -> dict[str, tuple[tuple[str, tuple[tuple[int, str], ...], int], ...]]:
        """The character table: kind -> forms (class kind, ((parameter index, log name), ...), c).

        On a class of a form's kind the character adds c * zeta^(sum p_i L_name), p its
        parameters and L the class logs of :meth:`_label_log`; a kind with no form gives 0.
        """
        q, eps = self.q, self.eps
        return {
            # lambda(det), times the Steinberg value for steinberg
            "linear": (
                ("central", ((0, "t"), (0, "t")), 1),
                ("jordan", ((0, "t"), (0, "t")), 1),
                ("split", ((0, "dx"), (0, "dy")), 1),
                ("nonsplit", ((0, "det"),), 1),
            ),
            "steinberg": (
                ("central", ((0, "t"), (0, "t")), q),
                ("split", ((0, "dx"), (0, "dy")), eps),
                ("nonsplit", ((0, "det"),), -eps),
            ),
            "principal": (
                ("central", ((0, "t"), (1, "t")), q + eps),
                ("jordan", ((0, "t"), (1, "t")), eps),
                ("split", ((0, "dx"), (1, "dy")), eps),
                ("split", ((0, "dy"), (1, "dx")), eps),
            ),
            # indexed by a character of F_{q^2}^x
            "cuspidal": (
                ("central", ((0, "x"),), q - eps),
                ("jordan", ((0, "x"),), -eps),
                ("nonsplit", ((0, "z"),), -eps),
                ("nonsplit", ((0, "zq"),), -eps),
            ),
        }

    def _label_log(self, name: str, params: tuple[int, ...]) -> int:
        """The log ``name`` of a class with these parameters, as a power of zeta.

        Torus logs times (q^2 - 1)/(q - eps): ``t``, ``dx``, ``dy`` (a split pair), ``det``.
        F_{q^2} logs: ``x``, the nonsplit eigenvalue ``z`` and its conjugate ``zq`` = z^(eps q).
        """
        q, eps, n = self.q, self.eps, self.root_order
        if name == "x":
            return self.torus_ext_log[params[0]]
        if name in ("z", "zq"):
            dz = self.tower.ext.log[params[0]]
            return dz if name == "z" else eps * q * dz
        if name == "det":
            return self.det_log(params[0]) * (n // (q - eps))
        return self.torus_log[params[name == "dy"]] * (n // (q - eps))

    def char_value(self, irr: IrrLabel, cls: ClassLabel) -> CycSum:
        n, value = self.root_order, {}
        for kind, parts, c in self._forms[irr.kind]:
            if kind == cls.kind:
                e = sum(irr.params[i] * self._label_log(name, cls.params) for i, name in parts) % n
                value[e] = value.get(e, 0) + c
        return CycSum(n, value)

    @cached_property
    def _central_forms(self) -> dict[str, tuple[tuple[tuple[int, str], ...], int, int]]:
        """kind -> (parts, c, degree): the kind's one central form and its degree."""
        return {
            kind: next((parts, c, self._degrees[kind]) for k, parts, c in forms if k == "central")
            for kind, forms in self._forms.items()
        }

    # (log name, scalar) -> _label_log, filled by central_sign as scalars arrive
    @cached_property
    def _scalar_logs(self) -> dict[tuple[str, int], int]:
        return {}

    def central_sign(self, irr: IrrLabel, x: int) -> int:
        """chi(x I)/chi(1) for the scalar of field encoding x; +1 or -1, else NonIntegralError.

        The Cayley pairing g <-> -g reads it at x = -1, the coset graph's pairing at the
        order-4 scalar zeta.  chi(x I) is c * zeta^e for the one central form of the kind.
        """
        n, logs = self.root_order, self._scalar_logs
        parts, c, d = self._central_forms[irr.kind]
        e = 0
        for i, name in parts:
            if (name, x) not in logs:
                logs[name, x] = self._label_log(name, (x,))
            e += irr.params[i] * logs[name, x]
        e %= n
        if c != d or e not in (0, n // 2):
            raise NonIntegralError(
                f"character {irr.kind}{irr.params} of {self.family}(2,{self.q}) takes "
                f"value {c}*zeta_{n}^{e} at the scalar {x}; expected +-{d}"
            )
        return 1 if e == 0 else -1

    def standard_theta(self, irr: IrrLabel) -> int:
        """The eigenvalue of ``irr`` on the standard connection set, as closed period sums.

        With s = q - eps, r = q + eps and h = s/2, the set (:meth:`standard_labels`) is the
        split class of diag(1, -1), every jordan class, and the nonsplit classes of the F_{q^2}
        logs K = {k : k mod s is 0 or odd, r does not divide k}, one per pair {k, eps q k}.
        Each form of :attr:`_forms` sums to a period of a cyclic group (Lidl and Niederreiter,
        *Finite Fields*, ch. 5): zeta_s^m over the torus to s [s | m]; zeta^(m k) over K to
        N(m) = r [r | m] (1 + (-1)^(w/h) h [h | w]) - 1 - (-1)^m, w = (m/r) mod s, which
        linear and steinberg rows read at m = a r once per pair and cuspidal rows whole (z and
        zq); and on diag(1, -1), where dx = 0 and dy = n/2, to (-1)^a.  Raises
        :class:`~pstwalk.chars.NonIntegralError` if the sum is not divisible by the degree.
        """
        q, eps, n, kind, p = self.q, self.eps, self.root_order, irr.kind, irr.params
        s, r, h = q - eps, q + eps, (q - eps) // 2

        def periods(m: int) -> int:  # N(m)
            w = m // r % s
            whole = r * (1 + (h if w == 0 else -h if w == h else 0)) if m % r == 0 else 0
            return whole - (0 if m % 2 else 2)

        # |C| times each sum: n s [s | m] on the jordan classes, q r (-1)^a on diag(1, -1)
        a = p[0]
        if kind == "linear":
            total = n * s * (2 * a % s == 0) + q * r * (-1) ** a + q * h * periods(a * r)
        elif kind == "steinberg":
            total = eps * (q * r * (-1) ** a - q * h * periods(a * r))
        elif kind == "principal":
            total = eps * (n * s * ((a + p[1]) % s == 0) + q * r * ((-1) ** a + (-1) ** p[1]))
        else:
            total = -eps * (n * s * (a % s == 0) + q * s * periods(a))
        d = self.degree(irr)
        if total % d:
            raise NonIntegralError(f"period sum {total} is not divisible by the degree {d}")
        return total // d


# ---------------------------------------------------------------------------


class GLGroup(_LinearOrUnitary):
    """GL(2, q): all invertible 2x2 matrices over F_q (q an odd prime power)."""

    family = "gl"
    eps = 1

    def __init__(self, q: int):
        p, k = _prime_power(q)
        self.q, self.p, self.k = q, p, k
        self.field = make_field(p, k)
        self.order = (q * q - 1) * (q * q - q)
        self.torus = range(1, q)
        self.torus_log = self.field.log
        self.root_order = q * q - 1

    # only nonsplit classes and cuspidal characters read F_{q^2}
    @cached_property
    def tower(self) -> FieldTower:
        return make_tower(self.p, self.k)

    @cached_property
    def torus_ext_log(self) -> dict[int, int]:
        tw = self.tower
        return {x: tw.ext.log[tw.embed(x)] for x in self.torus}

    # the tracer in perfbench/ wraps GLGroup.__dict__["char_value"]
    char_value = _LinearOrUnitary.char_value

    def det_log(self, z: int) -> int:
        """dlog of Nm(z) = z^(q+1), the determinant of the eigenvalue pair {z, z^q}."""
        return self.field.log[self.tower.norm(z)]

    def class_rep(self, label: ClassLabel) -> Mat2:
        kind, params = label.kind, label.params
        if kind == "central":
            x = params[0]
            return Mat2(x, 0, 0, x)
        if kind == "jordan":
            x = params[0]
            return Mat2(x, 1, 0, x)
        if kind == "split":
            x, y = params
            return Mat2(x, 0, 0, y)
        # companion matrix of the eigenvalue pair's minimal polynomial
        F, tw = self.field, self.tower
        z = params[0]
        tr = tw.project(tw.ext.add(z, tw.conj(z)))
        return Mat2(0, F.neg(tw.norm(z)), 1, tr)

    def classify(self, m: Mat2) -> ClassLabel:
        F = self.field
        if m.b == 0 and m.c == 0 and m.a == m.d:
            if m.a == 0:
                raise ValueError("matrix is singular")
            return ClassLabel("gl", "central", (m.a,))
        t, d = self.trace(m), self.det(m)
        if d == 0:
            raise ValueError("matrix is singular")
        two = F.add(1, 1)
        disc = F.sub(F.mul(t, t), F.mul(F.mul(two, two), d))
        if disc == 0:
            return ClassLabel("gl", "jordan", (F.div(t, two),))
        s = F.sqrt(disc)
        if s is not None:
            x = F.div(F.add(t, s), two)
            y = F.div(F.sub(t, s), two)
            return ClassLabel("gl", "split", tuple(sorted((x, y))))
        tw = self.tower
        ext = tw.ext
        se = ext.sqrt(tw.embed(disc))
        z = ext.div(ext.add(tw.embed(t), se), tw.embed(two))
        zq = tw.conj(z)
        zc = z if ext.log[z] <= ext.log[zq] else zq
        return ClassLabel("gl", "nonsplit", (zc,))

    def enumerate_group(self) -> list[Mat2]:
        F, q = self.field, self.q
        out = []
        for a in range(q):
            for b in range(q):
                for c in range(q):
                    for d in range(q):
                        if F.sub(F.mul(a, d), F.mul(b, c)) != 0:
                            out.append(Mat2(a, b, c, d))
        return out


# ---------------------------------------------------------------------------


class GUGroup(_LinearOrUnitary):
    """GU(2, q): unitary 2x2 matrices over F_{q^2} (q an odd prime power).

    Membership means ``M* M = I`` for the conjugate transpose ``M*``
    twisted by the q-power Frobenius.  Matrix entries are encodings in
    the *extension* field F_{q^2}; eigenvalues of group elements always
    lie there too.  The torus carrying the class/character parameters is
    the norm-one subgroup E of order q+1.
    """

    family = "gu"
    eps = -1

    def __init__(self, q: int):
        p, k = _prime_power(q)
        self.q, self.p, self.k = q, p, k
        tw = self.tower = make_tower(p, k)
        self.field = tw.ext
        self.order = q * (q - 1) * (q + 1) ** 2
        self.torus = tw.E
        self.torus_log = tw.E_log
        self.torus_ext_log = tw.ext.log
        self.root_order = q * q - 1

    # the tracer in perfbench/ wraps GUGroup.__dict__["char_value"]
    char_value = _LinearOrUnitary.char_value

    def det_log(self, z: int) -> int:
        """E-index of z^(1-q), the determinant of the eigenvalue pair {z, z^(-q)}."""
        q = self.q
        return (self.field.log[z] * (1 - q)) % self.root_order // (q - 1)

    # -- membership -----------------------------------------------------------

    def conj_transpose(self, m: Mat2) -> Mat2:
        bar = self.tower.conj
        return Mat2(bar(m.a), bar(m.c), bar(m.b), bar(m.d))

    def is_member(self, m: Mat2) -> bool:
        return self.mul(self.conj_transpose(m), m) == self.identity()

    # -- classes ---------------------------------------------------------------

    # built once per group: class_rep runs for every label a connection set checks
    @cached_property
    def _isotropic_pair(self) -> tuple[int, int]:
        """The two encodings a with Nm(a) = -1 of smallest discrete log."""
        tw = self.tower
        fiber = tw.norm_fiber(tw.base.neg(1))
        f1, f2 = sorted(fiber, key=lambda z: tw.ext.log[z])[:2]
        return f1, f2

    @cached_property
    def _unipotent(self) -> Mat2:
        """I + c v v* with v = (a0, 1) isotropic and c + c^q = 0."""
        F, tw = self.field, self.tower
        a0 = self._isotropic_pair[0]
        c = next(c for c in range(1, F.q) if F.add(tw.conj(c), c) == 0)
        return Mat2(
            F.add(1, F.mul(c, F.mul(a0, tw.conj(a0)))),
            F.mul(c, a0),
            F.mul(c, tw.conj(a0)),
            F.add(1, c),
        )

    def class_rep(self, label: ClassLabel) -> Mat2:
        F, tw = self.field, self.tower
        kind, params = label.kind, label.params
        if kind == "central":
            x = params[0]
            return Mat2(x, 0, 0, x)
        if kind == "split":
            x, y = params
            return Mat2(x, 0, 0, y)
        if kind == "jordan":
            x = params[0]
            rep = self.mul(Mat2(x, 0, 0, x), self._unipotent)
        else:
            # conjugate diag(z, z^(-q)) into the group via an isotropic basis
            z = params[0]
            w = F.inv(tw.conj(z))
            f1, f2 = self._isotropic_pair
            den = F.inv(F.sub(f1, f2))
            rep = Mat2(
                F.mul(den, F.sub(F.mul(f1, z), F.mul(f2, w))),
                F.mul(den, F.mul(F.mul(f1, f2), F.sub(w, z))),
                F.mul(den, F.sub(z, w)),
                F.mul(den, F.sub(F.mul(f1, w), F.mul(f2, z))),
            )
        if not self.is_member(rep):  # pragma: no cover - construction invariant
            raise RuntimeError(f"constructed representative for {label} is not unitary")
        return rep

    def classify(self, m: Mat2) -> ClassLabel:
        F, tw = self.field, self.tower
        E_log = tw.E_log
        if m.b == 0 and m.c == 0 and m.a == m.d:
            if m.a not in E_log:
                raise ValueError("scalar matrix with determinant outside the norm-one torus")
            return ClassLabel("gu", "central", (m.a,))
        t, d = self.trace(m), self.det(m)
        two = F.add(1, 1)
        disc = F.sub(F.mul(t, t), F.mul(F.mul(two, two), d))
        if disc == 0:
            x = F.div(t, two)
            if x not in E_log:
                raise ValueError("repeated eigenvalue outside the norm-one torus")
            return ClassLabel("gu", "jordan", (x,))
        s = F.sqrt(disc)
        if s is None:
            raise ValueError("eigenvalues leave F_{q^2}; matrix is not unitary")
        r1 = F.div(F.add(t, s), two)
        r2 = F.div(F.sub(t, s), two)
        if r1 in E_log and r2 in E_log:
            return ClassLabel("gu", "split", tuple(sorted((r1, r2))))
        if r2 != F.inv(tw.conj(r1)):
            raise ValueError("eigenvalue pair is not norm-dual; matrix is not unitary")
        zc = r1 if F.log[r1] <= F.log[r2] else r2
        return ClassLabel("gu", "nonsplit", (zc,))

    def enumerate_group(self) -> list[Mat2]:
        """All members, via orthonormal column pairs.

        First columns u = (a, c) run over vectors of norm 1; for each,
        the second column runs over lambda * (c^q, -a^q) with lambda in
        E, which are exactly the norm-1 vectors orthogonal to u.
        """
        F, tw = self.field, self.tower
        base = tw.base
        out = []
        for a in range(F.q):
            na = tw.norm(a)
            for c in range(F.q):
                if base.add(na, tw.norm(c)) != 1:
                    continue
                aq, cq = tw.conj(a), tw.conj(c)
                for lam in tw.E:
                    out.append(
                        Mat2(a, F.mul(lam, cq), c, F.neg(F.mul(lam, aq)))
                    )
        return out


# ---------------------------------------------------------------------------


def _trace_periods(F: FiniteField) -> tuple[CycSum, CycSum]:
    """The Gauss periods of F_q: zeta_p^(Tr x) summed over the nonzero squares, then the non-squares.

    Tr x = x + x^p + ... + x^(p^(k-1)) lies in F_p, and g^d is a square iff d
    is even.  Their difference G_q has -G_q = (-G_p)^k (Davenport-Hasse; Lidl
    & Niederreiter, *Finite Fields*, 5.2); at q = p they are the residue periods.
    """
    periods: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for d, x in enumerate(F.exp):
        t = 0
        for _ in range(F.k):
            t, x = F.add(t, x), F.frobenius(x)
        periods[d % 2][t] = periods[d % 2].get(t, 0) + 1
    return CycSum(F.p, periods[0]), CycSum(F.p, periods[1])


class SLGroup(_Family):
    """SL(2, q): determinant-one matrices over F_q, q an odd prime power.

    Its characters are read from GL(2, q)'s table by restriction (see the
    module docstring).  The half-degree values on the jordan classes are
    built from the two Gauss periods of F_q (:func:`_trace_periods`).
    """

    family = "sl"

    def __init__(self, q: int):
        p, k = _prime_power(q)
        self.q, self.p, self.k = q, p, k
        self.tower = make_tower(p, k)
        self.field = self.tower.base
        self.root_order = lcm(q * q - 1, p)
        self.order = q * (q * q - 1)
        self._eta = tuple(eta.rescale_to(self.root_order) for eta in _trace_periods(self.field))
        # the quadratic character of F_q^x evaluated at -1
        self._sign_m1 = 1 if ((q - 1) // 2) % 2 == 0 else -1

    # GL(2, q), whose table char_value restricts; make_tower hands it this group's tower
    @cached_property
    def _gl(self) -> GLGroup:
        return GLGroup(self.q)

    # -- classes -----------------------------------------------------------------

    def _build_tables(self) -> _Tables:
        q, F, tw = self.q, self.field, self.tower
        minus = F.neg(1)
        classes = [
            ClassLabel("sl", "central", (1,)),
            ClassLabel("sl", "central", (minus,)),
        ]
        classes += [
            ClassLabel("sl", "jordan", (eps, c))
            for eps in (1, minus)
            for c in (1, tw.delta)
        ]
        classes += [ClassLabel("sl", "split", (F.exp[dx],)) for dx in range(1, (q - 1) // 2)]
        classes += [ClassLabel("sl", "nonsplit", (tw.E[i],)) for i in range(1, (q + 1) // 2)]
        irr = [IrrLabel("sl", "trivial", ()), IrrLabel("sl", "steinberg", ())]
        irr += [IrrLabel("sl", "principal", (j,)) for j in range(1, (q - 1) // 2)]
        irr += [IrrLabel("sl", "cuspidal", (m,)) for m in range(1, (q + 1) // 2)]
        irr += [IrrLabel("sl", "principal_half", (s,)) for s in (1, -1)]
        irr += [IrrLabel("sl", "cuspidal_half", (s,)) for s in (1, -1)]
        # the standard set: -I, then the four jordan classes
        return tuple(classes), tuple(irr), tuple(classes[1:6])

    def class_size(self, label: ClassLabel) -> int:
        q = self.q
        return {
            "central": 1,
            "jordan": (q * q - 1) // 2,
            "split": q * (q + 1),
            "nonsplit": q * (q - 1),
        }[label.kind]

    def class_rep(self, label: ClassLabel) -> Mat2:
        F, tw = self.field, self.tower
        kind, params = label.kind, label.params
        if kind == "central":
            x = params[0]
            return Mat2(x, 0, 0, x)
        if kind == "jordan":
            eps, c = params
            return Mat2(eps, c, 0, eps)
        if kind == "split":
            x = params[0]
            return Mat2(x, 0, 0, F.inv(x))
        # z = x + y*sqrt(delta) in the norm-one torus acts as [[x, dy], [y, x]]
        z = params[0]
        ext, two = tw.ext, tw.embed(F.add(1, 1))
        zq = tw.conj(z)
        x = tw.project(ext.div(ext.add(z, zq), two))
        y = tw.project(ext.div(ext.sub(z, zq), ext.mul(two, tw.sqrt_delta)))
        return Mat2(x, F.mul(tw.delta, y), y, x)

    def classify(self, m: Mat2) -> ClassLabel:
        F, tw = self.field, self.tower
        if self.det(m) != 1:
            raise ValueError("determinant is not 1")
        minus = F.neg(1)
        if m.b == 0 and m.c == 0 and m.a == m.d:
            return ClassLabel("sl", "central", (m.a,))
        t = self.trace(m)
        two = F.add(1, 1)
        if t == two or t == F.neg(two):
            # the square class of b (or -c when b = 0) picks the Jordan class
            eps = 1 if t == two else minus
            x = m.b if m.b != 0 else F.neg(m.c)
            return ClassLabel("sl", "jordan", (eps, 1 if F.is_square(x) else tw.delta))
        disc = F.sub(F.mul(t, t), F.mul(two, two))
        s = F.sqrt(disc)
        if s is not None:
            r1 = F.div(F.add(t, s), two)
            r2 = F.inv(r1)
            x = r1 if F.log[r1] <= F.log[r2] else r2
            return ClassLabel("sl", "split", (x,))
        ext = tw.ext
        se = ext.sqrt(tw.embed(disc))
        z = ext.div(ext.add(tw.embed(t), se), tw.embed(two))
        zi = ext.inv(z)
        zc = z if ext.log[z] <= ext.log[zi] else zi
        return ClassLabel("sl", "nonsplit", (zc,))

    def enumerate_group(self) -> list[Mat2]:
        F, q = self.field, self.q
        out = []
        for a in range(q):
            for b in range(q):
                for c in range(q):
                    if a:
                        # d = (1 + bc) / a
                        out.append(Mat2(a, b, c, F.div(F.add(1, F.mul(b, c)), a)))
                    elif b:
                        if F.mul(b, c) == F.neg(1):
                            out.extend(Mat2(0, b, c, d) for d in range(q))
        return out

    # -- characters -----------------------------------------------------------------

    def _lift(self, irr: IrrLabel) -> IrrLabel:
        """The GL(2, q) character whose restriction is irr, or holds its half pair."""
        q = self.q
        kind, params = {
            "trivial": ("linear", (0,)),
            "steinberg": ("steinberg", (0,)),
            "principal": ("principal", (0, *irr.params)),
            "cuspidal": ("cuspidal", irr.params),
            "principal_half": ("principal", (0, (q - 1) // 2)),
            "cuspidal_half": ("cuspidal", ((q + 1) // 2,)),
        }[irr.kind]
        return IrrLabel("gl", kind, params)

    def degree(self, irr: IrrLabel) -> int:
        d = self._gl.degree(self._lift(irr))
        return d // 2 if irr.kind.endswith("_half") else d

    def central_sign(self, irr: IrrLabel, x: int) -> int:
        """chi(x I)/chi(1), read off the GL character chi lifts to: a half is half its lift."""
        return self._gl.central_sign(self._lift(irr), x)

    # the tracer in perfbench/ wraps SLGroup.__dict__["char_value"]
    def char_value(self, irr: IrrLabel, cls: ClassLabel) -> CycSum:
        """chi(C), read off the GL character chi lifts to at the GL class of C.

        A half-degree value on a jordan class is (const + sgn*g)/2 for the
        quadratic Gauss sum g: const = 1 (principal), -1 (cuspidal) at
        eps = +1, and the quadratic character at -1 for eps = -1.
        """
        kind, ck, params = irr.kind, cls.kind, cls.params
        half = kind.endswith("_half")
        if half and ck == "jordan":
            eps, c = params
            s = irr.params[0] if c == 1 else -irr.params[0]
            if kind == "principal_half":
                return self._half(1 if eps == 1 else self._sign_m1, s)
            return self._half(-1, s) if eps == 1 else self._half(self._sign_m1, -s)
        if ck == "jordan":
            params = params[:1]
        elif ck == "split":
            params = tuple(sorted((params[0], self.field.inv(params[0]))))
        lift = self._lift(irr)
        value = self._gl.char_value(lift, ClassLabel("gl", ck, params)).rescale_to(self.root_order)
        if not half:
            return value
        if any(v % 2 for v in value.c.values()):
            raise RuntimeError(f"{lift.kind}{lift.params} of GL(2, {self.q}) is odd at {cls}")
        return CycSum(self.root_order, {e: v // 2 for e, v in value.c.items()})

    def _half(self, const: int, sgn: int) -> CycSum:
        """(const + sgn*g)/2 for the quadratic Gauss sum g; both in {1, -1}."""
        eta = self._eta[0] if sgn == 1 else self._eta[1]
        return eta + 1 if const == 1 else eta
