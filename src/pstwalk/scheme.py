"""Conjugacy-class schemes and the mod-4 transfer certificate.

A conjugacy-class scheme places one relation on a finite group per
conjugacy class: vertices g, h are C-related when h g^{-1} lies in C.
The relations commute, the primitive idempotents are indexed by the
irreducible characters, and an inverse-closed union of classes yields
a normal Cayley graph whose eigenvalue on the chi-isotypic part is the
exact character sum ``sum |C| chi(C) / chi(1)``, with chi read at each
class label.  :func:`class_sum_eigenvalue` builds that sum for one
character as one sparse sum of the terms ``|C| chi(C)`` over Z[zeta_n],
reduced once; SL and GL(2, 3)'s small-orders set read it, while the
standard GL/GU rows are closed period sums.

Perfect state transfer in such a graph, relative to a relation T that
is a fixed-point-free permutation of order 2, is governed purely by the
integer eigenvalues theta and the sign with which T acts on each
eigenspace: with g the gcd of all differences from the top eigenvalue,
transfer happens at time pi/g exactly when (theta0 - theta)/g is even
on every +1 eigenspace and odd on every -1 eigenspace.  That parity
test, validated against direct simulation, is a reference in
``tests/oracles.py``.

Both graph families hand their exact spectra over as one type,
:class:`Spectrum`: the family's own tuple of irreducible characters beside
three integer columns (eigenvalue, sign, multiplicity), one row per
character, with no object per row; indexing or iterating it gives
:class:`SpectrumRow` views.  Their hand-derived closed forms are compared
row by row as :class:`FormulaCheck` records, and an audit keeps, per
formula, only its first disagreeing row and the number of them
(:func:`tally`, one :class:`Disagreement` each).
Both families are certified by :func:`transfer_certificate`, the
mod-4 form of that criterion, read off the columns: every eigenvalue is
congruent to theta0 mod 4 on the +1 side and to theta0 + 2 on the -1
side, and the -1 side is not empty.  It accepts exactly what the parity
test accepts with g = 2 (mod 4); it rejects the odd-gap transfers the
parity form also certifies.

Where a group is small enough to enumerate, both families also build their
graph explicitly through one builder, :class:`Translates`: row i marks the
vertex of r_i s for every s in a connection list.  No n x n array is held;
the neighbours of any block of vertices are made on demand from array products.
A :class:`VertexLookup`, built once per graph, holds the vertex of every
element in a table of pairs of the R <= q_f^2 - 1 distinct rows of the
group's elements over F_{q_f}: at gu 9 (over F_81) R = 720, and the table
takes 1 MB where an n x n ``uint8`` adjacency would take 52 MB.
:func:`translation_map` gives the transfer pairing and the walk's symmetry as
maps i -> vertex of left r_i right, by O(n) gathers through the same tables.
Each block of this path spans about ``BLOCK_ENTRIES`` entries, at least one row.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, pi
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

from .chars import CycSum, NonIntegralError, integer_part
from .groups import ClassLabel, IrrLabel, Mat2
from .record import Record

__all__ = [
    "BLOCK_ENTRIES",
    "column",
    "Spectrum",
    "SpectrumRow",
    "FormulaCheck",
    "Disagreement",
    "tally",
    "TransferCertificate",
    "transfer_certificate",
    "render_irr",
    "class_sum_eigenvalue",
    "ConjugacyScheme",
    "Graph",
    "VertexLookup",
    "Translates",
    "translation_map",
]


def render_irr(irr: IrrLabel | None) -> str:
    """``kind(p1, p2, ...)`` for a character label."""
    if irr is None:
        return "unlabeled character"
    return f"{irr.kind}({', '.join(map(str, irr.params))})"


class SpectrumRow(NamedTuple):
    """One eigenvalue of a graph with a transfer pairing, tied to its character.

    ``sign`` is the pairing involution's eigenvalue on the eigenspace (the
    side of the transfer congruence the eigenvalue must land on) and
    ``multiplicity`` the dimension of the eigenspace.  A view of one row of
    a :class:`Spectrum`, made when it is read.
    """

    irr: IrrLabel
    theta: int
    sign: int
    multiplicity: int


# bytes per entry of a column's type code
_WIDTHS = {"q": 8, "b": 1}


def column(typecode: str, size: int) -> memoryview:
    """``size`` zeroed signed integers of 64 bits (``"q"``) or 8 bits (``"b"``).

    A bytearray cast to that type, which indexes, iterates and compares as
    ints; the ``array`` module would cost the cold process 72 KB of peak
    resident memory to load.
    """
    return memoryview(bytearray(size * _WIDTHS[typecode])).cast(typecode)


class Spectrum(Record):
    """An exact spectrum held as columns, one row per irreducible character.

    ``irreducibles`` is the family's own tuple of character labels; row i
    has eigenvalue ``theta[i]``, sign ``sign[i]`` and multiplicity
    ``multiplicity[i]``, read from :func:`column` columns (64-bit, 8-bit and
    64-bit).  ``len``, indexing and iteration give :class:`SpectrumRow`
    views, made on demand; the pipeline reads the columns.
    """

    __slots__ = _fields = ("irreducibles", "theta", "sign", "multiplicity")

    def __init__(
        self, irreducibles: Sequence[IrrLabel], theta: memoryview, sign: memoryview, multiplicity: memoryview
    ):
        self._fill(irreducibles, theta, sign, multiplicity)

    def __len__(self) -> int:
        return len(self.irreducibles)

    def __getitem__(self, i: int) -> SpectrumRow:
        return SpectrumRow(self.irreducibles[i], self.theta[i], self.sign[i], self.multiplicity[i])

    def __iter__(self) -> Iterator[SpectrumRow]:
        return map(SpectrumRow, self.irreducibles, self.theta, self.sign, self.multiplicity)


class FormulaCheck(NamedTuple):
    """One comparison between a hand-derived closed form and the exact value."""

    family: str
    q: int
    formula: str
    row: str
    hand_value: int
    exact_value: int
    agrees: bool


class Disagreement(Record):
    """A hand-derived formula's first disagreeing row and the number of rows it disagrees on."""

    __slots__ = _fields = ("first", "count")

    def __init__(self, first: FormulaCheck, count: int):
        self._fill(first, count)


def tally(checks: Iterable[FormulaCheck]) -> list[Disagreement]:
    """One :class:`Disagreement` per formula that disagrees anywhere, in order of its first disagreement."""
    first: dict[str, FormulaCheck] = {}
    count: dict[str, int] = {}
    for c in checks:
        if not c.agrees:
            first.setdefault(c.formula, c)
            count[c.formula] = count.get(c.formula, 0) + 1
    return [Disagreement(c, count[f]) for f, c in first.items()]


class TransferCertificate(Record):
    """Spectral certificate for perfect state transfer between paired vertices.

    ``ok`` records whether every eigenvalue is congruent mod 4 to
    ``residue`` on the +1 side of the pairing involution and to
    ``residue + 2`` on the -1 side, which must not be empty; when it
    holds, the walk moves every vertex to its partner under
    ``transfer_rule`` at ``time = pi/gap``.
    ``degree`` is the top eigenvalue, which is the valency of a regular
    graph, and ``connected`` reports whether that eigenvalue is simple.
    """

    __slots__ = _fields = (
        "degree", "ok", "reason", "transfer_rule", "integral", "residue", "gap", "time", "connected"
    )

    def __init__(
        self,
        degree: int,
        ok: bool,
        reason: str,
        transfer_rule: str,
        integral: bool = True,
        residue: int | None = None,
        gap: int | None = None,
        time: float | None = None,
        connected: bool | None = None,
    ):
        self._fill(degree, ok, reason, transfer_rule, integral, residue, gap, time, connected)


def transfer_certificate(spectrum: Spectrum, transfer_rule: str) -> TransferCertificate:
    """Run the mod-4 transfer test on an exact spectrum's columns, one row per eigenspace part.

    A failure names the first row off its residue by its character.
    """
    theta, sign = spectrum.theta, spectrum.sign
    theta0 = max(theta)
    top_mult = sum(m for t, m in zip(theta, spectrum.multiplicity) if t == theta0)
    base = dict(degree=theta0, transfer_rule=transfer_rule, connected=top_mult == 1)
    gap = gcd(*{theta0 - t for t in theta})
    if gap == 0:
        return TransferCertificate(
            ok=False, reason="all eigenvalues are equal; there is no walk", **base
        )
    a = theta0 % 4
    base.update(residue=a, gap=gap, time=pi / gap)
    if all(s == 1 for s in sign):
        return TransferCertificate(
            ok=False,
            reason="the pairing involution has no -1 eigenspace, so it fixes every vertex",
            **base,
        )
    for i, (t, s) in enumerate(zip(theta, sign)):
        want = a if s == 1 else (a + 2) % 4
        if t % 4 != want:
            side = "+1" if s == 1 else "-1"
            return TransferCertificate(
                ok=False,
                reason=(
                    f"eigenvalue {t} of {render_irr(spectrum.irreducibles[i])} on the {side} side "
                    f"is {t % 4} mod 4, expected {want}"
                ),
                **base,
            )
    return TransferCertificate(
        ok=True,
        reason=(
            f"all eigenvalues are congruent to {a} mod 4 on the +1 side and "
            f"{(a + 2) % 4} on the -1 side; transfer time pi/{gap}"
        ),
        **base,
    )


# ---------------------------------------------------------------------------
# conjugacy-class schemes


def class_sum_eigenvalue(family, irr: IrrLabel, labels: Sequence[ClassLabel]) -> int:
    """Exact integer eigenvalue of a class-union Cayley graph on one character.

    The graph whose connection set is a union of conjugacy classes has the
    projection onto the isotypic part of each irreducible character as an
    eigenprojector; the eigenvalue is ``sum_C |C| chi(C^{-1}) / chi(1)``, the complex
    conjugate of ``sum_C |C| chi(C) / chi(1)``.  An integer is its own
    conjugate, so the sum is taken with chi read at each label itself, for
    any label set: no group element is built.

    The terms ``|C| chi(C)`` of every label go into one sparse sum over
    Z[zeta_n], read once by :func:`~pstwalk.chars.integer_part`.

    Raises :class:`~pstwalk.chars.NonIntegralError` if the character sum is
    not a rational integer or is not divisible by the character degree.
    """
    terms: dict[int, int] = {}
    for lab in labels:
        size = family.class_size(lab)
        for e, c in family.char_value(irr, lab).c.items():
            terms[e] = terms.get(e, 0) + c * size
    total = integer_part(CycSum(family.root_order, terms))
    d = family.degree(irr)
    if total % d:
        raise NonIntegralError(
            f"character sum {total} is not divisible by the degree {d}"
        )
    return total // d


class ConjugacyScheme:
    """The conjugacy-class scheme of a matrix-group family.

    Vertices are the group elements in enumeration order; the relation
    of class C, ``adjacency([C])``, holds from g to h when h g^{-1} is in
    C.  Eigenvalues of class-union graphs are exact character sums
    (:func:`class_sum_eigenvalue`).  The per-class relations, class labels
    and numeric idempotents that check the scheme axioms are references in
    ``tests/oracles.py``.
    """

    def __init__(self, family):
        self.family = family
        self.elements: list = list(family.enumerate_group())

    @cached_property
    def lookup(self) -> VertexLookup:
        """The vertex of every product of elements, built on first use."""
        return VertexLookup(self.elements, self.elements, range(len(self.elements)), self.family.field)

    def adjacency(self, labels: Sequence[ClassLabel]) -> Translates:
        """The rows of the Cayley graph on the class union, given on demand.

        Row g marks g x for x in the union, which is x' g for x' = g x g^{-1}
        in the same union.
        """
        fam = self.family
        members = [x for lab in labels for x in fam.class_elements(lab)]
        return Translates(self.lookup, members)


# ---------------------------------------------------------------------------
# explicit graphs built from translates


class Graph(NamedTuple):
    """An explicitly built graph, the vertex pairing its walk must exchange and a symmetry.

    ``translates`` gives the neighbours of any block of vertices on demand
    (:class:`Translates`); no n x n array is held.  ``partner[i]`` is the
    vertex paired with vertex i, so the transfer pairs are (i, partner[i]).
    ``symmetry`` is a free cyclic automorphism of even order c whose power of
    c/2 should be ``partner``; the walk is split along it into blocks of n/c:
    x -> s x u^-1 of order p |s| on a Cayley graph, rH -> s rH of order
    (q + 1)(q^2 + 1) on the coset graph.  ``checks`` holds structural checks
    only one family has.  ``translation`` is (s, v) when ``symmetry`` is
    meant as x -> s x v, ``None`` on the coset graph.
    """

    translates: Translates
    partner: np.ndarray
    symmetry: np.ndarray
    checks: dict[str, bool]
    translation: tuple[Mat2, Mat2] | None = None


# Entries per temporary of the explicit path: a row block of products or
# neighbours, a run of Fourier rows, a block of graph.edges.  64 KB at 8 bytes,
# half of glibc's default mmap threshold.
BLOCK_ENTRIES = 1 << 13
_IDENTITY = Mat2(1, 0, 0, 1)


def _as_array(elements: Sequence) -> np.ndarray:
    """Matrices as an (n, 4) int64 array of their entries a, b, c, d."""
    import numpy as np

    return np.asarray(elements, dtype=np.int64).reshape(-1, 4)


def _row_keys(elements: Sequence, q: int) -> np.ndarray:
    """Keys x q + y of the rows (x, y) of matrices: an (n, 2) int64 array, row 1 then row 2."""
    return _as_array(elements).reshape(-1, 2, 2) @ [q, 1]


class VertexLookup:
    """The vertex of every group element of a graph, and the rows of its representatives.

    ``reps`` holds one group element per vertex and ``vertices[k]`` is the
    vertex of ``elements[k]``, for every group element (matrices, or rows
    a, b, c, d of an array): its own index on a Cayley graph, the index of
    its left coset on a coset graph.  The R distinct rows of the elements,
    first or second, are numbered 0 .. R - 1 in the order of their keys
    x q + y (``rows``), and an element's vertex is entry (i, j) of an
    (R + 1) x (R + 1) table for the ids i, j of its two rows (:meth:`at`).
    A row that no element has reads as id R, whose table row and column are
    all -1, as is every pair of rows that is no element.  ``vectors`` holds
    the keys of the rows that occur among the representatives, and ``top``
    and ``bottom`` the position in it of each representative's two rows.
    Built once per graph and read by :class:`Translates` and
    :func:`translation_map`.
    """

    def __init__(self, reps: Sequence, elements: Sequence, vertices: Sequence[int], field):
        import numpy as np

        self.field, self.size = field, len(reps)
        q = field.q
        self.rows, ids = np.unique(_row_keys(elements, q), return_inverse=True)
        self.width = width = len(self.rows) + 1
        ids = ids.reshape(-1, 2)
        self.table = np.full(width * width, -1, np.min_scalar_type(-len(ids)))
        self.table[ids[:, 0] * width + ids[:, 1]] = vertices
        self.row_id = np.full(q * q, len(self.rows), np.min_scalar_type(len(self.rows)))
        self.row_id[self.rows] = np.arange(len(self.rows))
        self.vectors, ids = np.unique(_row_keys(reps, q), return_inverse=True)
        self.top, self.bottom = ids.reshape(-1, 2).T

    def at(self, keys: np.ndarray) -> np.ndarray:
        """The vertex of each element whose rows have the keys ``keys[0]`` and ``keys[1]``, -1 for none."""
        ids = self.row_id[keys]
        return self.table[ids[0].astype(int) * self.width + ids[1]]


def _row_products(field, vectors: np.ndarray, connection: Sequence) -> np.ndarray:
    """Keys x q + y of (x, y) = (u, v) s: row i for ``vectors[i]`` = u q + v, column s.

    Read through the field's q x q multiplication and addition tables.
    """
    import numpy as np

    q = field.q
    mul, add = (t.astype(np.min_scalar_type(q * q)) for t in field.tables())
    a, b, c, d = _as_array(connection).T
    u, v = np.divmod(vectors[:, None], q)
    return add[mul[u, a], mul[v, c]] * q + add[mul[u, b], mul[v, d]]


def _row_table(lookup: VertexLookup, connection: Sequence) -> np.ndarray:
    """Row ids of v s: row i for v = ``lookup.vectors[i]``, column s, a block of rows at a time."""
    import numpy as np

    ids = np.empty((len(lookup.vectors), len(connection)), dtype=lookup.row_id.dtype)
    connection = _as_array(connection)  # once, not per block
    step = max(1, BLOCK_ENTRIES // max(1, len(connection)))
    for start in range(0, len(ids), step):
        keys = _row_products(lookup.field, lookup.vectors[start : start + step], connection)
        ids[start : start + step] = lookup.row_id[keys]
    return ids


class Translates:
    """A graph whose vertex i is joined to the vertex of r_i s for every s in a connection list.

    ``lookup`` numbers the vertices and the rows of their representatives
    r_i, and ``products`` is its :func:`_row_table` for ``connection``,
    built once.  Row 1 of r s is (row 1 of r) s and row 2 is (row 2 of r) s,
    so two gathers from ``products`` give the ids i, j of the product's rows
    and its vertex is entry i (R + 1) + j of the lookup's table.
    :meth:`neighbours` is the one way the graph is read; a vertex that the
    connection list reaches twice is listed twice and counted once.  Building
    reads row 0: r_0 s is in the group exactly when s is, so a connection
    element outside it raises ``KeyError`` there, naming r_0 s.
    """

    __slots__ = ("lookup", "connection", "products")

    def __init__(self, lookup: VertexLookup, connection: Sequence):
        self.lookup, self.connection = lookup, connection
        self.products = _row_table(lookup, connection)
        self.neighbours([0])

    def __len__(self) -> int:
        return self.lookup.size

    def neighbours(self, vertices) -> np.ndarray:
        """The vertex of r s for each of ``vertices`` (rows) and each s (columns)."""
        import numpy as np

        lookup = self.lookup
        at = self.products[lookup.top[vertices]].astype(np.intp)
        at *= lookup.width
        at += self.products[lookup.bottom[vertices]]
        cols = lookup.table[at]
        if (cols < 0).any():  # each earlier r s is a vertex: this raises, naming r s
            k = int((cols < 0).argmax()) % cols.shape[1]
            translation_map(lookup, _IDENTITY, self.connection[k])
        return cols


def translation_map(lookup: VertexLookup, left, right) -> np.ndarray:
    """The map i -> vertex of ``left reps[i] right``, by O(n) gathers.

    The rows of r right are :func:`_row_products` of r's rows; row k of
    left (r right) is left[k, 0] times its row 1 plus left[k, 1] times its
    row 2, read through the field's tables.  A product that is no vertex
    raises ``KeyError`` naming it.
    """
    import numpy as np

    field, q = lookup.field, lookup.field.q
    mul, add = (t.astype(np.min_scalar_type(q * q)) for t in field.tables())
    x, y = np.divmod(_row_products(field, lookup.vectors, [right])[:, 0], q)
    (x1, x2), (y1, y2) = x[[lookup.top, lookup.bottom]], y[[lookup.top, lookup.bottom]]
    keys = np.array(
        [add[mul[e, x1], mul[f, x2]] * q + add[mul[e, y1], mul[f, y2]] for e, f in (left[:2], left[2:])]
    )
    vertices = lookup.at(keys)
    if (vertices < 0).any():
        keys = keys[:, int((vertices < 0).argmax())].tolist()
        product = Mat2(*(v for key in keys for v in divmod(key, q)))
        raise KeyError(f"the product {product} is not a vertex of the graph")
    return vertices.astype(np.int64)
