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

Both graph families hand their exact spectra over as one row type,
:class:`SpectrumRow` (character, eigenvalue, sign, multiplicity), and
their hand-derived closed forms as one audit record, :class:`FormulaCheck`.
Both are certified by :func:`transfer_certificate`, the
mod-4 form of that criterion: every eigenvalue is congruent to theta0
mod 4 on the +1 side and to theta0 + 2 on the -1 side, and the -1 side
is not empty.  It accepts exactly what the parity test accepts with
g = 2 (mod 4); it rejects the odd-gap transfers the parity form also
certifies.

Where a group is small enough to enumerate, both families also build their
graph explicitly through one builder, :func:`translation_adjacency`: row i
marks the vertex of r_i s for every s in a connection list.  The products
are array products.  Row 1 of r s is the vector (a, b) s and row 2 is
(c, d) s, so the key ((a q + b) q + c) q + d of r s is the key of row 1
times q^2 plus the key of row 2.  One table of the vector keys v s, for
every vector v and every s, is read through the field's q x q
multiplication and addition tables; each product key is then two gathers
from it and a multiply-add, and its vertex is one index into a dense table
of all q^4 matrix keys, -1 where a key is no vertex.  That table has fewer
entries than the n x n adjacency for every family built here, but not
always fewer bytes: the adjacency is ``uint8``, one byte per entry, and the
table is as wide as the vertex count needs, so at gu 9 the int16 table
takes 86 MB and the adjacency 52 MB.
:func:`translation_partner` takes the transfer pairing, and the symmetry the
walk is split along, the same way: one right translate per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, pi
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

from .chars import CycSum, NonIntegralError, integer_part
from .groups import ClassLabel, IrrLabel, Mat2

__all__ = [
    "SpectrumRow",
    "FormulaCheck",
    "TransferCertificate",
    "transfer_certificate",
    "render_irr",
    "class_sum_eigenvalue",
    "ConjugacyScheme",
    "Graph",
    "translation_adjacency",
    "translation_partner",
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
    ``multiplicity`` the dimension of the eigenspace.
    """

    irr: IrrLabel
    theta: int
    sign: int
    multiplicity: int


class FormulaCheck(NamedTuple):
    """One comparison between a hand-derived closed form and the exact value."""

    family: str
    q: int
    formula: str
    row: str
    hand_value: int
    exact_value: int
    agrees: bool


@dataclass(frozen=True)
class TransferCertificate:
    """Spectral certificate for perfect state transfer between paired vertices.

    ``ok`` records whether every eigenvalue is congruent mod 4 to
    ``residue`` on the +1 side of the pairing involution and to
    ``residue + 2`` on the -1 side, which must not be empty; when it
    holds, the walk moves every vertex to its partner under
    ``transfer_rule`` at ``time = pi/gap``.
    ``degree`` is the top eigenvalue, which is the valency of a regular
    graph, and ``connected`` reports whether that eigenvalue is simple.
    """

    degree: int
    ok: bool
    reason: str
    transfer_rule: str
    integral: bool = True
    residue: int | None = None
    gap: int | None = None
    time: float | None = None
    connected: bool | None = None


def transfer_certificate(
    rows: Sequence[SpectrumRow], transfer_rule: str
) -> TransferCertificate:
    """Run the mod-4 transfer test on an exact spectrum, one row per eigenspace part."""
    theta0 = max(r.theta for r in rows)
    top_mult = sum(r.multiplicity for r in rows if r.theta == theta0)
    base = dict(degree=theta0, transfer_rule=transfer_rule, connected=top_mult == 1)
    gap = gcd(*(theta0 - r.theta for r in rows))
    if gap == 0:
        return TransferCertificate(
            ok=False, reason="all eigenvalues are equal; there is no walk", **base
        )
    a = theta0 % 4
    base.update(residue=a, gap=gap, time=pi / gap)
    if all(r.sign == 1 for r in rows):
        return TransferCertificate(
            ok=False,
            reason="the pairing involution has no -1 eigenspace, so it fixes every vertex",
            **base,
        )
    for r in rows:
        want = a if r.sign == 1 else (a + 2) % 4
        if r.theta % 4 != want:
            side = "+1" if r.sign == 1 else "-1"
            return TransferCertificate(
                ok=False,
                reason=(
                    f"eigenvalue {r.theta} of {render_irr(r.irr)} on the {side} side "
                    f"is {r.theta % 4} mod 4, expected {want}"
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
        self.index = {m: i for i, m in enumerate(self.elements)}

    def adjacency(self, labels: Sequence[ClassLabel]) -> np.ndarray:
        """Adjacency matrix of the Cayley graph on the class union.

        Row g marks g x for x in the union, which is x' g for x' = g x g^{-1}
        in the same union.
        """
        fam = self.family
        members = [x for lab in labels for x in fam.class_elements(lab)]
        return translation_adjacency(self.elements, self.index, fam.field, members)


# ---------------------------------------------------------------------------
# explicit graphs built from translates


class Graph(NamedTuple):
    """An explicitly built graph, the vertex pairing its walk must exchange and a symmetry.

    ``adjacency`` is the 0/1 ``uint8`` matrix, one byte per entry.
    ``partner[i]`` is the vertex paired with vertex i, so the transfer pairs
    are (i, partner[i]).  ``symmetry`` is a free cyclic automorphism of even
    order c whose power of c/2 should be ``partner``; the walk is split
    along it (right translation by a jordan element of order |Z| p on a
    Cayley graph, the partner itself on the coset graph).  ``checks`` holds
    structural checks only one family has.
    """

    adjacency: np.ndarray
    partner: np.ndarray
    symmetry: np.ndarray
    checks: dict[str, bool]


# Products per row block: each of the block's temporaries is a (rows x |S|)
# int64 array of at most this many entries, 1 MB.
_BLOCK_ENTRIES = 1 << 17


def _as_array(elements: Sequence) -> np.ndarray:
    """Matrices as an (n, 4) int64 array of their entries a, b, c, d."""
    import numpy as np

    return np.array(elements, dtype=np.int64).reshape(-1, 4)


def _row_table(field, connection: Sequence) -> np.ndarray:
    """Keys x q + y of the row vectors (x, y) = (u, v) s: row u q + v, column s."""
    import numpy as np

    q = field.q
    mul, add = (t.astype(np.min_scalar_type(q * q)) for t in field.tables())
    a, b, c, d = _as_array(connection).T
    keys = np.empty((q, q, len(a)), dtype=mul.dtype)
    for u in range(q):  # (u, v) s = (u a + v c, u b + v d), one v per row
        keys[u] = add[mul[u, a], mul[:, c]] * q + add[mul[u, b], mul[:, d]]
    return keys.reshape(q * q, -1)


def _translate(reps: Sequence, vertex_of, field, connection: Sequence):
    """The vertices of ``r s``: (start, a rows x |S| array) per block of ``reps``.

    The key ((a q + b) q + c) q + d of r s is the key of its row 1, (a, b) s,
    times q^2 plus the key of its row 2, (c, d) s: two gathers from the
    :func:`_row_table`.  Its vertex is read off a dense table of all q^4
    keys, -1 at every key that is no vertex.
    """
    import numpy as np

    q, shape = field.q, (field.q,) * 4
    vertex = np.full(q**4, -1, dtype=np.min_scalar_type(-len(vertex_of)))
    vertex[np.ravel_multi_index(_as_array(list(vertex_of)).T, shape)] = list(vertex_of.values())
    products = _row_table(field, connection)
    top, bottom = (_as_array(reps).reshape(-1, 2, 2) @ [q, 1]).T  # keys of rows 1 and 2
    step = max(1, _BLOCK_ENTRIES // max(1, len(connection)))
    for start in range(0, len(top), step):
        keys = products[top[start : start + step]].astype(np.int64) * (q * q)
        keys += products[bottom[start : start + step]]
        cols = vertex[keys]
        if (cols < 0).any():
            entries = map(int, np.unravel_index(keys[cols < 0][0], shape))
            raise KeyError(f"the product {Mat2(*entries)} is not a vertex of the graph")
        yield start, cols


def translation_adjacency(reps: Sequence, vertex_of, field, connection: Sequence) -> np.ndarray:
    """0/1 ``uint8`` matrix whose row i marks the vertex of ``reps[i] s`` for every s.

    ``reps`` holds one group element per vertex and ``vertex_of`` maps every
    group element to its vertex: an element to its own index on a Cayley
    graph, to the index of its left coset on a coset graph.  The products
    are taken a block of rows at a time by :func:`_translate`; a product
    that is not a key of ``vertex_of`` raises ``KeyError``.  A connection
    list that reaches one vertex twice marks it once, so the row falls short
    of ``len(connection)``.
    """
    import numpy as np

    out = np.zeros((len(reps), len(reps)), dtype=np.uint8)
    for start, cols in _translate(reps, vertex_of, field, connection):
        out[np.arange(start, start + len(cols))[:, None], cols] = 1
    return out


def translation_partner(reps: Sequence, vertex_of, field, t) -> np.ndarray:
    """The map i -> vertex of ``reps[i] t``, right translation by t.

    For a central t it is also left translation, the transfer pairing; for
    any t it is an automorphism of a Cayley graph on a class union, since
    conjugation by t keeps the union.
    """
    import numpy as np

    blocks = [cols[:, 0] for _, cols in _translate(reps, vertex_of, field, [t])]
    return np.concatenate(blocks).astype(np.int64)
