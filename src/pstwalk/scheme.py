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
are array products: the matrices are (n, 4) int64 arrays of field
encodings, every entry x u + y v is read through the field's q x q
multiplication and addition tables, and each product's key
((a q + b) q + c) q + d is found by binary search among the sorted keys of
the vertex map.  :func:`translation_partner` takes the transfer pairing
the same way.
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
    """An explicitly built graph and the vertex pairing its walk must exchange.

    ``partner[i]`` is the vertex paired with vertex i, so the transfer pairs
    are (i, partner[i]); ``checks`` holds structural checks only one family
    has.
    """

    adjacency: np.ndarray
    partner: np.ndarray
    checks: dict[str, bool]


# Products per row block: each of the block's temporaries is a (rows x |S|)
# int64 array of at most this many entries, 1 MB.
_BLOCK_ENTRIES = 1 << 17


def _as_array(elements: Sequence) -> np.ndarray:
    """Matrices as an (n, 4) int64 array of their entries a, b, c, d."""
    import numpy as np

    return np.array(elements, dtype=np.int64).reshape(-1, 4)


def _key(a, b, c, d, q: int):
    """The key ((a q + b) q + c) q + d of a matrix, elementwise on arrays."""
    return ((a * q + b) * q + c) * q + d


def _product_keys(left: np.ndarray, right: np.ndarray, field) -> np.ndarray:
    """Keys of the products l r, one row per l in ``left`` and one column per r in ``right``."""
    mul, add = (t.ravel() for t in field.tables())
    q = field.q
    la, lb, lc, ld = (left[:, [i]] * q for i in range(4))
    ra, rb, rc, rd = right.T

    def dot(x, y, u, v):  # x u + y v, with x and y premultiplied by q
        return add[mul[x + u] * q + mul[y + v]]

    return _key(
        dot(la, lb, ra, rc), dot(la, lb, rb, rd), dot(lc, ld, ra, rc), dot(lc, ld, rb, rd), q
    )


class _VertexLookup:
    """``vertex_of`` as sorted matrix keys, searched a whole array at a time."""

    def __init__(self, vertex_of, q: int):
        import numpy as np

        keys = _key(*_as_array(list(vertex_of)).T, q)
        values = np.fromiter(vertex_of.values(), dtype=np.int64, count=len(vertex_of))
        order = np.argsort(keys)
        self.q, self.keys, self.values = q, keys[order], values[order]

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        import numpy as np

        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        missing = self.keys[pos] != keys
        if missing.any():
            key, q = int(keys[missing][0]), self.q
            entries = [key // q**3, key // q**2 % q, key // q % q, key % q]
            raise KeyError(f"the product {Mat2(*entries)} is not a vertex of the graph")
        return self.values[pos]


def translation_adjacency(reps: Sequence, vertex_of, field, connection: Sequence) -> np.ndarray:
    """0/1 matrix whose row i marks the vertex of ``reps[i] s`` for every s.

    ``reps`` holds one group element per vertex and ``vertex_of`` maps every
    group element to its vertex: an element to its own index on a Cayley
    graph, to the index of its left coset on a coset graph.  The products
    are taken a block of rows at a time on (n, 4) arrays of entries, through
    the multiplication and addition tables of ``field``; each product is
    keyed as ``((a q + b) q + c) q + d`` and found among the sorted keys of
    ``vertex_of``.  A product that is no key raises ``KeyError``.  A
    connection list that reaches one vertex twice marks it once, so the row
    falls short of ``len(connection)``.
    """
    import numpy as np

    lookup = _VertexLookup(vertex_of, field.q)
    left, right = _as_array(reps), _as_array(connection)
    out = np.zeros((len(left), len(left)), dtype=np.int64)
    step = max(1, _BLOCK_ENTRIES // max(1, len(right)))
    for start in range(0, len(left), step):
        block = left[start : start + step]
        rows = np.arange(start, start + len(block))[:, None]
        out[rows, lookup(_product_keys(block, right, field))] = 1
    return out


def translation_partner(reps: Sequence, vertex_of, field, t) -> np.ndarray:
    """The vertex permutation i -> vertex of ``t reps[i]``, for a central t."""
    lookup = _VertexLookup(vertex_of, field.q)
    return lookup(_product_keys(_as_array([t]), _as_array(reps), field)[0])
