"""Cayley graphs with certified perfect state transfer on matrix groups.

Three families are built, with connection sets that are unions of
conjugacy classes, closed under inversion and avoiding the identity:

* ``gl`` -- the general linear group GL(2, q);
* ``gu`` -- the unitary group GU(2, q);
* ``sl`` -- the special linear group SL(2, q), q an odd prime.

The ``standard`` connection set of GL and GU is one rule: the split
class of ``diag(1, -1)``, every unipotent-type (Jordan) class, and the
nonsplit classes whose determinant is 1 or a non-square in the torus,
that is, whose determinant's torus log
(:meth:`~pstwalk.groups.GLGroup.det_log`) is 0 or odd.  For GL the
determinant of the eigenvalue pair {z, z^q} is the norm z^(q+1) in
F_q^x; for GU the determinant of {z, z^(-q)} is z^(1-q) in the norm-one
torus.  For SL it is the central involution together with every Jordan
class.
GL(2, 3) additionally supports the ``small-orders`` variant: all
non-central classes of elements of order 2, 3, 4 or 6.

Because the connection set is a union of classes, the adjacency matrix
lives in the group's conjugacy-class association scheme: each
irreducible character contributes one exact integer eigenvalue (a
character sum, multiplicity the squared degree; on the standard GL and GU
sets a closed period sum of a cyclic group), one
:class:`~pstwalk.scheme.SpectrumRow` each.  Perfect state
transfer between every vertex ``x`` and its antipode ``-x`` at time
``pi/g`` is certified by the mod-4 congruence of
:func:`~pstwalk.scheme.transfer_certificate` on that spectrum, split by
the character's sign on ``-I``.  At small q, :func:`explicit_graph`
enumerates the group and returns the graph as a
:class:`~pstwalk.scheme.Graph` whose pairing is the permutation x -> -x.

Closed-form eigenvalue expressions that were derived by hand while
designing these sets are retained as audit oracles:
:func:`closed_form_audit` recomputes them next to the exact character
sums as :class:`~pstwalk.scheme.FormulaCheck` records and reports every
disagreement instead of silently preferring either side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

from .chars import CycSum, NonIntegralError, integer_part
from .groups import ClassLabel, GLGroup, GUGroup, IrrLabel, SLGroup
from .scheme import (
    ConjugacyScheme,
    FormulaCheck,
    Graph,
    SpectrumRow,
    TransferCertificate,
    class_sum_eigenvalue,
    render_irr,
    transfer_certificate,
    translation_partner,
)

__all__ = [
    "FAMILY_TAGS",
    "STANDARD",
    "SMALL_ORDERS",
    "make_family",
    "variants_for",
    "ConnectionSet",
    "build_connection_set",
    "spectrum",
    "certify",
    "closed_form_audit",
    "CayleyAnalysis",
    "analyze",
    "explicit_graph",
    "component_count",
]

FAMILY_TAGS = ("gl", "gu", "sl")

STANDARD = "standard"
SMALL_ORDERS = "small-orders"
_SMALL_ORDER_SET = frozenset({2, 3, 4, 6})

_FAMILY_CLASSES = {"gl": GLGroup, "gu": GUGroup, "sl": SLGroup}


@lru_cache(maxsize=None)
def make_family(tag: str, q: int):
    """Shared, cached group-family instance for (tag, q)."""
    try:
        cls = _FAMILY_CLASSES[tag]
    except KeyError:
        raise ValueError(
            f"unknown family {tag!r}; expected one of {', '.join(FAMILY_TAGS)}"
        ) from None
    return cls(q)


def variants_for(tag: str, q: int) -> tuple[str, ...]:
    """Connection-set variants available for a family at a given q."""
    if (tag, q) == ("gl", 3):
        return (STANDARD, SMALL_ORDERS)
    return (STANDARD,)


# ---------------------------------------------------------------------------
# connection sets


@dataclass(frozen=True)
class ConnectionSet:
    """A union of conjugacy classes used as a Cayley connection set."""

    family: str
    q: int
    variant: str
    labels: tuple[ClassLabel, ...]
    degree: int


def _standard_labels(fam) -> list[ClassLabel]:
    labels = [ClassLabel(fam.family, "split", tuple(sorted((1, fam.field.neg(1)))))]
    labels += [lab for lab in fam.classes() if lab.kind == "jordan"]
    for lab in fam.classes():
        if lab.kind != "nonsplit":
            continue
        # keep z when det is 1 or a non-square of the torus (of even order q - eps)
        d = fam.det_log(lab.params[0])
        if d == 0 or d % 2:
            labels.append(lab)
    return labels


def _sl_standard_labels(fam: SLGroup) -> list[ClassLabel]:
    labels = [fam.central_involution_class()]
    labels += [lab for lab in fam.classes() if lab.kind == "jordan"]
    return labels


def _small_order_labels(fam) -> list[ClassLabel]:
    return [
        lab
        for lab in fam.classes()
        if lab.kind != "central"
        and fam.element_order(fam.class_rep(lab)) in _SMALL_ORDER_SET
    ]


def build_connection_set(family, variant: str = STANDARD) -> ConnectionSet:
    """Assemble the connection set for a family instance.

    Raises ``ValueError`` for a variant the family/q pair does not
    support.  The result is checked to be identity-free and closed
    under inversion (a requirement for an undirected Cayley graph).
    """
    tag = family.family
    if variant not in variants_for(tag, family.q):
        raise ValueError(
            f"unsupported variant {variant!r} for {tag}(2,{family.q}); "
            f"available: {', '.join(variants_for(tag, family.q))}"
        )
    if variant == SMALL_ORDERS:
        labels = _small_order_labels(family)
    elif tag == "sl":
        labels = _sl_standard_labels(family)
    else:
        labels = _standard_labels(family)

    label_set = frozenset(labels)
    if len(label_set) != len(labels):
        raise RuntimeError("connection set lists a class twice")
    ident = family.classify(family.identity())
    if ident in label_set:
        raise RuntimeError("connection set contains the identity class")
    for lab in labels:
        if family.classify(family.inv(family.class_rep(lab))) not in label_set:
            raise RuntimeError(f"connection set is not inverse-closed at {lab}")

    degree = sum(family.class_size(lab) for lab in labels)
    return ConnectionSet(tag, family.q, variant, tuple(labels), degree)


# ---------------------------------------------------------------------------
# exact spectra


def spectrum(family, conn: ConnectionSet) -> list[SpectrumRow]:
    """Exact integer spectrum, one :class:`~pstwalk.scheme.SpectrumRow` per irreducible.

    A row's sign is the character's value on the central involution divided
    by its degree, and its multiplicity the squared degree.  GL/GU rows of
    the standard labels are period sums (``standard_theta``), the trivial one
    checked against the degree; other rows are class sums.
    """
    minus_one = family.field.neg(1)
    periods = family.family != "sl" and conn.labels == tuple(_standard_labels(family))
    class_sum = partial(class_sum_eigenvalue, family, labels=conn.labels)
    rows = []
    for irr in family.irreducibles():
        try:
            theta = family.standard_theta(irr) if periods else class_sum(irr)
        except NonIntegralError as exc:
            raise NonIntegralError(
                f"character {render_irr(irr)} of {family.family}(2,{family.q}): {exc}"
            ) from exc
        rows.append(
            SpectrumRow(irr, theta, family.central_sign(irr, minus_one), family.degree(irr) ** 2)
        )
    if periods and rows[0].theta != conn.degree:
        raise RuntimeError(
            f"{family.family}(2,{family.q}): the period sums give the trivial row "
            f"{rows[0].theta}, not the degree {conn.degree}"
        )
    return rows


# ---------------------------------------------------------------------------
# certification


def certify(rows: Sequence[SpectrumRow]) -> TransferCertificate:
    """Run the mod-4 transfer test for the antipodal pairing ``x <-> -x``."""
    return transfer_certificate(rows, "x <-> -x for every vertex x")


# ---------------------------------------------------------------------------
# hand-derived closed forms, kept as audit oracles


def _hand_value(q: int, eps: int, irr: IrrLabel) -> int:
    """The hand-derived eigenvalue of the standard set on GL (eps = 1) or GU (eps = -1).

    One form for both families, GU being GL with q -> -q: t = q - eps is the
    torus order and s = (-1)^j.  A linear or steinberg row is
    c (q + eps) s + c t (q + eps - 2)/2, with c = q or 1; the trivial row adds
    J + c t (q + eps)(q + eps - 2)/4 and the quadratic row (j = t/2) adds J
    and subtracts that quarter, where J = (q^2 - 1) t for linear and 0 for
    steinberg.  Every division is taken after the whole product.
    """
    t = q - eps
    kind = irr.kind
    if kind in ("linear", "steinberg"):
        j = irr.params[0]
        c = q if kind == "linear" else 1
        big = (q * q - 1) * t if kind == "linear" else 0
        quarter = c * t * (q + eps) * (q + eps - 2) // 4
        value = c * (q + eps) * (-1) ** j + c * t * (q + eps - 2) // 2
        if j == 0:
            return value + big + quarter
        if j == t // 2:
            return value + big - quarter
        return value
    if kind == "cuspidal":
        m = irr.params[0]
        if m % 2:
            return 0
        return eps * (2 * q - (q * q - 1)) if m % t == 0 else 2 * eps * q
    i, j = irr.params
    base = eps * q * ((-1) ** i + (-1) ** j)
    return base + eps * t * t if (i + j) % t == 0 else base


def _sl_ratio_value(family: SLGroup, irr: IrrLabel) -> int:
    """Reconstruct the eigenvalue from the central-involution ratio.

    For the SL connection set the eigenvalue decomposes as
    ``chi(-I)/chi(1) + (q^2 - 1)/(2 chi(1)) * r`` where ``r`` sums the
    character over the four Jordan classes.  The second term is always
    divisible by 4, which is what forces the transfer congruence.
    """
    q = family.q
    d = family.degree(irr)
    ratio = family.central_sign(irr, family.field.neg(1))
    jordan = [lab for lab in family.classes() if lab.kind == "jordan"]
    r = sum((family.char_value(irr, lab) for lab in jordan), CycSum.zero(family.root_order))
    r_int = integer_part(r)
    num = (q * q - 1) * r_int
    if num % (2 * d):
        raise NonIntegralError(
            f"Jordan character sum of {render_irr(irr)} is not divisible by 2*degree"
        )
    return ratio + num // (2 * d)


def closed_form_audit(family, conn: ConnectionSet, rows: Sequence[SpectrumRow]) -> list[FormulaCheck]:
    """Compare hand-derived closed forms against the exact spectrum.

    Only the ``standard`` connection sets have closed forms.  Every row
    is reported, agreeing or not; disagreements mean the retained hand
    derivation is wrong for that case, never that the exact character
    sum is in doubt.
    """
    if conn.variant != STANDARD:
        return []
    tag, q = family.family, family.q
    out = []
    for row in rows:
        if tag == "sl":
            hand = _sl_ratio_value(family, row.irr)
            formula = "involution-ratio"
        else:
            hand = _hand_value(q, family.eps, row.irr)
            formula = row.irr.kind
        out.append(
            FormulaCheck(
                tag, q, formula, render_irr(row.irr), hand, row.theta, hand == row.theta
            )
        )
    return out


# ---------------------------------------------------------------------------
# one-call analysis


class CayleyAnalysis(NamedTuple):
    family: object
    connection: ConnectionSet
    rows: list[SpectrumRow]
    certificate: TransferCertificate
    audit: list[FormulaCheck]


def analyze(tag: str, q: int, variant: str = STANDARD) -> CayleyAnalysis:
    """Build the connection set, exact spectrum, certificate and audit."""
    family = make_family(tag, q)
    conn = build_connection_set(family, variant)
    rows = spectrum(family, conn)
    cert = certify(rows)
    audit = closed_form_audit(family, conn, rows)
    return CayleyAnalysis(family, conn, rows, cert, audit)


# ---------------------------------------------------------------------------
# explicit graphs (small q)


def explicit_graph(family, conn: ConnectionSet, bound: int = 10_000) -> Graph:
    """The Cayley graph over an explicit group enumeration, paired x <-> -x.

    Vertex i is the i-th element of ``family.enumerate_group()``, joined to
    g x for every x in the connection set and paired with -g.  Refuses
    groups larger than ``bound`` elements.
    """
    if family.order > bound:
        raise ValueError(
            f"group order {family.order} exceeds the enumeration bound {bound}"
        )
    sch = ConjugacyScheme(family)
    partner = translation_partner(
        sch.elements, sch.index, family.field, family.central_involution()
    )
    return Graph(sch.adjacency(conn.labels), partner, {})


# :func:`component_count` gathers at most this many frontier rows at once, so
# its temporary stays a thin slice of the adjacency matrix.
_FRONTIER_ROWS = 128


def component_count(adjacency: np.ndarray) -> int:
    """Number of connected components, by breadth-first search one level at a time.

    Each level marks every unseen vertex that a frontier vertex's row
    reaches; a component ends with an empty level, and the next one starts
    at the first unseen vertex.
    """
    import numpy as np

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
            for start in range(0, len(frontier), _FRONTIER_ROWS):
                reach |= a[frontier[start : start + _FRONTIER_ROWS]].any(axis=0)
            frontier = np.flatnonzero(reach & ~seen)
            seen[frontier] = True
    return count
