"""Cayley graphs with certified perfect state transfer on matrix groups.

Three families are built at every odd prime power q, with connection
sets that are unions of conjugacy classes, closed under inversion and
avoiding the identity:

* ``gl`` -- the general linear group GL(2, q);
* ``gu`` -- the unitary group GU(2, q);
* ``sl`` -- the special linear group SL(2, q).

The ``standard`` connection set is the one each group family owns,
:meth:`~pstwalk.groups.GLGroup.standard_labels`: for GL and GU the split
class of ``diag(1, -1)``, every unipotent-type (Jordan) class, and the
nonsplit classes whose determinant is 1 or a non-square in the torus;
for SL the central involution together with every Jordan class.  The
family builds that tuple once, and every stage here reads it.
GL(2, 3) additionally supports the ``small-orders`` variant: all
non-central classes of elements of order 2, 3, 4 or 6.

:func:`build_connection_set` checks that a set is closed under inversion on
the class labels' parameters (each family's ``inverse_label``), so no
matrix is built for it.

Because the connection set is a union of classes, the adjacency matrix
lives in the group's conjugacy-class association scheme: each
irreducible character contributes one exact integer eigenvalue (a
character sum, multiplicity the squared degree; on the standard GL and GU
sets a closed period sum of a cyclic group), one row each of a
:class:`~pstwalk.scheme.Spectrum`, whose eigenvalue, sign and multiplicity
are integer columns beside the family's own tuple of characters.  Perfect
state transfer between every vertex ``x`` and its antipode ``-x`` at time
``pi/g`` is certified by the mod-4 congruence of
:func:`~pstwalk.scheme.transfer_certificate` on those columns, split by
the character's sign on ``-I``.  At small q, :func:`explicit_graph`
enumerates the group and returns the graph as a
:class:`~pstwalk.scheme.Graph` whose pairing is the permutation x -> -x.

Closed-form eigenvalue expressions that were derived by hand while
designing these sets are retained as audit oracles.
:func:`closed_form_audit` evaluates them over the spectrum's columns and
keeps, per formula, its first disagreeing row as a
:class:`~pstwalk.scheme.FormulaCheck` and the number of disagreeing rows,
so every disagreement is counted and none is silently preferred;
:func:`closed_form_checks` yields the check of every row, for a full
table.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

from .chars import CycSum, NonIntegralError, integer_part
from .groups import ClassLabel, GLGroup, GUGroup, IrrLabel, SLGroup
from .record import Record
from .scheme import (
    ConjugacyScheme,
    Disagreement,
    FormulaCheck,
    Graph,
    Spectrum,
    TransferCertificate,
    class_sum_eigenvalue,
    column,
    render_irr,
    tally,
    transfer_certificate,
    translation_map,
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
    "closed_form_checks",
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


class ConnectionSet(Record):
    """A union of conjugacy classes used as a Cayley connection set."""

    __slots__ = _fields = ("family", "q", "variant", "labels", "degree")

    def __init__(self, family: str, q: int, variant: str, labels: tuple[ClassLabel, ...], degree: int):
        self._fill(family, q, variant, labels, degree)


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
    under inversion (a requirement for an undirected Cayley graph), the
    latter on labels: the family's ``inverse_label`` of each must be in it.
    """
    tag = family.family
    if variant not in variants_for(tag, family.q):
        raise ValueError(
            f"unsupported variant {variant!r} for {tag}(2,{family.q}); "
            f"available: {', '.join(variants_for(tag, family.q))}"
        )
    labels = family.standard_labels() if variant == STANDARD else _small_order_labels(family)

    label_set = frozenset(labels)
    if len(label_set) != len(labels):
        raise RuntimeError("connection set lists a class twice")
    ident = family.classify(family.identity())
    if ident in label_set:
        raise RuntimeError("connection set contains the identity class")
    inverse = family.inverse_label
    for lab in labels:
        if inverse(lab) not in label_set:
            raise RuntimeError(f"connection set is not inverse-closed at {lab}")

    degree = sum(family.class_size(lab) for lab in labels)
    return ConnectionSet(tag, family.q, variant, tuple(labels), degree)


# by content, not conn.variant; a set from build_connection_set holds the family's own
# tuple, so each item compares by identity
def _is_standard(family, conn: ConnectionSet) -> bool:
    return conn.labels == family.standard_labels()


# ---------------------------------------------------------------------------
# exact spectra


def spectrum(family, conn: ConnectionSet) -> Spectrum:
    """Exact integer spectrum, one row of a :class:`~pstwalk.scheme.Spectrum` per irreducible.

    A row's sign is the character's value on the central involution divided
    by its degree, and its multiplicity the squared degree.  GL/GU rows of
    the standard labels are period sums (``standard_theta``), the trivial one
    checked against the degree; other rows are class sums.  The rows are
    the family's ``irreducibles()`` tuple, in its order.
    """
    minus_one = family.field.neg(1)
    periods = family.family != "sl" and _is_standard(family, conn)
    value = family.standard_theta if periods else partial(class_sum_eigenvalue, family, labels=conn.labels)
    sign_of, degree = family.central_sign, family.degree
    irrs = family.irreducibles()
    theta, sign, multiplicity = column("q", len(irrs)), column("b", len(irrs)), column("q", len(irrs))
    for i, irr in enumerate(irrs):
        try:
            theta[i] = value(irr)
        except NonIntegralError as exc:
            raise NonIntegralError(
                f"character {render_irr(irr)} of {family.family}(2,{family.q}): {exc}"
            ) from exc
        sign[i] = sign_of(irr, minus_one)
        multiplicity[i] = degree(irr) ** 2
    if periods and theta[0] != conn.degree:
        raise RuntimeError(
            f"{family.family}(2,{family.q}): the period sums give the trivial row "
            f"{theta[0]}, not the degree {conn.degree}"
        )
    return Spectrum(irrs, theta, sign, multiplicity)


# ---------------------------------------------------------------------------
# certification


def certify(rows: Spectrum) -> TransferCertificate:
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


def _sl_ratio_value(family: SLGroup, irr: IrrLabel, jordan: Sequence[ClassLabel]) -> int:
    """Reconstruct the eigenvalue from the central-involution ratio.

    For the SL connection set the eigenvalue decomposes as
    ``chi(-I)/chi(1) + (q^2 - 1)/(2 chi(1)) * r`` where ``r`` sums the
    character over the four ``jordan`` classes.  The second term is always
    divisible by 4, which is what forces the transfer congruence.
    """
    q = family.q
    d = family.degree(irr)
    ratio = family.central_sign(irr, family.field.neg(1))
    r = sum((family.char_value(irr, lab) for lab in jordan), CycSum.zero(family.root_order))
    r_int = integer_part(r)
    num = (q * q - 1) * r_int
    if num % (2 * d):
        raise NonIntegralError(
            f"Jordan character sum of {render_irr(irr)} is not divisible by 2*degree"
        )
    return ratio + num // (2 * d)


def _hand_values(family, conn: ConnectionSet, rows: Spectrum) -> Iterator[tuple[str, int]]:
    """(formula, hand value) of each row in order; nothing off the standard sets."""
    if not _is_standard(family, conn):
        return
    if family.family == "sl":
        jordan = [lab for lab in conn.labels if lab.kind == "jordan"]
        for irr in rows.irreducibles:
            yield "involution-ratio", _sl_ratio_value(family, irr, jordan)
        return
    q, eps = family.q, family.eps
    for irr in rows.irreducibles:
        yield irr.kind, _hand_value(q, eps, irr)


def closed_form_checks(family, conn: ConnectionSet, rows: Spectrum) -> Iterator[FormulaCheck]:
    """Every row's comparison of its hand-derived closed form with the exact value, in row order.

    Only the standard connection sets have closed forms; any other set yields
    nothing.  The full table of ``scripts/audit_closed_forms.py``.
    """
    tag, q, hands = family.family, family.q, _hand_values(family, conn, rows)
    for irr, theta, (formula, hand) in zip(rows.irreducibles, rows.theta, hands):
        yield FormulaCheck(tag, q, formula, render_irr(irr), hand, theta, hand == theta)


def closed_form_audit(family, conn: ConnectionSet, rows: Spectrum) -> list[Disagreement]:
    """Compare hand-derived closed forms against the exact spectrum, counting the disagreements.

    The hand values are evaluated over the rows and compared with the theta
    column; a :class:`~pstwalk.scheme.FormulaCheck` is made only for a row that
    disagrees, and per formula only the first of them is kept, with their
    count.  Disagreements mean the retained hand derivation is wrong for that
    case, never that the exact character sum is in doubt.
    """
    tag, q, hands = family.family, family.q, _hand_values(family, conn, rows)
    return tally(
        FormulaCheck(tag, q, formula, render_irr(irr), hand, theta, False)
        for irr, theta, (formula, hand) in zip(rows.irreducibles, rows.theta, hands)
        if hand != theta
    )


# ---------------------------------------------------------------------------
# one-call analysis


class CayleyAnalysis(NamedTuple):
    family: object
    connection: ConnectionSet
    rows: Spectrum
    certificate: TransferCertificate
    audit: list[Disagreement]


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
    g x for every x in the connection set and paired with -g.  Its symmetry
    is x -> s x u^-1 for ``family.walk_symmetry()``, of order c = p |s| and
    with power c/2 x -> -x, so its Fourier blocks have size n/c = (q -+ 1) q/p.
    Refuses groups larger than ``bound`` elements.
    """
    if family.order > bound:
        raise ValueError(
            f"group order {family.order} exceeds the enumeration bound {bound}"
        )
    sch = ConjugacyScheme(family)
    translates = sch.adjacency(conn.labels)  # builds the scheme's vertex lookup
    s, u = family.walk_symmetry()
    partner = translation_map(sch.lookup, family.identity(), family.central_involution())
    v = family.inv(u)
    return Graph(translates, partner, translation_map(sch.lookup, s, v), {}, (s, v))


def component_count(stack: np.ndarray) -> int:
    """Number of connected components of a graph, read from its stack B[d] = A[lo, sigma^d lo].

    The graph is the Z_c-lift of a base graph on the m orbits, with an arc
    i -> r of voltage d for every entry of B[d][i, r] (Gross and Tucker,
    *Topological Graph Theory*, 1987, ch. 2).  The lift of a connected base
    component has gcd(c, net voltages of its closed walks) components.  With
    phi(i) the voltage from the component's root along a breadth-first tree,
    those voltages are generated by phi(i) + d - phi(r) over its arcs.  A
    one-block stack (c = 1) is the graph itself, one component per base
    component.  O(c m^2) in all; no row of A is read.
    """
    import numpy as np

    c, m = len(stack), stack.shape[1]
    i, d, r = np.nonzero(stack.transpose(1, 0, 2))  # the arcs, in order of their tails i
    phi = np.full(m, -1, dtype=np.int64)
    count = 0
    for root in range(m):
        if phi[root] >= 0:
            continue
        phi[root] = 0
        frontier = np.zeros(m, dtype=bool)
        frontier[root] = True
        members = frontier.copy()
        while frontier.any():
            out = frontier[i]
            heads, volts = r[out], phi[i[out]] + d[out]
            heads, first = np.unique(heads, return_index=True)
            new = phi[heads] < 0
            phi[heads[new]] = volts[first[new]] % c
            frontier[:] = False
            frontier[heads[new]] = True
            members |= frontier
        arcs = members[i]
        count += int(np.gcd.reduce((phi[i[arcs]] + d[arcs] - phi[r[arcs]]) % c, initial=c))
    return count
