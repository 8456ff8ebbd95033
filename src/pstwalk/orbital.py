"""Double-coset graphs on GL(2, q^2) / GL(2, q) with certified state transfer.

For q = 3 (mod 4) the group ``G = GL(2, q^2)`` contains ``H = GL(2, q)`` as
the subgroup of matrices with all entries in the subfield F_q, and the
permutation module on the left cosets G/H is multiplicity free.  The graph
built here joins cosets ``rH`` and ``sH`` whenever ``r^(-1) s`` lies in the
union of

* the double coset ``H z H`` of the central scalar matrix ``z = zeta I``
  with ``zeta`` of multiplicative order 4 (so ``z^2 = -I`` lies in H), and
* the double cosets ``H m H`` of the diagonal matrices ``m = diag(x, y)``
  whose entries lie in distinct cosets of ``F_q^x`` inside ``F_{q^2}^x``.

Because the module is multiplicity free, every irreducible character chi
appearing in it contributes one eigenvalue ``theta = sign + energy``: the
``z`` relation is a fixed-point-free involution acting as ``sign = +-1`` on
the chi-component, and the diagonal relations contribute an integer
``energy``.  It is a period sum S(u) S(v) - S(u + v), S(w) = (q+1) [(q+1) | w],
over the cyclic group F_{q^2}^x / F_q^x (character orthogonality: Lidl and
Niederreiter, *Finite Fields*, ch. 5), derived at :func:`orbital_spectrum`.
The rows are the Cayley graphs' :class:`~pstwalk.scheme.SpectrumRow`, so a
row's energy is ``theta - sign``.  Every energy is divisible by 4, so the
mod-4 congruence of :func:`~pstwalk.scheme.transfer_certificate` certifies
perfect state transfer between ``rH`` and ``(z r)H`` for every coset at
time pi/2.

At q = 3 the whole 5760-element group is small enough to enumerate, so
the graph and the energies can be cross-validated literally; larger q
run the period-sum path only.

The explicit graph (:func:`build_gamma`) is built as the Cayley graphs
are: the coset of representative r is joined to the cosets r d H for one
element d of each left H-coset inside the edge double cosets, and the
pairing is the permutation rH -> (z r)H, carried as a
:class:`~pstwalk.scheme.Graph`.

The module also retains the hand-derived closed form printed for the
linear-character energies as an audit oracle, one
:class:`~pstwalk.scheme.FormulaCheck` per linear character; it disagrees
with the exact values by a normalization factor and is reported, never
trusted.  G and H are built as :class:`~pstwalk.groups.GLGroup` instances
here, so the module stands on :mod:`pstwalk.scheme` beside
:mod:`pstwalk.cayley` and imports nothing from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

from .chars import NonIntegralError
from .groups import GLGroup, IrrLabel, Mat2, _prime_power
from .scheme import (
    FormulaCheck,
    Graph,
    SpectrumRow,
    TransferCertificate,
    transfer_certificate,
    translation_adjacency,
    translation_partner,
)

__all__ = [
    "EXPLICIT_LIMIT",
    "CosetSpace",
    "build_coset_space",
    "build_gamma",
    "coset_irreducibles",
    "orbital_spectrum",
    "certify_orbital",
    "linear_energy_display_audit",
]

# Largest q for which the ambient group is enumerated explicitly.  |G| grows
# like q^8, so only the smallest admissible q is enumerable in practice.
EXPLICIT_LIMIT = 3


# ---------------------------------------------------------------------------
# coset space


@dataclass(frozen=True, eq=False)
class CosetSpace:
    """The pair H = GL(2, q) inside G = GL(2, q^2) with its coset data.

    In explicit mode (q <= EXPLICIT_LIMIT) every group element is labeled
    with the index of its left coset and one representative per coset is
    recorded; otherwise only the field-level data of the spectrum is kept.
    """

    q: int
    group: object  # the GL(2, q^2) family
    hsize: int
    zeta: int  # encoding of the chosen order-4 scalar
    z: Mat2
    rep_set: tuple[int, ...]  # transversal of F_q^x in F_{q^2}^x: gen^0 .. gen^q
    explicit: bool
    elements: tuple[Mat2, ...] | None = None
    h_elements: tuple[Mat2, ...] | None = None
    reps: tuple[Mat2, ...] | None = None
    coset_index: dict | None = None

    @property
    def n_cosets(self) -> int:
        return self.group.order // self.hsize


@lru_cache(maxsize=None)
def build_coset_space(q: int) -> CosetSpace:
    """Assemble the coset space of GL(2, q) inside GL(2, q^2).

    Explicit coset enumeration is performed for q <= EXPLICIT_LIMIT; larger
    admissible q get a spectrum-only space.  Values q != 3 (mod 4) are
    rejected: the order-4 scalar z with z^2 = -I in H needs 4 | q^2 - 1
    with the eigenvalue congruences holding only in that residue class.  So
    is a q that is not a prime power, before it is squared.
    """
    if q % 4 != 3:
        raise ValueError(
            f"the double-coset construction needs q = 3 (mod 4); got q = {q}"
        )
    _prime_power(q)
    group = GLGroup(q * q)
    field = group.field
    zeta = field.exp[(q * q - 1) // 4]
    z = Mat2(zeta, 0, 0, zeta)
    rep_set = tuple(field.exp[i] for i in range(q + 1))
    hsize = (q * q - 1) * (q * q - q)
    base = dict(
        q=q,
        group=group,
        hsize=hsize,
        zeta=zeta,
        z=z,
        rep_set=rep_set,
    )
    if q > EXPLICIT_LIMIT:
        return CosetSpace(explicit=False, **base)

    # H is GL(2, q), carried into G by the embedding of F_q into F_{q^2}
    sub = GLGroup(q)
    embed = sub.tower.embed
    h_elements = tuple(Mat2(*map(embed, h)) for h in sub.enumerate_group())
    if len(h_elements) != hsize:
        raise RuntimeError(
            f"build_coset_space: the subfield subgroup H = GL(2, {q}) has "
            f"{len(h_elements)} elements, expected {hsize}"
        )
    elements = tuple(group.enumerate_group())
    coset_index: dict[Mat2, int] = {}
    reps: list[Mat2] = []
    for g in elements:
        if g in coset_index:
            continue
        idx = len(reps)
        reps.append(g)
        for h in h_elements:
            coset_index[group.mul(g, h)] = idx
    if len(reps) * hsize != group.order:
        raise RuntimeError(
            f"build_coset_space: {len(reps)} cosets of {hsize} elements hold "
            f"{len(reps) * hsize} elements, but the group has {group.order}"
        )
    return CosetSpace(
        explicit=True,
        elements=elements,
        h_elements=h_elements,
        reps=tuple(reps),
        coset_index=coset_index,
        **base,
    )


# ---------------------------------------------------------------------------
# the irreducibles of the coset module


@lru_cache(maxsize=None)
def coset_irreducibles(q: int) -> tuple[IrrLabel, ...]:
    """The irreducible characters appearing in the module on G/H.

    These are: the linear characters lambda(det) with lambda^(q+1) = 1 and
    their twisted (q^2)-dimensional partners, plus the principal-series
    characters I[theta1, theta2] whose parameter pair either consists of
    two distinct characters trivial on F_q^x or satisfies
    theta1 = theta2^(-q).  One eigenvalue row per entry; the component
    dimensions are the character degrees and sum to |G/H|.
    """
    n = q * q - 1
    lam = [(q - 1) * a for a in range(q + 1)]
    out = [IrrLabel("gl", "linear", (j,)) for j in lam]
    out += [IrrLabel("gl", "steinberg", (j,)) for j in lam]
    out += [
        IrrLabel("gl", "principal", (lam[a], lam[b]))
        for a in range(q + 1)
        for b in range(a + 1, q + 1)
    ]
    seen = set()
    for m in range(1, n):
        if m % (q - 1) == 0:
            continue
        pair = tuple(sorted((m, (-q * m) % n)))
        if pair not in seen:
            seen.add(pair)
            out.append(IrrLabel("gl", "principal", pair))
    return tuple(out)


# ---------------------------------------------------------------------------
# period sums
#
# I[zeta^i, zeta^j] sums over the diagonal coset m_{x,y} H to
# (theta1(x) theta2(y) + theta1(y) theta2(x)) q (q-1)^2
# + theta1(x) theta2(y) (q-1)^2 (q^2-1) [(q^2-1) | i + q j], and each term
# needs (q-1) | i and (q-1) | j (the second because q = 1 mod q-1).


def _pair_period(q: int, u: int, v: int) -> int:
    """S(u) S(v) - S(u+v): the sum of omega^(u a + v b) over a != b in 0..q."""

    def period(w: int) -> int:
        return q + 1 if w % (q + 1) == 0 else 0

    return period(u) * period(v) - period(u + v)


def _energy_total(space: CosetSpace, irr: IrrLabel) -> int:
    """The sum of chi(mH) over the (q+1) q ordered diagonal pairs, as an integer.

    lambda(det) sums to lambda(xy) |H| over m_{x,y} H, and the Steinberg
    character is I[lambda, lambda] minus lambda(det).
    """
    q, n, kind = space.q, space.q**2 - 1, irr.kind
    if kind not in ("linear", "steinberg", "principal"):
        raise ValueError(f"no closed-form coset sum for a {kind} character")
    i, j = irr.params if kind == "principal" else irr.params * 2
    if i % (q - 1) or j % (q - 1):
        if kind == "principal":
            return 0
        raise NonIntegralError(
            f"character {kind}{irr.params} of gl(2,{q * q}): lambda = zeta^{j} is "
            f"not trivial on F_{q}^x, so its coset sums are no period sums"
        )
    u, v = i // (q - 1), j // (q - 1)
    torus = (q - 1) ** 2 * n if (i + q * j) % n == 0 else 0
    induced = _pair_period(q, u, v) * (2 * q * (q - 1) ** 2 + torus)
    linear = _pair_period(q, u, u) * space.hsize
    return {"principal": induced, "linear": linear, "steinberg": induced - linear}[kind]


# ---------------------------------------------------------------------------
# the spectrum


def orbital_spectrum(q: int) -> list[SpectrumRow]:
    """Exact eigenvalue rows of the coset graph, one per irreducible.

    Each is a :class:`~pstwalk.scheme.SpectrumRow`: its sign is the
    eigenvalue of the involution relation, +1 or -1, its theta is sign +
    energy and its multiplicity the character degree.  The energy,
    theta - sign, is the contribution of the diagonal double cosets: the
    half-sum of coset character sums chi(mH) over ordered pairs of distinct
    transversal elements, divided by the intersection size (q-1)^2.  A
    nonzero term needs characters trivial on F_q^x; they factor through the
    cyclic group F_{q^2}^x / F_q^x of order q + 1, which the transversal
    gen^0 .. gen^q meets once per coset.  By orthogonality on that group
    (Lidl and Niederreiter, *Finite Fields*, ch. 5) the sum over a != b of
    omega^(u a + v b), omega of order q + 1, is S(u) S(v) - S(u + v) with
    S(w) = (q+1) [(q+1) | w]: an integer.  The division must be exact; the
    certificate checks each energy mod 4.
    """
    space = build_coset_space(q)
    denom = 2 * (q - 1) ** 2
    rows = []
    for irr in coset_irreducibles(q):
        whole = _energy_total(space, irr)
        if whole % denom:
            raise NonIntegralError(
                f"character {irr.kind}{irr.params} of gl(2,{q * q}): energy sum "
                f"{whole} is not divisible by {denom}"
            )
        energy = whole // denom
        sign = space.group.central_sign(irr, space.zeta)
        rows.append(SpectrumRow(irr, sign + energy, sign, space.group.degree(irr)))
    return rows


def linear_energy_display_audit(q: int, rows: Sequence[SpectrumRow]) -> list[FormulaCheck]:
    """Compare the printed linear-energy closed form against exact values.

    The printed form replaces the transversal pair sum by a full-group
    pair sum without the compensating normalization, so it overshoots the
    true energies whenever the sums do not vanish (at q = 3: 336 vs 72 for
    the trivial character).  Retained as an audit oracle only; the
    divisibility-by-4 conclusion holds either way.  ``rows`` is the exact
    spectrum from :func:`orbital_spectrum`.  lambda = zeta_n^j (n = q^2 - 1)
    sums to n [n | j] over F_{q^2}^x and to (n/2) [n | 2j] over its squares.
    """
    n = q * q - 1
    out = []
    energies = {r.irr: r.theta - r.sign for r in rows}
    for a in range(q + 1):
        j = (q - 1) * a
        full = n if j % n == 0 else 0
        squares = n // 2 if (2 * j) % n == 0 else 0
        printed = (q * (q + 1) // 2) * (full * full - 2 * squares)
        exact = energies[IrrLabel("gl", "linear", (j,))]
        out.append(
            FormulaCheck(
                family="orbital",
                q=q,
                formula="linear-energy-display",
                row=f"linear({j})",
                hand_value=printed,
                exact_value=exact,
                agrees=printed == exact,
            )
        )
    return out


# ---------------------------------------------------------------------------
# the explicit graph


def _connection(space: CosetSpace) -> list[Mat2]:
    """One element of each left H-coset inside HzH and the diagonal HmH.

    A double coset HmH is the union of the left cosets hmH, so the |H|
    products hm meet every one of them.
    """
    group, q = space.group, space.q
    starts = [space.z] + [
        Mat2(space.rep_set[a], 0, 0, space.rep_set[b])
        for a in range(q + 1)
        for b in range(a + 1, q + 1)
    ]
    out = []
    for m in starts:
        cosets = {}
        for h in space.h_elements:
            hm = group.mul(h, m)
            cosets.setdefault(space.coset_index[hm], hm)
        out += cosets.values()
    return out


@lru_cache(maxsize=None)
def build_gamma(space: CosetSpace) -> Graph:
    """The graph on G/H joining rH ~ sH iff r^(-1)s lies in the edge cosets.

    The edge cosets are HzH together with H m H for the C(q+1, 2) diagonal
    double cosets, so the neighbours of rH are the cosets rdH for d in one
    element per left coset of that union; the pairing sends rH to (z r)H.
    Every coset is read literally off the enumerated group, with no reliance
    on the Frobenius invariant.  The degree is left to the cross-checks,
    which compare it with the top eigenvalue.
    """
    if not space.explicit:
        raise ValueError(
            "explicit adjacency needs the enumerated coset space; "
            f"q = {space.q} runs in period-sum-only mode (limit q <= {EXPLICIT_LIMIT})"
        )
    group = space.group
    minus_one = group.central_involution()
    z_squared = group.mul(space.z, space.z)
    if z_squared != minus_one:
        raise RuntimeError(
            f"build_gamma: z = {space.z} squares to {z_squared}, expected -I = {minus_one}"
        )
    import numpy as np

    adjacency = translation_adjacency(
        space.reps, space.coset_index, group.field, _connection(space)
    )
    asymmetric = np.argwhere(adjacency != adjacency.T)
    if len(asymmetric):
        i, j = asymmetric[0]
        raise RuntimeError(
            f"build_gamma: adjacency is not symmetric: entry ({i}, {j}) is "
            f"{adjacency[i, j]} but ({j}, {i}) is {adjacency[j, i]}"
        )
    partner = translation_partner(space.reps, space.coset_index, group.field, space.z)
    vertices = np.arange(len(partner))
    matching = bool((partner[partner] == vertices).all() and (partner != vertices).all())
    return Graph(adjacency, partner, {"involution_is_perfect_matching": matching})


# ---------------------------------------------------------------------------
# the certificate


def certify_orbital(rows: Sequence[SpectrumRow]) -> TransferCertificate:
    """Run the mod-4 transfer test for the pairing ``rH <-> (z r)H``."""
    return transfer_certificate(rows, "rH <-> (z r)H for every coset rH")
