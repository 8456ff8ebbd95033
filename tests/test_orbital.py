"""Tests for the GL(2, q^2) / GL(2, q) double-coset graph layer.

Frozen tables below were derived independently before implementation:
eigenvalue rows via hand evaluation of the transversal character sums,
counts via the group-order arithmetic, and the audit rows by evaluating
the hand-derived closed form exactly as printed.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    BruteField,
    _induced_coset_sum,
    _total,
    central_sign_via_char_value,
    cocycle_value,
    coset_action,
    coset_char_sum,
    dense_adjacency,
    dense_walk,
    double_coset_of,
    in_h,
    in_subfield,
    induced_energy_closed,
    linear_energy_closed,
    literal_connection,
    literal_coset_space,
    literal_double_coset,
    literal_orbital_adjacency,
    m_theta,
    p_theta_trace,
    spectrum_trace,
    subfield_matrices,
    translation_adjacency,
    translation_map_reference,
)
from pstwalk import cli, orbital
from pstwalk.cayley import make_family
from pstwalk.chars import CycSum, NonIntegralError, integer_part
from pstwalk.ctqw import pst_scan
from pstwalk.gf import make_field, make_tower
from pstwalk.groups import GLGroup, IrrLabel, Mat2
from pstwalk.orbital import (
    CosetSpace,
    build_coset_space,
    build_gamma,
    certify_orbital,
    coset_irreducibles,
    linear_energy_display_audit,
    linear_energy_display_checks,
    orbital_spectrum,
)
from pstwalk.scheme import Translates, VertexLookup

# ---------------------------------------------------------------------------
# frozen expectations

# (kind, params) -> (energy, sign, theta, multiplicity) at q = 3
Q3_ROWS = {
    ("linear", (0,)): (72, 1, 73, 1),
    ("linear", (2,)): (0, 1, 1, 1),
    ("linear", (4,)): (-24, 1, -23, 1),
    ("linear", (6,)): (0, 1, 1, 1),
    ("steinberg", (0,)): (12, 1, 13, 9),
    ("steinberg", (2,)): (0, 1, 1, 9),
    ("steinberg", (4,)): (-4, 1, -3, 9),
    ("steinberg", (6,)): (0, 1, 1, 9),
    ("principal", (0, 2)): (0, -1, -1, 10),
    ("principal", (0, 4)): (0, 1, 1, 10),
    ("principal", (0, 6)): (0, -1, -1, 10),
    ("principal", (2, 4)): (0, -1, -1, 10),
    ("principal", (2, 6)): (-12, 1, -11, 10),
    ("principal", (4, 6)): (0, -1, -1, 10),
    ("principal", (1, 5)): (0, -1, -1, 10),
    ("principal", (3, 7)): (0, -1, -1, 10),
}

# row -> (printed closed-form value, exact energy) at q = 3
Q3_DISPLAY_AUDIT = {
    "linear(0)": (336, 72),
    "linear(2)": (0, 0),
    "linear(4)": (-48, -24),
    "linear(6)": (0, 0),
}

Q3_DEGREE = 73
Q3_COSETS = 120
Q3_EDGES = 4380
Q3_DOUBLE_COSETS = 16

Q7_DEGREE = 1569
Q7_ROWS = 64
Q7_COSETS = 2800

# the prime powers q = 3 (mod 4) up to 103 (the certificate test's name keeps
# its older bound of 31)
ADMISSIBLE = (3, 7, 11, 19, 23, 27, 31, 43, 47, 59, 67, 71, 79, 83, 103)


@lru_cache(maxsize=None)
def space3():
    return build_coset_space(3)


def literal3():
    """The q = 3 space with G, H, the representatives and every element's coset listed."""
    return literal_coset_space(3)


@lru_cache(maxsize=None)
def graph3():
    return build_gamma(space3())


def matching(g):
    """The pairing as a 0/1 matrix: row i marks partner[i]."""
    return np.eye(len(g.partner), dtype=np.int64)[g.partner]


def transfer_pairs(g):
    """The pairs (i, partner[i]), each listed once."""
    return [(i, int(j)) for i, j in enumerate(g.partner) if i < j]


def anchors(sp):
    """The vertices of the cosets H and zH."""
    return sp.coset_index[sp.group.identity()], sp.coset_index[sp.z]


@lru_cache(maxsize=None)
def rows_for(q):
    return orbital_spectrum(q)


@pytest.fixture
def release_tables():
    """Drop the cached coset spaces, groups and fields a test leaves behind.

    At q = 31 the cached F_{q^4} tables take over 100 MB.
    """
    yield
    for cache in (build_coset_space, make_family, make_tower, make_field):
        cache.cache_clear()


@lru_cache(maxsize=None)
def invariant_fibers():
    """Group elements fibered by the Frobenius double-coset invariant."""
    sp = literal3()
    fibers = {}
    for x in sp.elements:
        fibers.setdefault(double_coset_of(sp, x), []).append(x)
    return fibers


def diag(sp, a, b):
    return Mat2(sp.rep_set[a], 0, 0, sp.rep_set[b])


def rows_by_label(rows):
    return {
        (r.irr.kind, r.irr.params): (r.theta - r.sign, r.sign, r.theta, r.multiplicity)
        for r in rows
    }


# ---------------------------------------------------------------------------
# coset space


def test_coset_space_counts():
    sp = literal3()
    assert sp.explicit
    assert sp.n_cosets == Q3_COSETS
    assert len(sp.reps) == Q3_COSETS
    assert sp.hsize == 48
    assert len(sp.h_elements) == 48
    assert len(sp.elements) == 5760


def test_h_is_the_subfield_subgroup():
    """H, the embedded GL(2, 3), is every matrix over the Frobenius-fixed F_3."""
    sp = literal3()
    assert set(sp.h_elements) == subfield_matrices(sp)
    assert len(set(sp.h_elements)) == sp.hsize


def test_coset_space_vertex_anchors():
    sp = literal3()
    h_vertex, z_vertex = anchors(sp)
    assert h_vertex == 0  # the identity is enumerated first
    assert h_vertex != z_vertex
    G = sp.group
    assert in_h(sp, sp.reps[h_vertex])
    assert in_h(sp, G.mul(G.inv(sp.z), sp.reps[z_vertex]))


def test_zeta_is_smallest_order_four_scalar():
    sp = space3()
    F = sp.group.field
    assert BruteField(F.p, F.modulus).order(sp.zeta) == 4
    assert F.dlog(sp.zeta) == (sp.group.q - 1) // 4
    square = F.mul(sp.zeta, sp.zeta)
    assert square == F.neg(1)


def test_z_squared_lies_in_h():
    sp = space3()
    zz = sp.group.mul(sp.z, sp.z)
    assert in_h(sp, zz)
    assert not in_h(sp, sp.z)


def test_gamma_names_a_z_that_does_not_square_to_minus_identity():
    sp = CosetSpace(**{**space3()._asdict(), "z": Mat2(1, 0, 0, 1)})
    with pytest.raises(RuntimeError) as err:
        build_gamma(sp)
    message = str(err.value)
    assert message.startswith("build_gamma: ")
    assert "z = Mat2(a=1, b=0, c=0, d=1) squares to Mat2(a=1, b=0, c=0, d=1)" in message
    assert f"expected -I = {sp.group.central_involution()}" in message


def test_z_normalizes_h():
    sp = literal3()
    G = sp.group
    zinv = G.inv(sp.z)
    conjugated = {G.mul(G.mul(sp.z, h), zinv) for h in sp.h_elements}
    assert conjugated == set(sp.h_elements)


def test_representatives_pairwise_distinct_cosets():
    sp = literal3()
    G = sp.group
    inverses = [G.inv(r) for r in sp.reps]
    for i, r_inv in enumerate(inverses):
        for j in range(i + 1, len(sp.reps)):
            assert not in_h(sp, G.mul(r_inv, sp.reps[j]))


def test_rep_set_is_subfield_transversal():
    sp = space3()
    F = sp.group.field
    q = sp.q
    assert len(sp.rep_set) == q + 1
    seen = {F.dlog(x) % (q + 1) for x in sp.rep_set}
    assert seen == set(range(q + 1))


@pytest.mark.parametrize("q", [1, 5, 9, 13])
def test_non_admissible_q_rejected(q):
    with pytest.raises(ValueError, match=r"q = 3 \(mod 4\)"):
        build_coset_space(q)


def test_larger_q_runs_character_sum_only():
    sp = build_coset_space(7)
    assert not sp.explicit
    literal = literal_coset_space(7)
    assert literal.reps is None and literal.elements is None
    assert sp.n_cosets == Q7_COSETS
    with pytest.raises(ValueError, match="period-sum-only"):
        build_gamma(sp)


# ---------------------------------------------------------------------------
# the Frobenius double-coset invariant


def test_invariant_of_subgroup_elements_is_identity_class():
    sp = literal3()
    G = sp.group
    identity_class = G.classify(G.identity())
    for h in sp.h_elements[::7]:
        assert double_coset_of(sp, h) == identity_class


def test_invariant_of_z_is_class_of_minus_identity():
    sp = space3()
    F = sp.group.field
    m = F.neg(1)
    assert double_coset_of(sp, sp.z) == sp.group.classify(Mat2(m, 0, 0, m))


def test_invariant_of_diagonal_reps():
    sp = space3()
    G, F = sp.group, sp.group.field
    for a, b in itertools.combinations(range(4), 2):
        m = diag(sp, a, b)
        x, y = m.a, m.d
        image = Mat2(
            F.div(F.frobenius(x, 1), x), 0, 0, F.div(F.frobenius(y, 1), y)
        )
        assert double_coset_of(sp, m) == G.classify(image)


def test_invariant_partition_matches_literal_double_cosets():
    """Full 5760-element check: fibers of the invariant are literal HxH."""
    sp = literal3()
    fibers = invariant_fibers()
    assert sum(len(v) for v in fibers.values()) == 5760
    for members in fibers.values():
        assert literal_double_coset(sp, members[0]) == frozenset(members)


def test_rank_equals_number_of_irreducibles():
    assert len(invariant_fibers()) == Q3_DOUBLE_COSETS
    assert len(coset_irreducibles(3)) == Q3_DOUBLE_COSETS


# ---------------------------------------------------------------------------
# the irreducibles of the coset module


def test_coset_irreducibles_q3_frozen():
    labels = [(irr.kind, irr.params) for irr in coset_irreducibles(3)]
    assert labels == [
        ("linear", (0,)),
        ("linear", (2,)),
        ("linear", (4,)),
        ("linear", (6,)),
        ("steinberg", (0,)),
        ("steinberg", (2,)),
        ("steinberg", (4,)),
        ("steinberg", (6,)),
        ("principal", (0, 2)),
        ("principal", (0, 4)),
        ("principal", (0, 6)),
        ("principal", (2, 4)),
        ("principal", (2, 6)),
        ("principal", (4, 6)),
        ("principal", (1, 5)),
        ("principal", (3, 7)),
    ]


def test_coset_irreducibles_are_group_irreducibles():
    sp = space3()
    all_irr = set(sp.group.irreducibles())
    assert set(coset_irreducibles(3)) <= all_irr


def test_component_dimensions_sum_to_coset_count():
    sp = space3()
    assert sum(sp.group.degree(irr) for irr in coset_irreducibles(3)) == Q3_COSETS
    sp7 = build_coset_space(7)
    assert sum(sp7.group.degree(irr) for irr in coset_irreducibles(7)) == Q7_COSETS


def test_h_multiplicity_matches_literal_inner_products():
    """All 80 irreducibles of GL(2,9): restriction to H is multiplicity free,
    the constituents are exactly the tabulated ones, and no cuspidal
    character appears."""
    sp = literal3()
    G = sp.group
    roster = set(coset_irreducibles(3))
    h_classes = [G.classify(h) for h in sp.h_elements]
    for irr in G.irreducibles():
        acc = CycSum.zero(G.root_order)
        for cls in h_classes:
            acc = acc + G.char_value(irr, cls)
        total = integer_part(acc)
        assert total % sp.hsize == 0
        literal = total // sp.hsize
        assert literal in (0, 1)
        assert (irr in roster) == (literal == 1)
        if irr.kind == "cuspidal":
            assert literal == 0


# ---------------------------------------------------------------------------
# the summed induced representation


def test_m_theta_trivial_entries():
    sp = space3()
    M = m_theta(sp, (0, 0))
    # both points on the subfield line: the triangular-subgroup order
    assert integer_part(M[0][0]) == 12
    assert integer_part(M[1][0]) == 12
    oo = sp.group.field.q
    assert integer_part(M[oo][0]) == 12
    # mixed pairs vanish
    outside = [x for x in range(oo) if not in_subfield(sp, x)]
    assert integer_part(M[0][outside[0]]) == 0
    assert integer_part(M[outside[0]][oo]) == 0
    # both points outside: the torus order
    assert integer_part(M[outside[0]][outside[1]]) == 8


def test_m_theta_nontrivial_blocks_vanish_off_kernel():
    sp = space3()
    M = m_theta(sp, (1, 2))  # neither kernel condition holds
    size = sp.group.field.q + 1
    for row in range(size):
        for col in range(size):
            assert integer_part(M[row][col]) == 0


def test_trace_of_m_theta_reproduces_inner_product_display():
    """<1, I[theta]|_H> from Trace(M_theta)/|H|: 2 / 1 / 1 / 0 by case."""
    sp = space3()
    expected = {
        (0, 0): 2,  # equal pair, trivial on the subfield units
        (2, 2): 2,
        (2, 4): 1,  # distinct pair, both trivial on the subfield units
        (0, 6): 1,
        (1, 5): 1,  # conjugate-inverse pair
        (3, 7): 1,
        (0, 1): 0,
        (1, 2): 0,
        (0, 3): 0,
    }
    for theta, want in expected.items():
        M = m_theta(sp, theta)
        tr = CycSum.zero(sp.group.root_order)
        for a in range(len(M)):
            tr = tr + M[a][a]
        value = integer_part(tr)
        assert value % sp.hsize == 0
        assert value // sp.hsize == want, theta


def test_trace_identity_against_literal_monomial_sums():
    """Tr(P(g) M_theta) equals the literal sum of Tr(P(gh)) over h in H."""
    sp = literal3()
    G = sp.group
    oo = G.field.q
    samples_g = [sp.reps[17], sp.reps[63], diag(sp, 1, 2), sp.z]
    for theta in [(0, 0), (2, 4), (1, 5), (3, 3), (1, 2)]:
        M = m_theta(sp, theta)
        for g in samples_g:
            product = CycSum.zero(G.root_order)
            for alpha in range(oo + 1):
                sigma, t1, t2 = coset_action(sp, g, alpha)
                product = product + cocycle_value(sp, theta, t1, t2) * M[alpha][sigma]
            literal = CycSum.zero(G.root_order)
            for h in sp.h_elements:
                literal = literal + p_theta_trace(sp, theta, G.mul(g, h))
            assert (product - literal).is_zero(), (theta, g)


def test_p_theta_trace_at_identity_is_line_size():
    sp = space3()
    assert integer_part(p_theta_trace(sp, (0, 0), sp.group.identity())) == 10


# ---------------------------------------------------------------------------
# coset character sums


def test_coset_sums_match_literal_character_table_sums():
    """Closed forms against literal sums over all 48 coset elements, for
    every tabulated character and every supported coset at q = 3.  On the
    central coset zH the literal sum is the involution sign times |H| for
    the module's characters and 0 for every other irreducible."""
    sp = literal3()
    G = sp.group
    roster = set(coset_irreducibles(3))

    def literal(irr, g):
        acc = CycSum.zero(G.root_order)
        for h in sp.h_elements:
            acc = acc + G.char_value(irr, G.classify(G.mul(g, h)))
        return acc

    cosets = [diag(sp, a, b) for a, b in itertools.permutations(range(4), 2)]
    for irr in G.irreducibles():
        central = integer_part(literal(irr, sp.z))
        if irr not in roster:
            assert central == 0, irr
            continue
        assert central == G.central_sign(irr, sp.zeta) * sp.hsize, irr
        for g in cosets:
            assert (coset_char_sum(sp, irr, g) - literal(irr, g)).is_zero(), (irr, g)



@pytest.mark.parametrize("q", [3, 7, 11, 19, 23])
def test_orbital_signs_match_the_char_value_route(q):
    """The sign at the order-4 scalar from the central form, against chi(zeta I) as a CycSum."""
    sp = build_coset_space(q)
    for irr in coset_irreducibles(q):
        assert sp.group.central_sign(irr, sp.zeta) == central_sign_via_char_value(
            sp.group, irr, sp.zeta
        ), irr


def test_trivial_induced_sum_is_56():
    sp = space3()
    for a, b in itertools.combinations(range(4), 2):
        assert integer_part(_induced_coset_sum(sp, (0, 0), diag(sp, a, b))) == 56
    assert 2 * 12 + 2 * 8 * 2 == 56


def test_induced_pair_matches_trace_path_everywhere():
    """The diagonal closed form against Tr(P(m) M_theta) for all 64 pairs."""
    sp = space3()
    G = sp.group
    oo = G.field.q
    ms = [diag(sp, a, b) for a, b in itertools.permutations(range(4), 2)]
    for i in range(8):
        for j in range(8):
            M = m_theta(sp, (i, j))
            for g in ms:
                product = CycSum.zero(G.root_order)
                for alpha in range(oo + 1):
                    sigma, t1, t2 = coset_action(sp, g, alpha)
                    product = product + cocycle_value(sp, (i, j), t1, t2) * M[alpha][sigma]
                assert (_induced_coset_sum(sp, (i, j), g) - product).is_zero(), (i, j, g)


def test_linear_sum_is_determinant_value_times_group_order():
    sp = space3()
    F = sp.group.field
    n = sp.group.q - 1
    root = sp.group.root_order
    m = diag(sp, 0, 1)
    d = (F.dlog(m.a) + F.dlog(m.d)) % n
    for j in (0, 2, 4, 6):
        value = coset_char_sum(sp, IrrLabel("gl", "linear", (j,)), m)
        want = CycSum.monomial(root, (j * d * (root // n)) % root) * 48
        assert (value - want).is_zero()


def test_coset_sum_rejects_unsupported_cosets():
    sp = space3()
    F = sp.group.field
    trivial = IrrLabel("gl", "linear", (0,))
    with pytest.raises(ValueError, match="tabulated only"):
        coset_char_sum(sp, trivial, Mat2(1, 1, 0, 1))
    with pytest.raises(ValueError, match="tabulated only"):
        coset_char_sum(sp, trivial, sp.z)
    # diagonal but both entries in one subfield coset
    same = Mat2(1, 0, 0, F.exp[4])
    with pytest.raises(ValueError, match="distinct subfield cosets"):
        coset_char_sum(sp, trivial, same)


def test_coset_sum_rejects_cuspidal_labels():
    sp = space3()
    cuspidal = next(i for i in sp.group.irreducibles() if i.kind == "cuspidal")
    with pytest.raises(ValueError, match="no closed-form coset sum"):
        coset_char_sum(sp, cuspidal, diag(sp, 0, 1))


# ---------------------------------------------------------------------------
# period sums against the coset sums


def coset_sum_total(sp, irr):
    """The oracle's sum of chi(mH) over the (q+1) q ordered diagonal pairs."""
    q = sp.q
    pairs = [diag(sp, a, b) for a, b in itertools.permutations(range(q + 1), 2)]
    return integer_part(_total(sp.group.root_order, (coset_char_sum(sp, irr, m) for m in pairs)))


@pytest.mark.parametrize("q", [3, 7, 11])
def test_period_totals_match_coset_sums_on_every_row(q):
    sp = build_coset_space(q)
    for irr in coset_irreducibles(q):
        assert orbital._energy_total(sp, irr) == coset_sum_total(sp, irr), irr


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_period_totals_match_coset_sums(data):
    """Module rows and arbitrary principal pairs, at q in {3, 7, 11, 19}.

    An arbitrary pair (i, j) exercises the zero rows too: a pair not
    trivial on F_q^x must sum to 0 over the diagonal cosets.
    """
    q = data.draw(st.sampled_from([3, 7, 11, 19]), label="q")
    sp = build_coset_space(q)
    n = q * q - 1
    index = st.one_of(st.integers(0, n - 1), st.integers(0, q).map(lambda u: u * (q - 1)))
    irr = data.draw(
        st.one_of(
            st.sampled_from(coset_irreducibles(q)),
            st.builds(lambda i, j: IrrLabel("gl", "principal", (i, j)), index, index),
        ),
        label="irr",
    )
    assert orbital._energy_total(sp, irr) == coset_sum_total(sp, irr)


def test_period_total_refuses_rows_without_a_period_sum():
    sp = build_coset_space(7)
    with pytest.raises(NonIntegralError, match=r"linear\(5,\) of gl\(2,49\)"):
        orbital._energy_total(sp, IrrLabel("gl", "linear", (5,)))
    with pytest.raises(ValueError, match="no closed-form coset sum for a cuspidal"):
        orbital._energy_total(sp, IrrLabel("gl", "cuspidal", (1,)))


def test_spectrum_builds_no_label_table(monkeypatch, release_tables):
    """The orbital path reads no class or irreducible label of GL(2, q^2),
    and builds no tower F_{q^2} < F_{q^4} for it."""

    def refuse(self):
        raise AssertionError(f"label tables of {self!r} were built")

    monkeypatch.setattr(GLGroup, "_build_tables", refuse)
    build_coset_space.cache_clear()
    make_family.cache_clear()
    rows = orbital_spectrum(11)
    audit = list(linear_energy_display_checks(11, rows))
    assert len(rows) == len(coset_irreducibles(11))
    assert len(audit) == 12
    assert linear_energy_display_audit(11, rows)
    assert "tower" not in vars(build_coset_space(11).group)


# ---------------------------------------------------------------------------
# the spectrum


def test_spectrum_q3_frozen_rows():
    assert rows_by_label(rows_for(3)) == Q3_ROWS


def test_spectrum_rows_internally_consistent():
    for q in (3, 7):
        rows = rows_for(q)
        for r in rows:
            assert r.sign in (-1, 1)
            assert (r.theta - r.sign) % 4 == 0
        assert spectrum_trace(rows) == 0


def test_spectrum_q3_aggregates():
    rows = rows_for(3)
    assert sum(r.multiplicity for r in rows) == Q3_COSETS
    assert max(r.theta for r in rows) == Q3_DEGREE


def test_spectrum_q7_aggregates():
    rows = rows_for(7)
    assert len(rows) == Q7_ROWS
    assert sum(r.multiplicity for r in rows) == Q7_COSETS
    assert max(r.theta for r in rows) == Q7_DEGREE


def test_spectrum_q7_paired_transversal_rows():
    """Principal rows with indices summing to 0 mod q+1 carry energy -q(q+1)."""
    rows = rows_by_label(rows_for(7))
    for a, b in [(1, 7), (2, 6), (3, 5)]:
        energy, sign, theta, mult = rows[("principal", (6 * a, 6 * b))]
        assert energy == -56
        assert sign == 1
        assert theta == -55
        assert mult == 50


def test_energies_match_kernel_form_closed_expressions():
    for q in (3, 7):
        for r in rows_for(q):
            kind, params = r.irr.kind, r.irr.params
            if kind == "linear":
                value = linear_energy_closed(q, params[0])
            elif kind == "steinberg":
                j = params[0]
                value = induced_energy_closed(q, (j, j)) - linear_energy_closed(q, j)
            else:
                value = induced_energy_closed(q, params)
            assert value == r.theta - r.sign, r.irr


def test_trivial_energy_is_diagonal_part_degree():
    rows = rows_by_label(rows_for(3))
    assert rows[("linear", (0,))][0] == Q3_DEGREE - 1 == 72
    assert rows[("steinberg", (0,))][0] == 84 - 72 == 12


# ---------------------------------------------------------------------------
# the hand-derived display for linear energies (audit oracle)


def test_linear_energy_display_audit_frozen_q3():
    audit = list(linear_energy_display_checks(3, rows_for(3)))
    assert {fc.row: (fc.hand_value, fc.exact_value) for fc in audit} == Q3_DISPLAY_AUDIT
    assert all(fc.agrees == (fc.hand_value == fc.exact_value) for fc in audit)
    assert [fc.agrees for fc in audit] == [False, True, False, True]
    for fc in audit:
        assert fc.family == "orbital"
        assert fc.formula == "linear-energy-display"
        assert fc.q == 3
        # the printed form still satisfies the divisibility conclusion
        assert fc.hand_value % 4 == 0


def test_linear_energy_display_disagrees_at_q7_too():
    audit = {fc.row: fc for fc in linear_energy_display_checks(7, rows_for(7))}
    trivial = audit["linear(0)"]
    assert not trivial.agrees
    assert trivial.exact_value == 1568
    assert trivial.hand_value != trivial.exact_value
    assert trivial.hand_value % 4 == 0


# ---------------------------------------------------------------------------
# the explicit graph


def test_graph_shape_and_degree():
    g = graph3()
    a = dense_adjacency(g)
    assert a.shape == (Q3_COSETS, Q3_COSETS)
    assert (a.sum(axis=1) == Q3_DEGREE).all()
    assert a.sum() // 2 == Q3_EDGES
    assert np.array_equal(a, a.T)
    assert np.trace(a) == 0


def test_graph_h_adjacent_to_zh():
    g = graph3()
    h_vertex, z_vertex = anchors(literal3())
    assert dense_adjacency(g)[h_vertex, z_vertex] == 1
    assert g.partner[h_vertex] == z_vertex
    assert g.checks == {"involution_is_perfect_matching": True}


def test_the_array_coset_labels_match_the_literal_loop():
    """G as a lex-ordered array, each coset keyed by its least product g h over H,
    against the literal loop of ``oracles.literal_coset_space``: the same
    representatives in the same order, the same vertex for all 5760 elements, the
    same connection elements, partner and symmetry, and the same graph.edges bytes."""
    space, literal = space3(), literal3()
    G = space.group
    elements = orbital._matrices(G.field, range(9))
    assert [Mat2(*g) for g in elements.tolist()] == list(literal.elements)
    graph = graph3()
    lookup = graph.translates.lookup
    reps = np.stack([lookup.vectors[lookup.top], lookup.vectors[lookup.bottom]], axis=1)
    assert reps.tolist() == [[r.a * 9 + r.b, r.c * 9 + r.d] for r in literal.reps]
    keys = np.array([[g.a * 9 + g.b for g in literal.elements], [g.c * 9 + g.d for g in literal.elements]])
    assert lookup.at(keys).tolist() == [literal.coset_index[g] for g in literal.elements]
    connection = literal_connection(literal)
    assert graph.translates.connection == connection
    one, s = G.identity(), G.walk_symmetry()[0]
    for got, (left, right) in [(graph.partner, (one, space.z)), (graph.symmetry, (s, one))]:
        assert np.array_equal(got, translation_map_reference(literal.reps, literal.coset_index, G.mul, left, right))
    lookup = VertexLookup(literal.reps, list(literal.coset_index), list(literal.coset_index.values()), G.field)
    edges = b"".join(cli._edge_blocks(graph.translates))
    assert edges == b"".join(cli._edge_blocks(Translates(lookup, connection)))
    upper = np.triu(literal_orbital_adjacency(literal)[0], 1)
    assert edges == "".join(f"{i} {j}\n" for i, j in zip(*np.nonzero(upper))).encode()
    assert hashlib.sha256(edges).hexdigest() == "28b13e96f52816c714f8f046ac8053fbd0879a5ffad1a9af6863237a84c7f36d"


def test_an_asymmetric_coset_graph_is_refused_naming_an_entry(monkeypatch, capsys):
    """Without the double coset of diag(1, gen) (its inverse is that of diag(1, gen^3))
    the connection is still a union of double cosets, so rH -> s rH stays an
    automorphism, but A is not symmetric: the cross-checks refuse the stack with
    exit 3, not a traceback, naming the first entry (i, j) at which the dense
    reference differs from its transpose."""
    space = space3()
    one, gen, gen3 = space.rep_set[0], space.rep_set[1], space.rep_set[3]
    dropped = double_coset_of(space, Mat2(one, 0, 0, gen))
    assert dropped != double_coset_of(space, Mat2(one, 0, 0, gen3))
    kept = [d for d in graph3().translates.connection if double_coset_of(space, d) != dropped]
    monkeypatch.setattr(orbital, "_connection", lambda *_: kept)
    orbital.build_gamma.cache_clear()
    try:
        assert cli.main(["orbital", "--q", "3"]) == cli.EXIT_CROSS_CHECK
    finally:
        orbital.build_gamma.cache_clear()
    entry = (
        r"cross-check simulation: skipped: adjacency must be symmetric: "
        r"entry \((\d+), (\d+)\) is (\d+) but \(\2, \1\) is (\d+)"
    )
    i, j, a_ij, a_ji = map(int, re.search(rf"^{entry}$", capsys.readouterr().out, re.M).groups())
    literal = literal3()
    lookup = VertexLookup(literal.reps, list(literal.coset_index), list(literal.coset_index.values()), space.group.field)
    dense = translation_adjacency(lookup, kept)
    assert [i, j] == np.argwhere(dense != dense.T)[0].tolist()
    assert (dense[i, j], dense[j, i]) == (a_ij, a_ji)


def test_involution_part_is_fixed_point_free_matching():
    g = graph3()
    involution = matching(g)
    n = involution.shape[0]
    assert np.trace(involution) == 0
    assert np.array_equal(involution @ involution, np.eye(n, dtype=np.int64))
    pairs = transfer_pairs(g)
    assert len(pairs) == n // 2
    assert anchors(literal3()) in pairs


def test_involution_edges_are_inside_the_graph():
    g = graph3()
    assert ((dense_adjacency(g) - matching(g)) >= 0).all()


def test_numeric_spectrum_matches_character_rows():
    g = graph3()
    exact = sorted(r.theta for r in rows_for(3) for _ in range(r.multiplicity))
    numeric = np.linalg.eigvalsh(dense_adjacency(g).astype(float))
    assert np.abs(numeric - np.array(exact, dtype=float)).max() < 1e-8


def test_numeric_diagonal_part_matches_energies():
    """The graph minus its matching has the energies as its spectrum."""
    g = graph3()
    exact = sorted(r.theta - r.sign for r in rows_for(3) for _ in range(r.multiplicity))
    numeric = np.linalg.eigvalsh((dense_adjacency(g) - matching(g)).astype(float))
    assert np.abs(numeric - np.array(exact, dtype=float)).max() < 1e-8


def test_diagonal_part_row_sum_is_trivial_energy():
    g = graph3()
    d = dense_adjacency(g) - matching(g)
    assert (d.sum(axis=1) == 72).all()


# ---------------------------------------------------------------------------
# certification


def test_certificate_q3():
    cert = certify_orbital(rows_for(3))
    assert cert.ok
    assert cert.degree == Q3_DEGREE
    assert cert.residue == 1
    assert cert.gap == 2
    assert cert.connected is True
    assert math.isclose(cert.time, math.pi / 2)
    assert "pi/2" in cert.reason
    assert cert.transfer_rule == "rH <-> (z r)H for every coset rH"


@pytest.mark.parametrize("q", ADMISSIBLE)
def test_certificate_every_admissible_q_to_31(q, release_tables):
    rows = orbital_spectrum(q)
    assert all((r.theta - r.sign) % 4 == 0 for r in rows)
    assert certify_orbital(rows).ok


def test_admissible_list_is_complete():
    for q in range(3, ADMISSIBLE[-1] + 1, 4):
        if q in ADMISSIBLE:
            continue
        with pytest.raises(ValueError):
            build_coset_space(q)


def test_certificate_q7_character_sum_mode():
    assert not build_coset_space(7).explicit
    cert = certify_orbital(rows_for(7))
    assert cert.ok
    assert cert.degree == Q7_DEGREE
    assert cert.residue == 1
    assert cert.gap == 2
    assert cert.connected is True


def test_walk_reaches_every_matched_pair():
    g = graph3()
    report = pst_scan(dense_walk(dense_adjacency(g)), transfer_pairs(g))
    assert report.ok
    assert math.isclose(report.time, math.pi / 2)
    assert report.min_fidelity >= 1 - 1e-9
    assert report.pairs_checked == Q3_COSETS // 2


def test_congruence_sides_q3():
    residue = Q3_DEGREE % 4
    assert residue == 1
    for r in rows_for(3):
        want = residue if r.sign == 1 else (residue + 2) % 4
        assert r.theta % 4 == want
