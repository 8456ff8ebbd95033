"""Acceptance gate: one test per product criterion, at stated tolerances.

Each test is self-contained and finishes with a wall-clock bound where
the criterion states one.  A PASS/FAIL line per criterion is printed in
the terminal summary (see conftest.py).
"""

from __future__ import annotations

import math
import time

import numpy as np

from oracles import (
    dense_adjacency,
    dense_walk,
    double_coset_of,
    idempotent,
    integer_rows_with_signs,
    literal_coset_space,
    literal_double_coset,
    pst_test,
    relation_matrices,
    scheme_axiom_witness,
    sl_order_based_elements,
)
from pstwalk import orbital
from pstwalk.cayley import (
    SMALL_ORDERS,
    STANDARD,
    analyze,
    closed_form_checks,
    component_count,
    explicit_graph,
    make_family,
)
from pstwalk.chars import CycSum
from pstwalk.ctqw import FIDELITY_TOL, graph_stack, pst_scan
from pstwalk.scheme import ConjugacyScheme

SPECTRUM_TOL = 1e-8


def spectrum_deviation(adjacency, rows) -> float:
    """Largest gap between the numeric spectrum and exact (theta, mult) rows."""
    exact = sorted(theta for theta, mult in rows for _ in range(mult))
    numeric = np.linalg.eigvalsh(np.asarray(adjacency, dtype=float))
    return float(np.abs(numeric - np.array(exact, dtype=float)).max())


def set_members(family, conn) -> set:
    return {x for lab in conn.labels for x in family.class_elements(lab)}


def transfer_pairs(graph) -> list[tuple[int, int]]:
    """The pairs (i, partner[i]) of an explicit graph, each listed once."""
    return [(i, int(j)) for i, j in enumerate(graph.partner) if i < j]


def run_walk(adjacency, pairs):
    scan = pst_scan(dense_walk(adjacency), pairs)
    assert scan.ok, scan.reason
    assert scan.min_fidelity >= 1 - FIDELITY_TOL
    return scan


def test_criterion_1_gl3_standard():
    start = time.perf_counter()
    family, conn, rows, cert, _ = analyze("gl", 3)

    members = set_members(family, conn)
    assert conn.degree == len(members) == 46
    everything = set(family.enumerate_group())
    assert members == everything - {family.identity(), family.central_involution()}

    counts: dict[int, int] = {}
    for r in rows:
        counts[r.theta] = counts.get(r.theta, 0) + r.multiplicity
    assert counts == {46: 1, 0: 24, -2: 23}

    assert cert.ok, cert.reason
    assert cert.residue == 2 and cert.gap == 2
    assert math.isclose(cert.time, math.pi / 2)

    graph = explicit_graph(family, conn)
    adjacency = dense_adjacency(graph)
    assert spectrum_deviation(adjacency, [(r.theta, r.multiplicity) for r in rows]) <= SPECTRUM_TOL

    pairs = transfer_pairs(graph)
    assert sorted(v for p in pairs for v in p) == list(range(48))
    scan = run_walk(adjacency, pairs)
    assert math.isclose(scan.time, math.pi / 2)

    assert time.perf_counter() - start < 5.0


def test_criterion_2_gl3_small_orders():
    start = time.perf_counter()
    family, conn, rows, cert, _ = analyze("gl", 3, SMALL_ORDERS)

    members = set_members(family, conn)
    central = {family.identity(), family.central_involution()}
    assert central.isdisjoint(members)

    def element_order(g):
        k, acc = 1, g
        while acc != family.identity():
            acc = family.mul(acc, g)
            k += 1
        return k

    assert {element_order(x) for x in members} == {2, 3, 4, 6}

    assert cert.ok, cert.reason
    for r in rows:
        want = cert.residue if r.sign == 1 else (cert.residue + 2) % 4
        assert r.theta % 4 == want

    graph = explicit_graph(family, conn)
    assert cert.connected and component_count(graph_stack(graph)[1]) == 1
    run_walk(dense_adjacency(graph), transfer_pairs(graph))

    assert time.perf_counter() - start < 5.0


def test_criterion_3_gl5():
    start = time.perf_counter()
    family, conn, rows, cert, _ = analyze("gl", 5)

    graph = explicit_graph(family, conn)
    adjacency = dense_adjacency(graph)
    assert len(adjacency) == 480
    members = set_members(family, conn)
    assert conn.degree == len(members) == 286

    assert all(isinstance(r.theta, int) for r in rows)
    assert cert.ok, cert.reason
    assert cert.residue == 2
    for r in rows:
        assert r.theta % 4 == (2 if r.sign == 1 else 0)

    linear = [c for c in closed_form_checks(family, conn, rows) if c.formula == "linear"]
    assert len(linear) == 4 and all(c.agrees for c in linear)

    assert spectrum_deviation(adjacency, [(r.theta, r.multiplicity) for r in rows]) <= SPECTRUM_TOL

    all_pairs = transfer_pairs(graph)
    identity_at = family.enumerate_group().index(family.identity())
    sample = [p for p in all_pairs if min(p) < 16 or identity_at in p]
    assert sample
    run_walk(adjacency, sample)

    assert time.perf_counter() - start < 60.0


def test_criterion_4_sl():
    start = time.perf_counter()
    for q in (3, 5):
        family, conn, rows, cert, _ = analyze("sl", q)
        assert conn.degree == 1 + 2 * (q * q - 1)

        members = frozenset(set_members(family, conn))
        assert members == sl_order_based_elements(family)

        kinds = {r.irr.kind for r in rows}
        assert {"principal_half", "cuspidal_half"} <= kinds
        assert cert.ok, cert.reason
        for r in rows:
            assert r.theta % 4 == (1 if r.sign == 1 else 3)

        audit = list(closed_form_checks(family, conn, rows))
        assert audit and all(c.formula == "involution-ratio" for c in audit)
        assert all(c.agrees for c in audit)

        graph = explicit_graph(family, conn)
        run_walk(dense_adjacency(graph), transfer_pairs(graph))

    assert time.perf_counter() - start < 30.0


def test_criterion_5_gu():
    start = time.perf_counter()
    expected_order = {3: 96, 5: 720}
    for q in (3, 5):
        family, conn, rows, cert, _ = analyze("gu", q)
        assert len(list(family.enumerate_group())) == expected_order[q]

        kinds = {r.irr.kind for r in rows}
        assert {"cuspidal", "principal"} <= kinds
        assert cert.ok, cert.reason
        assert cert.residue == 2
        for r in rows:
            assert r.theta % 4 == (2 if r.sign == 1 else 0)

        if q == 3:
            members = set_members(family, conn)
            assert conn.degree == len(members) == 62

            audit = closed_form_checks(family, conn, rows)
            bad_linear = {c.row for c in audit if c.formula == "linear" and not c.agrees}
            assert bad_linear == {"linear(0)", "linear(2)"}

            graph = explicit_graph(family, conn)
            run_walk(dense_adjacency(graph), transfer_pairs(graph))

    assert time.perf_counter() - start < 60.0


def test_criterion_6_orbital_q3():
    start = time.perf_counter()
    space = orbital.build_coset_space(3)
    assert space.n_cosets == 120
    literal = literal_coset_space(3)

    fibers: dict = {}
    for x in literal.elements:
        fibers.setdefault(double_coset_of(space, x), []).append(x)
    assert sum(len(v) for v in fibers.values()) == 5760
    for group_members in fibers.values():
        assert literal_double_coset(literal, group_members[0]) == frozenset(group_members)

    graph = orbital.build_gamma(space)
    n = len(graph.partner)
    involution = np.eye(n, dtype=np.int64)[graph.partner]
    assert np.trace(involution) == 0
    assert np.array_equal(involution @ involution, np.eye(n, dtype=np.int64))

    rows = orbital.orbital_spectrum(3)
    assert all(isinstance(r.theta - r.sign, int) and (r.theta - r.sign) % 4 == 0 for r in rows)

    deviation = spectrum_deviation(dense_adjacency(graph), [(r.theta, r.multiplicity) for r in rows])
    assert deviation <= SPECTRUM_TOL

    h_vertex = literal.coset_index[space.group.identity()]
    assert literal.coset_index[space.z] == graph.partner[h_vertex]
    run_walk(dense_adjacency(graph), [(h_vertex, int(graph.partner[h_vertex]))])

    disagreeing = {c.row for c in orbital.linear_energy_display_checks(3, rows) if not c.agrees}
    assert disagreeing == {"linear(0)", "linear(4)"}
    assert orbital.certify_orbital(rows).ok

    assert time.perf_counter() - start < 120.0


def test_criterion_7_orbital_q7():
    start = time.perf_counter()
    rows = orbital.orbital_spectrum(7)
    assert len(rows) == 64
    assert all(isinstance(r.theta - r.sign, int) and (r.theta - r.sign) % 4 == 0 for r in rows)
    cert = orbital.certify_orbital(rows)
    assert cert.ok, cert.reason
    assert not orbital.build_coset_space(7).explicit
    assert time.perf_counter() - start < 60.0


def test_criterion_8_scheme_core():
    family = make_family("gl", 3)
    sch = ConjugacyScheme(family)
    assert scheme_axiom_witness(relation_matrices(sch)) is None

    # the class-sum/idempotent eigenvalue relation, in exact arithmetic:
    # chi(1) sum_{x in C} chi(u x^-1) = |C| chi(rep(C)^-1) chi(u), a class
    # function of u, so one u per class checks the operator identity
    for lab in family.classes():
        elements = family.class_elements(lab)
        for irr in family.irreducibles():
            rhs = family.char_value(
                irr, family.classify(family.inv(family.class_rep(lab)))
            ) * family.class_size(lab)
            for ulab in family.classes():
                u = family.class_rep(ulab)
                acc = CycSum.zero(family.root_order)
                for x in elements:
                    acc = acc + family.char_value(
                        irr, family.classify(family.mul(u, family.inv(x)))
                    )
                lhs = acc * family.degree(irr)
                assert (lhs - rhs * family.char_value(irr, ulab)).is_zero()

    for irr in family.irreducibles():
        e = idempotent(sch, irr)
        assert np.linalg.matrix_rank(e, tol=1e-8) == family.degree(irr) ** 2

    cases = [
        (np.array([[0, 1], [1, 0]]), [1, 0]),  # a single edge
        (
            np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]),
            [2, 3, 0, 1],
        ),  # the 4-cycle with its antipodal map
    ]
    for tag, q, variant in [
        ("gl", 3, STANDARD),  # the complement of 24 disjoint edges
        ("gl", 3, SMALL_ORDERS),
        ("sl", 3, STANDARD),
        ("sl", 5, STANDARD),
        ("gu", 3, STANDARD),
    ]:
        fam, conn, *_ = analyze(tag, q, variant)
        graph = explicit_graph(fam, conn)
        cases.append((dense_adjacency(graph), graph.partner.tolist()))
    gamma = orbital.build_gamma(orbital.build_coset_space(3))
    cases.append((dense_adjacency(gamma), gamma.partner.tolist()))

    for adjacency, perm in cases:
        assert len(adjacency) <= 150
        rows = integer_rows_with_signs(adjacency, perm)
        spectral = pst_test(rows)
        pairs = sorted({(min(i, j), max(i, j)) for i, j in enumerate(perm)})
        numeric = pst_scan(dense_walk(adjacency), pairs)
        assert spectral.ok and numeric.ok
        assert math.isclose(spectral.time, numeric.time)


def orthogonality_defect(family, value_fn):
    """Pairs of irreducibles whose weighted row product misses delta * |G|."""
    classes = family.classes()
    sizes = [family.class_size(c) for c in classes]
    irr = family.irreducibles()
    table = {x: [value_fn(x, c) for c in classes] for x in irr}
    bad = []
    for i, x in enumerate(irr):
        for y in irr[i:]:
            acc = CycSum.zero(family.root_order)
            for vx, vy, size in zip(table[x], table[y], sizes):
                acc = acc + vx * vy.conjugate() * size
            want = family.order if x == y else 0
            if not (acc - want).is_zero():
                bad.append((x, y))
    return bad


def test_criterion_9_character_tables():
    for tag in ("gl", "gu"):
        for q in (3, 5, 7):
            family = make_family(tag, q)
            assert sum(family.degree(x) ** 2 for x in family.irreducibles()) == family.order
            assert orthogonality_defect(family, family.char_value) == []
    for q in (3, 5):
        family = make_family("sl", q)
        assert sum(family.degree(x) ** 2 for x in family.irreducibles()) == family.order
        assert orthogonality_defect(family, family.char_value) == []
