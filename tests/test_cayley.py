"""Connection sets, exact Cayley spectra, certificates, and the audit layer."""

from collections import Counter
from functools import lru_cache
from math import pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pstwalk.cayley import (
    SMALL_ORDERS,
    STANDARD,
    ConnectionSet,
    analyze,
    build_connection_set,
    certify,
    closed_form_audit,
    closed_form_checks,
    component_count,
    explicit_graph,
    make_family,
    spectrum,
    variants_for,
)
from oracles import (
    class_sum_eigenvalue_loop,
    dense_adjacency,
    dense_component_count,
    dense_walk,
    determinant_log_standard_labels,
    linear_or_unitary_class_sum_blocks,
    pst_test,
    reduced_rows,
    sl_order_based_elements,
    spectrum_of,
    spectrum_trace,
    trivial_character,
)
from pstwalk import scheme
from pstwalk.chars import CycSum, NonIntegralError
from pstwalk.ctqw import graph_stack, pst_scan
from pstwalk.groups import ClassLabel
from pstwalk.scheme import SpectrumRow


@lru_cache(maxsize=None)
def run(tag, q, variant=STANDARD):
    return analyze(tag, q, variant)


@lru_cache(maxsize=None)
def graph_of(tag, q, variant=STANDARD):
    fam, conn, _, _, _ = run(tag, q, variant)
    return explicit_graph(fam, conn)


def transfer_pairs(graph):
    """The pairs (i, partner[i]) of an explicit graph, each listed once."""
    return [(i, int(j)) for i, j in enumerate(graph.partner) if i < j]


def rows_by_label(rows):
    return {(r.irr.kind, r.irr.params): (r.theta, r.sign, r.multiplicity) for r in rows}


def spectrum_counter(rows):
    out = Counter()
    for r in rows:
        out[r.theta] += r.multiplicity
    return out


# ---------------------------------------------------------------------------
# frozen oracles

DEGREES = {
    ("gl", 3, STANDARD): 46,
    ("gl", 3, SMALL_ORDERS): 34,
    ("gl", 5, STANDARD): 286,
    ("gl", 7, STANDARD): 974,
    ("gu", 3, STANDARD): 62,
    ("gu", 5, STANDARD): 374,
    ("sl", 3, STANDARD): 17,
    ("sl", 5, STANDARD): 49,
    ("sl", 7, STANDARD): 97,
}

GL3_ROWS = {
    ("linear", (0,)): (46, 1, 1),
    ("linear", (1,)): (-2, 1, 1),
    ("steinberg", (0,)): (-2, 1, 9),
    ("steinberg", (1,)): (-2, 1, 9),
    ("principal", (0, 1)): (0, -1, 16),
    ("cuspidal", (1,)): (0, -1, 4),
    ("cuspidal", (2,)): (-2, 1, 4),
    ("cuspidal", (5,)): (0, -1, 4),
}

GL3_SMALL_ROWS = {
    ("linear", (0,)): (34, 1, 1),
    ("linear", (1,)): (10, 1, 1),
    ("steinberg", (0,)): (2, 1, 9),
    ("steinberg", (1,)): (-6, 1, 9),
    ("principal", (0, 1)): (0, -1, 16),
    ("cuspidal", (1,)): (0, -1, 4),
    ("cuspidal", (2,)): (-2, 1, 4),
    ("cuspidal", (5,)): (0, -1, 4),
}

GU3_ROWS = {
    ("linear", (0,)): (62, 1, 1),
    ("linear", (1,)): (-6, 1, 1),
    ("linear", (2,)): (14, 1, 1),
    ("linear", (3,)): (-6, 1, 1),
    ("steinberg", (0,)): (6, 1, 9),
    ("steinberg", (1,)): (2, 1, 9),
    ("steinberg", (2,)): (-10, 1, 9),
    ("steinberg", (3,)): (2, 1, 9),
    ("principal", (0, 1)): (0, -1, 4),
    ("principal", (0, 2)): (-6, 1, 4),
    ("principal", (0, 3)): (0, -1, 4),
    ("principal", (1, 2)): (0, -1, 4),
    ("principal", (1, 3)): (-10, 1, 4),
    ("principal", (2, 3)): (0, -1, 4),
    ("cuspidal", (1,)): (0, -1, 16),
    ("cuspidal", (3,)): (0, -1, 16),
}

SL3_ROWS = {
    ("trivial", ()): (17, 1, 1),
    ("steinberg", ()): (1, 1, 9),
    ("cuspidal", (1,)): (-1, -1, 4),
    ("principal_half", (1,)): (-1, -1, 4),
    ("principal_half", (-1,)): (-1, -1, 4),
    ("cuspidal_half", (1,)): (-7, 1, 1),
    ("cuspidal_half", (-1,)): (-7, 1, 1),
}

GL5_SPECTRUM = Counter(
    {286: 1, 46: 1, 22: 25, 10: 70, 6: 36, 0: 240, -14: 82, -26: 25}
)
GU5_SPECTRUM = Counter(
    {374: 1, 50: 2, 38: 25, 14: 36, 10: 84, 2: 50, 0: 360, -10: 104, -26: 42, -46: 16}
)
SL5_SPECTRUM = Counter({49: 1, 9: 18, 1: 25, -1: 60, -11: 16})

ALL_RUNS = [
    ("gl", 3, STANDARD),
    ("gl", 3, SMALL_ORDERS),
    ("gl", 5, STANDARD),
    ("gu", 3, STANDARD),
    ("gu", 5, STANDARD),
    ("sl", 3, STANDARD),
    ("sl", 5, STANDARD),
]


# ---------------------------------------------------------------------------
# families and variants


def test_make_family_is_cached():
    assert make_family("gl", 3) is make_family("gl", 3)


def test_make_family_rejects_unknown_tag():
    with pytest.raises(ValueError, match="unknown family"):
        make_family("sp", 3)


def test_variants_for():
    assert variants_for("gl", 3) == (STANDARD, SMALL_ORDERS)
    assert variants_for("gl", 5) == (STANDARD,)
    assert variants_for("gu", 3) == (STANDARD,)
    assert variants_for("sl", 3) == (STANDARD,)


@pytest.mark.parametrize("tag,q", [("gl", 5), ("gu", 3), ("sl", 3)])
def test_small_orders_variant_rejected_elsewhere(tag, q):
    fam = make_family(tag, q)
    with pytest.raises(ValueError, match="unsupported variant"):
        build_connection_set(fam, SMALL_ORDERS)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="unsupported variant"):
        build_connection_set(make_family("gl", 3), "everything")


# ---------------------------------------------------------------------------
# connection sets


@pytest.mark.parametrize("tag,q,variant", list(DEGREES))
def test_degrees(tag, q, variant):
    _, conn, _, _, _ = run(tag, q, variant)
    assert conn.degree == DEGREES[(tag, q, variant)]
    assert conn.family == tag and conn.q == q and conn.variant == variant


def test_gl3_standard_is_every_noncentral_class():
    fam, conn, _, _, _ = run("gl", 3)
    expected = {lab for lab in fam.classes() if lab.kind != "central"}
    assert set(conn.labels) == expected


def test_gl3_small_orders_labels():
    fam, conn, _, _, _ = run("gl", 3, SMALL_ORDERS)
    orders = sorted(fam.element_order(fam.class_rep(lab)) for lab in conn.labels)
    assert orders == [2, 3, 4, 6]
    kinds = Counter(lab.kind for lab in conn.labels)
    assert kinds == {"jordan": 2, "split": 1, "nonsplit": 1}


@pytest.mark.parametrize("tag,q,variant", ALL_RUNS)
def test_connection_set_membership_by_element(tag, q, variant):
    """Element-by-element enumeration agrees with the class-size degree."""
    fam, conn, _, _, _ = run(tag, q, variant)
    label_set = set(conn.labels)
    members = [m for m in fam.enumerate_group() if fam.classify(m) in label_set]
    assert len(members) == conn.degree
    ident = fam.identity()
    assert ident not in members
    inv_members = {fam.inv(m) for m in members}
    assert inv_members == set(members)


@pytest.mark.parametrize("q,n_classes,n_selected", [(3, 3, 3), (5, 10, 8), (7, 21, 15)])
def test_gl_nonsplit_selection_counts(q, n_classes, n_selected):
    fam, conn, _, _, _ = run("gl", q)
    nonsplit = [lab for lab in fam.classes() if lab.kind == "nonsplit"]
    chosen = [lab for lab in conn.labels if lab.kind == "nonsplit"]
    assert (len(nonsplit), len(chosen)) == (n_classes, n_selected)
    # the selected classes cover (q+1)^2/2 - 2 elements z of the quadratic
    # extension, counted with their Frobenius partner
    assert 2 * len(chosen) == (q + 1) ** 2 // 2 - 2


@pytest.mark.parametrize("q", [3, 5, 7])
def test_gl_nonsplit_selection_by_element_count(q):
    """Brute count over extension-field elements matches the class selection."""
    fam = make_family("gl", q)
    tw, base, ext = fam.tower, fam.field, fam.tower.ext
    n = q * q - 1
    count = 0
    for dz in range(n):
        if dz % (q + 1) == 0:
            continue  # z lies in F_q: not an irreducible eigenvalue pair
        nm = tw.norm(ext.exp[dz])
        if nm == 1 or not base.is_square(nm):
            count += 1
    assert count == (q + 1) ** 2 // 2 - 2


@pytest.mark.parametrize("q,n_classes,n_selected", [(3, 2, 2), (5, 9, 7)])
def test_gu_nonsplit_selection_counts(q, n_classes, n_selected):
    fam, conn, _, _, _ = run("gu", q)
    nonsplit = [lab for lab in fam.classes() if lab.kind == "nonsplit"]
    chosen = [lab for lab in conn.labels if lab.kind == "nonsplit"]
    assert (len(nonsplit), len(chosen)) == (n_classes, n_selected)


@pytest.mark.parametrize("q", [3, 5])
def test_gu_relative_norm_exponent_conventions_agree(q):
    """z^(q-1) and z^(1-q) select the same nonsplit classes (checked, not assumed)."""
    fam, conn, _, _, _ = run("gu", q)
    tw, ext = fam.tower, fam.tower.ext
    n = q * q - 1
    keep = {tw.E[i] for i in range(1, q + 1, 2)} | {1}
    selected = {lab for lab in conn.labels if lab.kind == "nonsplit"}
    for lab in (x for x in fam.classes() if x.kind == "nonsplit"):
        dz = ext.dlog(lab.params[0])
        forward = ext.exp[(dz * (q - 1)) % n] in keep
        backward = ext.exp[(dz * (1 - q)) % n] in keep
        assert forward == backward
        assert (lab in selected) == forward


def test_gu3_connection_composition():
    fam, conn, _, _, _ = run("gu", 3)
    kinds = Counter(lab.kind for lab in conn.labels)
    assert kinds == {"split": 1, "jordan": 4, "nonsplit": 2}
    sizes = sorted(fam.class_size(lab) for lab in conn.labels)
    assert sizes == [6, 8, 8, 8, 8, 12, 12]


@pytest.mark.parametrize("q", [3, 5, 7])
def test_sl_connection_labels(q):
    fam, conn, _, _, _ = run("sl", q)
    kinds = Counter(lab.kind for lab in conn.labels)
    assert kinds == {"central": 1, "jordan": 4}
    assert fam.central_involution_class() in conn.labels
    assert conn.degree == 1 + 2 * (q * q - 1)


@pytest.mark.parametrize("q", [3, 5])
def test_sl_order_description_matches_class_description(q):
    """Central involution + elements of order p or 2p == the class-based set."""
    fam, conn, _, _, _ = run("sl", q)
    by_classes = {m for lab in conn.labels for m in fam.class_elements(lab)}
    assert sl_order_based_elements(fam) == by_classes


@pytest.mark.parametrize("tag", ["gl", "gu", "sl"])
def test_standard_labels_are_one_cached_tuple(tag):
    fam = make_family(tag, 5)
    labels = fam.standard_labels()
    assert type(labels) is tuple
    assert fam.standard_labels() is labels
    assert build_connection_set(fam).labels is labels


@pytest.mark.parametrize(
    "tag,q", [(tag, q) for tag in ("gl", "gu") for q in (3, 5, 7, 9, 11, 13, 25, 27, 49)]
)
def test_standard_labels_follow_the_determinant_and_the_log_rule(tag, q):
    """One set in two parametrizations: the determinant's torus log, and standard_theta's K."""
    fam = make_family(tag, q)
    labels = fam.standard_labels()
    assert list(labels) == determinant_log_standard_labels(fam)
    eps, n, exp = fam.eps, q * q - 1, fam.tower.ext.exp
    s, r = q - eps, q + eps
    K = {min(k, eps * q * k % n) for k in range(n) if k % r and (k % s == 0 or k % s % 2)}
    nonsplit = [lab for lab in labels if lab.kind == "nonsplit"]
    assert len(nonsplit) == len(K)
    assert set(nonsplit) == {ClassLabel(tag, "nonsplit", (exp[k],)) for k in K}


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_sl_standard_labels_are_the_classes_of_trace_plus_or_minus_two(q):
    """-I, then the four jordan classes: every class of trace +-2 but the identity's."""
    fam = make_family("sl", q)
    F = fam.field
    two = {F.add(1, 1), F.neg(F.add(1, 1))}
    want = [
        lab
        for lab in fam.classes()
        if fam.trace(fam.class_rep(lab)) in two and fam.class_rep(lab) != fam.identity()
    ]
    assert list(fam.standard_labels()) == want


@pytest.mark.parametrize("tag", ["gl", "gu", "sl"])
def test_built_sets_rebuild_no_label_list(tag, monkeypatch):
    """After build_connection_set, the spectrum and the audit read the family's cached labels."""
    fam = make_family(tag, 7)
    conn = build_connection_set(fam)
    rows = spectrum(fam, conn)
    audit = closed_form_audit(fam, conn, rows)

    def refuse():
        raise AssertionError("a stage rebuilt a label list from classes()")

    monkeypatch.setattr(fam, "classes", refuse)
    assert spectrum(fam, conn) == rows
    assert closed_form_audit(fam, conn, rows) == audit


def test_a_set_labelled_standard_is_judged_by_its_labels():
    """One class under the STANDARD variant name has no closed forms to audit."""
    fam = make_family("gl", 3)
    lone = next(lab for lab in fam.classes() if lab.kind == "nonsplit")
    bogus = ConnectionSet("gl", 3, STANDARD, (lone,), fam.class_size(lone))
    assert closed_form_audit(fam, bogus, run("gl", 3).rows) == []


# ---------------------------------------------------------------------------
# exact spectra


@pytest.mark.parametrize(
    "tag,q,variant,expected",
    [
        ("gl", 3, STANDARD, GL3_ROWS),
        ("gl", 3, SMALL_ORDERS, GL3_SMALL_ROWS),
        ("gu", 3, STANDARD, GU3_ROWS),
        ("sl", 3, STANDARD, SL3_ROWS),
    ],
)
def test_frozen_rows_q3(tag, q, variant, expected):
    _, _, rows, _, _ = run(tag, q, variant)
    assert rows_by_label(rows) == expected


@pytest.mark.parametrize(
    "tag,expected",
    [("gl", GL5_SPECTRUM), ("gu", GU5_SPECTRUM), ("sl", SL5_SPECTRUM)],
)
def test_frozen_spectra_q5(tag, expected):
    _, _, rows, _, _ = run(tag, 5)
    assert spectrum_counter(rows) == expected


@pytest.mark.parametrize("tag,q,variant", ALL_RUNS)
def test_spectrum_invariants(tag, q, variant):
    fam, conn, rows, _, _ = run(tag, q, variant)
    assert spectrum_trace(rows) == 0
    assert sum(r.multiplicity for r in rows) == fam.order
    assert max(r.theta for r in rows) == conn.degree
    trivial = rows[0]
    assert trivial.irr == trivial_character(fam)
    assert (trivial.theta, trivial.sign, trivial.multiplicity) == (conn.degree, 1, 1)


@pytest.mark.parametrize("tag,q,variant", ALL_RUNS)
def test_numeric_spectrum_matches_exact(tag, q, variant):
    _, conn, rows, _, _ = run(tag, q, variant)
    adj = dense_adjacency(graph_of(tag, q, variant))
    numeric = np.sort(np.linalg.eigvalsh(adj.astype(float)))
    exact = np.sort(
        np.concatenate([np.full(r.multiplicity, r.theta, dtype=float) for r in rows])
    )
    assert numeric.shape == exact.shape
    assert np.max(np.abs(numeric - exact)) < 1e-8


def test_spectrum_diagnostic_names_the_character():
    fam = make_family("gl", 3)
    lone = next(lab for lab in fam.classes() if lab.kind == "nonsplit")
    bogus = ConnectionSet("gl", 3, STANDARD, (lone,), fam.class_size(lone))
    with pytest.raises(
        NonIntegralError,
        match=r"cuspidal\(1\) of gl\(2,3\): sum over Z\[zeta_8\] is not an integer",
    ):
        spectrum(fam, bogus)


@pytest.mark.parametrize("tag", ["gl", "gu", "sl"])
def test_spectrum_builds_no_group_element(tag, monkeypatch):
    fam = make_family(tag, 5)
    conn = build_connection_set(fam)
    want = spectrum(fam, conn)

    def refuse(*args):
        raise AssertionError("the exact spectrum touched group elements")

    for name in ("class_rep", "inv", "classify"):
        monkeypatch.setattr(fam, name, refuse)
    assert spectrum(fam, conn) == want


def test_analyze_is_deterministic():
    first = analyze("gl", 3)
    second = analyze("gl", 3)
    assert first.connection == second.connection
    assert first.rows == second.rows
    assert first.certificate == second.certificate
    assert first.audit == second.audit


# ---------------------------------------------------------------------------
# certificates


@pytest.mark.parametrize("tag,q,variant", ALL_RUNS)
def test_certificates_pass(tag, q, variant):
    _, conn, rows, cert, _ = run(tag, q, variant)
    expected_residue = 1 if tag == "sl" else 2
    assert cert.ok and cert.integral
    assert cert.residue == expected_residue
    assert cert.gap == 2
    assert cert.time == pytest.approx(pi / 2)
    assert cert.connected is True
    assert cert.degree == conn.degree
    assert "pi/2" in cert.reason


@pytest.mark.parametrize("tag,q,variant", ALL_RUNS)
def test_certify_agrees_with_parity_test(tag, q, variant):
    _, _, rows, cert, _ = run(tag, q, variant)
    parity = pst_test([(r.theta, r.sign, r.multiplicity) for r in rows])
    assert parity.ok == cert.ok
    assert parity.g == cert.gap
    assert parity.residue == cert.residue


@pytest.mark.parametrize("tag,q", [(t, 3) for t in ("gl", "gu", "sl")] + [("sl", 5)])
def test_connectivity_flag_matches_component_search(tag, q):
    _, _, _, cert, _ = run(tag, q)
    assert component_count(graph_stack(graph_of(tag, q))[1]) == 1
    assert cert.connected is True


@pytest.mark.parametrize(
    "tag,q,variant",
    [("gl", 3, STANDARD), ("gl", 3, SMALL_ORDERS), ("gu", 3, STANDARD), ("sl", 3, STANDARD)],
)
def test_walk_simulation_confirms_certificate(tag, q, variant):
    _, _, _, cert, _ = run(tag, q, variant)
    graph = graph_of(tag, q, variant)
    adj = dense_adjacency(graph)
    pairs = transfer_pairs(graph)
    assert len(pairs) == len(adj) // 2
    report = pst_scan(dense_walk(adj), pairs)
    assert report.ok
    assert report.time == pytest.approx(cert.time)
    assert report.min_fidelity >= 1 - 1e-9
    assert report.pairs_checked == len(pairs)


def test_certify_rejects_wrong_congruence():
    rows = [
        SpectrumRow(None, 4, 1, 1),
        SpectrumRow(None, 0, 1, 2),
        SpectrumRow(None, 1, -1, 1),
    ]
    cert = certify(spectrum_of(rows))
    assert not cert.ok
    assert "-1 side" in cert.reason and "expected 2" in cert.reason
    assert cert.residue == 0 and cert.gap == 1


def test_certify_flat_spectrum():
    rows = [SpectrumRow(None, 3, 1, 1), SpectrumRow(None, 3, -1, 1)]
    cert = certify(spectrum_of(rows))
    assert not cert.ok and "no walk" in cert.reason
    assert cert.gap is None and cert.time is None


def test_certificate_is_frozen():
    _, _, _, cert, _ = run("gl", 3)
    with pytest.raises(AttributeError):
        cert.ok = False


# ---------------------------------------------------------------------------
# hand-derived closed forms as audit oracles


def audit_checks(tag, q, variant=STANDARD):
    """Every row's check: the audit's full table."""
    fam, conn, rows, _, _ = run(tag, q, variant)
    return list(closed_form_checks(fam, conn, rows))


def audit_table(tag, q, variant=STANDARD):
    return {c.row: c for c in audit_checks(tag, q, variant)}


def test_gl3_audit_disagreements_frozen():
    table = audit_table("gl", 3)
    bad = {row: (c.hand_value, c.exact_value) for row, c in table.items() if not c.agrees}
    assert bad == {"steinberg(0)": (10, -2), "steinberg(1)": (-6, -2)}


def test_gu3_audit_disagreements_frozen():
    table = audit_table("gu", 3)
    bad = {row: (c.hand_value, c.exact_value) for row, c in table.items() if not c.agrees}
    assert bad == {
        "linear(0)": (38, 62),
        "linear(2)": (38, 14),
        "steinberg(0)": (2, 6),
        "steinberg(1)": (-2, 2),
        "steinberg(2)": (2, -10),
        "steinberg(3)": (-2, 2),
    }


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_gl_linear_closed_form_exact(q):
    """The degree-1 closed form reproduces the exact eigenvalues at q = 3,5,7,9."""
    audit = audit_checks("gl", q)
    linear = [c for c in audit if c.formula == "linear"]
    assert len(linear) == q - 1
    assert all(c.agrees for c in linear)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_gl_audit_pattern(q):
    audit = audit_checks("gl", q)
    by_formula = {}
    for c in audit:
        by_formula.setdefault(c.formula, []).append(c.agrees)
    assert all(by_formula["linear"])
    assert all(by_formula["principal"])
    assert all(by_formula["cuspidal"])
    assert not any(by_formula["steinberg"])  # hand form wrong in every case


@pytest.mark.parametrize("q", [3, 5, 7])
def test_gu_audit_pattern(q):
    audit = audit_checks("gu", q)
    bad_linear = {c.row for c in audit if c.formula == "linear" and not c.agrees}
    assert bad_linear == {"linear(0)", f"linear({(q + 1) // 2})"}
    assert not any(c.agrees for c in audit if c.formula == "steinberg")
    assert all(c.agrees for c in audit if c.formula == "principal")
    assert all(c.agrees for c in audit if c.formula == "cuspidal")


def test_gu5_cuspidal_kernel_case():
    """Even-parameter cuspidal rows with E in the kernel land on (q^2-1) - 2q."""
    _, _, rows, _, _ = run("gu", 5)
    table = rows_by_label(rows)
    assert table[("cuspidal", (6,))] == (14, 1, 36)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27, 49, 81])
def test_sl_ratio_identity_audit(q):
    audit = audit_checks("sl", q)
    assert audit and all(c.formula == "involution-ratio" for c in audit)
    assert all(c.agrees for c in audit)


def test_small_orders_variant_has_no_closed_forms():
    _, _, _, _, audit = run("gl", 3, SMALL_ORDERS)
    assert audit == []


@pytest.mark.parametrize("tag,q", [("gl", 3), ("gl", 5), ("gl", 7), ("gu", 3), ("gu", 5), ("gu", 7)])
def test_mod4_congruence_by_side(tag, q):
    """+1-side eigenvalues are 2 mod 4, -1-side are 0 mod 4 (GL and GU)."""
    _, _, rows, _, _ = run(tag, q)
    for r in rows:
        assert r.theta % 4 == (2 if r.sign == 1 else 0)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_sl_congruence_matches_involution_ratio(q):
    """theta == chi(-I)/chi(1) mod 4, including the half-degree characters."""
    fam, _, rows, _, _ = run("sl", q)
    halves = 0
    for r in rows:
        assert (r.theta - r.sign) % 4 == 0
        halves += r.irr.kind.endswith("_half")
    assert halves == 4


# ---------------------------------------------------------------------------
# explicit graphs


def test_explicit_graph_bound():
    fam, conn, _, _, _ = run("gl", 5)
    with pytest.raises(ValueError, match="exceeds the enumeration bound"):
        explicit_graph(fam, conn, bound=100)


@pytest.mark.parametrize("tag,q,variant", [("gl", 3, STANDARD), ("gu", 3, STANDARD), ("sl", 3, STANDARD)])
def test_explicit_graph_shape(tag, q, variant):
    fam, conn, _, _, _ = run(tag, q, variant)
    graph = graph_of(tag, q, variant)
    adj = dense_adjacency(graph)
    assert len(graph.partner) == fam.order
    assert adj.shape == (fam.order, fam.order)
    assert np.array_equal(adj, adj.T)
    assert np.all(np.diag(adj) == 0)
    assert np.all(adj.sum(axis=1) == conn.degree)


def test_transfer_pairs_are_the_antipodal_matching():
    fam, _, _, _, _ = run("gl", 3)
    pairs = transfer_pairs(graph_of("gl", 3))
    elements = fam.enumerate_group()
    t = fam.central_involution()
    seen = set()
    for i, j in pairs:
        assert elements[j] == fam.mul(t, elements[i])
        seen.update((i, j))
    assert len(seen) == fam.order


def components(adjacency) -> int:
    """:func:`component_count` of a graph read as its own one-block stack (c = 1)."""
    return component_count(np.asarray(adjacency)[None])


def test_component_count_toy_graphs():
    k2 = np.array([[0, 1], [1, 0]])
    assert components(k2) == 1
    two_k2 = np.kron(np.eye(2, dtype=int), k2)
    assert components(two_k2) == 2
    assert components(np.zeros((3, 3), dtype=int)) == 3
    path = np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1)
    assert components(path) == 1
    # isolated vertices between edges
    sparse = np.zeros((5, 5), dtype=int)
    sparse[1, 3] = sparse[3, 1] = 1
    assert components(sparse) == 4
    # a triangle and an edge, listed interleaved
    unequal = np.zeros((5, 5), dtype=int)
    for u, v in [(0, 2), (2, 4), (0, 4), (1, 3)]:
        unequal[u, v] = unequal[v, u] = 1
    assert components(unequal) == 2
    # a long path, numbered out of order so that search levels cross the rows
    order = np.random.default_rng(0).permutation(300)
    long_path = np.zeros((300, 300), dtype=int)
    long_path[order[:-1], order[1:]] = long_path[order[1:], order[:-1]] = 1
    assert components(long_path) == 1
    # the last vertex alone, after a component holding all the others
    last_alone = np.ones((6, 6), dtype=int) - np.eye(6, dtype=int)
    last_alone[5, :] = last_alone[:, 5] = 0
    assert components(last_alone) == 2
    assert components(np.zeros((0, 0), dtype=int)) == 0


def test_component_count_reads_one_byte_entries():
    """The explicit graphs are uint8; the toy graphs above count the same in that dtype."""
    k2 = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    assert components(k2) == 1
    assert components(np.kron(np.eye(3, dtype=np.uint8), k2)) == 3
    assert components(np.zeros((3, 3), dtype=np.uint8)) == 3
    order = np.random.default_rng(0).permutation(300)
    long_path = np.zeros((300, 300), dtype=np.uint8)
    long_path[order[:-1], order[1:]] = long_path[order[1:], order[:-1]] = 1
    assert components(long_path) == 1
    last_alone = np.ones((6, 6), dtype=np.uint8) - np.eye(6, dtype=np.uint8)
    last_alone[5, :] = last_alone[:, 5] = 0
    assert components(last_alone) == 2
    assert components(np.zeros((0, 0), dtype=np.uint8)) == 0
    adjacency = dense_adjacency(graph_of("gl", 3))
    assert adjacency.dtype == np.uint8
    assert components(np.kron(np.eye(2, dtype=np.uint8), adjacency)) == 2


def lift(stack):
    """The graph a voltage stack lifts to: A[(p, i), (p', r)] = B[p' - p][i, r], vertex p m + i."""
    c, m = stack.shape[:2]
    p, i = np.divmod(np.arange(c * m), m)
    return stack[(p[None, :] - p[:, None]) % c, i[:, None], i[None, :]]


def symmetric_stack(c, m, arcs):
    """0/1 stack with B[d][i, r] = B[-d][r, i] = 1 for each arc (d, i, r)."""
    stack = np.zeros((c, m, m), dtype=np.uint8)
    for d, i, r in arcs:
        stack[d % c, i, r] = stack[-d % c, r, i] = 1
    return stack


@pytest.mark.parametrize(
    "c, m, arcs, count",
    [
        (4, 1, [(2, 0, 0)], 2),  # a loop of voltage 2 on one vertex: gcd(4, 2) two-cycles
        (6, 1, [(2, 0, 0), (3, 0, 0)], 1),  # voltages 2 and 3 generate Z_6
        (6, 2, [(0, 0, 1), (4, 0, 1)], 2),  # the closed walk through both arcs has voltage 4
        (4, 2, [(1, 0, 0)], 5),  # base vertex 1 is alone: a 4-cycle and 4 lone vertices
        (5, 3, [], 15),
        (2, 2, [(0, 0, 1), (1, 0, 0)], 1),
    ],
)
def test_lift_components_of_small_voltage_graphs(c, m, arcs, count):
    stack = symmetric_stack(c, m, arcs)
    assert component_count(stack) == count == dense_component_count(lift(stack))


@st.composite
def voltage_stacks(draw):
    """Random symmetric 0/1 stacks, sparse enough that lifts and bases both fall apart."""
    c, m = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    density = draw(st.sampled_from([0.0, 0.05, 0.15, 0.4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return symmetric_stack(c, m, np.argwhere(rng.random((c, m, m)) < density))


@settings(max_examples=200, deadline=None)
@given(voltage_stacks())
def test_lift_component_count_matches_a_dense_search(stack):
    """gcd(c, net voltages of closed walks) per base component, against a breadth-first
    search of the n = c m vertex graph."""
    assert component_count(stack) == dense_component_count(lift(stack))


# ---------------------------------------------------------------------------
# arbitrary inverse-closed class unions on GL(2,3)


@lru_cache(maxsize=None)
def gl3_inversion_atoms():
    """Non-identity classes of GL(2,3) grouped into {C, C^{-1}} orbits."""
    fam = make_family("gl", 3)
    ident = fam.classify(fam.identity())
    atoms = []
    seen = set()
    for lab in fam.classes():
        if lab == ident or lab in seen:
            continue
        inv_lab = fam.classify(fam.inv(fam.class_rep(lab)))
        atom = frozenset({lab, inv_lab})
        atoms.append(atom)
        seen.update(atom)
    return tuple(atoms)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_random_class_union_spectrum_and_walk(data):
    """Any inverse-closed class union: exact integral spectrum that matches the
    numeric one, zero trace, and a parity certificate that the simulated walk
    confirms in both directions."""
    atoms = gl3_inversion_atoms()
    chosen = data.draw(
        st.lists(st.sampled_from(atoms), min_size=1, max_size=len(atoms), unique=True)
    )
    fam = make_family("gl", 3)
    labels = tuple(sorted({lab for atom in chosen for lab in atom}, key=str))
    degree = sum(fam.class_size(lab) for lab in labels)
    conn = ConnectionSet("gl", 3, "custom", labels, degree)
    rows = spectrum(fam, conn)
    assert spectrum_trace(rows) == 0
    assert max(r.theta for r in rows) == degree

    graph = explicit_graph(fam, conn)
    adj = dense_adjacency(graph)
    numeric = np.sort(np.linalg.eigvalsh(adj.astype(float)))
    exact = np.sort(
        np.concatenate([np.full(r.multiplicity, r.theta, dtype=float) for r in rows])
    )
    assert np.max(np.abs(numeric - exact)) < 1e-8

    cert = certify(rows)
    pairs = transfer_pairs(graph)
    if cert.ok:
        report = pst_scan(dense_walk(adj), pairs, time=cert.time)
        assert report.ok and report.min_fidelity >= 1 - 1e-9
    elif cert.gap is not None:
        # no perfect transfer at the candidate time either
        report = pst_scan(dense_walk(adj), pairs, time=cert.time)
        assert not report.ok


# ---------------------------------------------------------------------------
# class sums against the loop over the branching character tables

BATCH_CASES = [(tag, q) for tag in ("gl", "gu") for q in (3, 5, 7, 9, 11, 13)]
BATCH_CASES += [("sl", q) for q in (3, 5, 7, 11, 13)]


def eigenvalue_or_error(fn, fam, irr, labels):
    """theta, or the error message split from the float value it ends with."""
    try:
        return fn(fam, irr, labels), None
    except NonIntegralError as exc:
        message, _, value = str(exc).partition(", value about ")
        return message, complex(value) if value else None


@pytest.mark.parametrize("tag,q", BATCH_CASES)
def test_batched_spectrum_matches_the_pair_loop(tag, q):
    fam = make_family(tag, q)
    conn = build_connection_set(fam)
    thetas = [r.theta for r in spectrum(fam, conn)]
    assert thetas == [
        class_sum_eigenvalue_loop(fam, irr, conn.labels) for irr in fam.irreducibles()
    ]


@pytest.mark.parametrize("tag,q", [(tag, q) for tag in ("gl", "gu") for q in (3, 5, 7, 9)])
def test_array_terms_match_the_char_value_terms(tag, q):
    """Guards the batch oracle: its GL/GU array terms reduce as the char_value sums do.

    Both read the one form table; test_groups compares the table itself with a branching copy.
    """
    fam = make_family(tag, q)
    irrs, labels, n = fam.irreducibles(), fam.classes(), fam.root_order
    blocks = [irrs[s : s + 5] for s in range(0, len(irrs), 5)]
    arrays = linear_or_unitary_class_sum_blocks(fam, blocks, labels)
    for block, (rows, exps, coeffs) in zip(blocks, arrays, strict=True):
        keys, values = reduced_rows(n, rows * n + exps, coeffs)
        got = {}
        for key, c in zip(keys.tolist(), values.tolist()):
            got.setdefault(key // n, {})[key % n] = c
        for row, irr in enumerate(block):
            terms = (fam.char_value(irr, lab) * fam.class_size(lab) for lab in labels)
            assert got.get(row, {}) == sum(terms, CycSum(n)).reduced(), irr


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_class_sums_match_the_pair_loop(data):
    """Random label lists, inverse-closed or not, read in a random character order."""
    tag, q = data.draw(st.sampled_from(BATCH_CASES))
    fam = make_family(tag, q)
    labels = tuple(
        data.draw(st.lists(st.sampled_from(fam.classes()), min_size=1, max_size=12, unique=True))
    )
    irrs = fam.irreducibles()
    picks = data.draw(st.lists(st.sampled_from(irrs), min_size=1, max_size=24))
    for irr in picks:
        got = eigenvalue_or_error(scheme.class_sum_eigenvalue, fam, irr, labels)
        want = eigenvalue_or_error(class_sum_eigenvalue_loop, fam, irr, labels)
        assert got[0] == want[0], irr
        if want[1] is not None:  # printed to 6 significant digits
            assert abs(got[1] - want[1]) <= 1e-4 * max(1.0, abs(want[1])), irr


@settings(max_examples=3, deadline=None)
@given(size=st.integers(1, 64))
@pytest.mark.parametrize("tag,q", [(tag, q) for tag in ("gl", "gu") for q in (25, 27, 49)])
def test_period_rows_match_the_batched_class_sums(tag, q, size):
    """Every standard GL/GU row against the array terms reduced in Z[zeta_n], size rows a block."""
    fam = make_family(tag, q)
    conn = build_connection_set(fam)
    irrs, n = fam.irreducibles(), fam.root_order
    blocks = [irrs[s : s + size] for s in range(0, len(irrs), size)]
    totals = [0] * len(irrs)  # a row whose sum vanishes keeps no term
    terms = linear_or_unitary_class_sum_blocks(fam, blocks, conn.labels)
    for start, (rows, exps, coeffs) in zip(range(0, len(irrs), size), terms, strict=True):
        keys, values = reduced_rows(n, rows * n + exps, coeffs)
        assert not (keys % n).any(), "a class sum keeps a root of unity"
        for row, value in zip((keys // n).tolist(), values.tolist()):
            totals[start + row] = value
    assert [r.theta * fam.degree(r.irr) for r in spectrum(fam, conn)] == totals


@pytest.mark.parametrize("tag,q", [(tag, q) for tag in ("gl", "gu") for q in (3, 13, 25)])
def test_standard_spectrum_sums_no_character_values(tag, q, monkeypatch):
    """Standard GL/GU rows are period sums: they read no character value."""
    fam = make_family(tag, q)
    want = spectrum(fam, build_connection_set(fam))

    def refuse(*args):
        raise AssertionError("the standard GL/GU spectrum read a character value")

    monkeypatch.setattr(fam, "char_value", refuse)
    assert spectrum(fam, build_connection_set(fam)) == want


@pytest.mark.parametrize(
    "tag,q,variant",
    [("sl", 13, STANDARD), ("gl", 3, SMALL_ORDERS)],
    ids=["sl", "gl-3-small-orders"],
)
def test_spectrum_reads_each_value_once(tag, q, variant, monkeypatch):
    """The callers of the class sums, SL and GL(2, 3)'s small-orders set, read each value once."""
    fam = make_family(tag, q)
    conn = build_connection_set(fam, variant)
    want = spectrum(fam, conn)
    reads, value = [], fam.char_value

    def counted_value(irr, cls):
        reads.append((irr, cls))
        return value(irr, cls)

    monkeypatch.setattr(fam, "char_value", counted_value)
    assert spectrum(fam, conn) == want
    # one value per character and label; central_sign reads the form table, not char_value
    pairs = [(irr, lab) for irr in fam.irreducibles() for lab in conn.labels]
    assert Counter(reads) == Counter(pairs)


def test_class_sum_reads_the_labels_of_each_call():
    """A label list that grows between two calls is summed afresh: no earlier sum is kept."""
    fam = make_family("sl", 13)
    labels = list(build_connection_set(fam).labels)
    irr = trivial_character(fam)
    before = scheme.class_sum_eigenvalue(fam, irr, labels)
    extra = next(lab for lab in fam.classes() if lab not in labels)
    labels.append(extra)
    assert scheme.class_sum_eigenvalue(fam, irr, labels) == before + fam.class_size(extra)
