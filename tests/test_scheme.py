"""Scheme axioms, exact eigenvalue identities, and the parity transfer test."""

import copy
import itertools
import pickle
from collections import Counter
from functools import lru_cache
from math import pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    EigenRow,
    PSTCertificate,
    dense_adjacency,
    idempotent,
    label_of,
    pst_test,
    relation_matrices,
    scheme_axiom_witness,
    spectrum_of,
)
from pstwalk import cayley
from pstwalk.cayley import STANDARD, ConnectionSet
from pstwalk.chars import CycSum, NonIntegralError
from pstwalk.ctqw import TransferReport
from pstwalk.groups import GLGroup
from pstwalk.orbital import build_coset_space
from pstwalk.record import Record
from pstwalk.scheme import (
    ConjugacyScheme,
    SpectrumRow,
    TransferCertificate,
    class_sum_eigenvalue,
    transfer_certificate,
)

K2_ROWS = [(1, 1, 1), (-1, -1, 1)]
C4_ROWS = [(2, 1, 1), (0, -1, 2), (-2, 1, 1)]


@lru_cache(maxsize=None)
def gl3():
    return GLGroup(3)


@lru_cache(maxsize=None)
def gl3_scheme():
    return ConjugacyScheme(gl3())


def connection_labels(fam):
    """Every non-central class of GL(2,3): the degree-46 connection set."""
    return [lab for lab in fam.classes() if lab.kind != "central"]


# ---------------------------------------------------------------------------
# parity test


def test_pst_test_k2():
    cert = pst_test(K2_ROWS)
    assert cert.ok and cert.g == 2 and cert.residue == 1
    assert cert.time == pytest.approx(pi / 2)


def test_pst_test_c4():
    cert = pst_test(C4_ROWS)
    assert cert.ok and cert.g == 2 and cert.residue == 2
    assert cert.time == pytest.approx(pi / 2)


def test_pst_test_rescaled_path():
    # weighted 3-path with spectrum {2, 0, -2} and the end-swapping involution
    cert = pst_test([(2, 1, 1), (0, -1, 1), (-2, 1, 1)])
    assert cert.ok and cert.time == pytest.approx(pi / 2)


def test_pst_test_wrong_parity_fails():
    cert = pst_test([(2, 1, 1), (0, 1, 2), (-2, 1, 1)])
    assert not cert.ok
    assert "expected even" in cert.reason and cert.g == 2


def test_pst_test_odd_gcd_no_residue():
    cert = pst_test([(3, 1, 1), (0, -1, 1)])
    assert cert.ok and cert.g == 3 and cert.residue is None
    assert cert.time == pytest.approx(pi / 3)


def test_pst_test_flat_spectrum_fails():
    cert = pst_test([(5, 1, 3)])
    assert not cert.ok and "no walk" in cert.reason


def test_pst_test_input_validation():
    with pytest.raises(ValueError):
        pst_test([])
    with pytest.raises(ValueError):
        pst_test([(1, 0, 1)])
    with pytest.raises(ValueError):
        pst_test([(1, 1, 0)])
    with pytest.raises(ValueError):
        pst_test([(1.5, 1, 1)])


def test_pst_test_accepts_two_tuples():
    assert pst_test([(1, 1), (-1, -1)]).ok


def test_pst_test_rejects_top_eigenvalue_on_minus_side():
    # theta0 on the -1 side has (theta0 - theta0)/g = 0, which is not odd
    assert not pst_test([(2, -1, 1), (0, 1, 1)]).ok


@settings(max_examples=80)
@given(
    theta0=st.integers(-30, 30),
    gval=st.sampled_from([1, 2, 3, 4, 6]),
    plus=st.sets(st.integers(1, 8), max_size=4),
    minus=st.sets(st.integers(0, 8), min_size=1, max_size=4),
)
def test_pst_test_parity_property(theta0, gval, plus, minus):
    """Even multiples of g on the +1 side, odd on the -1 side: certified."""
    rows = [(theta0, 1, 1)]
    rows += [(theta0 - 2 * k * gval, 1, 1) for k in plus]
    rows += [(theta0 - (2 * k + 1) * gval, -1, 1) for k in minus]
    cert = pst_test(rows)
    assert cert.ok
    assert cert.g % gval == 0
    flipped = list(rows)
    theta, sign, mult = flipped[1]
    flipped[1] = (theta, -sign, mult)
    assert not pst_test(flipped).ok


@settings(max_examples=200)
@given(
    theta0=st.integers(-30, 30),
    gval=st.sampled_from([1, 2, 3, 4, 6]),
    parts=st.lists(
        st.tuples(st.integers(0, 8), st.integers(1, 9), st.integers(0, 3)),
        min_size=1,
        max_size=6,
    ),
)
def test_transfer_certificate_against_parity_test(theta0, gval, parts):
    """The shared mod-4 certificate against the reference parity test.

    Rows sit at theta0 - k * gval with the sign the parity test wants for
    k, flipped on about a quarter of them, so some row sets have no -1
    side.  A certificate that holds implies the parity test with the same
    gap and time; the two agree exactly when the gap is 2 mod 4, and the
    certificate rejects every other gap, including the odd-gap transfers
    the parity test accepts.
    """
    rows = [SpectrumRow(None, theta0, 1, 1)]
    for k, mult, flip in parts:
        sign = (1 if k % 2 == 0 else -1) * (-1 if flip == 0 else 1)
        rows.append(SpectrumRow(None, theta0 - k * gval, sign, mult))
    cert = transfer_certificate(spectrum_of(rows), "test pairing")
    ref = pst_test([(r.theta, r.sign, r.multiplicity) for r in rows])
    if cert.ok:
        assert ref.ok
        assert (ref.g, ref.time, ref.residue) == (cert.gap, cert.time, cert.residue)
    if cert.gap is not None and cert.gap % 4 == 2:
        assert cert.ok == ref.ok
    else:
        assert not cert.ok


def test_transfer_certificate_refuses_rows_without_a_minus_side():
    # gap 4 and every row on the +1 side: the congruences alone would pass
    rows = [SpectrumRow(None, 4, 1, 1), SpectrumRow(None, 0, 1, 1)]
    cert = cayley.certify(spectrum_of(rows))
    assert not cert.ok
    assert "no -1 eigenspace" in cert.reason
    assert not pst_test([(r.theta, r.sign, r.multiplicity) for r in rows]).ok


# ---------------------------------------------------------------------------
# axioms


def perm_matrix(images):
    n = len(images)
    out = np.zeros((n, n), dtype=np.int64)
    for i, j in enumerate(images):
        out[i, j] = 1
    return out


def cycle_relations(n):
    shift = perm_matrix([(i + 1) % n for i in range(n)])
    return [np.linalg.matrix_power(shift, k).astype(np.int64) for k in range(n)]


def test_axioms_pass_on_small_schemes():
    assert scheme_axiom_witness([np.eye(1, dtype=int)]) is None
    i2 = np.eye(2, dtype=int)
    a2 = np.array([[0, 1], [1, 0]])
    assert scheme_axiom_witness([i2, a2]) is None
    # C4 distance relations and the Z4 translation relations
    c4 = np.zeros((4, 4), dtype=int)
    for i in range(4):
        c4[i, (i + 1) % 4] = c4[i, (i - 1) % 4] = 1
    anti = perm_matrix([2, 3, 0, 1])
    assert scheme_axiom_witness([np.eye(4, dtype=int), c4, anti]) is None
    assert scheme_axiom_witness(cycle_relations(4)) is None


def test_axioms_reject_path_relations():
    # P3 is not vertex-transitive: A^2 has unequal diagonal, so the
    # product leaves the integer span of the relations.
    a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    b = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    witness = scheme_axiom_witness([np.eye(3, dtype=int), a, b])
    assert witness is not None and "span" in witness


def test_axioms_reject_noncommuting_translations():
    # left-translation relations of the symmetric group on 3 letters:
    # closed under products but noncommutative
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    mats = []
    for g in perms:
        m = np.zeros((6, 6), dtype=np.int64)
        for x in perms:
            gx = tuple(g[x[i]] for i in range(3))
            m[index[x], index[gx]] = 1
        mats.append(m)
    witness = scheme_axiom_witness(mats)
    assert witness is not None and "commute" in witness


def test_axioms_reject_transpose_escape():
    r1 = np.zeros((3, 3), dtype=int)
    for u, v in [(0, 1), (1, 2), (2, 0), (0, 2)]:
        r1[u, v] = 1
    r2 = np.zeros((3, 3), dtype=int)
    for u, v in [(1, 0), (2, 1)]:
        r2[u, v] = 1
    witness = scheme_axiom_witness([np.eye(3, dtype=int), r1, r2])
    assert witness is not None and "transpose" in witness


def test_axioms_reject_malformed_input():
    i2 = np.eye(2, dtype=int)
    a2 = np.array([[0, 1], [1, 0]])
    assert "no relations" in scheme_axiom_witness([])
    assert "not 2x2" in scheme_axiom_witness([i2, np.ones((3, 3), dtype=int)])
    assert "outside 0/1" in scheme_axiom_witness([2 * i2, a2])
    assert "exactly one identity" in scheme_axiom_witness([i2, i2])
    assert "exactly one identity" in scheme_axiom_witness([a2])
    assert "partition" in scheme_axiom_witness([i2, a2, a2])


def test_cyclic_group_idempotents_are_rank_one():
    """Control: the translation scheme of Z4 has four rank-1 idempotents."""
    mats = cycle_relations(4)
    assert scheme_axiom_witness(mats) is None
    idems = []
    for j in range(4):
        e = np.array(
            [[1j ** (j * (h - g)) / 4 for h in range(4)] for g in range(4)]
        )
        assert np.abs(e @ e - e).max() < 1e-12
        assert round(np.trace(e).real) == 1
        for k, a in enumerate(mats):
            # A_k shifts by k, so it scales E_j by the *inverse* character value
            assert np.abs(a @ e - (1j ** ((-j * k) % 4)) * e).max() < 1e-12
        idems.append(e)
    assert np.abs(sum(idems) - np.eye(4)).max() < 1e-12


# ---------------------------------------------------------------------------
# the conjugacy scheme of GL(2,3)


def test_gl23_relations_satisfy_axioms():
    sch = gl3_scheme()
    assert scheme_axiom_witness(relation_matrices(sch)) is None


def test_gl23_relation_regularity():
    fam, sch = gl3(), gl3_scheme()
    for lab in fam.classes():
        a = dense_adjacency(sch.adjacency([lab]))
        size = fam.class_size(lab)
        assert (a.sum(axis=0) == size).all()
        assert (a.sum(axis=1) == size).all()


def test_gl23_involution_relation_is_perfect_matching():
    fam, sch = gl3(), gl3_scheme()
    t = dense_adjacency(sch.adjacency([fam.central_involution_class()]))
    assert np.array_equal(t, t.T)
    assert np.array_equal(t @ t, np.eye(fam.order, dtype=np.int64))
    assert t.trace() == 0


def test_gl23_exact_eigenvalue_identity():
    """Exact form of the class-sum/idempotent commutation rule.

    The operator identity A_C E_chi = (|C| chi(rep^-1)/chi(1)) E_chi is
    equivalent, via translation invariance, to the scalar identity
    chi(1) * sum_{x in C} chi(u x^{-1}) = |C| chi(rep^-1) chi(u) for all
    u; both sides are class functions of u, so checking one u per class
    checks the whole operator identity.  Verified in exact cyclotomic
    arithmetic.
    """
    fam = gl3()
    for lab in fam.classes():
        members = fam.class_elements(lab)
        for irr in fam.irreducibles():
            rhs_base = fam.char_value(
                irr, fam.classify(fam.inv(fam.class_rep(lab)))
            ) * fam.class_size(lab)
            for ulab in fam.classes():
                u = fam.class_rep(ulab)
                acc = CycSum.zero(fam.root_order)
                for x in members:
                    acc = acc + fam.char_value(irr, fam.classify(fam.mul(u, fam.inv(x))))
                assert acc * fam.degree(irr) == rhs_base * fam.char_value(irr, ulab)


def test_gl23_idempotents_diagonalize_every_relation():
    fam, sch = gl3(), gl3_scheme()
    mats = relation_matrices(sch)
    idems = [idempotent(sch, irr) for irr in fam.irreducibles()]
    ranks = []
    for irr, e in zip(fam.irreducibles(), idems):
        assert np.abs(e @ e - e).max() < 1e-10
        ranks.append(round(np.trace(e).real))
        for lab, a in zip(fam.classes(), mats):
            theta = (
                fam.class_size(lab)
                * complex(
                    fam.char_value(irr, fam.classify(fam.inv(fam.class_rep(lab)))).evaluate()
                )
                / fam.degree(irr)
            )
            assert np.abs(a @ e - theta * e).max() < 1e-10
    for e, f in itertools.combinations(idems, 2):
        assert np.abs(e @ f).max() < 1e-10
    assert np.abs(sum(idems) - np.eye(fam.order)).max() < 1e-10
    assert ranks == [fam.degree(irr) ** 2 for irr in fam.irreducibles()]
    assert sorted(ranks) == [1, 1, 4, 4, 4, 9, 9, 16]
    assert sum(ranks) == fam.order


def test_gl23_eigen_rows_frozen():
    """The degree-46 graph: spectrum {46^1, 0^24, -2^23} and its signs."""
    fam = gl3()
    labels = connection_labels(fam)
    assert sum(fam.class_size(l) for l in labels) == 46
    conn = ConnectionSet("gl", 3, STANDARD, tuple(labels), 46)
    rows = {r.irr: r for r in cayley.spectrum(fam, conn)}
    assert all(r.theta == class_sum_eigenvalue(fam, irr, labels) for irr, r in rows.items())
    by_name = {
        (irr.kind, irr.params): (r.theta, r.sign, r.multiplicity)
        for irr, r in rows.items()
    }
    assert by_name == {
        ("linear", (0,)): (46, 1, 1),
        ("linear", (1,)): (-2, 1, 1),
        ("steinberg", (0,)): (-2, 1, 9),
        ("steinberg", (1,)): (-2, 1, 9),
        ("principal", (0, 1)): (0, -1, 16),
        ("cuspidal", (1,)): (0, -1, 4),
        ("cuspidal", (2,)): (-2, 1, 4),
        ("cuspidal", (5,)): (0, -1, 4),
    }
    spectrum = Counter()
    for r in rows.values():
        spectrum[r.theta] += r.multiplicity
    assert spectrum == {46: 1, 0: 24, -2: 23}
    cert = pst_test([(r.theta, r.sign, r.multiplicity) for r in rows.values()])
    assert cert.ok and cert.g == 2 and cert.residue == 2
    assert cert.time == pytest.approx(pi / 2)


def test_gl23_graph_is_complement_of_perfect_matching():
    fam, sch = gl3(), gl3_scheme()
    adj = dense_adjacency(sch.adjacency(connection_labels(fam)))
    t = dense_adjacency(sch.adjacency([fam.central_involution_class()]))
    n = fam.order
    assert np.array_equal(adj, np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64) - t)


def test_gl23_adjacency_matches_relation_sum():
    fam, sch = gl3(), gl3_scheme()
    labels = connection_labels(fam)
    total = sum(dense_adjacency(sch.adjacency([l])) for l in labels)
    assert np.array_equal(dense_adjacency(sch.adjacency(labels)), total)


def test_gl23_label_of_covers_group():
    fam, sch = gl3(), gl3_scheme()
    counts = Counter(label_of(sch, m) for m in sch.elements)
    assert counts == {lab: fam.class_size(lab) for lab in fam.classes()}


def test_eigenvalue_rejects_irrational_sum():
    # a single nonsplit class is not closed under inversion, and the
    # matching cuspidal character sums to a non-rational cyclotomic
    fam = gl3()
    gamma = fam.tower.ext.exp[1]
    lab = next(
        l for l in fam.classes() if l.kind == "nonsplit" and l.params[0] == gamma
    )
    irr = next(
        i for i in fam.irreducibles() if i.kind == "cuspidal" and i.params == (1,)
    )
    with pytest.raises(NonIntegralError):
        class_sum_eigenvalue(fam, irr, [lab])


def test_eigen_row_defaults():
    assert EigenRow(3, 1) == (3, 1, 1)
    cert = PSTCertificate(False, "why")
    assert cert.g is None and cert.time is None and cert.residue is None


# ---------------------------------------------------------------------------
# records: the semantics of frozen dataclasses, without generating them


def test_records_keep_their_fields_defaults_and_frozen_equality():
    cert = TransferCertificate(6, False, "why", "x -> -x")
    assert TransferCertificate._fields == (
        "degree", "ok", "reason", "transfer_rule", "integral", "residue", "gap", "time", "connected"
    )
    assert cert._asdict() == {
        "degree": 6, "ok": False, "reason": "why", "transfer_rule": "x -> -x",
        "integral": True, "residue": None, "gap": None, "time": None, "connected": None,
    }
    assert repr(cert) == (
        "TransferCertificate(degree=6, ok=False, reason='why', transfer_rule='x -> -x', "
        "integral=True, residue=None, gap=None, time=None, connected=None)"
    )
    twin = TransferCertificate(**cert._asdict())
    assert twin == cert and hash(twin) == hash(cert) and twin != TransferCertificate(6, True, "why", "x -> -x")
    assert copy.copy(cert) == cert and pickle.loads(pickle.dumps(cert)) == cert
    for name in cert._fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(cert, name, None)
    with pytest.raises(AttributeError):
        del cert.ok
    report = TransferReport(True, 1.0, (1.0,), 1.0, 0.5, 2)
    assert report.reason == "" and report._fields[-1] == "reason"
    conn = ConnectionSet("gl", 3, STANDARD, (), 0)
    assert conn._fields == ("family", "q", "variant", "labels", "degree")
    assert conn != ("gl", 3, STANDARD, (), 0)
    assert report != TransferReport(True, 1.0, (1.0,), 1.0, 0.5, 3)


def test_a_record_filled_with_the_wrong_count_raises():
    class Pair(Record):
        __slots__ = _fields = ("a", "b")

        def __init__(self, *values):
            self._fill(*values)

    assert Pair(1, 2)._asdict() == {"a": 1, "b": 2}
    for values in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError):
            Pair(*values)


def test_a_coset_space_equals_only_itself():
    space = build_coset_space(3)
    twin = type(space)(**space._asdict())
    assert space == space and twin != space and hash(space) != hash(twin)
    assert twin.n_cosets == space.n_cosets == 120
    with pytest.raises(AttributeError):
        space.q = 7
