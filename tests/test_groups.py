"""Conjugacy data and character tables, checked against brute-force oracles."""

import ast
from collections import Counter
from functools import lru_cache
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    BruteField,
    bmat_inv,
    bmat_mul,
    brute_conjugacy_classes,
    brute_gl2,
    brute_gu2,
    brute_sl2,
    central_sign_via_char_value,
    inverse_label_by_matrix,
    linear_or_unitary_char_value,
    quadratic_gauss_sum,
    residue_periods,
    sl_char_value,
    trivial_character,
)
from pstwalk import groups
from pstwalk.cayley import analyze
from pstwalk.chars import CycSum, NonIntegralError, integer_part
from pstwalk.gf import _prime_factors, make_field
from pstwalk.groups import (
    ClassLabel,
    GLGroup,
    GUGroup,
    IrrLabel,
    Mat2,
    SLGroup,
)
from pstwalk.sl import _trace_periods

FAMILY_CLS = {"gl": GLGroup, "gu": GUGroup, "sl": SLGroup}


@lru_cache(maxsize=None)
def family(tag, q):
    return FAMILY_CLS[tag](q)


ALL_SMALL = [("gl", 3), ("gl", 5), ("gu", 3), ("gu", 5), ("sl", 3), ("sl", 5)]
EXPECTED_ORDER = {
    ("gl", 3): 48,
    ("gl", 5): 480,
    ("gl", 7): 2016,
    ("gu", 3): 96,
    ("gu", 5): 720,
    ("gu", 7): 2688,
    ("sl", 3): 24,
    ("sl", 5): 120,
}
EXPECTED_CLASS_COUNT = {"gl": lambda q: q * q - 1, "gu": lambda q: (q + 1) ** 2, "sl": lambda q: q + 4}


def brute_mats(tag, q):
    """Oracle enumeration with entry encodings matching the package fields."""
    if tag == "gl":
        return brute_gl2(BruteField(q, (0, 1)))
    if tag == "sl":
        return brute_sl2(BruteField(q, (0, 1)))
    ext = make_field(3, 2)
    return brute_gu2(BruteField(3, ext.modulus), 1)


# ---------------------------------------------------------------------------
# enumeration and conjugacy


@pytest.mark.parametrize("tag,q", ALL_SMALL + [("gl", 7), ("gu", 7)])
def test_group_order_and_distinctness(tag, q):
    fam = family(tag, q)
    elems = fam.enumerate_group()
    assert len(elems) == len(set(elems)) == fam.order == EXPECTED_ORDER[(tag, q)]


@pytest.mark.parametrize("tag,q", [("gl", 3), ("gl", 5), ("sl", 3), ("sl", 5), ("gu", 3)])
def test_enumeration_matches_brute_force(tag, q):
    fam = family(tag, q)
    assert sorted(tuple(m) for m in fam.enumerate_group()) == sorted(brute_mats(tag, q))


def test_gu5_enumeration_is_internally_consistent():
    gu = family("gu", 5)
    elems = gu.enumerate_group()
    group = set(elems)
    assert all(gu.is_member(m) for m in elems)
    assert all(gu.inv(m) in group for m in elems)
    sample = elems[::37]
    assert all(gu.mul(x, y) in group for x in sample for y in sample)


@pytest.mark.parametrize("tag,q", [("gl", 3), ("gl", 5), ("sl", 3), ("sl", 5), ("gu", 3)])
def test_class_partition_matches_brute_conjugacy(tag, q):
    fam = family(tag, q)
    if tag == "gu":
        bf = BruteField(3, make_field(3, 2).modulus)
    else:
        bf = BruteField(q, (0, 1))
    orbits = brute_conjugacy_classes(
        brute_mats(tag, q),
        lambda x, y: bmat_mul(bf, x, y),
        lambda x: bmat_inv(bf, x),
    )
    mine = {frozenset(map(tuple, v)) for v in fam.class_partition().values()}
    assert {frozenset(o) for o in orbits} == mine


@pytest.mark.parametrize("tag,q", ALL_SMALL)
def test_class_sizes_counts_and_reps(tag, q):
    fam = family(tag, q)
    classes = fam.classes()
    assert len(classes) == EXPECTED_CLASS_COUNT[tag](q)
    part = fam.class_partition()
    assert set(part) == set(classes)
    for label in classes:
        elems = part[label]
        assert len(elems) == fam.class_size(label)
        rep = fam.class_rep(label)
        assert fam.classify(rep) == label
        assert rep in set(elems)
    assert sum(map(len, part.values())) == fam.order


@pytest.mark.parametrize("q", [3, 5, 7])
def test_gu_class_reps_are_members(q):
    fam = family("gu", q)
    for label in fam.classes():
        rep = fam.class_rep(label)
        assert fam.is_member(rep)
        assert fam.classify(rep) == label


@pytest.mark.parametrize("tag,q", ALL_SMALL)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_classify_is_conjugation_invariant(tag, q, data):
    fam = family(tag, q)
    elems = fam.enumerate_group()
    g = elems[data.draw(st.integers(0, len(elems) - 1))]
    m = elems[data.draw(st.integers(0, len(elems) - 1))]
    conj = fam.mul(fam.mul(g, m), fam.inv(g))
    assert fam.classify(conj) == fam.classify(m)


@pytest.mark.parametrize("tag,q", ALL_SMALL)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_matrix_inverse_and_order(tag, q, data):
    fam = family(tag, q)
    elems = fam.enumerate_group()
    m = elems[data.draw(st.integers(0, len(elems) - 1))]
    assert fam.mul(m, fam.inv(m)) == fam.identity()
    assert fam.order % fam.element_order(m) == 0


def test_classify_rejects_non_members():
    gl, sl, gu = family("gl", 3), family("sl", 3), family("gu", 3)
    with pytest.raises(ValueError):
        gl.classify(Mat2(1, 2, 2, 1))  # determinant 0
    with pytest.raises(ValueError):
        sl.classify(Mat2(1, 0, 0, 2))  # determinant 2
    assert sl.classify(Mat2(2, 0, 0, 2)).kind == "central"  # this one IS -I
    gamma = gu.field.generator
    with pytest.raises(ValueError):
        gu.classify(Mat2(gamma, 0, 0, 1))  # eigenvalue outside the norm-one torus
    with pytest.raises(ValueError):
        gu.classify(Mat2(gamma, 1, 0, gamma))


def test_central_involution():
    for tag, q in ALL_SMALL:
        fam = family(tag, q)
        t = fam.central_involution()
        assert fam.element_order(t) == 2
        assert fam.mul(t, t) == fam.identity()
        label = fam.central_involution_class()
        assert label == fam.classify(t)
        assert label.kind == "central"
        assert fam.class_size(label) == 1


# ---------------------------------------------------------------------------
# character tables


def _orthogonality_defect(fam, value_fn, pairs):
    classes = fam.classes()
    sizes = [fam.class_size(c) for c in classes]
    rows = {}
    for x, y in pairs:
        for irr in (x, y):
            if irr not in rows:
                rows[irr] = [value_fn(irr, c) for c in classes]
    bad = []
    for x, y in pairs:
        acc = CycSum.zero(fam.root_order)
        for vx, vy, sz in zip(rows[x], rows[y], sizes):
            acc = acc + vx * vy.conjugate() * sz
        want = fam.order if x == y else 0
        if not (acc - want).is_zero():
            bad.append((x, y))
    return bad


@pytest.mark.parametrize("tag,q", [("gl", 3), ("gl", 5), ("gl", 7), ("gu", 3), ("gu", 5), ("gu", 7)])
def test_row_orthogonality_exact(tag, q):
    fam = family(tag, q)
    irr = fam.irreducibles()
    pairs = [(x, y) for i, x in enumerate(irr) for y in irr[i:]]
    assert _orthogonality_defect(fam, fam.char_value, pairs) == []


@pytest.mark.parametrize("q", [3, 5, 9, 25, 27])
def test_sl_full_table_orthogonality_exact(q):
    fam = family("sl", q)
    irr = fam.irreducibles()
    pairs = [(x, y) for i, x in enumerate(irr) for y in irr[i:]]
    assert _orthogonality_defect(fam, fam.char_value, pairs) == []


# (p, k) for every odd prime power p^k <= 3^7
ODD_PRIME_POWERS = [
    (p, k) for p in range(3, 3**7 + 1, 2) if _prime_factors(p) == [p] for k in range(1, 8) if p**k <= 3**7
]


def test_trace_periods_obey_davenport_hasse():
    """-G_q = (-G_p)^k and G_q^2 = (-1)^((q-1)/2) q for G_q = eta0 - eta1, every odd q <= 3^7.

    Orthogonality holds with eta0 and eta1 swapped (that relabels each half
    pair), so this is what pins the period of the squares.  The square is
    taken for p < 400 only: a product in Z[zeta_p] costs p^2 terms, and at
    k = 1 Davenport-Hasse already equates G_q with the oracle's G_p.
    """
    assert len(ODD_PRIME_POWERS) == 348 and (3, 7) in ODD_PRIME_POWERS and (11, 3) in ODD_PRIME_POWERS
    for p, k in ODD_PRIME_POWERS:
        q = p**k
        eta0, eta1 = _trace_periods(make_field(p, k))
        assert integer_part(eta0 + eta1) == -1, q
        g, minus_gp = eta0 - eta1, -quadratic_gauss_sum(p)
        power = minus_gp
        for _ in range(k - 1):
            power = power * minus_gp
        assert -g == power, q
        if p < 400:
            assert g * g == (-1) ** ((q - 1) // 2) * q, q


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_trace_periods_of_a_prime_field_are_the_residue_periods(p):
    assert [eta.c for eta in _trace_periods(make_field(p, 1))] == [eta.c for eta in residue_periods(p)]


@pytest.mark.parametrize("tag", ["gl", "gu"])
def test_gl9_table_sanity(tag):
    """GL and GU over F_9: GL(2, 9) is used by the coset graphs, and the
    shared GL/GU table has to hold over a field that is not prime."""
    fam = family(tag, 9)
    irr = fam.irreducibles()
    assert len(irr) == len(fam.classes()) == EXPECTED_CLASS_COUNT[tag](9)
    assert sum(fam.degree(x) ** 2 for x in irr) == fam.order == {"gl": 5760, "gu": 7200}[tag]
    triv = trivial_character(fam)
    pairs = [(triv, x) for x in irr]
    pairs += [(x, y) for i, x in enumerate(irr) for y in irr[i:]][::13]
    assert _orthogonality_defect(fam, fam.char_value, pairs) == []


@pytest.mark.parametrize("tag,q", ALL_SMALL + [("gl", 7), ("gu", 7), ("sl", 9), ("sl", 25), ("sl", 27)])
def test_degrees_match_central_value_and_sum(tag, q):
    fam = family(tag, q)
    one = fam.classify(fam.identity())
    total = 0
    for irr in fam.irreducibles():
        d = fam.degree(irr)
        assert integer_part(fam.char_value(irr, one)) == d
        total += d * d
    assert total == fam.order


@pytest.mark.parametrize("tag,q", ALL_SMALL)
def test_class_sums_of_characters_vanish_or_hit_order(tag, q):
    """Sum of |C| * chi(C) is |G| for the trivial character and 0 otherwise."""
    fam = family(tag, q)
    classes = fam.classes()
    for irr in fam.irreducibles():
        acc = CycSum.zero(fam.root_order)
        for c in classes:
            acc = acc + fam.char_value(irr, c) * fam.class_size(c)
        want = fam.order if irr == trivial_character(fam) else 0
        assert (acc - want).is_zero()


@pytest.mark.parametrize("tag,q", [(tag, q) for tag in ("gl", "gu") for q in (3, 5, 7, 9, 11, 13)])
def test_char_value_matches_the_branching_table(tag, q):
    """The form table against the same table written one branch per value."""
    fam = family(tag, q)
    for irr in fam.irreducibles():
        for c in fam.classes():
            assert fam.char_value(irr, c).c == linear_or_unitary_char_value(fam, irr, c).c, (irr, c)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_char_value_matches_the_branching_table_at_prime_powers(data):
    """Where the torus-log scale q + eps and the tower embedding matter."""
    fam = family(data.draw(st.sampled_from(["gl", "gu"])), data.draw(st.sampled_from([25, 27, 49])))
    irr = data.draw(st.sampled_from(fam.irreducibles()))
    c = data.draw(st.sampled_from(fam.classes()))
    assert fam.char_value(irr, c).c == linear_or_unitary_char_value(fam, irr, c).c


@pytest.mark.parametrize("q", [3, 5])
def test_sl_half_pairs_sum_to_induced_rows(q):
    """Each half-degree pair sums to the reducible row at the quadratic character."""
    sl = family("sl", q)
    pair_of = {
        "cuspidal_half": IrrLabel("sl", "cuspidal", ((q + 1) // 2,)),
        "principal_half": IrrLabel("sl", "principal", ((q - 1) // 2,)),
    }
    for kind, induced in pair_of.items():
        plus = IrrLabel("sl", kind, (1,))
        minus = IrrLabel("sl", kind, (-1,))
        for c in sl.classes():
            lhs = sl.char_value(plus, c) + sl.char_value(minus, c)
            rhs = sl.char_value(induced, c)
            assert (lhs - rhs).is_zero(), (kind, c)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_sl_rows_restrict_from_gl(q):
    """SL rows agree with GL rows on the same matrices; half pairs with their sum."""
    sl, gl = family("sl", q), family("gl", q)
    n = sl.root_order
    pairs = [
        ((IrrLabel("sl", "trivial", ()),), IrrLabel("gl", "linear", (0,))),
        ((IrrLabel("sl", "steinberg", ()),), IrrLabel("gl", "steinberg", (0,))),
    ]
    pairs += [
        ((IrrLabel("sl", "principal", (j,)),), IrrLabel("gl", "principal", (0, j)))
        for j in range(1, (q - 1) // 2)
    ]
    pairs += [
        ((IrrLabel("sl", "cuspidal", (m,)),), IrrLabel("gl", "cuspidal", (m,)))
        for m in range(1, (q + 1) // 2)
    ]
    pairs += [
        (
            (IrrLabel("sl", "principal_half", (1,)), IrrLabel("sl", "principal_half", (-1,))),
            IrrLabel("gl", "principal", (0, (q - 1) // 2)),
        ),
        (
            (IrrLabel("sl", "cuspidal_half", (1,)), IrrLabel("sl", "cuspidal_half", (-1,))),
            IrrLabel("gl", "cuspidal", ((q + 1) // 2,)),
        ),
    ]
    for sl_class in sl.classes():
        gl_class = gl.classify(sl.class_rep(sl_class))
        for sl_irrs, gl_irr in pairs:
            lhs = sum((sl.char_value(x, sl_class) for x in sl_irrs), CycSum.zero(n))
            rhs = gl.char_value(gl_irr, gl_class).rescale_to(n)
            assert (lhs - rhs).is_zero(), (sl_irrs, sl_class)


@pytest.mark.parametrize("q", [3, 7, 23])
def test_sl_reads_an_inner_gl_without_label_tables(q):
    """The GL whose table SL restricts builds no labels and shares SL's tower."""
    sl = analyze("sl", q).family
    assert "_tables" not in sl._gl.__dict__
    assert sl._gl.tower is sl.tower


SL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@pytest.mark.parametrize("q", SL_PRIMES + [9, 25, 27])
def test_sl_char_value_matches_the_branching_table(q):
    """The restricted GL table against SL's table written one branch per value.

    Compared in Z[zeta_n]: a restricted half value may keep -1 as zeta^(n/2).
    """
    fam = family("sl", q)
    for irr in fam.irreducibles():
        for c in fam.classes():
            assert (fam.char_value(irr, c) - sl_char_value(fam, irr, c)).is_zero(), (irr, c)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sl_char_value_matches_the_branching_table_at_larger_primes(data):
    """Every half character on every jordan class, the 16 values SL writes itself and
    uniform draws rarely reach (about 16 of 10^4 pairs), then one drawn pair."""
    fam = family("sl", data.draw(st.sampled_from([61, 101, 211])))
    halves = [irr for irr in fam.irreducibles() if irr.kind.endswith("_half")]
    jordan = [c for c in fam.classes() if c.kind == "jordan"]
    assert len(halves) == len(jordan) == 4
    for irr in halves:
        for c in jordan:
            assert (fam.char_value(irr, c) - sl_char_value(fam, irr, c)).is_zero(), (irr, c)
    irr = data.draw(st.sampled_from(fam.irreducibles()))
    c = data.draw(st.sampled_from(fam.classes()))
    assert (fam.char_value(irr, c) - sl_char_value(fam, irr, c)).is_zero()


def test_involution_signs_frozen():
    gl3 = family("gl", 3)
    minus_one = gl3.field.neg(1)
    signs = {(i.kind, i.params): gl3.central_sign(i, minus_one) for i in gl3.irreducibles()}
    assert signs == {
        ("linear", (0,)): 1,
        ("linear", (1,)): 1,
        ("steinberg", (0,)): 1,
        ("steinberg", (1,)): 1,
        ("principal", (0, 1)): -1,
        ("cuspidal", (1,)): -1,
        ("cuspidal", (2,)): 1,
        ("cuspidal", (5,)): -1,
    }
    sl3 = family("sl", 3)
    minus_one = sl3.field.neg(1)
    signs = {(i.kind, i.params): sl3.central_sign(i, minus_one) for i in sl3.irreducibles()}
    assert signs == {
        ("trivial", ()): 1,
        ("steinberg", ()): 1,
        ("cuspidal", (1,)): -1,
        ("principal_half", (1,)): -1,
        ("principal_half", (-1,)): -1,
        ("cuspidal_half", (1,)): 1,
        ("cuspidal_half", (-1,)): 1,
    }
    gu3 = family("gu", 3)
    for irr in gu3.irreducibles():
        expect = {
            "linear": 1,
            "steinberg": 1,
            "principal": (-1) ** sum(irr.params),
            "cuspidal": (-1) ** irr.params[0],
        }[irr.kind]
        assert gu3.central_sign(irr, gu3.field.neg(1)) == expect, irr



def sign_or_raise(fn, *args):
    try:
        return fn(*args)
    except NonIntegralError:
        return "raises"


CENTRAL_SIGN_CASES = [(tag, q) for tag in ("gl", "gu") for q in (3, 5, 7, 9, 25, 27)]
CENTRAL_SIGN_CASES += [("sl", q) for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 61)]


@pytest.mark.parametrize("tag,q", CENTRAL_SIGN_CASES)
def test_central_sign_matches_the_char_value_route(tag, q):
    """The central form's exponent against chi(x I) built as a CycSum, at every torus scalar x.

    Both raise NonIntegralError where chi(x I) is not +-chi(1); SL reads GL's form via its lift.
    """
    fam = family(tag, q)
    scalars = range(1, q) if tag == "sl" else fam.torus
    for irr in fam.irreducibles():
        for x in scalars:
            got = sign_or_raise(fam.central_sign, irr, x)
            assert got == sign_or_raise(central_sign_via_char_value, fam, irr, x), (irr, x)


def test_gl3_class_inventory_frozen():
    """Shape of the GL(2,3) class list: kinds, sizes, element orders."""
    gl3 = family("gl", 3)
    inventory = Counter(
        (c.kind, gl3.class_size(c), gl3.element_order(gl3.class_rep(c)))
        for c in gl3.classes()
    )
    assert inventory == Counter(
        {
            ("central", 1, 1): 1,
            ("central", 1, 2): 1,
            ("jordan", 8, 3): 1,
            ("jordan", 8, 6): 1,
            ("split", 12, 2): 1,
            ("nonsplit", 6, 8): 2,
            ("nonsplit", 6, 4): 1,
        }
    )


@pytest.mark.parametrize("q", [5, 9])
def test_gl_builds_its_tower_on_first_use(q):
    """GL(2, q) reads only F_q until a nonsplit label needs F_{q^2}."""
    gl = GLGroup(q)
    assert gl.field is make_field(gl.p, gl.k)
    assert not {"tower", "torus_ext_log", "_tables"} & set(vars(gl))
    gl.central_sign(IrrLabel("gl", "linear", (1,)), gl.field.neg(1))
    assert "tower" not in vars(gl)
    gl.classes()
    assert "tower" in vars(gl)


# ---------------------------------------------------------------------------
# labels: immutable, ordered, and never equal across the two label types

FIELDS = ("family", "kind", "params")


def fields(lab):
    return tuple(getattr(lab, name) for name in FIELDS)


@pytest.mark.parametrize("tag, q", [("gl", 5), ("gu", 5), ("sl", 5), ("sl", 9)])
def test_labels_compare_hash_order_and_print_as_their_fields(tag, q):
    fam = family(tag, q)
    for kind, labels in ((ClassLabel, fam.classes()), (IrrLabel, fam.irreducibles())):
        assert all(type(lab) is kind for lab in labels)
        assert len(set(labels)) == len(labels)
        for lab in labels:
            copy = kind(*fields(lab))
            assert copy is not lab and copy == lab and not copy != lab
            assert hash(copy) == hash(lab) == hash(fields(lab))
            assert repr(lab) == (
                f"{kind.__name__}(family={lab.family!r}, kind={lab.kind!r}, params={lab.params!r})"
            )
            assert lab != fields(lab)
        shuffled = sorted(labels, key=hash)
        assert sorted(shuffled) == sorted(labels, key=fields)
        for a, b in zip(labels, labels[1:]):
            assert (a < b, a <= b, a > b, a >= b) == (
                fields(a) < fields(b),
                fields(a) <= fields(b),
                fields(a) > fields(b),
                fields(a) >= fields(b),
            )
    cls, irr = fam.classes()[0], fam.irreducibles()[0]
    twin = IrrLabel(*fields(cls))
    assert cls != twin and not cls == twin and hash(cls) == hash(twin)
    assert twin not in dict.fromkeys(fam.classes())
    for compare in (
        lambda a, b: a < b,
        lambda a, b: a <= b,
        lambda a, b: a > b,
        lambda a, b: a >= b,
    ):
        with pytest.raises(TypeError):
            compare(cls, irr)
        with pytest.raises(TypeError):
            compare(twin, cls)
    with pytest.raises(TypeError):
        sorted([cls, irr])


def test_labels_are_immutable():
    lab = ClassLabel("gl", "central", (1,))
    for name in FIELDS + ("other",):
        with pytest.raises(AttributeError):
            setattr(lab, name, None)
    with pytest.raises(AttributeError):
        del lab.kind
    assert fields(lab) == ("gl", "central", (1,))
    assert repr(lab) == "ClassLabel(family='gl', kind='central', params=(1,))"
    assert repr(IrrLabel("gu", "cuspidal", (3,))) == "IrrLabel(family='gu', kind='cuspidal', params=(3,))"


def test_every_traced_family_method_is_owned_by_its_class():
    """perfbench/tracer.py wraps ``Class.__dict__[attr]`` for each groups target.

    A method moved to a base class or renamed fails here, not only in a traced
    benchmark run.
    """
    tracer = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text())
    targets = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    paths = [path for module, path, _ in ast.literal_eval(targets) if module == "groups"]
    assert paths
    unowned = [
        path
        for path in paths
        if path.rpartition(".")[2] not in vars(getattr(groups, path.rpartition(".")[0]))
    ]
    assert not unowned, f"traced but not in the class's own __dict__: {', '.join(unowned)}"


# every odd prime power up to 49: the primes, 9, 25, 27 and 49
INVERSE_QS = [q for q in range(3, 50, 2) if len(_prime_factors(q)) == 1]


@pytest.mark.parametrize("q", INVERSE_QS)
@pytest.mark.parametrize("cls", [GLGroup, GUGroup, SLGroup])
def test_inverse_label_is_the_class_of_the_inverse(cls, q):
    """On parameters, the class of the inverses is classify(inv(class_rep)) on every class."""
    fam = cls(q)
    wrong = [lab for lab in fam.classes() if fam.inverse_label(lab) != inverse_label_by_matrix(fam, lab)]
    assert not wrong, wrong[:3]


@pytest.mark.parametrize("cls", [GLGroup, GUGroup, SLGroup])
def test_inverse_label_at_a_large_prime_power(cls):
    """500 sampled classes at q = 343 = 7^3 (every class of SL, which has fewer)."""
    fam = cls(343)
    classes = fam.classes()
    sample = Random(343).sample(classes, min(500, len(classes)))
    assert {lab.kind for lab in sample} >= {"jordan", "split", "nonsplit"}
    for lab in sample:
        assert fam.inverse_label(lab) == inverse_label_by_matrix(fam, lab), lab
