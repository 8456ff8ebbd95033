"""The explicit-graph builder against literal references.

Both families build their graph the same way: row i marks the vertex of
r_i s for every s in a connection list, and the transfer pairing is the
permutation i -> vertex of t r_i for a central involution t (-I on the
Cayley graphs, z on the coset graph).  The array builder is first held to
the same products taken one at a time in Python; then every small graph is
rebuilt literally -- from the membership of h g^(-1) in the connection set, or of
r^(-1) s in double cosets built from all |H|^2 products -- and the pairing
is checked to be a fixed-point-free automorphism of order two.
"""

from __future__ import annotations

import re
import tracemalloc
from functools import lru_cache
from math import pi

import numpy as np
import pytest

from oracles import (
    RegularRows,
    dense_adjacency,
    dense_component_count,
    dense_walk,
    literal_cayley_adjacency,
    literal_coset_space,
    literal_orbital_adjacency,
    translation_adjacency,
    translation_adjacency_reference,
    translation_map_reference,
)
from pstwalk import cli, scheme
from pstwalk.cayley import SMALL_ORDERS, STANDARD, analyze, component_count, explicit_graph, make_family
from pstwalk.ctqw import PairingError, WalkSystem, graph_stack
from pstwalk.groups import Mat2
from pstwalk.orbital import build_coset_space, build_gamma
from pstwalk.scheme import (
    ConjugacyScheme,
    Translates,
    VertexLookup,
    translation_map,
)

CAYLEY = [
    ("gl", 3, STANDARD),
    ("gl", 3, SMALL_ORDERS),
    ("gl", 5, STANDARD),
    ("gu", 3, STANDARD),
    ("gu", 5, STANDARD),
    ("sl", 3, STANDARD),
    ("sl", 5, STANDARD),
]
TARGETS = CAYLEY + [("orbital", 3, STANDARD)]


@lru_cache(maxsize=None)
def graph_of(tag, q, variant):
    if tag == "orbital":
        return build_gamma(build_coset_space(q))
    family, conn, *_ = analyze(tag, q, variant)
    return explicit_graph(family, conn)


@pytest.mark.parametrize("tag,q,variant", CAYLEY)
def test_cayley_adjacency_matches_literal_reference(tag, q, variant):
    family, conn, *_ = analyze(tag, q, variant)
    members = [x for lab in conn.labels for x in family.class_elements(lab)]
    literal = literal_cayley_adjacency(family, members)
    assert np.array_equal(dense_adjacency(graph_of(tag, q, variant)), literal)


def test_orbital_adjacency_and_pairing_match_literal_reference():
    graph = graph_of("orbital", 3, STANDARD)
    adjacency, involution = literal_orbital_adjacency(literal_coset_space(3))
    assert np.array_equal(dense_adjacency(graph), adjacency)
    n = len(graph.partner)
    assert np.array_equal(np.eye(n, dtype=np.int64)[graph.partner], involution)


@pytest.mark.parametrize("tag,q,variant", TARGETS)
def test_partner_is_a_fixed_point_free_automorphism_of_order_two(tag, q, variant):
    graph = graph_of(tag, q, variant)
    a, partner = dense_adjacency(graph), graph.partner
    vertices = np.arange(len(a))
    assert np.array_equal(np.sort(partner), vertices)
    assert np.array_equal(partner[partner], vertices)
    assert (partner != vertices).all()
    assert np.array_equal(a[partner][:, partner], a)


@pytest.mark.parametrize("tag,q,variant", TARGETS)
def test_symmetry_is_a_free_cyclic_automorphism_whose_half_power_is_the_partner(tag, q, variant):
    """x -> s x u^-1 on a Cayley graph, of order p |s| with |s| = q^2 - 1 (GL, GU)
    or q + 1 (SL); rH -> s rH on the coset graph, of order (q + 1)(q^2 + 1)."""
    graph = graph_of(tag, q, variant)
    a, sigma = dense_adjacency(graph), graph.symmetry
    if tag == "orbital":
        space = literal_coset_space(q)
        group, s = space.group, space.group.walk_symmetry()[0]
        assert group.element_order(s) == q**4 - 1
        assert np.array_equal(sigma, [space.coset_index[group.mul(s, r)] for r in space.reps])
        order = (q + 1) * (q * q + 1)
    else:
        family = make_family(tag, q)
        elements = family.enumerate_group()
        index = {m: i for i, m in enumerate(elements)}
        s, u = family.walk_symmetry()
        u_inv = family.inv(u)
        assert np.array_equal(sigma, [index[family.mul(family.mul(s, x), u_inv)] for x in elements])
        assert family.element_order(s) == (q + 1 if tag == "sl" else q * q - 1)
        assert family.element_order(u) == family.p
        order = family.p * family.element_order(s)
    assert np.array_equal(a[sigma][:, sigma], a)
    vertices, power = np.arange(len(a)), np.arange(len(a))
    for k in range(1, order + 1):
        power = sigma[power]
        if k == order // 2:
            assert np.array_equal(power, graph.partner)
        assert (power == vertices).all() == (k == order) and (power == vertices).any() == (k == order)


@pytest.mark.parametrize("tag,q,variant", TARGETS)
def test_every_explicit_graph_holds_one_byte_per_entry(tag, q, variant):
    graph = graph_of(tag, q, variant)
    orbits, stack = graph_stack(graph)
    assert stack.dtype == np.uint8 and stack.nbytes == len(graph.translates) * orbits.shape[1]


def lookup_of(reps, vertex_of, field):
    """The vertex lookup of a dict from every group element to its vertex."""
    return VertexLookup(reps, list(vertex_of), list(vertex_of.values()), field)


def builder_inputs(tag, q):
    """reps, vertex_of, family, connection list, central involution and walk symmetry (s, u^-1)."""
    if tag == "orbital":
        space = literal_coset_space(q)
        group = space.group
        symmetry = (group.walk_symmetry()[0], group.identity())
        connection = graph_of(tag, q, STANDARD).translates.connection
        return space.reps, space.coset_index, group, connection, space.z, symmetry
    family, conn, *_ = analyze(tag, q, STANDARD)
    sch = ConjugacyScheme(family)
    members = [x for lab in conn.labels for x in family.class_elements(lab)]
    s, u = family.walk_symmetry()
    return sch.elements, {m: i for i, m in enumerate(sch.elements)}, family, members, family.central_involution(), (s, family.inv(u))


@pytest.mark.parametrize("tag,q", [("gl", 5), ("gu", 5), ("sl", 7), ("sl", 11), ("orbital", 3)])
def test_array_builder_matches_python_products(tag, q):
    """The adjacency, the pairing (right translation by t) and the walk symmetry
    (left by s, right by u^-1) against one Python product per entry."""
    reps, vertex_of, family, connection, t, (left, right) = builder_inputs(tag, q)
    lookup = lookup_of(reps, vertex_of, family.field)
    expected = translation_adjacency_reference(reps, vertex_of, family.mul, connection)
    got = translation_adjacency(lookup, connection)
    assert got.dtype == np.uint8 and np.array_equal(got, expected)
    assert np.array_equal(dense_adjacency(Translates(lookup, connection)), expected)
    for left, right in [(family.identity(), t), (t, family.identity()), (left, right)]:
        expected = translation_map_reference(reps, vertex_of, family.mul, left, right)
        got = translation_map(lookup, left, right)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_array_builder_refuses_a_product_outside_the_group():
    """The first singular product is named, whether both its rows are rows of
    group elements, as in (1, 1; 1, 1), or one is the zero row that no element has,
    and whether the singular factor stands on the right or on the left."""
    family = make_family("gl", 3)
    sch = ConjugacyScheme(family)
    one, first = family.identity(), sch.elements[0]
    cases = [(Mat2(1, 1, 1, 1), Mat2(1, 1, 1, 1)), (Mat2(0, 0, 1, 1), Mat2(1, 1, 0, 0))]
    for singular, product in cases:
        assert family.mul(first, singular) == product
        message = rf"the product {re.escape(repr(product))} is not a vertex"
        with pytest.raises(KeyError, match=message):
            translation_adjacency(sch.lookup, [family.identity(), singular])
        with pytest.raises(KeyError, match=message):
            Translates(sch.lookup, [family.identity(), singular])
        with pytest.raises(KeyError, match=message):
            translation_map(sch.lookup, one, singular)
        message = rf"the product {re.escape(repr(family.mul(singular, first)))} is not a vertex"
        with pytest.raises(KeyError, match=message):
            translation_map(sch.lookup, singular, one)


def row_keys(elements, f):
    """The keys x f + y of the rows (x, y), first or second, of the elements, sorted."""
    return sorted({m.a * f + m.b for m in elements} | {m.c * f + m.d for m in elements})


@pytest.mark.parametrize("tag,q", [("gl", 5), ("gu", 5), ("sl", 7), ("orbital", 3)])
def test_row_table_holds_every_vector_times_every_connection_element(tag, q):
    """Entry (i, s) is the id of the key x q + y of (x, y) = (u, v) s, for the
    i-th row (u, v) of the representatives, taken one product at a time."""
    reps, vertex_of, family, connection, *_ = builder_inputs(tag, q)
    field = family.field
    f = field.q
    lookup = lookup_of(reps, vertex_of, field)
    assert lookup.vectors.tolist() == row_keys(reps, f)
    assert lookup.rows.tolist() == row_keys(vertex_of, f)

    def key(u, v, s):
        x = field.add(field.mul(u, s.a), field.mul(v, s.c))
        y = field.add(field.mul(u, s.b), field.mul(v, s.d))
        return x * f + y

    expected = [[key(*divmod(k, f), s) for s in connection] for k in row_keys(reps, f)]
    assert lookup.rows[scheme._row_table(lookup, connection)].tolist() == expected


@pytest.mark.parametrize(
    "tag,q", [(tag, q) for tag in ("gl", "gu", "sl") for q in (3, 5, 7)] + [("gl", 9), ("gu", 9)]
)
def test_the_vertex_table_is_smaller_than_the_adjacency(tag, q):
    """The table has (R + 1)^2 entries for the R distinct rows of the group's
    elements, at most q_f^2 - 1 of them; n^2 is larger, in bytes too."""
    family = make_family(tag, q)
    elements = family.enumerate_group()
    lookup = VertexLookup(elements, elements, range(len(elements)), family.field)
    rows = len(row_keys(elements, family.field.q))
    assert rows < family.field.q**2
    assert lookup.table.size == (rows + 1) ** 2 < family.order**2
    assert lookup.table.nbytes < family.order**2


def test_the_orbital_vertex_table_is_smaller_than_the_adjacency():
    space = literal_coset_space(3)
    lookup = lookup_of(space.reps, space.coset_index, space.group.field)
    assert len(row_keys(space.coset_index, 9)) == 80
    assert lookup.table.size == 81**2 < space.n_cosets**2 == 14_400
    assert lookup.table.nbytes < 14_400


def test_a_cayley_graph_builds_its_vertex_lookup_once(monkeypatch):
    """The adjacency, the pairing and the symmetry all read one lookup."""
    built = []

    class Counted(VertexLookup):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(scheme, "VertexLookup", Counted)
    family, conn, *_ = analyze("gl", 3, STANDARD)
    explicit_graph(family, conn)
    assert len(built) == 1


def test_the_explicit_build_holds_little_beyond_the_adjacency():
    """At gu 7 (2688 vertices over F_49) the build peaks below n^2 bytes plus
    6 MB; a dense table of all 49^4 matrix keys would take 11.5 MB alone."""
    family, conn, *_ = analyze("gu", 7, STANDARD)
    explicit_graph(family, conn)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        n = len(explicit_graph(family, conn).translates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 2688
    assert peak < n * n + 6_000_000


# ---------------------------------------------------------------------------
# row blocks, stack, components, walk and edges against the dense reference

DIFFERENTIAL = (
    [(tag, q, STANDARD) for tag in ("gl", "gu") for q in (3, 5, 7, 9)]
    + [("sl", q, STANDARD) for q in (5, 9, 11)]
    + [("gl", 3, SMALL_ORDERS), ("orbital", 3, STANDARD)]
)


@pytest.mark.parametrize("tag,q,variant", DIFFERENTIAL, ids=lambda v: str(v))
def test_the_rows_on_demand_match_the_dense_adjacency(tag, q, variant):
    """Every row block of neighbours, as a set per row, against the dense builder; then
    the stack scattered from the orbits' least rows, the lift's component count, the
    walk's sides and fidelities, and the graph.edges bytes, each against the same read
    of the n x n matrix."""
    graph = graph_of(tag, q, variant)
    rows = graph.translates
    dense = translation_adjacency(rows.lookup, rows.connection)
    n = len(dense)
    picks = np.random.default_rng(q).permutation(n)[:64]
    for block in [*np.array_split(np.arange(n), range(700, n, 700)), picks]:
        cols = np.sort(rows.neighbours(block), axis=1)
        first = np.ones(cols.shape, dtype=bool)
        first[:, 1:] = cols[:, 1:] != cols[:, :-1]
        assert np.array_equal(first.sum(axis=1), dense[block].sum(axis=1))
        assert np.array_equal(cols[first], np.nonzero(dense[block])[1])
    assert np.array_equal(dense_adjacency(graph), dense)
    orbits, stack = graph_stack(graph)
    assert stack.dtype == np.uint8
    assert np.array_equal(stack, dense[orbits[0][None, :, None], orbits[:, None, :]])
    assert component_count(stack) == dense_component_count(dense) == 1
    walk = WalkSystem.from_stack(orbits, stack)
    reference = dense_walk(dense, graph.symmetry)
    for sign, values in reference.sides().items():
        assert np.abs(walk.sides()[sign] - values).max() < 1e-9
    pairs = [(x, int(graph.partner[x])) for x in range(n)]
    pairs += [(int(x), int(y)) for x, y in np.random.default_rng(n).integers(0, n, size=(256, 2))]
    for t in (0.3, pi / 2):
        assert np.abs(np.subtract(walk.fidelities(t, pairs), reference.fidelities(t, pairs))).max() < 1e-9
    assert b"".join(cli._edge_blocks(rows)) == b"".join(cli._edge_blocks(RegularRows(dense)))


def test_a_connection_that_reaches_a_vertex_twice_scatters_a_zero_one_stack():
    """gl 3's connection list with a third of it repeated names some vertices twice in
    every row: the scattered stack still equals the dense gather, each entry 0 or 1,
    whether vertex 0's neighbours prove sigma or every vertex is scanned."""
    graph = graph_of("gl", 3, STANDARD)
    rows = graph.translates
    doubled = graph._replace(translates=Translates(rows.lookup, rows.connection + rows.connection[::3]))
    cols = np.sort(doubled.translates.neighbours(np.arange(len(rows))), axis=1)
    assert (cols[:, 1:] == cols[:, :-1]).any(axis=1).all()
    dense = dense_adjacency(doubled)
    assert np.array_equal(dense, dense_adjacency(graph))
    for target in (doubled, doubled._replace(translation=None)):
        orbits, stack = graph_stack(target)
        assert np.array_equal(stack, dense[orbits[0][None, :, None], orbits[:, None, :]])
        assert stack.max() == 1


@pytest.mark.parametrize("tag,q", [("gl", 5), ("gu", 9), ("sl", 9)])
def test_one_neighbourhood_proves_the_construction_symmetry(tag, q):
    """sigma = x -> s x v is refused on a connection list S exactly when v S v^-1 != S,
    on pairs {t, t^-1} and on the whole list, against one Python product per element."""
    reps, vertex_of, family, connection, *_ = builder_inputs(tag, q)
    graph = graph_of(tag, q, STANDARD)
    v, v_inv = graph.translation[1], family.inv(graph.translation[1])
    rng = np.random.default_rng(q)
    subsets = [connection] + [[t, family.inv(t)] for t in (connection[int(i)] for i in rng.permutation(len(connection))[:8])]
    found = set()
    for subset in subsets:
        normalised = {family.mul(family.mul(v, t), v_inv) for t in subset} == set(subset)
        doctored = graph._replace(translates=Translates(graph.translates.lookup, subset))
        if normalised:
            graph_stack(doctored)
        else:
            with pytest.raises(PairingError, match="is not an automorphism: it moves the edges of vertex 0$"):
                graph_stack(doctored)
        found.add(normalised)
    assert found == {True, False}
