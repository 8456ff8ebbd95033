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

from functools import lru_cache

import numpy as np
import pytest

from oracles import (
    literal_cayley_adjacency,
    literal_orbital_adjacency,
    translation_adjacency_reference,
    translation_partner_reference,
)
from pstwalk import orbital, scheme
from pstwalk.cayley import SMALL_ORDERS, STANDARD, analyze, explicit_graph, make_family
from pstwalk.groups import Mat2
from pstwalk.orbital import build_coset_space, build_gamma
from pstwalk.scheme import ConjugacyScheme, translation_adjacency, translation_partner

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
    assert np.array_equal(graph_of(tag, q, variant).adjacency, literal)


def test_orbital_adjacency_and_pairing_match_literal_reference():
    graph = graph_of("orbital", 3, STANDARD)
    adjacency, involution = literal_orbital_adjacency(build_coset_space(3))
    assert np.array_equal(graph.adjacency, adjacency)
    n = len(graph.partner)
    assert np.array_equal(np.eye(n, dtype=np.int64)[graph.partner], involution)


@pytest.mark.parametrize("tag,q,variant", TARGETS)
def test_partner_is_a_fixed_point_free_automorphism_of_order_two(tag, q, variant):
    graph = graph_of(tag, q, variant)
    a, partner = graph.adjacency, graph.partner
    vertices = np.arange(len(a))
    assert np.array_equal(np.sort(partner), vertices)
    assert np.array_equal(partner[partner], vertices)
    assert (partner != vertices).all()
    assert np.array_equal(a[partner][:, partner], a)


@pytest.mark.parametrize("tag,q,variant", TARGETS)
def test_symmetry_is_a_free_cyclic_automorphism_whose_half_power_is_the_partner(tag, q, variant):
    """Right translation by the central jordan element on a Cayley graph, of order
    |Z| p; the pairing itself, of order 2, on the coset graph."""
    graph = graph_of(tag, q, variant)
    a, sigma = graph.adjacency, graph.symmetry
    if tag == "orbital":
        assert np.array_equal(sigma, graph.partner)
        order = 2
    else:
        family = make_family(tag, q)
        elements = family.enumerate_group()
        index = {m: i for i, m in enumerate(elements)}
        g = family.central_jordan()
        assert np.array_equal(sigma, [index[family.mul(x, g)] for x in elements])
        centre = {"gl": q - 1, "gu": q + 1, "sl": 2}[tag]
        order = centre * family.p
    assert np.array_equal(a[sigma][:, sigma], a)
    vertices, power = np.arange(len(a)), np.arange(len(a))
    for k in range(1, order + 1):
        power = sigma[power]
        if k == order // 2:
            assert np.array_equal(power, graph.partner)
        assert (power == vertices).all() == (k == order) and (power == vertices).any() == (k == order)


@pytest.mark.parametrize("tag,q,variant", TARGETS)
def test_every_explicit_graph_holds_one_byte_per_entry(tag, q, variant):
    a = graph_of(tag, q, variant).adjacency
    assert a.dtype == np.uint8 and a.nbytes == len(a) ** 2


def builder_inputs(tag, q):
    """reps, vertex_of, family, connection list and central involution."""
    if tag == "orbital":
        space = build_coset_space(q)
        return space.reps, space.coset_index, space.group, orbital._connection(space), space.z
    family, conn, *_ = analyze(tag, q, STANDARD)
    sch = ConjugacyScheme(family)
    members = [x for lab in conn.labels for x in family.class_elements(lab)]
    return sch.elements, sch.index, family, members, family.central_involution()


@pytest.mark.parametrize("tag,q", [("gl", 5), ("gu", 5), ("sl", 7), ("sl", 11), ("orbital", 3)])
def test_array_builder_matches_python_products(tag, q):
    reps, vertex_of, family, connection, t = builder_inputs(tag, q)
    expected = translation_adjacency_reference(reps, vertex_of, family.mul, connection)
    got = translation_adjacency(reps, vertex_of, family.field, connection)
    assert got.dtype == np.uint8 and np.array_equal(got, expected)
    expected = translation_partner_reference(reps, vertex_of, family.mul, t)
    got = translation_partner(reps, vertex_of, family.field, t)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_array_builder_refuses_a_product_outside_the_group():
    family = make_family("gl", 3)
    sch = ConjugacyScheme(family)
    singular = Mat2(1, 1, 1, 1)
    with pytest.raises(KeyError, match=r"Mat2\(a=1, b=1, c=1, d=1\) is not a vertex"):
        translation_adjacency(sch.elements, sch.index, family.field, [family.identity(), singular])
    with pytest.raises(KeyError, match="is not a vertex"):
        translation_partner(sch.elements, sch.index, family.field, singular)


@pytest.mark.parametrize("tag,q", [("gl", 5), ("gu", 5), ("sl", 7), ("orbital", 3)])
def test_row_table_holds_every_vector_times_every_connection_element(tag, q):
    """Entry (u q + v, s) is the key x q + y of (x, y) = (u, v) s, taken one product at a time."""
    _, _, family, connection, _ = builder_inputs(tag, q)
    field = family.field
    f = field.q

    def key(u, v, s):
        x = field.add(field.mul(u, s.a), field.mul(v, s.c))
        y = field.add(field.mul(u, s.b), field.mul(v, s.d))
        return x * f + y

    expected = [[key(u, v, s) for s in connection] for u in range(f) for v in range(f)]
    assert scheme._row_table(field, connection).tolist() == expected


@pytest.mark.parametrize(
    "tag,q", [(tag, q) for tag in ("gl", "gu", "sl") for q in (3, 5, 7)] + [("gl", 9), ("gu", 9)]
)
def test_the_vertex_table_is_smaller_than_the_adjacency(tag, q):
    """The dense table has q_f^4 entries for the coefficient field F_{q_f}; n^2 is larger."""
    family = make_family(tag, q)
    assert family.field.q**4 < family.order**2


def test_the_orbital_vertex_table_is_smaller_than_the_adjacency():
    space = build_coset_space(3)
    assert space.group.field.q**4 == 6561 < space.n_cosets**2 == 14_400
