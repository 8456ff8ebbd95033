"""Numeric walk machinery on graphs with known closed-form behaviour."""

import tracemalloc
from math import cos, isclose, pi, sin, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pstwalk.cayley import make_family
from pstwalk.cli import ENUMERATION_BOUND, build_target
from pstwalk import ctqw, scheme
from pstwalk.ctqw import (
    TOL,
    NonIntegralSpectrumError,
    PairingError,
    TransferReport,
    WalkSystem,
    check_symmetric,
    derive_transfer_time,
    graph_stack,
    integer_eigenvalues,
    pst_scan,
)
from oracles import (
    EigenRow,
    central_jordan_symmetry,
    dense_adjacency,
    dense_walk,
    eigenvectors,
    integer_rows_with_signs,
    pst_test,
)

K2 = np.array([[0, 1], [1, 0]], dtype=float)
P3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)


def cycle(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1
    return a


# ---------------------------------------------------------------------------
# WalkSystem basics


def test_walk_system_validates_input():
    with pytest.raises(ValueError):
        dense_walk(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        dense_walk(np.array([[0, 1], [0, 0]]))


@settings(max_examples=40)
@given(st.floats(0, 12, allow_nan=False))
def test_k2_matches_closed_form(t):
    walk = dense_walk(K2)
    across, stay = walk.fidelities(t, [(0, 1), (0, 0)])
    assert isclose(across, abs(sin(t)), abs_tol=1e-10)
    assert isclose(stay, abs(cos(t)), abs_tol=1e-10)


@settings(max_examples=40)
@given(st.floats(0, 12, allow_nan=False))
def test_c4_antipodal_matches_closed_form(t):
    walk = dense_walk(cycle(4))
    assert isclose(walk.fidelities(t, [(0, 2)])[0], sin(t) ** 2, abs_tol=1e-10)


def eigen_unitary(walk, t):
    """exp(-i t A) rebuilt from the eigendecomposition the walk stores."""
    v = eigenvectors(walk)
    return (v * np.exp(-1j * t * walk.eigenvalues)) @ v.T


@settings(max_examples=20)
@given(st.floats(0, 8, allow_nan=False), st.floats(0, 8, allow_nan=False))
def test_unitarity_and_group_law(t, s):
    walk = dense_walk(P3)
    u, v = eigen_unitary(walk, t), eigen_unitary(walk, s)
    assert np.abs(u @ u.conj().T - np.eye(3)).max() < 1e-10
    assert np.abs(u @ v - eigen_unitary(walk, t + s)).max() < 1e-10
    pairs = [(x, y) for x in range(3) for y in range(3)]
    assert np.allclose(walk.fidelities(t, pairs), [abs(u[y, x]) for x, y in pairs], atol=1e-10)


def test_fidelities_match_fidelity():
    walk = dense_walk(cycle(4))
    pairs = [(0, 2), (1, 3), (0, 1)]
    assert walk.fidelities(0.7, pairs) == [walk.fidelities(0.7, [p])[0] for p in pairs]


def dense_unitary(a, t):
    """exp(-i t A) by scaling and squaring a Taylor series, with no eigensolver."""
    m = -1j * t * a
    squarings = int(np.log2(np.abs(m).sum(axis=1).max() + 1)) + 1
    m = m / 2**squarings
    u = term = np.eye(len(a), dtype=complex)
    for k in range(1, 30):
        term = term @ m / k
        u = u + term
    for _ in range(squarings):
        u = u @ u
    return u


def graphs(n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def build(bits):
        a = np.zeros((n, n))
        for (i, j), bit in zip(edges, bits):
            a[i, j] = a[j, i] = bit
        return a

    return st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)).map(build)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6).flatmap(graphs), st.floats(0, 8, allow_nan=False))
def test_fidelities_match_dense_unitary(a, t):
    n = len(a)
    walk = dense_walk(a)
    pairs = [(x, y) for x in range(n) for y in range(n)]
    fids = np.array(walk.fidelities(t, pairs)).reshape(n, n)
    assert np.abs(fids - np.abs(dense_unitary(a, t)).T).max() < 1e-10
    # every column of the unitary has unit norm: sum_y |U[y, x]|^2 = 1
    assert np.abs((fids**2).sum(axis=1) - 1).max() < 1e-10


# ---------------------------------------------------------------------------
# integer spectra and transfer times


def test_integer_eigenvalues_k2():
    walk = dense_walk(K2)
    assert sorted(integer_eigenvalues(walk).tolist()) == [-1, 1]
    assert derive_transfer_time(walk) == (2, pytest.approx(pi / 2))


def test_integer_eigenvalues_refuse_p3():
    walk = dense_walk(P3)
    with pytest.raises(NonIntegralSpectrumError, match="explicit"):
        integer_eigenvalues(walk)


def test_derive_transfer_time_needs_gap():
    walk = dense_walk(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="no walk"):
        derive_transfer_time(walk)


def test_rows_k2():
    assert integer_rows_with_signs(K2, [1, 0]) == [
        EigenRow(1, 1, 1),
        EigenRow(-1, -1, 1),
    ]


def test_rows_c4_antipodal():
    assert integer_rows_with_signs(cycle(4), [2, 3, 0, 1]) == [
        EigenRow(2, 1, 1),
        EigenRow(0, -1, 2),
        EigenRow(-2, 1, 1),
    ]


def test_rows_c4_adjacent_swap_splits_eigenspace():
    rows = integer_rows_with_signs(cycle(4), [1, 0, 3, 2])
    assert rows == [
        EigenRow(2, 1, 1),
        EigenRow(0, 1, 1),
        EigenRow(0, -1, 1),
        EigenRow(-2, -1, 1),
    ]


def test_rows_weighted_path():
    rows = integer_rows_with_signs(P3 * sqrt(2), [2, 1, 0])
    assert rows == [EigenRow(2, 1, 1), EigenRow(0, -1, 1), EigenRow(-2, 1, 1)]


def test_rows_validate_permutation():
    with pytest.raises(ValueError, match="bijection"):
        integer_rows_with_signs(P3 * sqrt(2), [0, 0, 2])
    with pytest.raises(ValueError, match="order at most 2"):
        integer_rows_with_signs(cycle(4), [1, 2, 3, 0])
    with pytest.raises(ValueError, match="automorphism"):
        integer_rows_with_signs(P3 * sqrt(2), [1, 0, 2])
    with pytest.raises(NonIntegralSpectrumError):
        integer_rows_with_signs(P3, [2, 1, 0])


# ---------------------------------------------------------------------------
# transfer scans


def test_scan_k2():
    report = pst_scan(dense_walk(K2), [(0, 1)])
    assert report.ok
    assert report.time == pytest.approx(pi / 2)
    assert report.times_checked == (report.time, 3 * report.time)
    assert report.min_fidelity >= 1 - 1e-9
    assert report.mid_fidelity == pytest.approx(sin(pi / 4))
    assert report.reason == ""


def test_scan_c4_antipodal_passes_adjacent_fails():
    assert pst_scan(dense_walk(cycle(4)), [(0, 2), (1, 3)]).ok
    report = pst_scan(dense_walk(cycle(4)), [(0, 1)])
    assert not report.ok and "fidelity" in report.reason


def test_scan_explicit_time_path():
    report = pst_scan(dense_walk(P3), [(0, 2)], time=pi / sqrt(2))
    assert report.ok
    assert report.times_checked == (pi / sqrt(2),)


def test_scan_requires_explicit_time_for_irrational_spectrum():
    with pytest.raises(NonIntegralSpectrumError):
        pst_scan(dense_walk(P3), [(0, 2)])


def test_scan_weighted_integer_spectrum():
    report = pst_scan(dense_walk(P3 * sqrt(2)), [(0, 2)])
    assert report.ok and report.time == pytest.approx(pi / 2)


def test_scan_rejects_trivial_return():
    # a single vertex "transfers" to itself at every time; the half-time
    # guard refuses to certify that as transfer
    report = pst_scan(dense_walk(np.zeros((1, 1))), [(0, 0)], time=1.0)
    assert not report.ok and "already complete" in report.reason


def test_scan_disjoint_union():
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = a[2, 3] = a[3, 2] = 1
    assert pst_scan(dense_walk(a), [(0, 1), (2, 3)]).ok


def test_scan_requires_pairs():
    with pytest.raises(ValueError, match="pairs"):
        pst_scan(dense_walk(K2), [])


def test_scan_accepts_walk_system():
    walk = dense_walk(K2)
    assert pst_scan(walk, [(0, 1)]).ok


def hypercube(d):
    n = 1 << d
    a = np.zeros((n, n), dtype=np.int64)
    for x in range(n):
        for b in range(d):
            a[x, x ^ (1 << b)] = 1
    return a, [(x, x ^ (n - 1)) for x in range(n) if x < x ^ (n - 1)]


def test_scan_memory_stays_below_five_dense_arrays():
    """The 9-cube (n = 512): antipodal transfer at pi/2, read at the pairs only.

    A full complex exp(-itA) alone is two n x n float arrays; the scan must
    peak below 3.5, counting its float copy of A, the eigenvectors and the
    blockwise drift check of the eigendecomposition.
    """
    a, pairs = hypercube(9)
    n = len(a)
    tracemalloc.start()
    try:
        report = pst_scan(dense_walk(a), pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.time == pytest.approx(pi / 2)
    assert report.pairs_checked == n // 2
    assert peak < 3.5 * n * n * 8


def test_paired_scan_memory_stays_below_the_same_bound():
    """The 9-cube split by its antipodal pairing fits the unpaired scan's bound."""
    a, pairs = hypercube(9)
    n = len(a)
    tracemalloc.start()
    try:
        report = pst_scan(dense_walk(a, antipodes(n)), pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.time == pytest.approx(pi / 2)
    assert peak < 3.5 * n * n * 8


def test_paired_walk_reads_one_byte_entries_without_a_float_copy():
    """A uint8 9-cube is split as it is: no n x n float copy of A, only the half blocks."""
    a, _ = hypercube(9)
    a = a.astype(np.uint8)
    n = len(a)
    tracemalloc.start()
    try:
        dense_walk(a, antipodes(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * n * n * 8


@pytest.mark.parametrize("paired", [False, True])
def test_integer_and_float_inputs_give_the_same_decomposition(paired):
    a, _ = hypercube(6)
    pairing = antipodes(len(a)) if paired else None
    walks = [dense_walk(a.astype(t), pairing) for t in (np.uint8, np.int64, float)]
    for walk in walks[1:]:
        assert np.array_equal(walk.block_eigenvalues, walks[0].block_eigenvalues)
        assert np.array_equal(walk.block_vectors, walks[0].block_vectors)


def test_asymmetric_uint8_adjacency_is_refused():
    with pytest.raises(ValueError, match="adjacency must be symmetric"):
        dense_walk(np.array([[0, 1], [0, 0]], dtype=np.uint8))


def test_uint8_half_blocks_do_not_wrap():
    """A- = A[lo, lo] - A[lo, P lo] is 0 - 1 on K2, which wraps to 255 in uint8 arithmetic."""
    walk = dense_walk(K2.astype(np.uint8), [1, 0])
    assert walk.block_signs == (1, -1)
    assert walk.block_eigenvalues.tolist() == [[1.0], [-1.0]]


def test_report_is_frozen():
    report = pst_scan(dense_walk(K2), [(0, 1)])
    assert isinstance(report, TransferReport)
    with pytest.raises(AttributeError):
        report.ok = False


# ---------------------------------------------------------------------------
# certificate vs simulation agreement on the control graphs


AGREEMENT_CASES = [
    ("K2 swap", K2, [1, 0]),
    ("C4 antipodal", cycle(4), [2, 3, 0, 1]),
    ("C4 adjacent swap", cycle(4), [1, 0, 3, 2]),
    ("weighted P3 end swap", P3 * sqrt(2), [2, 1, 0]),
]


@pytest.mark.parametrize("name,adj,perm", AGREEMENT_CASES, ids=[c[0] for c in AGREEMENT_CASES])
def test_certificate_agrees_with_simulation(name, adj, perm):
    rows = integer_rows_with_signs(adj, perm)
    cert = pst_test(rows)
    pairs = [(i, p) for i, p in enumerate(perm) if i < p]
    report = pst_scan(dense_walk(adj), pairs)
    assert cert.ok == report.ok
    if cert.ok:
        assert cert.time == pytest.approx(report.time)


# ---------------------------------------------------------------------------
# the walk split by a pairing: A+ and A- on the two sides of P


def antipodes(n):
    return np.arange(n) ^ (n - 1)


def explicit(family, q):
    graph = build_target(family, q).graph(ENUMERATION_BOUND)
    return dense_adjacency(graph), graph.partner


PAIRED_CASES = {
    "9-cube": lambda: (hypercube(9)[0], antipodes(512)),
    "C4": lambda: (cycle(4), np.array([2, 3, 0, 1])),
    "gl 3": lambda: explicit("gl", 3),
    "sl 5": lambda: explicit("sl", 5),
    "orbital 3": lambda: explicit("orbital", 3),
}


@pytest.mark.parametrize("name", PAIRED_CASES)
def test_paired_walk_matches_the_unpaired_walk(name):
    a, partner = PAIRED_CASES[name]()
    n = len(a)
    paired, plain = dense_walk(a, partner), dense_walk(a)
    assert paired.block_eigenvalues.shape == (2, n // 2)
    assert paired.block_signs == (1, -1) and plain.block_signs == (None,)
    assert np.abs(paired.eigenvalues - plain.eigenvalues).max() < TOL
    rng = np.random.default_rng(7)
    others = [(int(x), int(y)) for x, y in rng.integers(0, n, size=(64, 2))]
    partners = [(x, int(partner[x])) for x in range(n)]
    for t in (0.3, pi / 2, 2.1):
        for pairs in (partners, others):
            assert np.allclose(paired.fidelities(t, pairs), plain.fidelities(t, pairs), atol=1e-10)


@pytest.mark.parametrize("name", PAIRED_CASES)
def test_each_side_holds_the_rows_of_its_sign(name):
    a, partner = PAIRED_CASES[name]()
    walk = dense_walk(a, partner)
    rows = integer_rows_with_signs(a, partner)
    for values, sign in zip(walk.block_eigenvalues, walk.block_signs):
        exact = sorted(r.theta for r in rows if r.sign == sign for _ in range(r.multiplicity))
        assert np.rint(values).astype(int).tolist() == exact
        assert np.abs(values - exact).max() < TOL


def paired_graphs(m):
    """Graphs on 2m vertices that a random fixed-point-free involution preserves.

    [[B, C], [C, B]] for symmetric 0/1 blocks B (no loops) and C is preserved
    by i <-> i + m; a random relabelling then scatters the pairs.
    """
    cells = m * m

    def build(args):
        bits, order = args
        b = np.zeros((m, m))
        b[np.triu_indices(m, 1)] = bits[: m * (m - 1) // 2]
        c = np.zeros((m, m))
        c[np.triu_indices(m)] = bits[m * (m - 1) // 2 : m * (m - 1) // 2 + m * (m + 1) // 2]
        b, c = b + b.T, c + np.triu(c, 1).T
        a = np.block([[b, c], [c, b]])
        swap = np.concatenate((np.arange(m, 2 * m), np.arange(m)))
        order = np.asarray(order)
        inverse = np.argsort(order)
        return a[np.ix_(order, order)], inverse[swap[order]]

    return st.tuples(
        st.lists(st.booleans(), min_size=cells, max_size=cells),
        st.permutations(range(2 * m)),
    ).map(build)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4).flatmap(paired_graphs), st.floats(0, 8, allow_nan=False))
def test_paired_fidelities_match_dense_unitary(graph, t):
    a, partner = graph
    n = len(a)
    walk = dense_walk(a, partner)
    pairs = [(x, y) for x in range(n) for y in range(n)]
    fids = np.array(walk.fidelities(t, pairs)).reshape(n, n)
    assert np.abs(fids - np.abs(dense_unitary(a, t)).T).max() < 1e-10
    assert np.abs(eigen_unitary(walk, t) - dense_unitary(a, t)).max() < 1e-10


@pytest.mark.parametrize(
    "partner, message",
    [
        ([2, 1, 0, 3], "fixes vertex 1"),
        ([1, 2, 3, 0], "not an involution at vertex 0"),
        ([2, 3, 0, 1], "not an automorphism: it moves the edges of vertex 0"),
        ([2, 3, 0], "each of the 4 vertices"),
        ([2, 3, 0, 4], "each of the 4 vertices"),
    ],
)
def test_a_pairing_that_is_not_an_involutive_automorphism_is_refused(partner, message):
    a = cycle(4)
    a[0, 1] = a[1, 0] = 2  # the antipodal pairing of C4 would now move an edge weight
    with pytest.raises(PairingError, match=message):
        dense_walk(a, partner)
    assert issubclass(PairingError, ValueError)


# ---------------------------------------------------------------------------
# the walk split along a free cyclic symmetry: the Fourier blocks of sigma


def explicit_graph_of(family, q, variant="standard"):
    return build_target(family, q, variant).graph(ENUMERATION_BOUND)


SPLIT_CASES = [
    ("gl", 3, "standard"),
    ("gl", 3, "small-orders"),
    ("gl", 5, "standard"),
    ("gu", 3, "standard"),
    ("gu", 5, "standard"),
    ("sl", 3, "standard"),
    ("sl", 5, "standard"),
    ("sl", 7, "standard"),
    ("sl", 9, "standard"),
    ("orbital", 3, "standard"),
]


def split_pairs(walk, partner, rng):
    """Partner pairs, pairs on one orbit at every other offset, and pairs across orbits."""
    n = len(partner)
    partners = [(x, int(partner[x])) for x in range(n)]
    same_orbit = [
        (int(x), int(y))
        for x in rng.integers(0, n, size=8)
        for y in np.flatnonzero(walk.rows == walk.rows[x])
        if y != x and y != partner[x]
    ]
    across = [(int(x), int(y)) for x, y in rng.integers(0, n, size=(64, 2))]
    return partners, same_orbit, across


@pytest.mark.parametrize("family,q,variant", SPLIT_CASES, ids=lambda v: str(v))
def test_split_walk_matches_the_unsplit_walk(family, q, variant):
    graph = explicit_graph_of(family, q, variant)
    a, partner = dense_adjacency(graph), graph.partner
    n = len(a)
    split, plain = dense_walk(a, graph.symmetry), dense_walk(a)
    c = split.order
    assert c % 2 == 0 and np.array_equal(split.pairing, partner)
    assert split.block_eigenvalues.shape == (c // 2 + 1, n // c)
    assert split.block_signs == tuple((-1) ** j for j in range(c // 2 + 1))
    assert len(split) == n and np.abs(split.eigenvalues - plain.eigenvalues).max() < 1e-9
    rows = integer_rows_with_signs(a, partner)
    for sign, values in split.sides().items():
        exact = sorted(r.theta for r in rows if r.sign == sign for _ in range(r.multiplicity))
        assert len(values) == len(exact) and np.abs(values - exact).max() < 1e-9
    partners, same_orbit, across = split_pairs(split, partner, np.random.default_rng(11))
    assert same_orbit or c == 2
    for t in (0.3, pi / 2, 2.1):
        for pairs in (partners, same_orbit, across):
            if pairs:
                got, want = split.fidelities(t, pairs), plain.fidelities(t, pairs)
                assert np.abs(np.subtract(got, want)).max() < 1e-9


def test_cayley_graphs_split_into_blocks_of_the_centre_times_p():
    """c = p |s|: p (q^2 - 1) for GL and GU, p (q + 1) for SL; (q + 1)(q^2 + 1) on the coset graph."""
    orders = {(f, q): dense_walk(dense_adjacency(g), g.symmetry).order
              for f, q in [("gl", 3), ("gl", 5), ("gu", 3), ("sl", 5), ("sl", 7), ("orbital", 3)]
              for g in [explicit_graph_of(f, q)]}
    assert orders == {("gl", 3): 24, ("gl", 5): 120, ("gu", 3): 24, ("sl", 5): 30, ("sl", 7): 56,
                      ("orbital", 3): 40}


DIFFERENTIAL_CASES = [
    ("gl", 3), ("gl", 5), ("gl", 7), ("gl", 9),
    ("gu", 3), ("gu", 5), ("gu", 7), ("gu", 9),
    ("sl", 5), ("sl", 9), ("sl", 11),
    ("orbital", 3),
]


@pytest.mark.parametrize("family,q", DIFFERENTIAL_CASES, ids=lambda v: str(v))
def test_the_walk_split_by_the_torus_symmetry_matches_the_central_jordan_walk(family, q):
    """Against the walk split along the earlier symmetry: right translation by the
    central jordan element on a Cayley graph (c = |Z| p), the pairing itself (c = 2) on
    the coset graph.  The blocks have size (q -+ 1) q/p, q on the coset graph, and both
    sides and the fidelities of partner and random pairs agree."""
    graph = explicit_graph_of(family, q)
    a, partner = dense_adjacency(graph), graph.partner
    if family == "orbital":
        earlier, order, size = partner, 2, q
    else:
        group = make_family(family, q)
        earlier = central_jordan_symmetry(group)
        order = {"gl": q - 1, "gu": q + 1, "sl": 2}[family] * group.p
        size = (q + 1 if family == "gu" else q - 1) * q // group.p
    walk, reference = dense_walk(a, graph.symmetry), dense_walk(a, earlier)
    assert reference.order == order < walk.order and np.array_equal(walk.pairing, reference.pairing)
    assert walk.block_vectors.shape[1] == size == len(a) // walk.order
    sides, expected = walk.sides(), reference.sides()
    assert sides.keys() == expected.keys() == {1, -1}
    for sign, values in expected.items():
        assert np.abs(sides[sign] - values).max() < 1e-9
    rng = np.random.default_rng(q)
    pairs = [(x, int(partner[x])) for x in range(len(a))]
    pairs += [(int(x), int(y)) for x, y in rng.integers(0, len(a), size=(256, 2))]
    for t in (0.3, pi / 2, 2.1):
        assert np.abs(np.subtract(walk.fidelities(t, pairs), reference.fidelities(t, pairs))).max() < 1e-9
    assert walk.fidelities(0.3, pairs[-5:]) == walk.fidelities(0.3, pairs)[-5:]  # alike in any batch


def full_unitary(walk, t):
    """exp(-i t A) from the eigenvectors of every Fourier block, conjugates included."""
    v = eigenvectors(walk)
    return (v * np.exp(-1j * t * walk.eigenvalues)) @ v.conj().T


def circulant_graphs(c, m):
    """Graphs on c m vertices that sigma: (p, r) -> (p + 1 mod c, r) preserves.

    A[(p, r), (p', s)] = B[p' - p][r, s] with B[-d] = B[d]^T, 0/1 entries
    and no loops; a random relabelling then scatters the orbits.
    """
    pairs = [(d, r, s) for d in range(c) for r in range(m) for s in range(m)
             if (d, r, s) < ((-d) % c, s, r)]

    def build(args):
        bits, order = args
        b = np.zeros((c, m, m))
        for (d, r, s), bit in zip(pairs, bits):
            b[d, r, s] = b[(-d) % c, s, r] = bit
        p, r = np.divmod(np.arange(c * m), m)
        a = b[(p[None, :] - p[:, None]) % c, r[:, None], r[None, :]]
        sigma = ((p + 1) % c) * m + r
        order = np.asarray(order)
        inverse = np.argsort(order)
        return a[np.ix_(order, order)], inverse[sigma[order]]

    return st.tuples(
        st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)),
        st.permutations(range(c * m)),
    ).map(build)


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.sampled_from([2, 4, 6, 8]), st.integers(1, 3)).flatmap(lambda cm: circulant_graphs(*cm)),
    st.floats(0, 8, allow_nan=False),
)
def test_split_fidelities_match_dense_unitary(graph, t):
    a, sigma = graph
    n = len(a)
    walk = dense_walk(a, sigma)
    assert walk.order * walk.block_vectors.shape[1] == n
    pairs = [(x, y) for x in range(n) for y in range(n)]
    fids = np.array(walk.fidelities(t, pairs)).reshape(n, n)
    exact = dense_unitary(a, t)
    assert np.abs(fids - np.abs(exact).T).max() < 1e-10
    assert np.abs(full_unitary(walk, t) - exact).max() < 1e-10


def test_the_rotation_of_a_cycle_splits_it_into_its_fourier_modes():
    """C8 under i -> i + 1: eight 1 x 1 blocks 2 cos(2 pi j / 8), five of them stored."""
    walk = dense_walk(cycle(8).astype(np.uint8), (np.arange(8) + 1) % 8)
    assert walk.order == 8 and walk.block_vectors.dtype == complex
    modes = 2 * np.cos(2 * pi * np.arange(5) / 8)
    assert np.abs(walk.block_eigenvalues[:, 0] - modes).max() < 1e-12
    assert np.array_equal(walk.pairing, (np.arange(8) + 4) % 8)
    assert pst_scan(walk, [(0, 4)], time=pi / 2).min_fidelity < 1  # C8 has no antipodal transfer


@pytest.mark.parametrize(
    "a, symmetry, message",
    [
        (cycle(3), [1, 2, 0], "not an involution at vertex 0, and the symmetry has odd order 3"),
        (np.zeros((6, 6)), [1, 2, 3, 0, 5, 4],
         "not an involution at vertex 0, and the symmetry of order 4 returns vertex 4 after 2 steps"),
        (np.zeros((10, 10)), [1, 2, 3, 0, 5, 6, 7, 8, 9, 4],
         "the symmetry of order 4 does not return vertex 4 after 4 steps"),
        (np.zeros((3, 3)), [1, 2, 1], "the symmetry does not return vertex 0"),
        (cycle(8), [2, 3, 4, 5, 6, 7, 1, 0],
         "not an involution at vertex 0, and the symmetry of order 8 is not an automorphism: "
         "it moves the edges of vertex 0"),
    ],
)
def test_a_symmetry_that_is_not_a_free_cyclic_automorphism_of_even_order_is_refused(a, symmetry, message):
    with pytest.raises(PairingError, match=message):
        dense_walk(a, symmetry)


def test_the_split_walk_at_gl_7_holds_no_half_size_block():
    """n = 2016, c = 336: 169 blocks of 6 x 6.  The stack and the walk peak at
    about 0.5 MiB under tracemalloc (3.2 MiB split along right translation by
    the central jordan element, in 22 blocks of 48 x 48); one n/2 x n/2 float
    block takes 7.8 MiB."""
    graph = explicit_graph_of("gl", 7)
    tracemalloc.start()
    try:
        walk = WalkSystem.from_stack(*graph_stack(graph))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walk.order == 336 and len(walk) == 2016
    assert peak < 1.5 * 2**20


def test_integer_symmetry_is_exact():
    """2^60 and 2^60 + 1 are one float apart: only an exact test tells them apart."""
    a = np.array([[0, 2**60], [2**60 + 1, 0]], dtype=np.int64)
    with pytest.raises(ValueError, match="adjacency must be symmetric"):
        dense_walk(a)


@pytest.mark.parametrize("dtype", [np.uint8, float])
@pytest.mark.parametrize("i, j", [(0, 299), (299, 0), (127, 128), (128, 127), (200, 250), (250, 200)])
def test_an_asymmetric_entry_in_any_row_slice_is_refused(dtype, i, j):
    a = np.zeros((300, 300), dtype=dtype)
    a[i, j] = 1
    with pytest.raises(ValueError, match=rf"adjacency must be symmetric: entry \({min(i, j)}, {max(i, j)}\) "):
        dense_walk(a)


def stack_matrix(orbits, stack):
    """The n x n matrix with A[sigma^s lo_i, sigma^(s + d) lo_r] = B[d][i, r]."""
    c = len(orbits)
    a = np.zeros((orbits.size, orbits.size), dtype=stack.dtype)
    for s in range(c):
        for d in range(c):
            a[orbits[s][:, None], orbits[(s + d) % c]] = stack[d]
    return a


def test_a_stack_with_one_doctored_entry_is_refused_as_asymmetric():
    """B[-d] = B[d]^T is A = A^T for an automorphism sigma: one flipped entry of
    the gl 3 stack is refused, in any slice of rows, naming the least entry at
    which the matrix the stack stands for differs from its transpose."""
    orbits, stack = graph_stack(explicit_graph_of("gl", 3))
    check_symmetric(orbits, stack)
    for d, i, r in [(3, 1, 0), (21, 0, 1), (0, 0, 1)]:  # c = 24, m = 2
        doctored = stack.copy()
        doctored[d, i, r] ^= 1
        a = stack_matrix(orbits, doctored)
        x, y = np.argwhere(a != a.T)[0]
        entry = rf"adjacency must be symmetric: entry \({x}, {y}\) is {a[x, y]} but \({y}, {x}\) is {a[y, x]}$"
        with pytest.raises(ValueError, match=entry):
            check_symmetric(orbits, doctored)
        with pytest.raises(ValueError, match=rf"adjacency must be symmetric: entry \({x}, {y}\) "):
            check_symmetric(orbits, doctored.astype(float))


@pytest.mark.parametrize("c, m", [(3, 2), (24, 2), (336, 6), (2000, 2)])
def test_fourier_blocks_match_the_dft_along_the_orbit_axis(c, m):
    """A_j = sum_d omega^(jd) B[d] is c times the inverse DFT of the stack along d."""
    stack = np.random.default_rng(c).integers(0, 2, size=(c, m, m)).astype(np.uint8)
    blocks = ctqw._fourier_blocks(stack)
    assert blocks.shape == (c // 2 + 1, m, m)
    assert np.abs(blocks - c * np.fft.ifft(stack, axis=0)[: c // 2 + 1]).max() < 1e-9 * c


def test_fourier_blocks_hold_no_cosine_matrix():
    """c = 4000, m = 2: the (c/2 + 1) x c cosine matrix alone would take 64 MB; the
    blocks are made a run of j at a time, each temporary near ``scheme.BLOCK_ENTRIES``."""
    c, m = 4000, 2
    stack = np.random.default_rng(0).integers(0, 2, size=(c, m, m)).astype(np.uint8)
    tracemalloc.start()
    try:
        blocks = ctqw._fourier_blocks(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < blocks.nbytes + c * m * m * 8 + 8 * scheme.BLOCK_ENTRIES * 8
