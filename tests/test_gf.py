"""Field construction, determinism rules, and tower structure."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pstwalk import gf
from oracles import BruteField, all_monic_irreducibles

FIELD_SHAPES = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2), (3, 4), (17, 2)]


@pytest.mark.parametrize("p,k", FIELD_SHAPES)
def test_modulus_is_lowest_irreducible(p, k):
    f = gf.make_field(p, k)
    irr = all_monic_irreducibles(p, k)
    assert f.modulus in irr
    enc = lambda mod: sum(c * p**i for i, c in enumerate(mod[:-1]))
    assert enc(f.modulus) == min(enc(m) for m in irr)


@pytest.mark.parametrize("p,k", FIELD_SHAPES)
def test_generator_is_smallest_primitive(p, k):
    f = gf.make_field(p, k)
    bf = BruteField(p, f.modulus)
    assert bf.order(f.generator) == f.q - 1
    for smaller in range(1, f.generator):
        assert bf.order(smaller) < f.q - 1


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (17, 2), (3, 6)])
def test_arithmetic_matches_brute_field(p, k):
    f = gf.make_field(p, k)
    bf = BruteField(p, f.modulus)
    rng = random.Random(f.q)
    for a in range(f.q):
        # every pair up to q = 25; above, a seeded sample of b plus b = -a
        bs = range(f.q) if f.q <= 25 else rng.sample(range(f.q), 24) + [bf.neg(a)]
        for b in bs:
            assert f.add(a, b) == bf.add(a, b)
            assert f.mul(a, b) == bf.mul(a, b)
        if a:
            assert f.inv(a) == bf.inv(a)
        assert f.neg(a) == bf.neg(a)
        assert f.pow(a, 7) == bf.pow(a, 7)


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_tables_match_scalar_arithmetic(p, k):
    assert gf.FiniteField(p, k)._tables is None  # built on first use only
    f = gf.make_field(p, k)
    mul, add = f.tables()
    assert mul.shape == add.shape == (f.q, f.q)
    for a in range(f.q):
        assert mul[a].tolist() == [f.mul(a, b) for b in range(f.q)]
        assert add[a].tolist() == [f.add(a, b) for b in range(f.q)]
    assert f.tables()[0] is mul


@given(
    pk=st.sampled_from([(3, 2), (5, 2), (7, 2)]),
    a=st.integers(min_value=0, max_value=48),
    b=st.integers(min_value=0, max_value=48),
)
@settings(max_examples=200, deadline=None)
def test_frobenius_is_additive_and_multiplicative(pk, a, b):
    f = gf.make_field(*pk)
    a, b = a % f.q, b % f.q
    fr = lambda x: f.frobenius(x)
    assert fr(f.add(a, b)) == f.add(fr(a), fr(b))
    assert fr(f.mul(a, b)) == f.mul(fr(a), fr(b))
    # Frobenius^k fixes exactly the prime field
    assert f.frobenius(a, f.k) == a


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_squares_and_roots(p, k):
    f = gf.make_field(p, k)
    squares = {f.mul(a, a) for a in range(1, f.q)}
    assert len(squares) == (f.q - 1) // 2
    for a in range(f.q):
        assert f.is_square(a) == (a == 0 or a in squares)
        r = f.sqrt(a)
        if a in squares or a == 0:
            assert r is not None and f.mul(r, r) == a
            other = f.neg(r)
            if other != r:
                assert f.dlog(r) < f.dlog(other)
        else:
            assert r is None


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1)])
def test_delta_is_generator_and_nonsquare(p, k):
    t = gf.make_tower(p, k)
    assert t.delta == t.base.generator
    assert not t.base.is_square(t.delta)
    assert t.ext.mul(t.sqrt_delta, t.sqrt_delta) == t.embed(t.delta)
    # root choice: smaller dlog of the two
    other = t.ext.neg(t.sqrt_delta)
    assert t.ext.dlog(t.sqrt_delta) < t.ext.dlog(other)


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_embedding_is_field_hom_onto_frobenius_fixed_points(p, k):
    t = gf.make_tower(p, k)
    base, ext = t.base, t.ext
    for a in range(base.q):
        for b in range(base.q):
            assert t.embed(base.add(a, b)) == ext.add(t.embed(a), t.embed(b))
            assert t.embed(base.mul(a, b)) == ext.mul(t.embed(a), t.embed(b))
    fixed = {z for z in range(ext.q) if ext.frobenius(z, k) == z}
    assert set(t.embed_map) == fixed
    assert len(set(t.embed_map)) == base.q  # injective
    for a in range(base.q):
        assert t.project(t.embed(a)) == a


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_norm_and_norm_one_subgroup(p, k):
    t = gf.make_tower(p, k)
    q, ext = t.q, t.ext
    for z in range(1, ext.q):
        nm = ext.pow(z, q + 1)
        assert nm in t.section
        assert t.norm(z) == t.project(nm)
    assert len(t.E) == q + 1
    assert set(t.E) == {z for z in range(1, ext.q) if ext.pow(z, q + 1) == 1}
    # E meets the embedded base-field units in exactly {1, -1}
    base_units = {t.embed(a) for a in range(1, t.base.q)}
    assert set(t.E) & base_units == {t.embed(1), t.embed(t.base.neg(1))}
    # index-2 split of E
    sq = {ext.mul(e, e) for e in t.E}
    assert len(sq) == (q + 1) // 2


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_norm_fibers(p, k):
    t = gf.make_tower(p, k)
    seen = set()
    for x in range(1, t.base.q):
        fiber = t.norm_fiber(x)
        assert len(fiber) == t.q + 1
        assert all(t.norm(z) == x for z in fiber)
        seen |= set(fiber)
    assert len(seen) == t.ext.q - 1  # fibers partition the units


@pytest.mark.parametrize("q,expected", [(3, 6), (5, 16), (7, 30)])
def test_norm_in_one_or_nonsquare_set(q, expected):
    """|{z outside F_q with norm in {1} u nonsquares}| = (q+1)^2/2 - 2."""
    t = gf.make_tower(q, 1)
    targets = {1} | {x for x in range(1, q) if not t.base.is_square(x)}
    direct = {
        z
        for z in range(1, t.ext.q)
        if z not in t.section and t.norm(z) in targets
    }
    via_fibers = set()
    for x in targets:
        via_fibers |= {z for z in t.norm_fiber(x) if z not in t.section}
    assert direct == via_fibers
    assert len(direct) == expected == (q + 1) ** 2 // 2 - 2


def test_field_cache_identity():
    assert gf.make_field(3, 2) is gf.make_field(3, 2)
    assert gf.make_tower(3, 1) is gf.make_tower(3, 1)
    assert gf.make_tower(3, 1).ext is gf.make_field(3, 2)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_characteristic_two_is_refused(k):
    with pytest.raises(ValueError, match="only odd characteristic is supported"):
        gf.FiniteField(2, k)


def _odd_prime_powers(limit: int) -> list[tuple[int, int]]:
    primes = [p for p in range(3, limit + 1, 2) if all(p % d for d in range(3, int(p**0.5) + 1, 2))]
    return [(p, k) for p in primes for k in range(1, limit.bit_length()) if p**k <= limit]


def test_table_builders_agree_up_to_the_limit():
    """The pure-Python and the numpy builder give the same exp, log and zech lists.

    Every field of at most ``PURE_TABLE_LIMIT`` elements builds its tables in
    pure Python, so the numpy doubling is the reference there.
    """
    shapes = _odd_prime_powers(gf.PURE_TABLE_LIMIT)
    assert (3, 6) in shapes and (31, 2) in shapes and (1021, 1) in shapes
    for p, k in shapes:
        f = gf.make_field(p, k)
        pure = gf._pure_tables(f.generator, p, f.modulus)
        assert pure == gf._numpy_tables(f.generator, p, f.modulus), (p, k)
        assert (f.exp, f.log, f._zech) == pure, (p, k)


@pytest.mark.parametrize("p,k", [(3, 8), (13, 4), (211, 2)])
def test_table_builders_agree_above_the_limit(p, k):
    f = gf.make_field(p, k)
    doubled = gf._numpy_tables(f.generator, p, f.modulus)
    assert gf._pure_tables(f.generator, p, f.modulus) == doubled
    assert (f.exp, f.log, f._zech) == doubled
