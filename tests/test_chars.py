"""Exact cyclotomic arithmetic and multiplicative characters."""

from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pstwalk.chars import (
    CycSum,
    NonIntegralError,
    _exact_div,
    cyclotomic_polynomial,
    integer_part,
)

from oracles import (
    MultChar,
    char_sum,
    dense_cyclotomic_reduction,
    quadratic_gauss_sum,
    reduced_rows,
    residue_periods,
)

KNOWN_CYCLOTOMICS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
    24: (1, 0, 0, 0, -1, 0, 0, 0, 1),
}


@pytest.mark.parametrize("n,coeffs", sorted(KNOWN_CYCLOTOMICS.items()))
def test_known_cyclotomic_polynomials(n, coeffs):
    assert cyclotomic_polynomial(n) == coeffs


def _euler_phi(n):
    return sum(1 for a in range(1, n + 1) if __import__("math").gcd(a, n) == 1)


def _mobius(n):
    m, count = n, 0
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            count += 1
        d += 1
    if m > 1:
        count += 1
    return (-1) ** count


@pytest.mark.parametrize("n", range(1, 61))
def test_cyclotomic_degree_and_product(n):
    phi = cyclotomic_polynomial(n)
    assert len(phi) - 1 == _euler_phi(n)
    assert phi[-1] == 1
    # product over divisors reconstructs x^n - 1
    prod = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            f = cyclotomic_polynomial(d)
            new = [0] * (len(prod) + len(f) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(f):
                    new[i + j] += a * b
            prod = new
    assert prod == [-1] + [0] * (n - 1) + [1]


def test_full_orbit_sums_vanish_exactly():
    for n in [2, 3, 4, 8, 12, 24, 48]:
        total = CycSum(n, {e: 1 for e in range(n)})
        assert total.is_zero()
        assert integer_part(total) == 0


@pytest.mark.parametrize("n", range(1, 25))
def test_primitive_root_sums_equal_mobius(n):
    from math import gcd

    v = CycSum(n, {a: 1 for a in range(n) if gcd(a, n) == 1})
    assert integer_part(v) == _mobius(n)


def test_integer_part_rejects_non_integers():
    with pytest.raises(NonIntegralError, match=r"Z\[zeta_5\] .* keeps \+1\*z\^1, value about"):
        integer_part(CycSum.monomial(5, 1))
    # zeta_5^4 = -(1 + zeta_5 + zeta_5^2 + zeta_5^3): four terms, three named
    with pytest.raises(NonIntegralError, match=r"keeps -1\*z\^0 -1\*z\^1 -1\*z\^2 and 1 more, value"):
        integer_part(CycSum.monomial(5, 4))
    with pytest.raises(NonIntegralError):
        integer_part(CycSum(8, {1: 1, 2: 1}))
    assert integer_part(CycSum(8, {0: 3})) == 3
    # zeta_8 + zeta_8^7 = sqrt(2): near no integer but must still fail
    with pytest.raises(NonIntegralError):
        integer_part(CycSum(8, {1: 1, 7: 1}))


def test_integer_part_tolerance_scales_with_coefficients():
    # the zeta_12^k with 3 not dividing k sum to exactly 0; at coefficients
    # of 10**10 the float evaluation drifts by about 6e-6
    huge = {k: 10**10 for k in (1, 2, 4, 5, 7, 8, 10, 11)}
    assert abs(CycSum(12, huge).evaluate()) > 1e-6
    assert integer_part(CycSum(12, huge)) == 0
    # one more zeta_12 + zeta_12^11 = sqrt(3) on top is still refused
    with pytest.raises(NonIntegralError):
        integer_part(CycSum(12, {**huge, 1: 10**10 + 1, 11: 10**10 + 1}))


def test_exact_div_refuses_a_remainder():
    assert _exact_div([-1, 0, 1], (-1, 1)) == [1, 1]
    # x^2 + 1 = (x + 1)(x - 1) + 2: a plain exception, so it survives python -O
    with pytest.raises(ArithmeticError, match=r"degree-1 .* remainder \[2\]"):
        _exact_div([1, 0, 1], (-1, 1))


@st.composite
def cyc_sums(draw, n=None):
    n = n or draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24, 40, 48]))
    size = draw(st.integers(0, 6))
    coeffs = {
        draw(st.integers(0, n - 1)): draw(st.integers(-9, 9)) for _ in range(size)
    }
    return CycSum(n, coeffs)


@given(data=st.data())
@settings(max_examples=250, deadline=None)
def test_ring_ops_agree_with_complex_evaluation(data):
    n = data.draw(st.sampled_from([1, 2, 4, 8, 12, 24, 48]))
    a = data.draw(cyc_sums(n=n))
    b = data.draw(cyc_sums(n=n))
    assert abs((a + b).evaluate() - (a.evaluate() + b.evaluate())) < 1e-10
    assert abs((a - b).evaluate() - (a.evaluate() - b.evaluate())) < 1e-10
    assert abs((a * b).evaluate() - (a.evaluate() * b.evaluate())) < 1e-10
    assert abs(a.conjugate().evaluate() - a.evaluate().conjugate()) < 1e-10
    m = data.draw(st.sampled_from([1, 2, 3]))
    assert abs(a.rescale_to(n * m).evaluate() - a.evaluate()) < 1e-10


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_is_zero_matches_evaluation(data):
    a = data.draw(cyc_sums())
    if a.is_zero():
        assert abs(a.evaluate()) < 1e-9
    elif abs(a.evaluate()) > 1e-7:
        assert not a.is_zero()


def _primes_dividing(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


# every root order the families reach at q <= 11: the orbital graph works
# over q^4 - 1 and its divisors, SL over lcm(q^2 - 1, q)
ROOT_ORDERS = sorted(
    {d for q in (3, 5, 7, 11) for d in range(1, q**4) if (q**4 - 1) % d == 0}
    | {lcm(q * q - 1, q) for q in (3, 5, 7, 11)}
)


@st.composite
def sums_and_vanishing_parts(draw):
    """A random sparse sum and a sum of rotated p-gons, which is exactly 0."""
    n = draw(st.sampled_from(ROOT_ORDERS))
    exponents = st.integers(0, n - 1)
    x = CycSum(n, draw(st.dictionaries(exponents, st.integers(-9, 9), max_size=8)))
    vanishing = CycSum(n)
    primes = _primes_dividing(n)
    for _ in range(draw(st.integers(0, 3)) if primes else 0):
        p, e, c = draw(st.sampled_from(primes)), draw(exponents), draw(st.integers(-9, 9))
        vanishing = vanishing + CycSum(n, {e + k * (n // p): c for k in range(p)})
    return x, vanishing


@given(sums=sums_and_vanishing_parts(), c=st.integers(-(10**6), 10**6))
@settings(max_examples=150, deadline=None)
def test_sparse_reduction_matches_dense_oracle(sums, c):
    x, vanishing = sums
    n = x.n
    for s in (x, vanishing, x + vanishing):
        assert s.is_zero() == (not any(dense_cyclotomic_reduction(n, s.c)))
        assert len(s.reduced()) <= _euler_phi(n)
    assert vanishing.is_zero()
    assert (x + vanishing).reduced() == x.reduced()
    assert integer_part(vanishing + c) == c


@st.composite
def sparse_rows(draw):
    """Random terms of up to four sums over one root order, each with a vanishing part."""
    n = draw(st.sampled_from(ROOT_ORDERS))
    exponents = st.integers(0, n - 1)
    primes = _primes_dividing(n)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        terms = draw(st.lists(st.tuples(exponents, st.integers(-9, 9)), max_size=8))
        for _ in range(draw(st.integers(0, 3)) if primes else 0):
            p, e, c = draw(st.sampled_from(primes)), draw(exponents), draw(st.integers(-9, 9))
            terms += [((e + k * (n // p)) % n, c) for k in range(p)]
        rows.append(terms)
    return n, rows


@given(case=sparse_rows())
@settings(max_examples=200, deadline=None)
def test_array_reduction_matches_reduced(case):
    """Guards the array oracle the period-sum tests reduce with: it agrees with CycSum.reduced."""
    n, rows = case
    keys = np.array([r * n + e for r, terms in enumerate(rows) for e, _ in terms], dtype=np.int64)
    coeffs = np.array([c for terms in rows for _, c in terms], dtype=np.int64)
    got_keys, got_coeffs = reduced_rows(n, keys, coeffs)
    assert (np.diff(got_keys) > 0).all() and (got_coeffs != 0).all()
    got = {}
    for key, c in zip(got_keys.tolist(), got_coeffs.tolist()):
        got.setdefault(key // n, {})[key % n] = c
    for r, terms in enumerate(rows):
        want = CycSum(n)
        for e, c in terms:
            want = want + CycSum.monomial(n, e, c)
        assert got.get(r, {}) == want.reduced()


def test_character_basics():
    chi = MultChar(8, 3)
    v = chi(2)
    assert v.c == {6: 1}
    assert chi.at(2, root_order=24).c == {18: 1}
    with pytest.raises(ValueError):
        chi.at(1, root_order=12)


def test_char_sum_quadratic_on_squares():
    # quadratic character of a cyclic group of order 4 (units of F_5),
    # summed over the subset with dlogs {0, 2} (the squares {1, 4})
    lam = MultChar(4, 2)
    assert integer_part(char_sum(lam, [0, 2])) == 2
    assert integer_part(char_sum(lam, [1, 3])) == -2
    # nontrivial character over the whole group vanishes
    assert integer_part(char_sum(MultChar(4, 1), range(4))) == 0


@pytest.mark.parametrize("n", [4, 8, 24])
def test_character_orthogonality_cyclic(n):
    for j in range(n):
        for k in range(n):
            s = CycSum(n)
            for a in range(n):
                s = s + (MultChar(n, j)(a) * MultChar(n, k)(a).conjugate())
            assert integer_part(s) == (n if j == k else 0)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_gauss_sum_square_and_periods(p):
    eta0, eta1 = residue_periods(p)
    assert integer_part(eta0 + eta1) == -1
    g = quadratic_gauss_sum(p)
    sign = 1 if p % 4 == 1 else -1
    assert integer_part(g * g) == sign * p
    # periods are (-1 +/- g)/2
    assert (eta0 * 2 + 1 - g).is_zero()
    assert (eta1 * 2 + 1 + g).is_zero()


def test_equality_across_root_orders():
    assert CycSum.monomial(4, 1) == CycSum.monomial(8, 2)
    assert CycSum(3, {1: 1, 2: 1}) == -1
    assert CycSum(8, {0: 2}) == 2
    assert CycSum.monomial(8, 1) != CycSum.monomial(8, 3)
