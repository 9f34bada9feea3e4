from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import (brute_fundamental_unit, brute_unit_norm, squarefree_split,
                     state_table_fundamental_unit)

from pellrat import quadfield as qf
from pellrat.errors import DefectError, NotAUnit

SQUAREFREE = [d for d in range(2, 101) if squarefree_split(d)[0] == 1]


def field(d):
    return qf.QuadraticField(d)


@st.composite
def elements(draw, d_pool=SQUAREFREE):
    d = draw(st.sampled_from(d_pool))
    f = field(d)
    u = draw(st.integers(min_value=-50, max_value=50))
    v = draw(st.integers(min_value=-50, max_value=50))
    if d % 4 == 1 and draw(st.booleans()):
        return qf.element(f, 2 * u + 1, 2 * v + 1, 2)
    return qf.element(f, u, v)


def test_field_rejects_bad_radicands():
    for d in (0, 1, 4, 9, 12, 18, 25, 49, 50):
        with pytest.raises(ValueError):
            field(d)
    for d in (2, 3, 5, 82, 2362):
        field(d)


def test_ring_kind_and_disc():
    assert field(2).disc == 8
    assert field(3).disc == 12
    assert field(5).disc == 5
    assert field(82).disc == 328
    assert field(85).disc == 85


def test_element_canonicalization():
    f = field(5)
    x = qf.element(f, 2, 4, 2)
    assert (x.u, x.v, x.den) == (1, 2, 1)
    y = qf.element(f, 1, 3, 2)
    assert (y.u, y.v, y.den) == (1, 3, 2)
    with pytest.raises(ValueError):
        qf.element(field(2), 1, 1, 2)
    with pytest.raises(ValueError):
        qf.element(f, 1, 2, 2)


def test_mul_requires_same_field():
    with pytest.raises(ValueError):
        qf.element(field(2), 1, 1) * qf.element(field(3), 1, 1)


@given(elements().flatmap(lambda x: st.tuples(
    st.just(x),
    st.integers(min_value=-50, max_value=50).map(
        lambda u: qf.element(x.field, u, (u * 7) % 23 - 11)),
    st.integers(min_value=-50, max_value=50).map(
        lambda u: qf.element(x.field, (u * 3) % 17 - 8, u)))))
def test_ring_axioms(triple):
    x, y, z = triple
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x - x == qf.element(x.field, 0, 0)


@st.composite
def element_pairs(draw):
    x = draw(elements())
    u = draw(st.integers(min_value=-50, max_value=50))
    v = draw(st.integers(min_value=-50, max_value=50))
    return x, qf.element(x.field, u, v)


@given(element_pairs())
def test_norm_and_conj_multiplicative(pair):
    x, y = pair
    assert qf.qi_norm(x * y) == qf.qi_norm(x) * qf.qi_norm(y)
    assert (x * y).conj() == x.conj() * y.conj()


@given(elements())
def test_conj_fixes_norm_and_trace(x):
    tr = x + x.conj()
    assert tr.v == 0
    assert qf.qi_norm(x) == qf.qi_norm(x.conj())


@given(elements())
def test_sign_matches_float(x):
    import math
    approx = x.u / x.den + x.v / x.den * math.sqrt(x.field.d)
    if abs(approx) > 1e-6:
        assert qf.qi_sign(x) == (1 if approx > 0 else -1)


@given(elements())
def test_inverse_of_units_only(x):
    n = qf.qi_norm(x)
    if abs(n) == 1:
        assert (x * x.inverse()).is_one()
    else:
        with pytest.raises(NotAUnit):
            x.inverse()


@given(elements(), st.integers(min_value=-6, max_value=40))
def test_pow_matches_repeated_mul(x, k):
    if k < 0:
        assume(abs(qf.qi_norm(x)) == 1)
    got = x**k
    want = qf.element(x.field, 1, 0)
    step = x if k >= 0 else x.inverse()
    for _ in range(abs(k)):
        want = want * step
    assert got == want


def test_fundamental_unit_table():
    # classical table values, including half-integer and long-period cases
    table = {
        2: (1, 1, 1), 3: (2, 1, 1), 5: (1, 1, 2), 6: (5, 2, 1),
        7: (8, 3, 1), 10: (3, 1, 1), 13: (3, 1, 2), 14: (15, 4, 1),
        19: (170, 39, 1), 22: (197, 42, 1), 61: (39, 5, 2),
        82: (9, 1, 1), 94: (2143295, 221064, 1),
    }
    for d, want in table.items():
        eps = qf.fundamental_unit(field(d))
        assert (eps.u, eps.v, eps.den) == want, d


def test_fundamental_unit_matches_brute_oracle_below_100():
    for d in SQUAREFREE:
        eps = qf.fundamental_unit(field(d))
        assert (eps.u, eps.v, eps.den) == brute_fundamental_unit(d), d
        assert qf.unit_norm_sign(field(d)) == brute_unit_norm(d), d


def test_fundamental_unit_matches_the_state_table_below_5000():
    # the slow route keeps every (P, Q) state and closes on a repeat; the
    # fast one closes on the first later Q equal to the generator's
    checked = 0
    for d in range(2, 5000):
        if squarefree_split(d)[0] != 1:
            continue
        eps = qf.fundamental_unit(field(d))
        assert (eps.u, eps.v, eps.den) == state_table_fundamental_unit(d), d
        checked += 1
    assert checked == 3041


@given(st.sampled_from(SQUAREFREE), st.integers(min_value=1, max_value=6),
       st.sampled_from([1, -1]))
def test_unit_index_recovers_power(d, k, sign):
    f = field(d)
    eps = qf.fundamental_unit(f)
    t = eps**k
    if sign < 0:
        t = -t
    assert qf.unit_index(t, eps) == (sign, k)


def test_unit_index_rejects_non_units():
    # every unit is +-eps^k, so the only way to fail is not being a unit
    f = field(2)
    eps = qf.fundamental_unit(f)
    with pytest.raises(NotAUnit):
        qf.unit_index(qf.element(f, 2, 0), eps)


def test_m_bound_frozen_values():
    assert qf.m_bound(3, 2) == Fraction(3, 2)
    assert qf.m_bound(3, 3) == Fraction(26973, 512)
    assert qf.m_bound(5, 2) == Fraction(1375, 32)
    assert qf.m_bound(7, 2) == Fraction(184877, 64)
    assert qf.m_bound_satisfied(3, 2, 1)
    assert not qf.m_bound_satisfied(3, 2, 2)
    assert qf.m_bound_satisfied(3, 3, 52)
    assert not qf.m_bound_satisfied(3, 3, 53)


def test_construct_family_known_cells():
    fam = qf.construct_family(3, 2, 1)
    assert (fam.n, fam.b, fam.d) == (82, 1, 82)
    assert qf.qi_norm(fam.t) == -1
    fam = qf.construct_family(3, 5, 1)
    assert (fam.n, fam.b, fam.d) == (59050, 5, 2362)
    fam = qf.construct_family(5, 2, 1)
    assert (fam.n, fam.b, fam.d) == (626, 1, 626)
    fam = qf.construct_family(3, 2, 2)
    assert (fam.n, fam.b, fam.d) == (325, 5, 13)


def test_construct_family_validation():
    with pytest.raises(ValueError):
        qf.construct_family(2, 2, 1)
    with pytest.raises(ValueError):
        qf.construct_family(9, 2, 1)
    with pytest.raises(ValueError):
        qf.construct_family(3, 1, 1)
    with pytest.raises(ValueError):
        qf.construct_family(3, 2, 6)
    with pytest.raises(ValueError):
        qf.construct_family(3, 2, 0)


@given(st.sampled_from([3, 5, 7, 11]), st.integers(min_value=2, max_value=5),
       st.integers(min_value=1, max_value=30))
def test_family_norm_and_split_hold(p, r, m):
    assume(m % p)
    fam = qf.construct_family(p, r, m)
    assert fam.b * fam.b * fam.d == fam.n
    assert squarefree_split(fam.n)[1] == fam.d
    assert qf.qi_norm(fam.t) == -1
    t2 = qf.element(fam.field, m * p**r, fam.b)
    assert fam.t == t2
