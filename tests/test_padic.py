from dataclasses import replace

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import squarefree_split

from pellrat import intkit, padic
from pellrat import quadfield as qf
from pellrat.errors import NoEmbedding, PrecisionExhausted

SQUAREFREE = [d for d in range(2, 200) if squarefree_split(d)[0] == 1]
SMALL_ODD_PRIMES = [3, 5, 7, 11, 13]


def split_pairs():
    return [(d, p) for d in SQUAREFREE for p in SMALL_ODD_PRIMES
            if intkit.jacobi(d, p) == 1]


@given(st.sampled_from(split_pairs()), st.integers(min_value=1, max_value=12))
def test_hensel_sqrt_is_a_root(pair, k):
    d, p = pair
    s = padic.hensel_sqrt(d, p, k)
    assert (s * s - d) % p**k == 0
    assert 0 < s < p**k
    assert 2 * s < p**k  # smallest of the two roots


def test_hensel_sqrt_rejects_non_residues():
    with pytest.raises(NoEmbedding):
        padic.hensel_sqrt(2, 3, 4)  # 2 is not a square mod 3
    with pytest.raises(NoEmbedding):
        padic.hensel_sqrt(21, 7, 2)  # 7 divides 21: ramified, not split


@given(st.sampled_from(split_pairs()), st.integers(min_value=1, max_value=10))
def test_branches_are_complementary(pair, k):
    d, p = pair
    f = qf.QuadraticField(d)
    e1 = padic.split_embedding(f, p, k)
    e2 = replace(e1, s=p**k - e1.s)  # the other prime above p
    assert (e2.s * e2.s - d) % p**k == 0
    assert e1.s != e2.s
    x = qf.element(f, 2, 1)
    assert padic.embed(x, e2) == padic.embed(x.conj(), e1)


@given(st.sampled_from(split_pairs()), st.integers(min_value=1, max_value=6),
       st.integers(min_value=7, max_value=14))
def test_raise_precision_is_consistent(pair, k1, k2):
    d, p = pair
    f = qf.QuadraticField(d)
    low = padic.split_embedding(f, p, k1)
    high = padic.raise_precision(low, k2)
    assert high.k == k2
    assert high.s % p**k1 == low.s
    assert (high.s * high.s - d) % p**k2 == 0


def test_embed_is_a_ring_map():
    f = qf.QuadraticField(82)
    emb = padic.split_embedding(f, 3, 8)
    mod = emb.modulus
    x = qf.element(f, 5, 2)
    y = qf.element(f, -3, 7)
    assert padic.embed(x + y, emb) == (padic.embed(x, emb) + padic.embed(y, emb)) % mod
    assert padic.embed(x * y, emb) == (padic.embed(x, emb) * padic.embed(y, emb)) % mod


def test_embed_handles_half_integers():
    f = qf.QuadraticField(13)  # 13 = 1 mod 4
    emb = padic.split_embedding(f, 3, 6)
    x = qf.element(f, 1, 1, 2)  # (1 + sqrt(13))/2
    got = padic.embed(x, emb)
    mod = emb.modulus
    assert (2 * got - 1 - emb.s) % mod == 0


def test_family_embedding_normalization():
    for (p, r, m) in [(3, 2, 1), (3, 3, 1), (5, 2, 1), (7, 2, 1), (3, 2, 2)]:
        fam = qf.construct_family(p, r, m)
        emb = padic.family_embedding(fam)
        mod = p ** min(emb.k, 2 * r)
        assert fam.b * emb.s % mod == 1 % mod
        # the other root p**k - s is -1/b: the other prime above p
        assert fam.b * (p**emb.k - emb.s) % mod == -1 % mod


def test_family_root_is_the_selected_hensel_root():
    # 1/b lifted to p**k against the former selection: the smallest Hensel
    # root, flipped to the other one unless b*s = 1 mod p**min(k, 2r)
    cells = [(p, r, m) for p in SMALL_ODD_PRIMES for r in range(2, 7) for m in (1, 2, 4)]
    cells += [(1093, 2, m) for m in (1, 2, 4)]
    pairs = 0
    for p, r, m in cells:
        fam = qf.construct_family(p, r, m)
        for k in [*range(1, 3 * r + 4), 64]:
            want = padic.hensel_sqrt(fam.d, p, k)
            mod = p ** min(k, 2 * r)
            if fam.b * want % mod != 1 % mod:
                want = p**k - want
            assert padic.family_embedding(fam, k).s == want, (p, r, m, k)
            pairs += 1
    assert pairs == 1230


def test_family_valuations_of_t_generators():
    # (b sqrt(d) - 1)(b sqrt(d) + 1) = m^2 p^(2r): all of it at one prime;
    # the other prime's valuation of x is the family prime's of conj(x)
    for (p, r, m) in [(3, 2, 1), (3, 3, 1), (5, 2, 1), (7, 2, 1), (3, 2, 2)]:
        fam = qf.construct_family(p, r, m)
        emb = padic.family_embedding(fam)
        minus = qf.element(fam.field, -1, fam.b)
        plus = qf.element(fam.field, 1, fam.b)
        assert padic.pvaluation(minus, emb) == 2 * r
        assert padic.pvaluation(plus, emb) == 0
        assert padic.pvaluation(minus.conj(), emb) == 0
        assert padic.pvaluation(plus.conj(), emb) == 2 * r


def test_pvaluation_of_rational_prime():
    fam = qf.construct_family(3, 2, 1)
    emb = padic.family_embedding(fam)
    assert padic.pvaluation(qf.element(fam.field, 3, 0), emb) == 1
    assert padic.pvaluation(qf.element(fam.field, 9, 0), emb) == 2
    assert padic.pvaluation(qf.element(fam.field, 5, 0), emb) == 0


def test_pvaluation_rejects_zero():
    fam = qf.construct_family(3, 2, 1)
    emb = padic.family_embedding(fam)
    with pytest.raises(ValueError):
        padic.pvaluation(qf.element(fam.field, 0, 0), emb)


def test_pvaluation_raises_at_cap():
    fam = qf.construct_family(3, 2, 1)
    emb = padic.family_embedding(fam, k=1)
    # 3^10 needs precision 11; cap of 4 must refuse, not truncate
    with pytest.raises(PrecisionExhausted) as exc:
        padic.pvaluation(qf.element(fam.field, 3**10, 0), emb, cap=4)
    assert str(exc.value) == "valuation at 3 unresolved at precision 4"


def test_congruence_order_raises_at_cap():
    # n2 = 2 at (3, 2): eps**2 - 1 reads 0 mod 3 and mod 9, so a cap of 2 refuses
    fam = qf.construct_family(3, 2, 1)
    emb = padic.family_embedding(fam, k=1)
    eps = qf.fundamental_unit(fam.field)
    with pytest.raises(PrecisionExhausted) as exc:
        padic.congruence_order(eps, emb, cap=2)
    assert str(exc.value) == "congruence order at 3 unresolved at precision 2"
    assert padic.congruence_order(eps, emb, cap=3) == 2


def test_congruence_order_requires_invertible():
    fam = qf.construct_family(3, 2, 1)
    emb = padic.family_embedding(fam)
    with pytest.raises(ValueError):
        padic.congruence_order(qf.element(fam.field, 3, 0), emb)


def test_unit_congruence_order_requires_unit():
    fam = qf.construct_family(3, 2, 1)
    emb = padic.family_embedding(fam)
    with pytest.raises(ValueError):
        padic.unit_congruence_order(qf.element(fam.field, 5, 0), emb)


def test_unit_congruence_order_known_values():
    # first family points, orders computed from the residues directly
    for (p, r), want in {(3, 2): 2, (3, 3): 3, (5, 2): 2, (7, 2): 2}.items():
        fam = qf.construct_family(p, r, 1)
        emb = padic.family_embedding(fam)
        eps = qf.fundamental_unit(fam.field)
        assert padic.unit_congruence_order(eps, emb) == want


def test_branch_independence_for_units():
    # unit orders agree at the two primes above p: conj(eps) = +-1/eps
    cases = [(82, 3), (626, 5), (2, 7)]
    for d, p in cases:
        f = qf.QuadraticField(d)
        eps = qf.fundamental_unit(f)
        e1 = padic.split_embedding(f, p, 10)
        e2 = replace(e1, s=p**10 - e1.s)
        assert padic.unit_congruence_order(eps, e1) == padic.unit_congruence_order(eps, e2)


@given(st.sampled_from([(82, 3), (626, 5), (2, 7)]),
       st.integers(min_value=1, max_value=10), st.sampled_from([1, -1]))
def test_order_transfer_under_unit_powers(case, k, sign):
    d, p = case
    assume(k % p)
    f = qf.QuadraticField(d)
    eps = qf.fundamental_unit(f)
    emb = padic.split_embedding(f, p, 12)
    t = eps**k if sign > 0 else -(eps**k)
    assert padic.unit_congruence_order(t, emb) == padic.unit_congruence_order(eps, emb)


# ---------------------------------------------------------------------------
# the quotient-ring route must agree with the embedding route


def test_omega_coords_roundtrip():
    f = qf.QuadraticField(13)
    x = qf.element(f, 3, 5, 2)
    a, b = padic.omega_coords(x)
    # x = a + b*omega with omega = (1 + sqrt(13))/2
    back = qf.element(f, 2 * a + b, b, 2)
    assert back == x
    g = qf.QuadraticField(82)
    y = qf.element(g, 4, -7)
    assert padic.omega_coords(y) == (4, -7)


@given(st.sampled_from(split_pairs()), st.integers(min_value=-30, max_value=30),
       st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=40))
def test_power_is_one_matches_embeddings(pair, u, v, e):
    d, p = pair
    f = qf.QuadraticField(d)
    x = qf.element(f, u, v)
    emb = padic.split_embedding(f, p, 2)
    r1, r2 = padic.embed(x, emb), padic.embed(x.conj(), emb)  # both primes above p
    assume(r1 % p and r2 % p)
    by_embedding = (pow(r1, e, p * p) == 1) and (pow(r2, e, p * p) == 1)
    assert padic.power_is_one_mod(x, e, p * p) == by_embedding


def test_power_is_one_epsilon_example():
    # eps(82)^2 = 1 mod 9 but eps(10)^2 != 1 mod 9
    f = qf.QuadraticField(82)
    assert padic.power_is_one_mod(qf.fundamental_unit(f), 2, 9)
    g = qf.QuadraticField(10)
    assert not padic.power_is_one_mod(qf.fundamental_unit(g), 2, 9)
