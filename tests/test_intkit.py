import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import binom_valuation, slow_perfect_power, squarefree_split, trial_factor

from pellrat import intkit
from pellrat.errors import IncompleteFactorization


def sieve(limit):
    flags = [True] * limit
    flags[0] = flags[1] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            for j in range(i * i, limit, i):
                flags[j] = False
    return {i for i, f in enumerate(flags) if f}


PRIMES_BELOW_10K = sieve(10_000)


def test_is_prime_matches_sieve():
    for n in range(2, 10_000):
        assert intkit.is_prime(n) == (n in PRIMES_BELOW_10K), n


def test_is_prime_rejects_strong_pseudoprimes():
    # classic base-2 strong pseudoprimes and a Carmichael number
    for n in (2047, 3277, 4033, 561, 341550071728321):
        assert not intkit.is_prime(n)
    assert intkit.is_prime(2**61 - 1)


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(sorted(PRIMES_BELOW_10K)[1:60]))
def test_jacobi_matches_euler_criterion(a, p):
    got = intkit.jacobi(a, p)
    if a % p == 0:
        assert got == 0
    else:
        euler = pow(a, (p - 1) // 2, p)
        assert got == (1 if euler == 1 else -1)


@given(st.integers(min_value=-10**9, max_value=10**9),
       st.integers(min_value=-10**9, max_value=10**9),
       st.integers(min_value=1, max_value=10**9).filter(lambda n: n % 2))
def test_jacobi_multiplicative(a, b, n):
    assert intkit.jacobi(a, n) * intkit.jacobi(b, n) == intkit.jacobi(a * b, n)


def test_jacobi_rejects_even_or_nonpositive_modulus():
    with pytest.raises(ValueError):
        intkit.jacobi(3, 10)
    with pytest.raises(ValueError):
        intkit.jacobi(3, -7)


@given(st.integers(min_value=2, max_value=10**5), st.sampled_from([2, 3, 5, 7, 11]))
def test_valuation_strips_exactly(n, p):
    v = intkit.valuation(n, p)
    assert n % p**v == 0 and (n // p**v) % p != 0


@given(st.sampled_from([3, 5, 7]), st.integers(min_value=1, max_value=6),
       st.data())
def test_binom_valuation_matches_comb(p, l, data):
    i = data.draw(st.integers(min_value=1, max_value=p**l))
    assert binom_valuation(p, l, i) == intkit.valuation(math.comb(p**l, i), p)


def test_perfect_power_picks_maximal_exponent():
    assert intkit.perfect_power(59049) == (3, 10)
    assert intkit.perfect_power(64) == (2, 6)
    assert intkit.perfect_power(36) == (6, 2)
    assert intkit.perfect_power(7) is None
    assert intkit.perfect_power(100) == (10, 2)


@given(st.integers(min_value=2, max_value=500), st.integers(min_value=2, max_value=7))
def test_perfect_power_roundtrip(base, exp):
    n = base**exp
    hit = intkit.perfect_power(n)
    assert hit is not None
    b, e = hit
    assert b**e == n and e >= exp
    assert hit == slow_perfect_power(n)


def test_perfect_power_matches_exponent_gcd_oracle():
    for n in range(2, 20_000):
        assert intkit.perfect_power(n) == slow_perfect_power(n), n


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=0, max_value=300),
       st.integers(min_value=1, max_value=10**4))
def test_binary_power_matches_repeated_mul(m, e, x):
    def mul(a, b):
        return a * b % m

    want = 1 % m
    for _ in range(e):
        want = mul(want, x)
    assert intkit.binary_power(mul, 1 % m, x, e) == want


def test_binary_power_of_exponent_zero_is_one():
    one = object()
    assert intkit.binary_power(None, one, 5, 0) is one


def test_binary_power_refuses_a_negative_exponent():
    with pytest.raises(ValueError):
        intkit.binary_power(lambda a, b: a * b % 9, 1, 2, -1)


@given(st.integers(min_value=2, max_value=10**7))
def test_factor_matches_trial_division(n):
    f = intkit.factor(n)
    assert f.complete
    assert dict(f.factors) == trial_factor(n)


def test_factor_handles_hard_composites():
    # product of two close 11-digit primes; far beyond trial range
    p, q = 10000000019, 10000000033
    f = intkit.factor(p * q)
    assert f.complete
    assert f.factors == ((p, 1), (q, 1))


def test_factor_zero_effort_reports_incomplete():
    f = intkit.factor(325, effort=0)
    assert not f.complete
    assert f.value == 325
    f5 = intkit.factor(325)
    assert f5.factors == ((5, 2), (13, 1))


def test_factor_small_effort_invariants():
    # the budget cuts trial division and rho short; what is listed stays proven
    for effort in (*range(9), 100):
        for n in range(2, 3_000):
            f = intkit.factor(n, effort)
            assert all(intkit.is_prime(p) for p, _ in f.factors), (n, effort)
            prod = math.prod(p**e for p, e in f.factors)
            assert f.value == n == prod * f.cofactor, (n, effort)
            assert f.complete == (f.cofactor == 1), (n, effort)


# 9973 is the last prime of the trial table and 10007 the first past it:
# these reach both stops of the trial loop (a prime past the effort or the
# table, and q * q > rem) and the small-cofactor shortcut at its boundary;
# without rho only the trial loop and the resumed scan can split a cofactor
@pytest.mark.parametrize("n", [9973**2, 10007**2, 9973 * 10007, 2**3 * 9973 * 10007,
                               9973**2 * 10007, 2**40 * 3])
@pytest.mark.parametrize("effort", [9972, 9973, 10**4, 10006, 10007, 20_000, 10**6])
@pytest.mark.parametrize("rho", [True, False])
def test_factor_at_the_trial_table_edges(monkeypatch, n, effort, rho):
    if not rho:
        monkeypatch.setattr(intkit, "_brent_rho", lambda n, budget: None)
    f = intkit.factor(n, effort)
    assert f.value == n == math.prod(p**e for p, e in f.factors) * f.cofactor
    assert f.complete == (f.cofactor == 1)
    if f.complete:
        assert dict(f.factors) == trial_factor(n)
    else:
        assert all(intkit.is_prime(p) for p, _ in f.factors)


def test_factor_trial_fallback_after_a_rho_miss(monkeypatch):
    # 10007 lies past the fast scan's 10**4, so only the resumed scan finds it
    monkeypatch.setattr(intkit, "_brent_rho", lambda n, budget: None)
    f = intkit.factor(3 * 10007 * 10009, 20_000)
    assert f.complete
    assert f.factors == ((3, 1), (10007, 1), (10009, 1))


def test_factorization_cofactor():
    f = intkit.factor(59050)
    assert f.factors == ((2, 1), (5, 2), (1181, 1))
    assert f.cofactor == 1


def test_factor_is_deterministic():
    n = 10000000019 * 10000000033 * 7
    assert intkit.factor(n).factors == intkit.factor(n).factors


@given(st.integers(min_value=1, max_value=10**6))
def test_squarefree_decompose_matches_oracle(n):
    assert intkit.squarefree_decompose(n) == squarefree_split(n)


def test_squarefree_decompose_raises_on_incomplete():
    n = 10000000019 * 10000000033
    with pytest.raises(IncompleteFactorization):
        intkit.squarefree_decompose(n, factorization=intkit.factor(n, 0))


def test_divisors_of_small():
    f = intkit.factor(60)
    assert sorted(intkit.divisors_of(f)) == [1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60]


@given(st.integers(min_value=1, max_value=10**6))
def test_divisors_of_matches_trial_division(n):
    divs = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    want = sorted(set(divs) | {n // d for d in divs})
    f = intkit.Factorization(n, tuple(sorted(trial_factor(n).items())), True)
    assert intkit.divisors_of(f) == want


def test_primes_up_to_matches_sieve():
    assert intkit.primes_up_to(9_999) == sorted(PRIMES_BELOW_10K)
    assert [intkit.primes_up_to(n) for n in range(4)] == [[], [], [2], [2, 3]]


def test_sqrt_mod_reduces_a_and_reaches_large_primes():
    # p = 5 mod 8 (5, 13, 29, ...) takes Atkin's root, and p = 1 mod 8
    # (17, 41, 73, 97, 113) runs the Tonelli-Shanks loop itself
    for p in sorted(PRIMES_BELOW_10K)[1:40]:
        for a in range(p):
            if a == 0 or pow(a, (p - 1) // 2, p) == 1:
                assert pow(intkit.sqrt_mod(a + 5 * p, p), 2, p) == a, (a, p)
    big = [1000000021, 1000000000061, 2305843009213693973,
           1000000000000000000000000000469]  # p = 5 mod 8
    for p in [q for q in sorted(PRIMES_BELOW_10K) if q % 8 == 5] + big:
        for x in range(1, 40):
            a = x * x % p
            assert pow(intkit.sqrt_mod(a, p), 2, p) == a, (a, p)


def test_sqrt_mod_misses_some_squares_mod_a_composite():
    # n = 5 mod 8 takes Atkin's root, checked by squaring back: each a gets
    # a true root or None, and so do squares the formula misses
    for n in (21, 45, 85):
        squares = {x * x % n for x in range(n)}
        refused = set()
        for a in range(n):
            root = intkit.sqrt_mod(a, n)
            if root is None:
                refused.add(a)
            else:
                assert root * root % n == a, (a, n)
        assert refused & squares, n


def test_sqrt_mod_answers_a_composite_modulus_at_once():
    # a = 1 starts the Tonelli-Shanks loop of 9 and 25 at t = 1, so the true
    # root 1 comes back; 4 mod 121 leaves a t of order 2**m, as a non-square
    # would; Atkin's root of 4 mod 21 (7) and the n = 3 mod 4 shortcut's
    # root of 2 mod 15 (and of the non-square 3 mod 7) do not square back
    for a, n, want in ((1, 9, 1), (1, 25, 1), (4, 121, None), (4, 21, None), (2, 15, None),
                       (3, 7, None)):
        start = time.perf_counter()
        assert intkit.sqrt_mod(a, n) == want, (a, n)
        assert time.perf_counter() - start < 0.5, n


# p - 1 = 15 * 2**9, 3 * 2**12, 5 * 2**13 and 2**16: the Tonelli-Shanks
# loop of `sqrt_mod` runs longest there
HIGH_TWO_POWER_PRIMES = [7681, 12289, 40961, 65537]


def _sqrt_mod_matches_the_squares(primes):
    for p in primes:
        squares = {x * x % p for x in range(p)}
        for a in range(p):
            root = intkit.sqrt_mod(a, p)
            if a in squares:
                assert root is not None and root * root % p == a, (a, p)
            else:
                assert root is None, (a, p)


def test_sqrt_mod_finds_every_root_and_no_false_one():
    # every residue mod every odd prime below 3000: squares square back, and
    # a non-square gets None from the same power, without raising
    _sqrt_mod_matches_the_squares(
        [p for p in sorted(PRIMES_BELOW_10K) if 2 < p < 3000] + HIGH_TWO_POWER_PRIMES)


def test_sqrt_mod_past_the_reciprocity_table(monkeypatch):
    # the least non-square mod p = 1 mod 8 is read off the squares mod the
    # primes up to 97; it is the one Euler's criterion finds first
    for p in [q for q in sorted(PRIMES_BELOW_10K) if q % 8 == 1] + HIGH_TWO_POWER_PRIMES:
        z = intkit._non_residue(p)
        assert z == next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1), p
    # past the table Euler's criterion takes over, and refuses a composite
    monkeypatch.setattr(intkit, "_SQUARES_MOD", ())
    _sqrt_mod_matches_the_squares([q for q in sorted(PRIMES_BELOW_10K) if q % 8 == 1][:12]
                                  + HIGH_TWO_POWER_PRIMES[:1])
    assert intkit._non_residue(9) is None and intkit._non_residue(17 * 41) is None


def test_sqrt_mod_gives_only_true_roots_mod_a_composite():
    # the Tonelli-Shanks loop keeps root**2 = a*t, and the other branches
    # square back, so an odd composite modulus yields a root or None
    for n in range(9, 3000, 2):
        if n not in PRIMES_BELOW_10K:
            for a in range(min(n, 50)):
                root = intkit.sqrt_mod(a, n)
                assert root is None or root * root % n == a, (a, n)


def test_wieferich_catalog():
    hits = [p for p in sorted(PRIMES_BELOW_10K) if intkit.is_wieferich(p)]
    assert hits == [1093, 3511]
