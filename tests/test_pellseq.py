import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (addition_identity_check, g_gcd_oracle, pair_reduce, slow_least_g_multiple,
                     slow_pell, slow_prime_power_hits)

from pellrat import pellseq
from pellrat.errors import DefectError


def test_frozen_prefix():
    gs = [pellseq.pell_pair(n).g for n in range(9)]
    fs = [pellseq.pell_pair(n).f for n in range(9)]
    assert gs == [1, 1, 3, 7, 17, 41, 99, 239, 577]
    assert fs == [0, 1, 2, 5, 12, 29, 70, 169, 408]


def test_pell_pair_matches_recurrence_oracle():
    for n in range(-200, 201):
        pair = pellseq.pell_pair(n)
        assert (pair.g, pair.f) == slow_pell(n), n


def test_negative_index_signs():
    for n in range(1, 201):
        pos = pellseq.pell_pair(n)
        neg = pellseq.pell_pair(-n)
        assert neg.g == (-1) ** n * pos.g
        assert neg.f == (-1) ** (n + 1) * pos.f


@given(st.integers(min_value=-300, max_value=300))
def test_norm_identity(n):
    pair = pellseq.pell_pair(n)
    assert pair.g**2 - 2 * pair.f**2 == (-1) ** (n % 2)


def test_g_sequence_agrees_with_pell_pair():
    seq = pellseq.g_sequence(50)
    assert len(seq) == 51
    for n, g in enumerate(seq):
        assert g == pellseq.pell_pair(n).g


@given(st.integers(min_value=-80, max_value=80),
       st.integers(min_value=-80, max_value=80))
def test_addition_identity(l, m):
    assert addition_identity_check(l, m)


@given(st.integers(min_value=1, max_value=300),
       st.integers(min_value=1, max_value=300))
def test_g_gcd_matches_oracle(l, m):
    assert pellseq.g_gcd(l, m) == g_gcd_oracle(l, m)


def test_g_gcd_both_valuation_branches():
    # equal 2-valuations: gcd index gcd(l, m) carries over
    assert pellseq.g_gcd(6, 2) == 3  # v2 equal: G_gcd(6,2) = G_2 = 3
    assert pellseq.g_gcd(10, 6) == pellseq.pell_pair(2).g
    assert pellseq.g_gcd(12, 20) == pellseq.pell_pair(4).g
    # mismatched 2-valuations: the gcd collapses to 1
    assert pellseq.g_gcd(4, 2) == 1
    assert pellseq.g_gcd(1, 2) == 1
    assert pellseq.g_gcd(3, 6) == 1


@given(st.integers(min_value=1, max_value=400),
       st.integers(min_value=1, max_value=400))
def test_pair_reduce_preserves_gcd_and_terminates(l, r):
    a, b = pair_reduce(l, r)
    assert math.gcd(pellseq.pell_pair(a).g, pellseq.pell_pair(b).g) == \
        g_gcd_oracle(l, r)


def test_pair_reduce_rejects_negative():
    with pytest.raises(ValueError):
        pair_reduce(-1, 3)
    with pytest.raises(ValueError):
        pair_reduce(3, -1)


def test_prime_power_search_empty_for_small_primes():
    for p in (3, 7, 17, 41, 239):
        assert pellseq.prime_power_search(p, 500) == []


ODD_PRIMES_BELOW_400 = [p for p in range(3, 400, 2) if all(p % q for q in range(3, p, 2))]


def test_least_index_divisible_matches_streaming():
    # n0 = w/2 <= (p + 1)/2, so the walk's range holds every first multiple
    for p in ODD_PRIMES_BELOW_400:
        assert pellseq._least_index_divisible(p, (p + 1) // 2) == slow_least_g_multiple(p), p


def test_prime_power_search_matches_division_oracle():
    # the one-candidate route against repeated division of every streamed G_n
    for p in ODD_PRIMES_BELOW_400:
        n0 = slow_least_g_multiple(p)
        ns = {0, 1, 5000} if n0 is None else {0, 1, n0 - 1, n0, 5000}
        for n_max in sorted(ns):
            assert pellseq.prime_power_search(p, n_max) == \
                slow_prime_power_hits(p, n_max), (p, n_max)


def test_no_multiple_of_p_when_its_rank_is_odd():
    # w, the least n >= 1 with p | F_n, streamed from the recurrence
    odd_rank = []
    for p in ODD_PRIMES_BELOW_400:
        f0, f1, w = 0, 1, 1
        while f1 % p:
            f0, f1, w = f1, 2 * f1 + f0, w + 1
        if w % 2:
            odd_rank.append(p)
            assert slow_least_g_multiple(p) is None, p
            assert pellseq._least_index_divisible(p, 2 * p + 2) is None, p
            assert pellseq.prime_power_search(p, 10**9) == [], p
    assert 5 in odd_rank


def test_prime_power_search_walks_at_most_n_max_steps(monkeypatch):
    # n0 = 500002 for p = 1000003: the walk must stop at n_max, not at n0
    limits = []
    walk = pellseq._least_index_divisible

    def counted(p, limit):
        limits.append(limit)
        return walk(p, limit)

    monkeypatch.setattr(pellseq, "_least_index_divisible", counted)
    assert pellseq.prime_power_search(1000003, 20000) == []
    assert limits == [20000]


def test_prime_power_search_validates():
    with pytest.raises(ValueError):
        pellseq.prime_power_search(4, 100)
    with pytest.raises(ValueError):
        pellseq.prime_power_search(9, 100)
    with pytest.raises(ValueError):
        pellseq.prime_power_search(3, -1)


def plant_g(monkeypatch, g):
    # the exact G_n the search reads at p = 3, whose walk stops at n0 = 2
    def planted_pair(n):
        assert n == 2
        return pellseq.PellPair(n=n, g=g, f=0)

    monkeypatch.setattr(pellseq, "pell_pair", planted_pair)


def test_prime_power_search_finds_planted_hit(monkeypatch):
    # a planted pure power at n0: checks that the search certifies hits
    # instead of hard-coding emptiness
    plant_g(monkeypatch, 27)
    assert pellseq.prime_power_search(3, 5) == [(2, 3)]


def test_prime_power_search_finds_planted_square(monkeypatch):
    # the smallest exponent that counts; 3 * 7 is divisible but no power
    plant_g(monkeypatch, 9)
    assert pellseq.prime_power_search(3, 5) == [(2, 2)]
    plant_g(monkeypatch, 21)
    assert pellseq.prime_power_search(3, 5) == []


def test_prime_power_search_two_hits_is_a_defect(monkeypatch):
    # the walk mod 3 stops at n = 2, so an exact G_2 that 3 does not divide
    # means the two computations disagree
    plant_g(monkeypatch, 41)
    with pytest.raises(DefectError):
        pellseq.prime_power_search(3, 5)
