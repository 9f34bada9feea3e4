import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (addition_identity_check, g_gcd_oracle, pair_reduce, slow_pell,
                     slow_prime_power_hits)

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


def test_prime_power_search_matches_division_oracle():
    # the walked power against repeated division, every odd prime below 200
    for p in range(3, 200, 2):
        if all(p % q for q in range(3, p, 2)):
            assert pellseq.prime_power_search(p, 3000) == slow_prime_power_hits(p, 3000)


def test_prime_power_search_validates():
    with pytest.raises(ValueError):
        pellseq.prime_power_search(4, 100)
    with pytest.raises(ValueError):
        pellseq.prime_power_search(9, 100)
    with pytest.raises(ValueError):
        pellseq.prime_power_search(3, -1)


def test_prime_power_search_finds_planted_hit(monkeypatch):
    # a synthetic sequence with exactly one prime power: checks that the
    # scan actually certifies hits instead of hard-coding emptiness
    fake = [1, 1, 3, 7, 27, 41]

    def fake_sequence(n_max):
        return fake[: n_max + 1]

    monkeypatch.setattr(pellseq, "g_values", fake_sequence)
    assert pellseq.prime_power_search(3, 5) == [(4, 3)]


def test_prime_power_search_finds_planted_square(monkeypatch):
    # the smallest exponent that counts: G_3 = 3**2, after G_2 = 3**1
    fake = [1, 1, 3, 9, 17, 41]

    def fake_sequence(n_max):
        return fake[: n_max + 1]

    monkeypatch.setattr(pellseq, "g_values", fake_sequence)
    assert pellseq.prime_power_search(3, 5) == [(3, 2)]


def test_prime_power_search_two_hits_is_a_defect(monkeypatch):
    fake = [1, 1, 3, 9, 27, 41]

    def fake_sequence(n_max):
        return fake[: n_max + 1]

    monkeypatch.setattr(pellseq, "g_values", fake_sequence)
    with pytest.raises(DefectError):
        pellseq.prime_power_search(3, 5)
